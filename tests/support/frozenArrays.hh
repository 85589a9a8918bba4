/**
 * @file
 * Byte-level access to a bdd::FrozenDiagram's arrays, for tests that
 * hold a diagram to another one or to a pinned value.
 *
 * Two diagrams are the same evaluation only if their arrays are equal
 * element by element: the same root slot, the same children in the
 * same slots and the same runs of classes. Equal probabilities at a
 * few points would not show a renumbering within a level, which
 * changes gradient()'s summation order and so its bits.
 */

#ifndef SDNAV_TESTS_SUPPORT_FROZEN_ARRAYS_HH
#define SDNAV_TESTS_SUPPORT_FROZEN_ARRAYS_HH

#include <cstdint>
#include <vector>

#include "bdd/bdd.hh"

namespace sdnav::bdd
{

struct FrozenArrays
{
    /** True when every array and the root are equal. */
    static bool
    equal(const FrozenDiagram &a, const FrozenDiagram &b)
    {
        return a.root_ == b.root_ && a.low_ == b.low_ &&
               a.high_ == b.high_ && a.runStart_ == b.runStart_ &&
               a.runClass_ == b.runClass_;
    }

    /**
     * FNV-1a over the root, then each array's length and elements in
     * the order low, high, run starts, run classes.
     */
    static std::uint64_t
    digest(const FrozenDiagram &d)
    {
        std::uint64_t hash = 1469598103934665603ULL;
        auto mix = [&hash](std::uint64_t word) {
            hash ^= word;
            hash *= 1099511628211ULL;
        };
        mix(d.root_);
        for (const std::vector<std::uint32_t> *array :
             {&d.low_, &d.high_, &d.runStart_, &d.runClass_}) {
            mix(array->size());
            for (std::uint32_t x : *array)
                mix(x);
        }
        return hash;
    }
};

} // namespace sdnav::bdd

#endif // SDNAV_TESTS_SUPPORT_FROZEN_ARRAYS_HH
