/**
 * @file
 * An STL allocator that serves large blocks straight from the OS.
 *
 * The BDD hot paths read multi-megabyte arrays in data-dependent
 * order: the node arena (compile) and the per-eval value buffer
 * (evaluation gathers children's values). When those arrays come
 * from the general-purpose heap their page placement depends on every
 * allocation and free the process made before them. glibc's mmap
 * threshold *slides up* after large frees, so a model compiled after
 * cache evictions can land in recycled, fragmented heap pages and
 * evaluate ~1.5x slower than the identical model in fresh pages —
 * observed as bimodal BENCH_server cache-hit latency that flipped on
 * unrelated one-line changes. Blocks of kMinMapBytes or more
 * therefore bypass malloc and map fresh anonymous pages (hinted
 * THP-eligible): placement no longer depends on heap history. Small
 * blocks stay on the regular heap, where locality matters more than
 * determinism and page-granular mappings would waste memory.
 */

#ifndef SDNAV_BDD_PAGE_ALLOC_HH
#define SDNAV_BDD_PAGE_ALLOC_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace sdnav::bdd
{

template <class T> class PageAllocator
{
  public:
    using value_type = T;
    using is_always_equal = std::true_type;

    /** Smallest block that goes to the OS instead of the heap. */
    static constexpr std::size_t kMinMapBytes = 256 * 1024;

    PageAllocator() noexcept = default;
    template <class U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }
    template <class U> struct rebind
    {
        using other = PageAllocator<U>;
    };

    T *
    allocate(std::size_t n)
    {
        std::size_t bytes = n * sizeof(T);
#if defined(__linux__)
        if (bytes >= kMinMapBytes) {
            void *p =
                ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc{};
#ifdef MADV_HUGEPAGE
            ::madvise(p, bytes, MADV_HUGEPAGE);
#endif
            return static_cast<T *>(p);
        }
#endif
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        std::size_t bytes = n * sizeof(T);
#if defined(__linux__)
        if (bytes >= kMinMapBytes) {
            ::munmap(p, bytes);
            return;
        }
#endif
        ::operator delete(p);
    }

    friend bool
    operator==(const PageAllocator &, const PageAllocator &) noexcept
    {
        return true;
    }
    friend bool
    operator!=(const PageAllocator &, const PageAllocator &) noexcept
    {
        return false;
    }
};

/** A vector whose large backing blocks come from PageAllocator. */
template <class T> using PageVector = std::vector<T, PageAllocator<T>>;

} // namespace sdnav::bdd

#endif // SDNAV_BDD_PAGE_ALLOC_HH
