/**
 * @file
 * Test oracle for BDD probability evaluation: the textbook recursive
 * Shannon expansion, read straight off a manager's node accessors.
 *
 * It shares no code with the engine's evaluator (bdd::FrozenDiagram)
 * but computes every node as p * P(high) + (1 - p) * P(low), the
 * engine's expression and operand order, so the two must agree to
 * the last bit. Recursion depth is the variable count; keep it to
 * test-sized diagrams.
 */

#ifndef SDNAV_TESTS_SUPPORT_REFERENCE_PROBABILITY_HH
#define SDNAV_TESTS_SUPPORT_REFERENCE_PROBABILITY_HH

#include <span>
#include <unordered_map>

#include "bdd/bdd.hh"

namespace sdnav::test
{

inline double
referenceProbability(const bdd::BddManager &m, bdd::NodeRef f,
                     std::span<const double> probs,
                     std::unordered_map<bdd::NodeRef, double> &memo)
{
    if (f == bdd::falseNode)
        return 0.0;
    if (f == bdd::trueNode)
        return 1.0;
    if (auto it = memo.find(f); it != memo.end())
        return it->second;
    double p = probs[m.nodeVariable(f)];
    double high = referenceProbability(m, m.nodeHigh(f), probs, memo);
    double low = referenceProbability(m, m.nodeLow(f), probs, memo);
    double value = p * high + (1.0 - p) * low;
    memo.emplace(f, value);
    return value;
}

/** Probability that f is true under independent per-variable probs. */
inline double
referenceProbability(const bdd::BddManager &m, bdd::NodeRef f,
                     std::span<const double> probs)
{
    std::unordered_map<bdd::NodeRef, double> memo;
    return referenceProbability(m, f, probs, memo);
}

} // namespace sdnav::test

#endif // SDNAV_TESTS_SUPPORT_REFERENCE_PROBABILITY_HH
