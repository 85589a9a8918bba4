/**
 * @file
 * Test oracles for BDD evaluation, read straight off a manager's node
 * accessors.
 *
 * referenceProbability() is the textbook recursive Shannon expansion.
 * It shares no code with the engine's evaluator (bdd::FrozenDiagram)
 * but computes every node as p * P(high) + (1 - p) * P(low), the
 * engine's expression and operand order, so the two must agree to
 * the last bit.
 *
 * referenceGradient() is the definition of Birnbaum importance,
 * P(f | x_i = 1) - P(f | x_i = 0), taken on the unavailability side
 * (U(x_i = 0) - U(x_i = 1), U = P(!f)) one variable at a time and in
 * long double, so it shares neither the engine's adjoint pass nor
 * its rounding.
 *
 * Recursion depth is the variable count; keep both to test-sized
 * diagrams. The gradient costs one pass over the diagram above each
 * variable's level.
 */

#ifndef SDNAV_TESTS_SUPPORT_REFERENCE_PROBABILITY_HH
#define SDNAV_TESTS_SUPPORT_REFERENCE_PROBABILITY_HH

#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

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

/**
 * P(!f) in long double. memo is indexed by ref, NaN = not yet known;
 * seed it with the terminals (false: 1, true: 0) before the call.
 */
inline long double
referenceUnavailability(const bdd::BddManager &m, bdd::NodeRef f,
                        std::span<const double> probs,
                        std::vector<long double> &memo)
{
    if (!std::isnan(memo[f]))
        return memo[f];
    long double p = probs[m.nodeVariable(f)];
    memo[f] =
        p * referenceUnavailability(m, m.nodeHigh(f), probs, memo) +
        (1.0L - p) * referenceUnavailability(m, m.nodeLow(f), probs, memo);
    return memo[f];
}

/**
 * U(f | x_i = 0) - U(f | x_i = 1). The two conditioned recursions
 * differ only above x_i's level, and by linearity their difference
 * follows the same Shannon recursion, so it is carried down directly
 * instead of subtracting two nearly equal unavailabilities. u holds
 * the unconditioned unavailabilities (referenceUnavailability()).
 */
inline long double
referenceConditionedDifference(const bdd::BddManager &m, bdd::NodeRef f,
                               unsigned i, std::span<const double> probs,
                               const std::vector<long double> &u,
                               std::vector<long double> &memo,
                               std::vector<bdd::NodeRef> &memoized)
{
    if (bdd::BddManager::terminal(f))
        return 0.0L;
    unsigned v = m.nodeVariable(f);
    // An ordered diagram cannot test x_i below x_i's level.
    if (m.levelOfVariable(v) > m.levelOfVariable(i))
        return 0.0L;
    if (!std::isnan(memo[f]))
        return memo[f];
    long double d;
    if (v == i) {
        d = u[m.nodeLow(f)] - u[m.nodeHigh(f)];
    } else {
        long double p = probs[v];
        d = p * referenceConditionedDifference(m, m.nodeHigh(f), i, probs,
                                               u, memo, memoized) +
            (1.0L - p) * referenceConditionedDifference(
                             m, m.nodeLow(f), i, probs, u, memo,
                             memoized);
    }
    memo[f] = d;
    memoized.push_back(f);
    return d;
}

/**
 * dP(f)/dp_i = U(f | x_i = 0) - U(f | x_i = 1) for every
 * i < probs.size(), each variable conditioned in turn.
 */
inline std::vector<long double>
referenceGradient(const bdd::BddManager &m, bdd::NodeRef f,
                  std::span<const double> probs)
{
    constexpr long double unknown =
        std::numeric_limits<long double>::quiet_NaN();
    std::vector<long double> u(m.totalNodes(), unknown);
    u[bdd::falseNode] = 1.0L;
    u[bdd::trueNode] = 0.0L;
    referenceUnavailability(m, f, probs, u);
    std::vector<long double> memo(m.totalNodes(), unknown);
    std::vector<bdd::NodeRef> memoized;
    std::vector<long double> grad(probs.size(), 0.0L);
    for (unsigned i = 0; i < probs.size() && i < m.variableCount(); ++i) {
        grad[i] = referenceConditionedDifference(m, f, i, probs, u, memo,
                                                 memoized);
        for (bdd::NodeRef ref : memoized)
            memo[ref] = unknown;
        memoized.clear();
    }
    return grad;
}

} // namespace sdnav::test

#endif // SDNAV_TESTS_SUPPORT_REFERENCE_PROBABILITY_HH
