/**
 * @file
 * Tests for the ROBDD engine, including exhaustive cross-checks of
 * probability evaluation against brute-force enumeration.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "prob/combinatorics.hh"
#include "prob/rng.hh"
#include "support/frozenArrays.hh"
#include "support/referenceProbability.hh"

namespace
{

using namespace sdnav::bdd;
using sdnav::test::referenceGradient;
using sdnav::test::referenceProbability;

/** 0-ulp equality: the same bit pattern, not just the same value. */
void
expectSameBits(double actual, double expected)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
              std::bit_cast<std::uint64_t>(expected))
        << actual << " vs " << expected;
}

/** P(f) through a frozen copy, the one evaluation route. */
double
frozenProbability(BddManager &m, NodeRef f,
                  const std::vector<double> &probs)
{
    ProbabilityScratch scratch;
    return m.freeze(f).probability(probs, scratch);
}

/**
 * A frozen copy must hold exactly the reachable nodes, match the
 * reference probability bit for bit, and match the reference
 * gradient. The gradient tolerance is absolute: these functions are
 * not monotone, so a derivative can be a near-cancelling sum.
 */
void
expectFrozenMatchesReference(BddManager &m, NodeRef f,
                             const std::vector<double> &probs,
                             ProbabilityScratch &scratch)
{
    FrozenDiagram frozen = m.freeze(f);
    EXPECT_EQ(frozen.nodeCount(), m.nodeCount(f));
    expectSameBits(frozen.probability(probs, scratch),
                   referenceProbability(m, f, probs));
    std::vector<double> grad;
    frozen.gradient(probs, scratch, grad);
    std::vector<long double> expected = referenceGradient(m, f, probs);
    ASSERT_EQ(grad.size(), expected.size());
    for (std::size_t i = 0; i < grad.size(); ++i) {
        EXPECT_NEAR(grad[i], static_cast<double>(expected[i]), 1e-12)
            << "variable " << i;
    }
}

/**
 * A random expression pool over n variables: the n literals, then
 * `steps` random AND/OR/XOR/NOT combinations of earlier entries.
 */
std::vector<NodeRef>
randomPool(BddManager &m, sdnav::prob::Rng &rng, unsigned n, int steps)
{
    std::vector<NodeRef> pool;
    for (unsigned i = 0; i < n; ++i)
        pool.push_back(m.var(i));
    for (int step = 0; step < steps; ++step) {
        NodeRef a = pool[rng.uniformInt(pool.size())];
        NodeRef b = pool[rng.uniformInt(pool.size())];
        switch (rng.uniformInt(4)) {
          case 0:
            pool.push_back(m.andOp(a, b));
            break;
          case 1:
            pool.push_back(m.orOp(a, b));
            break;
          case 2:
            pool.push_back(m.xorOp(a, b));
            break;
          default:
            pool.push_back(m.notOp(a));
            break;
        }
    }
    return pool;
}

TEST(Bdd, TerminalsAreFixed)
{
    BddManager m;
    EXPECT_EQ(m.andOp(trueNode, trueNode), trueNode);
    EXPECT_EQ(m.andOp(trueNode, falseNode), falseNode);
    EXPECT_EQ(m.orOp(falseNode, falseNode), falseNode);
    EXPECT_EQ(m.orOp(trueNode, falseNode), trueNode);
    EXPECT_EQ(m.notOp(trueNode), falseNode);
    EXPECT_EQ(m.notOp(falseNode), trueNode);
}

TEST(Bdd, HashConsingGivesCanonicalNodes)
{
    BddManager m;
    NodeRef x = m.var(0);
    NodeRef y = m.var(1);
    // Same function built two ways must be the same node.
    EXPECT_EQ(m.andOp(x, y), m.andOp(y, x));
    EXPECT_EQ(m.orOp(x, y), m.notOp(m.andOp(m.notOp(x), m.notOp(y))));
    EXPECT_EQ(m.var(0), x);
}

TEST(Bdd, DoubleNegationIsIdentity)
{
    BddManager m;
    NodeRef x = m.var(0);
    NodeRef f = m.orOp(x, m.andOp(m.var(1), m.var(2)));
    EXPECT_EQ(m.notOp(m.notOp(f)), f);
}

TEST(Bdd, IdempotentAndAbsorbing)
{
    BddManager m;
    NodeRef f = m.xorOp(m.var(0), m.var(1));
    EXPECT_EQ(m.andOp(f, f), f);
    EXPECT_EQ(m.orOp(f, f), f);
    EXPECT_EQ(m.andOp(f, trueNode), f);
    EXPECT_EQ(m.orOp(f, falseNode), f);
    EXPECT_EQ(m.andOp(f, falseNode), falseNode);
    EXPECT_EQ(m.orOp(f, trueNode), trueNode);
}

TEST(Bdd, XorTruthTable)
{
    BddManager m;
    NodeRef f = m.xorOp(m.var(0), m.var(1));
    std::vector<bool> assign(2);
    for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
            assign[0] = a;
            assign[1] = b;
            EXPECT_EQ(m.evaluate(f, assign), (a ^ b) != 0);
        }
    }
}

TEST(Bdd, ContradictionAndTautology)
{
    BddManager m;
    NodeRef x = m.var(3);
    EXPECT_EQ(m.andOp(x, m.notOp(x)), falseNode);
    EXPECT_EQ(m.orOp(x, m.notOp(x)), trueNode);
    EXPECT_EQ(m.nvar(3), m.notOp(x));
}

TEST(Bdd, ProbabilityOfSingleVariable)
{
    BddManager m;
    NodeRef x = m.var(0);
    std::vector<double> probs{0.3};
    EXPECT_NEAR(frozenProbability(m, x, probs), 0.3, 1e-15);
    EXPECT_NEAR(frozenProbability(m, m.notOp(x), probs), 0.7, 1e-15);
}

TEST(Bdd, ProbabilityOfIndependentAndOr)
{
    BddManager m;
    NodeRef f_and = m.andOp(m.var(0), m.var(1));
    NodeRef f_or = m.orOp(m.var(0), m.var(1));
    std::vector<double> probs{0.9, 0.8};
    EXPECT_NEAR(frozenProbability(m, f_and, probs), 0.72, 1e-15);
    EXPECT_NEAR(frozenProbability(m, f_or, probs), 0.98, 1e-15);
}

TEST(Bdd, GradientIsBirnbaumImportance)
{
    // d(p0 p1)/dp0 = p1; d(1 - (1 - p0)(1 - p1))/dp0 = 1 - p1.
    BddManager m;
    std::vector<double> probs{0.9, 0.8};
    ProbabilityScratch scratch;
    std::vector<double> grad;
    m.freeze(m.andOp(m.var(0), m.var(1))).gradient(probs, scratch, grad);
    ASSERT_EQ(grad.size(), 2u);
    EXPECT_NEAR(grad[0], 0.8, 1e-15);
    EXPECT_NEAR(grad[1], 0.9, 1e-15);
    m.freeze(m.orOp(m.var(0), m.var(1))).gradient(probs, scratch, grad);
    EXPECT_NEAR(grad[0], 0.2, 1e-15);
    EXPECT_NEAR(grad[1], 0.1, 1e-15);
    // A negated literal has a negative derivative.
    m.freeze(m.nvar(1)).gradient(probs, scratch, grad);
    EXPECT_EQ(grad[0], 0.0);
    EXPECT_EQ(grad[1], -1.0);
}

TEST(Bdd, GradientOfAbsentVariablesIsExactlyZero)
{
    BddManager m;
    NodeRef f = m.xorOp(m.var(0), m.var(2));
    // probs may run past the diagram's variables; the gradient covers
    // all of them.
    std::vector<double> probs{0.3, 0.4, 0.6, 0.7};
    ProbabilityScratch scratch;
    std::vector<double> grad{5.0};
    m.freeze(f).gradient(probs, scratch, grad);
    ASSERT_EQ(grad.size(), 4u);
    EXPECT_EQ(grad[1], 0.0);
    EXPECT_EQ(grad[3], 0.0);
    EXPECT_NEAR(grad[0], 1.0 - 2.0 * 0.6, 1e-15);
    EXPECT_NEAR(grad[2], 1.0 - 2.0 * 0.3, 1e-15);
}

TEST(Bdd, ProbabilityHandlesSharedVariables)
{
    BddManager m;
    // f = (x & y) | (x & z): NOT independent blocks; exact value is
    // p_x (p_y + p_z - p_y p_z).
    NodeRef f = m.orOp(m.andOp(m.var(0), m.var(1)),
                       m.andOp(m.var(0), m.var(2)));
    std::vector<double> p{0.5, 0.6, 0.7};
    double expected = 0.5 * (0.6 + 0.7 - 0.42);
    EXPECT_NEAR(frozenProbability(m, f, p), expected, 1e-15);
}

TEST(Bdd, ProbabilityRejectsShortVector)
{
    BddManager m;
    NodeRef f = m.var(5);
    std::vector<double> p{0.5};
    ProbabilityScratch scratch;
    EXPECT_THROW(m.freeze(f).probability(p, scratch), sdnav::ModelError);
    std::vector<double> grad;
    EXPECT_THROW(m.freeze(f).gradient(p, scratch, grad),
                 sdnav::ModelError);
    // The rejected calls leave the scratch usable.
    expectSameBits(m.freeze(m.var(0)).probability(p, scratch), 0.5);
}

TEST(Bdd, FrozenConstantsNeedNoProbabilities)
{
    BddManager m;
    ProbabilityScratch scratch;
    std::vector<double> none;
    EXPECT_EQ(m.freeze(trueNode).nodeCount(), 0u);
    EXPECT_EQ(m.freeze(falseNode).nodeCount(), 0u);
    expectSameBits(m.freeze(trueNode).probability(none, scratch), 1.0);
    expectSameBits(m.freeze(falseNode).probability(none, scratch), 0.0);
    expectSameBits(FrozenDiagram().probability(none, scratch), 0.0);
    // A constant does not depend on any variable.
    std::vector<double> probs{0.3, 0.6};
    std::vector<double> grad;
    for (NodeRef constant : {trueNode, falseNode}) {
        m.freeze(constant).gradient(probs, scratch, grad);
        EXPECT_EQ(grad, std::vector<double>(2, 0.0));
    }
    FrozenDiagram().gradient(none, scratch, grad);
    EXPECT_TRUE(grad.empty());
}

TEST(Bdd, FrozenDiagramOutlivesItsManager)
{
    std::vector<double> probs{0.9, 0.8, 0.7, 0.6, 0.5};
    FrozenDiagram frozen;
    double expected = 0.0;
    {
        BddManager m;
        std::vector<NodeRef> vars;
        for (unsigned i = 0; i < probs.size(); ++i)
            vars.push_back(m.var(i));
        NodeRef f = m.xorOp(m.atLeast(vars, 3), m.var(2));
        expected = referenceProbability(m, f, probs);
        frozen = m.freeze(f);
    }
    ProbabilityScratch scratch;
    expectSameBits(frozen.probability(probs, scratch), expected);
}

TEST(Bdd, ScratchEvaluationMatchesPlainEvaluation)
{
    BddManager m;
    NodeRef f = m.orOp(m.andOp(m.var(0), m.var(1)),
                       m.andOp(m.var(1), m.notOp(m.var(2))));
    std::vector<double> p{0.2, 0.6, 0.9};
    ProbabilityScratch scratch;
    EXPECT_EQ(m.freeze(f).probability(p, scratch),
              referenceProbability(m, f, p));
}

TEST(Bdd, ScratchIsReusableAcrossFunctionsAndManagers)
{
    ProbabilityScratch scratch;
    BddManager m;
    std::vector<NodeRef> vars{m.var(0), m.var(1), m.var(2)};
    std::vector<double> p{0.9, 0.8, 0.7};
    // Interleave different functions, and gradients (which use twice
    // the buffer), through one scratch; each call must be independent
    // of what the scratch held before.
    std::vector<double> grad;
    for (unsigned k = 0; k <= 3; ++k) {
        NodeRef f = m.atLeast(vars, k);
        FrozenDiagram frozen = m.freeze(f);
        EXPECT_EQ(frozen.probability(p, scratch),
                  referenceProbability(m, f, p))
            << "k=" << k;
        frozen.gradient(p, scratch, grad);
        EXPECT_EQ(frozen.probability(p, scratch),
                  referenceProbability(m, f, p))
            << "k=" << k;
    }
    scratch.clear();
    BddManager other;
    NodeRef g = other.xorOp(other.var(0), other.var(1));
    std::vector<double> q{0.25, 0.5};
    EXPECT_EQ(other.freeze(g).probability(q, scratch),
              referenceProbability(other, g, q));
}

TEST(Bdd, ScratchEvaluationDoesNotGrowManager)
{
    BddManager m;
    std::vector<NodeRef> vars;
    for (unsigned i = 0; i < 12; ++i)
        vars.push_back(m.var(i));
    NodeRef f = m.atLeast(vars, 7);
    std::size_t nodes = m.totalNodes();
    ProbabilityScratch scratch;
    std::vector<double> p(12, 0.75);
    for (int rep = 0; rep < 100; ++rep)
        m.freeze(f).probability(p, scratch);
    EXPECT_EQ(m.totalNodes(), nodes);
}

TEST(Bdd, AtLeastMatchesBinomialTail)
{
    BddManager m;
    const unsigned n = 7;
    std::vector<NodeRef> vars;
    for (unsigned i = 0; i < n; ++i)
        vars.push_back(m.var(i));
    std::vector<double> probs(n, 0.85);
    for (unsigned k = 0; k <= n + 1; ++k) {
        NodeRef f = m.atLeast(vars, k);
        double expected =
            k > n ? 0.0
                  : sdnav::prob::binomialTailAtLeast(n, k, 0.85);
        EXPECT_NEAR(frozenProbability(m, f, probs), expected, 1e-12)
            << "k=" << k;
    }
}

TEST(Bdd, AtLeastZeroIsTrueAndOverflowIsFalse)
{
    BddManager m;
    std::vector<NodeRef> vars{m.var(0), m.var(1)};
    EXPECT_EQ(m.atLeast(vars, 0), trueNode);
    EXPECT_EQ(m.atLeast(vars, 3), falseNode);
}

TEST(Bdd, AtLeastOverFunctionsNotJustVariables)
{
    BddManager m;
    // at least 1 of {x&y, !x} == (x&y) | !x == !x | y.
    std::vector<NodeRef> fs{m.andOp(m.var(0), m.var(1)),
                            m.notOp(m.var(0))};
    NodeRef f = m.atLeast(fs, 1);
    EXPECT_EQ(f, m.orOp(m.notOp(m.var(0)), m.var(1)));
}

TEST(Bdd, ShannonExpansionIdentity)
{
    BddManager m;
    NodeRef f =
        m.orOp(m.andOp(m.var(0), m.var(1)),
               m.andOp(m.var(1), m.notOp(m.var(2))));
    std::vector<double> p{0.2, 0.6, 0.9};
    std::vector<double> p_up = p;
    std::vector<double> p_down = p;
    p_up[1] = 1.0;
    p_down[1] = 0.0;
    double up = frozenProbability(m, f, p_up);
    double down = frozenProbability(m, f, p_down);
    EXPECT_NEAR(frozenProbability(m, f, p),
                p[1] * up + (1.0 - p[1]) * down, 1e-15);
    // The expansion's slope is the derivative.
    ProbabilityScratch scratch;
    std::vector<double> grad;
    m.freeze(f).gradient(p, scratch, grad);
    EXPECT_NEAR(grad[1], up - down, 1e-15);
}

TEST(Bdd, EvaluateAgreesWithProbabilityOnCornerPoints)
{
    BddManager m;
    std::vector<NodeRef> vars{m.var(0), m.var(1), m.var(2), m.var(3)};
    NodeRef f = m.atLeast(vars, 3);
    for (unsigned mask = 0; mask < 16; ++mask) {
        std::vector<bool> assign(4);
        std::vector<double> probs(4);
        for (unsigned i = 0; i < 4; ++i) {
            assign[i] = (mask >> i) & 1;
            probs[i] = assign[i] ? 1.0 : 0.0;
        }
        EXPECT_EQ(m.evaluate(f, assign),
                  frozenProbability(m, f, probs) > 0.5);
    }
}

TEST(Bdd, NodeCountOfSimpleFunctions)
{
    BddManager m;
    EXPECT_EQ(m.nodeCount(trueNode), 0u);
    EXPECT_EQ(m.nodeCount(m.var(0)), 1u);
    // x0 & x1 & x2 is a chain of 3 nodes.
    NodeRef chain =
        m.andOp(m.var(0), m.andOp(m.var(1), m.var(2)));
    EXPECT_EQ(m.nodeCount(chain), 3u);
}

/**
 * Conjoin n variables in the given order into one chain, then descend
 * it with ite(), evaluate it and differentiate it: none of which may
 * recurse once per level.
 */
void
expectDeepChainWorks(bool topVariableFirst)
{
    BddManager m;
    const unsigned n = 200000;
    std::vector<NodeRef> fs;
    fs.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        fs.push_back(m.var(topVariableFirst ? i : n - 1 - i));
    NodeRef chain = m.andAll(fs);
    EXPECT_EQ(m.nodeCount(chain), n);

    // Each of these descends the full chain.
    NodeRef negated = m.notOp(chain);
    EXPECT_EQ(m.notOp(negated), chain);

    std::vector<double> probs(n, 1.0);
    FrozenDiagram frozen = m.freeze(chain);
    ProbabilityScratch scratch;
    EXPECT_EQ(frozen.probability(probs, scratch), 1.0);
    // With every other variable up, each one alone decides the chain.
    std::vector<double> grad;
    frozen.gradient(probs, scratch, grad);
    EXPECT_EQ(grad, std::vector<double>(n, 1.0));
    std::vector<bool> assign(n, true);
    EXPECT_TRUE(m.evaluate(chain, assign));
    assign[n / 2] = false;
    EXPECT_FALSE(m.evaluate(chain, assign));
}

TEST(Bdd, DeepChainOperationsDoNotOverflowTheStack)
{
    // Regression: ite() used native recursion and overflowed the call
    // stack on chain diagrams a few hundred thousand nodes deep. An
    // AND of two chains over disjoint variables rebuilds the one on
    // top. Operands that come last variable first cost a left fold
    // O(1) per step; andAll()'s balanced fold rebuilds every
    // variable once per round, O(n log n) in all.
    expectDeepChainWorks(false);
}

TEST(Bdd, DeepChainTopVariableFirstBuildsInNLogN)
{
    // The mirror image, top variable first: a left fold rebuilds the
    // whole accumulated chain for every new variable, O(n^2) node
    // visits for n = 200,000; the balanced fold stays O(n log n).
    expectDeepChainWorks(true);
}

TEST(Bdd, ComputedCacheKeepsItsEntriesWhenItGrows)
{
    BddManager m;
    NodeRef f = m.andOp(m.var(0), m.orOp(m.var(1), m.var(2)));
    const std::uint64_t misses = m.stats().iteCacheMisses;
    ASSERT_GT(misses, 0u);

    // A large build that writes no cache entries of its own (var()
    // only hash-conses), so nothing it does can evict the ones above.
    // It leaves the arena far larger than the 1,024-entry cache, and
    // the next apply grows the cache past twice the arena, doubling
    // it six times, before its lookup.
    for (unsigned i = 3; i < 20000; ++i)
        m.var(i);
    ASSERT_GT(m.totalNodes(), 16u * 1024u);

    // The repeat is answered from the grown cache: no new misses.
    EXPECT_EQ(m.andOp(m.var(0), m.orOp(m.var(1), m.var(2))), f);
    EXPECT_EQ(m.stats().iteCacheMisses, misses);
}

TEST(Bdd, ComputedCacheGrowsPastTwiceTheArena)
{
    // At 20,000 nodes the first growth takes the cache from 1,024 to
    // 65,536 entries. An arena of 40,000 nodes still fits under that,
    // so the second apply finds the cache large enough.
    BddManager m;
    for (unsigned i = 0; i < 20000; ++i)
        m.var(i);
    m.andOp(m.var(0), m.var(1));
    EXPECT_EQ(m.stats().iteCacheGrowths, 1u);
    for (unsigned i = 20000; i < 40000; ++i)
        m.var(i);
    m.andOp(m.var(2), m.var(3));
    EXPECT_EQ(m.stats().iteCacheGrowths, 1u);
    // A freeze takes the cache's memory for its own tables and leaves
    // it empty, so the next apply grows it again.
    m.freeze(m.var(0));
    m.andOp(m.var(4), m.var(5));
    EXPECT_EQ(m.stats().iteCacheGrowths, 2u);
}

TEST(Bdd, UniqueSubtableStaysCanonicalAsItGrows)
{
    // x0 ? xi : xj for every ordered pair of 40 distinct variables
    // puts 1,560 nodes, plus the projections x0 and !x0, in variable
    // 0's subtable: it grows 16 -> 64 -> 256 -> 1,024 buckets four
    // times at a step, then 2,048 -> 4,096 twice at a step. The
    // projections of variables 1-40 sit alone in theirs.
    constexpr unsigned kVars = 41;
    BddManager m;
    const NodeRef x0 = m.var(0);
    const NodeRef not_x0 = m.nvar(0);
    std::vector<std::vector<NodeRef>> made(kVars,
                                           std::vector<NodeRef>(kVars));
    for (unsigned i = 1; i < kVars; ++i) {
        for (unsigned j = 1; j < kVars; ++j) {
            if (i != j)
                made[i][j] = m.ite(x0, m.var(i), m.var(j));
        }
    }
    const BddStats built = m.stats();
    EXPECT_EQ(built.uniqueRehashes, 5u);
    EXPECT_EQ(m.totalNodes(), 2u + kVars + 1u + 40u * 39u);

    // !x0 ? xj : xi is the same node, reached through a computed-cache
    // miss: every lookup lands on the node the subtable already
    // holds, across every growth step, and allocates nothing.
    for (unsigned i = 1; i < kVars; ++i) {
        for (unsigned j = 1; j < kVars; ++j) {
            if (i != j) {
                EXPECT_EQ(m.ite(not_x0, m.var(j), m.var(i)), made[i][j])
                    << i << " " << j;
            }
        }
    }
    const BddStats again = m.stats();
    EXPECT_EQ(again.uniqueTableMisses, built.uniqueTableMisses);
    EXPECT_GT(again.iteCacheMisses, built.iteCacheMisses);
    EXPECT_EQ(again.peakNodes, built.peakNodes);
    EXPECT_EQ(again.uniqueRehashes, built.uniqueRehashes);
}

TEST(Bdd, RecordMetricsPublishesTheTableWork)
{
    sdnav::obs::Registry &registry = sdnav::obs::Registry::global();
    sdnav::obs::Counter &rehashes =
        registry.counter("bdd.unique_rehashes");
    sdnav::obs::Counter &growths =
        registry.counter("bdd.ite_cache_growths");
    const std::uint64_t rehashes_before = rehashes.value();
    const std::uint64_t growths_before = growths.value();
    // 2,000 projections outgrow the first cache; a 20-of-40 counter
    // puts about 20 nodes on each of its middle levels.
    BddManager m;
    std::vector<NodeRef> vars;
    for (unsigned i = 0; i < 2000; ++i)
        vars.push_back(m.var(i));
    m.atLeast(std::span(vars).first(40), 20);
    const BddStats s = m.stats();
    ASSERT_GT(s.uniqueRehashes, 0u);
    ASSERT_GT(s.iteCacheGrowths, 0u);
    m.recordMetrics();
    EXPECT_EQ(rehashes.value() - rehashes_before, s.uniqueRehashes);
    EXPECT_EQ(growths.value() - growths_before, s.iteCacheGrowths);
}

TEST(Bdd, WorkspaceServesOneManagerAtATime)
{
    // A lent workspace is its manager's until the manager is dropped;
    // the next one starts clean, whatever the last one built.
    Workspace workspace;
    BddStats fresh;
    {
        BddManager m;
        m.atLeast(std::vector<NodeRef>{m.var(0), m.var(1), m.var(2)}, 2);
        fresh = m.stats();
    }
    {
        BddManager m({}, &workspace);
        for (unsigned i = 0; i < 5000; ++i)
            m.andOp(m.var(i), m.var(i + 1));
        EXPECT_THROW(BddManager other({}, &workspace), sdnav::ModelError);
    }
    BddManager m({}, &workspace);
    EXPECT_EQ(m.totalNodes(), 2u);
    m.atLeast(std::vector<NodeRef>{m.var(0), m.var(1), m.var(2)}, 2);
    const BddStats reused = m.stats();
    EXPECT_EQ(reused.iteCacheHits, fresh.iteCacheHits);
    EXPECT_EQ(reused.iteCacheMisses, fresh.iteCacheMisses);
    EXPECT_EQ(reused.uniqueTableHits, fresh.uniqueTableHits);
    EXPECT_EQ(reused.uniqueTableMisses, fresh.uniqueTableMisses);
    EXPECT_EQ(reused.uniqueRehashes, fresh.uniqueRehashes);
    EXPECT_EQ(reused.iteCacheGrowths, fresh.iteCacheGrowths);
    EXPECT_EQ(reused.peakNodes, fresh.peakNodes);
}

TEST(Bdd, FrozenDiagramSkipsLevelsWithoutNodes)
{
    // x0 & x7 has nodes on levels 0 and 7 only. With dyadic
    // probabilities every result is exact: P = p0 p7, and the
    // Birnbaum importance of x0 is p7 and of x7 is p0.
    BddManager m;
    NodeRef f = m.andOp(m.var(0), m.var(7));
    std::vector<double> probs{0.75, 0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.5};
    ProbabilityScratch scratch;
    FrozenDiagram frozen = m.freeze(f);
    EXPECT_EQ(frozen.nodeCount(), 2u);
    expectSameBits(frozen.probability(probs, scratch),
                   referenceProbability(m, f, probs));
    expectSameBits(frozen.probability(probs, scratch), 0.375);
    std::vector<double> grad;
    frozen.gradient(probs, scratch, grad);
    std::vector<double> expected(8, 0.0);
    expected[0] = 0.5;
    expected[7] = 0.75;
    ASSERT_EQ(grad.size(), expected.size());
    for (std::size_t i = 0; i < grad.size(); ++i)
        expectSameBits(grad[i], expected[i]);
}

TEST(Bdd, PermutedManagerMatchesItsRelabeledTwin)
{
    // Two 2-of-3 blocks over shared variables 0-2: instance i of
    // block b is x(3 + 3b + i) & x(i). One manager takes a level
    // permutation up front; its twin builds the same function with
    // every variable renamed to its level, in the identity order. The
    // two are the same diagram up to the names.
    auto build = [](BddManager &m, auto name) {
        std::vector<NodeRef> blocks;
        for (unsigned b = 0; b < 2; ++b) {
            std::vector<NodeRef> instances;
            for (unsigned i = 0; i < 3; ++i)
                instances.push_back(m.andOp(m.var(name(3 + 3 * b + i)),
                                            m.var(name(i))));
            blocks.push_back(m.atLeast(instances, 2));
        }
        return m.andAll(blocks);
    };
    constexpr unsigned kVars = 9;
    std::vector<unsigned> levels(kVars);
    for (unsigned v = 0; v < kVars; ++v)
        levels[v] = kVars - 1 - v;
    BddManager m(levels);
    NodeRef f = build(m, [](unsigned v) { return v; });
    BddManager twin;
    NodeRef g = build(twin, [&](unsigned v) { return levels[v]; });
    for (unsigned v = 0; v < kVars; ++v)
        ASSERT_EQ(m.levelOfVariable(v), levels[v]);

    std::vector<double> probs(kVars);
    std::vector<double> twin_probs(kVars);
    for (unsigned v = 0; v < kVars; ++v) {
        probs[v] = 0.9 - 0.05 * v;
        twin_probs[levels[v]] = probs[v];
    }
    ASSERT_EQ(m.nodeCount(f), twin.nodeCount(g));
    for (unsigned v = 0; v < kVars; ++v)
        EXPECT_EQ(m.levelOfVariable(v), twin.levelOfVariable(levels[v]));
    ProbabilityScratch scratch;
    FrozenDiagram permuted = m.freeze(f);
    FrozenDiagram relabeled = twin.freeze(g);
    EXPECT_EQ(permuted.nodeCount(), relabeled.nodeCount());
    expectSameBits(permuted.probability(probs, scratch),
                   relabeled.probability(twin_probs, scratch));
    std::vector<double> grad, twin_grad;
    permuted.gradient(probs, scratch, grad);
    relabeled.gradient(twin_probs, scratch, twin_grad);
    for (unsigned v = 0; v < kVars; ++v)
        expectSameBits(grad[v], twin_grad[levels[v]]);
    expectFrozenMatchesReference(m, f, probs, scratch);
}

TEST(Bdd, FreezeFoldsEqualNodesOfOneClass)
{
    // a ? x : y with x and y in one class: the x and y nodes compute
    // the same expression, so they share a slot, and the a node's two
    // children become that one slot.
    BddManager m;
    NodeRef a = m.var(0);
    NodeRef f = m.ite(a, m.var(1), m.var(2));
    const std::vector<unsigned> classes = {1, 0, 0};
    FrozenDiagram folded = m.freeze(f, classes);
    EXPECT_EQ(folded.bddNodeCount(), 3u);
    EXPECT_EQ(folded.nodeCount(), 2u);

    // Its value is the unfolded diagram's at each variable's class
    // probability, bit for bit; the class inputs are all it reads.
    ProbabilityScratch scratch;
    const std::vector<double> class_probs = {0.3, 0.7};
    const std::vector<double> probs = {0.7, 0.3, 0.3};
    expectSameBits(folded.probability(class_probs, scratch),
                   m.freeze(f).probability(probs, scratch));
    EXPECT_THROW(folded.probability(std::vector<double>{0.3}, scratch),
                 sdnav::ModelError);

    // dP/dp_c sums the Birnbaum importances of the class's variables.
    std::vector<double> grad, birnbaum;
    folded.gradient(class_probs, scratch, grad);
    m.freeze(f).gradient(probs, scratch, birnbaum);
    ASSERT_EQ(grad.size(), 2u);
    EXPECT_NEAR(grad[0], birnbaum[1] + birnbaum[2], 1e-15);
    EXPECT_NEAR(grad[1], birnbaum[0], 1e-15);

    // In different classes the two nodes stay apart, and a map that
    // does not cover every variable is refused.
    EXPECT_EQ(m.freeze(f, std::vector<unsigned>{2, 0, 1}).nodeCount(), 3u);
    EXPECT_THROW(m.freeze(f, std::vector<unsigned>{0, 0}),
                 sdnav::ModelError);
}

TEST(Bdd, FreezeSpanCarriesTheNodeCounts)
{
    sdnav::obs::Tracer &tracer = sdnav::obs::Tracer::global();
    tracer.reset();
    tracer.enable();
    BddManager m;
    NodeRef f = m.ite(m.var(0), m.var(1), m.var(2));
    m.freeze(f, std::vector<unsigned>{1, 0, 0});
    tracer.disable();
    bool found = false;
    const sdnav::json::Value trace = tracer.chromeTrace();
    for (const sdnav::json::Value &event :
         trace.at("traceEvents").asArray()) {
        if (event.at("name").asString() != "bdd.freeze" ||
            event.at("ph").asString() != "E")
            continue;
        found = true;
        EXPECT_EQ(event.at("args").at("bdd_nodes").asNumber(), 3.0);
        EXPECT_EQ(event.at("args").at("eval_nodes").asNumber(), 2.0);
    }
    EXPECT_TRUE(found);
    tracer.reset();
}

TEST(Bdd, LevelOrderMustBeAPermutation)
{
    std::vector<unsigned> repeated{0, 1, 1};
    EXPECT_THROW(BddManager m(repeated), sdnav::ModelError);
    std::vector<unsigned> gap{0, 3, 1};
    EXPECT_THROW(BddManager m(gap), sdnav::ModelError);
}

TEST(Bdd, NodeCapBudgetAbortsABigBuild)
{
    BddManager m;
    std::vector<NodeRef> vars;
    for (unsigned i = 0; i < 24; ++i)
        vars.push_back(m.var(i));
    // atLeast over 24 variables wants hundreds of nodes; a cap of 40
    // (terminals included) trips mid-build.
    m.setStepBudget(StepBudget{0.0, 40});
    try {
        m.atLeast(vars, 12);
        FAIL() << "expected BudgetExceeded";
    } catch (const BudgetExceeded &e) {
        EXPECT_EQ(e.budgetName(), "node-cap");
        EXPECT_GE(e.nodesAllocated(), 40u);
        EXPECT_GE(e.elapsedMs(), 0.0);
        EXPECT_NE(std::string(e.what()).find("node-cap"),
                  std::string::npos);
    }
}

TEST(Bdd, WallDeadlineBudgetAbortsABigBuild)
{
    BddManager m;
    std::vector<NodeRef> vars;
    for (unsigned i = 0; i < 24; ++i)
        vars.push_back(m.var(i));
    // An already-expired deadline trips at the next ite() entry.
    m.setStepBudget(StepBudget{1e-9, 0});
    try {
        m.atLeast(vars, 12);
        FAIL() << "expected BudgetExceeded";
    } catch (const BudgetExceeded &e) {
        EXPECT_EQ(e.budgetName(), "wall-deadline");
        EXPECT_GT(e.elapsedMs(), 0.0);
    }
}

TEST(Bdd, ManagerSurvivesABudgetAbortAndRebuildsUnbudgeted)
{
    BddManager m;
    std::vector<NodeRef> vars;
    for (unsigned i = 0; i < 24; ++i)
        vars.push_back(m.var(i));
    m.setStepBudget(StepBudget{0.0, 40});
    EXPECT_THROW(m.atLeast(vars, 12), BudgetExceeded);

    // Clearing the budget leaves a usable manager: the same build
    // succeeds and evaluates correctly (no poisoned caches).
    m.clearStepBudget();
    NodeRef f = m.atLeast(vars, 12);
    std::vector<bool> assign(24, false);
    for (unsigned i = 0; i < 12; ++i)
        assign[i] = true;
    EXPECT_TRUE(m.evaluate(f, assign));
    assign[0] = false;
    EXPECT_FALSE(m.evaluate(f, assign));
}

TEST(Bdd, UnlimitedBudgetIsANoOp)
{
    BddManager m;
    m.setStepBudget(StepBudget{}); // both fields zero = unlimited
    EXPECT_FALSE(StepBudget{}.limited());
    std::vector<NodeRef> vars;
    for (unsigned i = 0; i < 12; ++i)
        vars.push_back(m.var(i));
    NodeRef f = m.atLeast(vars, 6);
    EXPECT_NE(f, falseNode);
}

// Randomized cross-check: random expressions over 10 variables,
// probability via BDD vs brute-force enumeration of all 1024 states.
class BddRandomExpression : public testing::TestWithParam<int>
{};

TEST_P(BddRandomExpression, ProbabilityMatchesEnumeration)
{
    const unsigned n = 10;
    sdnav::prob::Rng rng(GetParam());
    BddManager m;
    NodeRef f = randomPool(m, rng, n, 40).back();

    std::vector<double> probs(n);
    for (unsigned i = 0; i < n; ++i)
        probs[i] = rng.uniform();

    double brute = 0.0;
    std::vector<bool> assign(n);
    for (unsigned mask = 0; mask < (1u << n); ++mask) {
        double w = 1.0;
        for (unsigned i = 0; i < n; ++i) {
            bool up = (mask >> i) & 1;
            assign[i] = up;
            w *= up ? probs[i] : 1.0 - probs[i];
        }
        if (m.evaluate(f, assign))
            brute += w;
    }
    EXPECT_NEAR(frozenProbability(m, f, probs), brute, 1e-12);
}

TEST_P(BddRandomExpression, RandomLevelOrderMatchesReference)
{
    // Each seed lays the variables out in its own random order, so the
    // pools are built, frozen and evaluated under layouts other than
    // the identity.
    const unsigned n = 10;
    sdnav::prob::Rng rng(GetParam());
    std::vector<unsigned> levels(n);
    for (unsigned v = 0; v < n; ++v)
        levels[v] = v;
    for (unsigned v = n - 1; v > 0; --v)
        std::swap(levels[v], levels[rng.uniformInt(v + 1)]);
    BddManager m(levels);
    std::vector<NodeRef> pool = randomPool(m, rng, n, 40);
    for (unsigned v = 0; v < n; ++v)
        ASSERT_EQ(m.levelOfVariable(v), levels[v]);

    std::vector<double> probs(n);
    for (unsigned i = 0; i < n; ++i)
        probs[i] = rng.uniform();
    ProbabilityScratch scratch;
    for (NodeRef f : pool)
        expectFrozenMatchesReference(m, f, probs, scratch);
}

TEST_P(BddRandomExpression, EveryEvaluationRouteMatchesReference)
{
    const unsigned n = 10;
    sdnav::prob::Rng rng(GetParam());
    BddManager m;
    std::vector<NodeRef> pool = randomPool(m, rng, n, 40);
    std::vector<double> probs(n);
    for (unsigned i = 0; i < n; ++i)
        probs[i] = rng.uniform();
    // One scratch through every manager state below: its ref-to-slot
    // map must come back clean after each freeze.
    ProbabilityScratch scratch;
    for (NodeRef f : pool)
        expectFrozenMatchesReference(m, f, probs, scratch);

    // A second pool grows the same arena; the first pool's refs stay
    // valid and keep their functions.
    std::vector<NodeRef> second = randomPool(m, rng, n, 40);
    for (NodeRef f : pool)
        expectFrozenMatchesReference(m, f, probs, scratch);
    for (NodeRef f : second)
        expectFrozenMatchesReference(m, f, probs, scratch);
}

TEST_P(BddRandomExpression, AtLeastIsOneNodeInEveryOperandOrder)
{
    // atLeast() reorders its operands by level. Whatever order they
    // come in, it must return the node the plain dynamic program
    // builds taking them as given, and freeze to the same arrays.
    // Every third seed keeps the identity order; the others lay the
    // variables out at random.
    const unsigned n = 10;
    const auto seed = static_cast<std::uint64_t>(GetParam());
    std::vector<unsigned> levels(n);
    for (unsigned v = 0; v < n; ++v)
        levels[v] = v;
    sdnav::prob::Rng shuffler(seed + 1000);
    auto shuffle = [&shuffler](auto &items) {
        for (std::size_t i = items.size() - 1; i > 0; --i)
            std::swap(items[i], items[shuffler.uniformInt(i + 1)]);
    };
    if (GetParam() % 3 != 0)
        shuffle(levels);

    // The same operands in any manager: a pool from the seed, then
    // picks from it, constants included.
    auto operands = [&](BddManager &m) {
        sdnav::prob::Rng rng(seed);
        std::vector<NodeRef> pool = randomPool(m, rng, n, 30);
        pool.push_back(trueNode);
        pool.push_back(falseNode);
        std::vector<NodeRef> fs;
        for (int k = 0; k < 9; ++k)
            fs.push_back(pool[rng.uniformInt(pool.size())]);
        return fs;
    };
    BddManager m(levels);
    BddManager twin(levels);
    const std::vector<NodeRef> fs = operands(m);
    const std::vector<NodeRef> twin_fs = operands(twin);
    for (unsigned threshold : {1u, 4u, 9u}) {
        std::vector<NodeRef> reach(threshold + 1, falseNode);
        reach[0] = trueNode;
        for (NodeRef f : fs) {
            for (unsigned j = threshold; j >= 1; --j)
                reach[j] = m.ite(f, reach[j - 1], reach[j]);
        }
        const NodeRef expected = reach[threshold];
        const FrozenDiagram frozen = m.freeze(expected);
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<NodeRef> order = fs;
            shuffle(order);
            EXPECT_EQ(m.atLeast(order, threshold), expected)
                << "threshold " << threshold << " trial " << trial;
            std::vector<NodeRef> twin_order = twin_fs;
            shuffle(twin_order);
            EXPECT_TRUE(FrozenArrays::equal(
                twin.freeze(twin.atLeast(twin_order, threshold)), frozen))
                << "threshold " << threshold << " trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BddRandomExpression,
                         testing::Range(1, 13));

} // anonymous namespace
