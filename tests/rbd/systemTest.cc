/**
 * @file
 * Tests for RbdSystem: the three evaluation engines must agree with
 * each other and with hand-computed values, and the importance
 * measures must identify the structural weak links.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "rbd/system.hh"

namespace
{

using namespace sdnav::rbd;

RbdSystem
twoOfThreeSystem(double a)
{
    RbdSystem system;
    ComponentId c0 = system.addComponent("c0", a);
    ComponentId c1 = system.addComponent("c1", a);
    ComponentId c2 = system.addComponent("c2", a);
    system.setRoot(kOfN(2, {component(c0), component(c1),
                            component(c2)}));
    return system;
}

TEST(RbdSystem, SeriesFormula)
{
    RbdSystem system;
    ComponentId a = system.addComponent("a", 0.9);
    ComponentId b = system.addComponent("b", 0.8);
    system.setRoot(series({component(a), component(b)}));
    EXPECT_NEAR(system.availabilityFormula(), 0.72, 1e-15);
    EXPECT_NEAR(system.availabilityExact(), 0.72, 1e-15);
}

TEST(RbdSystem, ParallelFormula)
{
    RbdSystem system;
    ComponentId a = system.addComponent("a", 0.9);
    ComponentId b = system.addComponent("b", 0.8);
    system.setRoot(parallel({component(a), component(b)}));
    EXPECT_NEAR(system.availabilityFormula(), 0.98, 1e-15);
    EXPECT_NEAR(system.availabilityExact(), 0.98, 1e-15);
}

TEST(RbdSystem, TwoOfThreeMatchesClosedForm)
{
    double a = 0.9995;
    RbdSystem system = twoOfThreeSystem(a);
    double expected = a * a * (3.0 - 2.0 * a);
    EXPECT_NEAR(system.availabilityFormula(), expected, 1e-15);
    EXPECT_NEAR(system.availabilityExact(), expected, 1e-15);
}

TEST(RbdSystem, HeterogeneousKofNPoissonBinomial)
{
    RbdSystem system;
    ComponentId a = system.addComponent("a", 0.9);
    ComponentId b = system.addComponent("b", 0.8);
    ComponentId c = system.addComponent("c", 0.7);
    system.setRoot(kOfN(2, {component(a), component(b), component(c)}));
    // P[>=2 up] enumerated by hand.
    double expected = 0.9 * 0.8 * 0.7 + 0.9 * 0.8 * 0.3 +
                      0.9 * 0.2 * 0.7 + 0.1 * 0.8 * 0.7;
    EXPECT_NEAR(system.availabilityFormula(), expected, 1e-15);
    EXPECT_NEAR(system.availabilityExact(), expected, 1e-15);
}

TEST(RbdSystem, SharedComponentDetected)
{
    RbdSystem system;
    ComponentId host = system.addComponent("host", 0.999);
    ComponentId p = system.addComponent("p", 0.99);
    ComponentId q = system.addComponent("q", 0.99);
    // Both process blocks depend on the same host.
    system.setRoot(parallel({series({component(p), component(host)}),
                             series({component(q), component(host)})}));
    EXPECT_TRUE(system.hasSharedComponents());
    EXPECT_THROW(system.availabilityFormula(), sdnav::ModelError);
    // Exact value: host * (1 - (1-p)(1-q)).
    double expected = 0.999 * (1.0 - 0.01 * 0.01);
    EXPECT_NEAR(system.availabilityExact(), expected, 1e-15);
}

TEST(RbdSystem, NoSharingDetectedOnTree)
{
    RbdSystem system = twoOfThreeSystem(0.9);
    EXPECT_FALSE(system.hasSharedComponents());
}

TEST(RbdSystem, FormulaAndExactAgreeOnDeepTree)
{
    RbdSystem system;
    std::vector<Block> groups;
    for (int g = 0; g < 4; ++g) {
        std::vector<Block> members;
        for (int i = 0; i < 3; ++i) {
            ComponentId id = system.addComponent(
                "c" + std::to_string(g) + std::to_string(i),
                0.9 + 0.02 * g + 0.01 * i);
            members.push_back(component(id));
        }
        groups.push_back(kOfN(2, std::move(members)));
    }
    system.setRoot(series(std::move(groups)));
    EXPECT_NEAR(system.availabilityFormula(),
                system.availabilityExact(), 1e-14);
}

TEST(RbdSystem, MonteCarloBracketsExactValue)
{
    RbdSystem system = twoOfThreeSystem(0.95);
    sdnav::prob::Rng rng(12345);
    MonteCarloResult mc = system.availabilityMonteCarlo(200000, rng);
    double exact = system.availabilityExact();
    EXPECT_TRUE(mc.brackets(exact))
        << "estimate " << mc.estimate << " +- " << mc.standardError
        << " vs exact " << exact;
    EXPECT_EQ(mc.samples, 200000u);
    EXPECT_GT(mc.standardError, 0.0);
}

TEST(RbdSystem, MonteCarloIsDeterministicPerSeed)
{
    RbdSystem system = twoOfThreeSystem(0.9);
    sdnav::prob::Rng rng1(7), rng2(7);
    auto a = system.availabilityMonteCarlo(10000, rng1);
    auto b = system.availabilityMonteCarlo(10000, rng2);
    EXPECT_DOUBLE_EQ(a.estimate, b.estimate);
}

TEST(RbdSystem, SetAvailabilityAffectsResults)
{
    RbdSystem system = twoOfThreeSystem(0.9);
    double before = system.availabilityExact();
    system.setComponentAvailability(0, 0.5);
    double after = system.availabilityExact();
    EXPECT_LT(after, before);
    EXPECT_DOUBLE_EQ(system.componentAvailability(0), 0.5);
}

TEST(RbdSystem, BirnbaumOfSeriesComponent)
{
    // In a 2-component series, dA/da_0 = a_1.
    RbdSystem system;
    ComponentId a = system.addComponent("a", 0.9);
    ComponentId b = system.addComponent("b", 0.8);
    system.setRoot(series({component(a), component(b)}));
    EXPECT_NEAR(system.birnbaumImportance(a), 0.8, 1e-15);
    EXPECT_NEAR(system.birnbaumImportance(b), 0.9, 1e-15);
}

TEST(RbdSystem, BirnbaumMatchesFiniteDifference)
{
    RbdSystem system = twoOfThreeSystem(0.9);
    double h = 1e-7;
    double base = system.componentAvailability(1);
    system.setComponentAvailability(1, base + h);
    double up = system.availabilityExact();
    system.setComponentAvailability(1, base - h);
    double down = system.availabilityExact();
    system.setComponentAvailability(1, base);
    EXPECT_NEAR(system.birnbaumImportance(1), (up - down) / (2 * h),
                1e-6);
}

TEST(RbdSystem, CriticalityIdentifiesWeakLink)
{
    // A strong redundant pair in series with a weak singleton: the
    // singleton must dominate the criticality ranking — the paper's
    // vRouter single-point-of-failure situation in miniature.
    RbdSystem system;
    ComponentId r1 = system.addComponent("redundant1", 0.99);
    ComponentId r2 = system.addComponent("redundant2", 0.99);
    ComponentId weak = system.addComponent("weak-singleton", 0.999);
    system.setRoot(series({parallel({component(r1), component(r2)}),
                           component(weak)}));
    auto ranking = system.rankImportance();
    ASSERT_EQ(ranking.size(), 3u);
    EXPECT_EQ(ranking[0].name, "weak-singleton");
    EXPECT_GT(ranking[0].criticality, 0.9);
    EXPECT_LT(ranking[1].criticality, 0.1);
}

TEST(RbdSystem, SymmetricComponentsRankInIdOrder)
{
    // 2L-DP: OpenContrail's host data plane on the Large topology,
    // supervisors required. Each role's three node supervisors are
    // interchangeable, so their criticalities tie up to rounding and
    // must rank consecutively in id order.
    auto system = sdnav::model::buildExactSystem(
        sdnav::fmea::openContrail3(), sdnav::topology::largeTopology(),
        sdnav::model::SupervisorPolicy::Required,
        sdnav::model::SwParams{}, sdnav::fmea::Plane::DataPlane);
    auto ranking = system.rankImportance();
    for (const std::string role : {"Config", "Control"}) {
        const std::string prefix = "supervisor-" + role + "-";
        auto first = std::find_if(ranking.begin(), ranking.end(),
                                  [&](const ImportanceEntry &e) {
                                      return e.name == prefix + "0";
                                  });
        ASSERT_GE(std::distance(first, ranking.end()), 3) << role;
        for (int node = 0; node < 3; ++node) {
            EXPECT_EQ(first[node].name, prefix + std::to_string(node))
                << "rank " << (first - ranking.begin()) + node + 1;
        }
        EXPECT_LT(first[0].component, first[1].component);
        EXPECT_LT(first[1].component, first[2].component);
    }
}

TEST(CompileFrozen, PeakCoversTheFrozenNodes)
{
    RbdSystem system = twoOfThreeSystem(0.9);
    FrozenRbd plain = compileFrozen(system);
    // The stats are the build manager's: its peak covers the frozen
    // nodes plus the terminals.
    EXPECT_GE(plain.stats.peakNodes, plain.diagram.nodeCount() + 2);
}

TEST(RbdSystem, CriticalityZeroForPerfectSystem)
{
    RbdSystem system;
    ComponentId a = system.addComponent("a", 1.0);
    system.setRoot(component(a));
    EXPECT_DOUBLE_EQ(system.criticalityImportance(a), 0.0);
}

TEST(RbdSystem, RootValidationRejectsUnknownComponents)
{
    RbdSystem system;
    system.addComponent("only", 0.9);
    EXPECT_THROW(system.setRoot(component(5)), sdnav::ModelError);
}

TEST(RbdSystem, QueriesRejectUnknownIds)
{
    RbdSystem system = twoOfThreeSystem(0.9);
    EXPECT_THROW(system.componentAvailability(99), sdnav::ModelError);
    EXPECT_THROW(system.componentName(99), sdnav::ModelError);
    EXPECT_THROW(system.birnbaumImportance(99), sdnav::ModelError);
}

TEST(RbdSystem, RootRequiredBeforeEvaluation)
{
    RbdSystem system;
    system.addComponent("a", 0.9);
    EXPECT_THROW(system.availabilityExact(), sdnav::ModelError);
}

TEST(MonteCarloResult, ConfidenceIntervalClamps)
{
    MonteCarloResult r;
    r.estimate = 0.999999;
    r.standardError = 0.001;
    r.samples = 100;
    EXPECT_LE(r.ci95High(), 1.0);
    EXPECT_GE(r.ci95Low(), 0.0);
    EXPECT_TRUE(r.brackets(0.9999));
    EXPECT_FALSE(r.brackets(0.5));
}

} // anonymous namespace
