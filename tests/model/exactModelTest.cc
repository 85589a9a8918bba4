/**
 * @file
 * Tests for the exact process-level structure-function builder.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "support/referenceProbability.hh"

namespace
{

using namespace sdnav::model;
using sdnav::fmea::Plane;
namespace fmea = sdnav::fmea;
namespace topology = sdnav::topology;

TEST(ExactModel, ComponentInventorySmallControlPlane)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    auto system = buildExactSystem(catalog, topo,
                                   SupervisorPolicy::NotRequired,
                                   params, Plane::ControlPlane);
    // 1 rack + 3 hosts + 3 VMs + 54 processes (18 per node).
    EXPECT_EQ(system.componentCount(), 61u);
}

TEST(ExactModel, SupervisorsAddedOnlyWhenRequired)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    auto without = buildExactSystem(catalog, topo,
                                    SupervisorPolicy::NotRequired,
                                    params, Plane::ControlPlane);
    auto with = buildExactSystem(catalog, topo,
                                 SupervisorPolicy::Required, params,
                                 Plane::ControlPlane);
    // 12 node-role supervisors appear.
    EXPECT_EQ(with.componentCount(), without.componentCount() + 12u);
}

TEST(ExactModel, DataPlaneAddsLocalProcesses)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    SwParams params;
    auto cp = buildExactSystem(catalog, topo,
                               SupervisorPolicy::NotRequired, params,
                               Plane::ControlPlane);
    auto dp = buildExactSystem(catalog, topo,
                               SupervisorPolicy::NotRequired, params,
                               Plane::DataPlane);
    // DP adds vrouter-agent and vrouter-dpdk.
    EXPECT_EQ(dp.componentCount(), cp.componentCount() + 2u);
    auto dp2 = buildExactSystem(catalog, topo,
                                SupervisorPolicy::Required, params,
                                Plane::DataPlane);
    // Plus 12 supervisors plus the vRouter supervisor.
    EXPECT_EQ(dp2.componentCount(), cp.componentCount() + 2u + 13u);
}

TEST(ExactModel, SharedInfrastructureIsShared)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    auto system = buildExactSystem(catalog, topo,
                                   SupervisorPolicy::NotRequired,
                                   params, Plane::ControlPlane);
    EXPECT_TRUE(system.hasSharedComponents());
}

TEST(ExactModel, PerfectComponentsYieldPerfectPlanes)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    params.processAvailability = 1.0;
    params.manualProcessAvailability = 1.0;
    params.vmAvailability = 1.0;
    params.hostAvailability = 1.0;
    params.rackAvailability = 1.0;
    EXPECT_DOUBLE_EQ(
        exactPlaneAvailability(catalog, topo,
                               SupervisorPolicy::Required, params,
                               Plane::ControlPlane),
        1.0);
    EXPECT_DOUBLE_EQ(
        exactPlaneAvailability(catalog, topo,
                               SupervisorPolicy::Required, params,
                               Plane::DataPlane),
        1.0);
}

TEST(ExactModel, DeadRackKillsSmallTopology)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    params.rackAvailability = 0.0;
    EXPECT_DOUBLE_EQ(
        exactPlaneAvailability(catalog, topo,
                               SupervisorPolicy::NotRequired, params,
                               Plane::ControlPlane),
        0.0);
}

TEST(ExactModel, LargeSurvivesOneDeadRackProbabilistically)
{
    // In the Large topology a single rack loss leaves a "2 of 2"
    // database quorum, so availability with A_R < 1 stays high.
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    SwParams params;
    params.rackAvailability = 0.9;
    double cp = exactPlaneAvailability(catalog, topo,
                                       SupervisorPolicy::NotRequired,
                                       params, Plane::ControlPlane);
    // Two simultaneous rack failures (~2.7%) dominate the loss.
    EXPECT_GT(cp, 0.96);
    EXPECT_LT(cp, 0.999);
}

TEST(ExactModel, MonteCarloAgreesWithBddOnSmallCp)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    // Exaggerated failure probabilities so Monte Carlo resolves the
    // differences with modest sample counts.
    params.processAvailability = 0.95;
    params.manualProcessAvailability = 0.9;
    params.vmAvailability = 0.97;
    params.hostAvailability = 0.98;
    params.rackAvailability = 0.99;
    auto system = buildExactSystem(catalog, topo,
                                   SupervisorPolicy::Required, params,
                                   Plane::ControlPlane);
    double exact = system.availabilityExact();
    sdnav::prob::Rng rng(2024);
    auto mc = system.availabilityMonteCarlo(400000, rng);
    EXPECT_TRUE(mc.brackets(exact))
        << mc.estimate << " +- " << 2 * mc.standardError << " vs "
        << exact;
}

TEST(ExactModel, BddStaysCompact)
{
    // The structure functions must compile to manageable BDDs with
    // the shared-infrastructure-first ordering.
    auto catalog = fmea::openContrail3();
    SwParams params;
    for (auto kind : {topology::ReferenceKind::Small,
                      topology::ReferenceKind::Medium,
                      topology::ReferenceKind::Large}) {
        auto topo = topology::referenceTopology(kind);
        auto system = buildExactSystem(catalog, topo,
                                       SupervisorPolicy::Required,
                                       params, Plane::ControlPlane);
        sdnav::bdd::BddManager manager;
        auto root = system.compile(manager);
        EXPECT_LT(manager.nodeCount(root), 200000u)
            << topology::referenceKindName(kind);
    }
}

TEST(ExactModel, RoleMismatchRejected)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology(2);
    SwParams params;
    EXPECT_THROW(buildExactSystem(catalog, topo,
                                  SupervisorPolicy::Required, params,
                                  Plane::ControlPlane),
                 sdnav::ModelError);
}

TEST(ExactPlaneModelTest, BuildOnceMatchesPerPointReconstruction)
{
    // The compiled model re-evaluated over a parameter grid must
    // match a full per-point rebuild of the structure function to
    // floating-point identity (the BDD is the same; only the
    // per-class probabilities change).
    auto catalog = fmea::openContrail3();
    for (auto kind : {topology::ReferenceKind::Small,
                      topology::ReferenceKind::Large}) {
        auto topo = topology::referenceTopology(kind);
        for (auto plane : {Plane::ControlPlane, Plane::DataPlane}) {
            ExactPlaneModel engine(catalog, topo,
                                   SupervisorPolicy::Required, plane);
            SwParams base;
            for (double shift : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
                SwParams params = base.withDowntimeShift(shift);
                double rebuilt = exactPlaneAvailability(
                    catalog, topo, SupervisorPolicy::Required, params,
                    plane);
                EXPECT_NEAR(engine.availability(params), rebuilt,
                            1e-15)
                    << topology::referenceKindName(kind) << " shift "
                    << shift;
            }
        }
    }
}

TEST(ExactPlaneModelTest, ScratchAndScratchlessAgreeBitExactly)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    ExactPlaneModel engine(catalog, topo, SupervisorPolicy::Required,
                           Plane::ControlPlane);
    sdnav::bdd::ProbabilityScratch scratch;
    SwParams base;
    for (double shift : {-1.0, 0.0, 1.0}) {
        SwParams params = base.withDowntimeShift(shift);
        EXPECT_EQ(engine.availability(params),
                  engine.availability(params, scratch));
    }
}

TEST(ExactPlaneModelTest, EvaluationKeepsItsInputsInTheScratch)
{
    // The diagram's inputs are the five class availabilities, and
    // they live in the caller's scratch: after the first call,
    // evaluations reuse that one buffer.
    auto catalog = fmea::openContrail3();
    ExactPlaneModel engine(catalog, topology::largeTopology(),
                           SupervisorPolicy::Required,
                           Plane::ControlPlane);
    sdnav::bdd::ProbabilityScratch scratch;
    SwParams base;
    const double first = engine.availability(base, scratch);
    const double *held = scratch.inputs().data();
    ASSERT_EQ(scratch.inputs().size(), sdnav::model::kExactClassCount);
    EXPECT_EQ(scratch.inputs()[static_cast<std::size_t>(
                  sdnav::model::ExactComponentClass::Rack)],
              base.rackAvailability);
    EXPECT_EQ(scratch.inputs()[static_cast<std::size_t>(
                  sdnav::model::ExactComponentClass::ManualProcess)],
              base.manualProcessAvailability);
    for (double shift : {-1.0, 0.0, 1.0}) {
        engine.availability(base.withDowntimeShift(shift), scratch);
        EXPECT_EQ(scratch.inputs().data(), held);
    }
    EXPECT_EQ(engine.availability(base, scratch), first);
}

TEST(ExactPlaneModelTest, RepeatedEvaluationDoesNotGrowBdd)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ExactPlaneModel engine(catalog, topo, SupervisorPolicy::Required,
                           Plane::ControlPlane);
    std::size_t nodes = engine.totalBddNodes();
    sdnav::bdd::ProbabilityScratch scratch;
    SwParams base;
    for (int i = 0; i < 200; ++i) {
        engine.availability(base.withDowntimeShift(0.01 * i - 1.0),
                            scratch);
    }
    EXPECT_EQ(engine.totalBddNodes(), nodes);
}

/** One exact model behind a golden CSV. */
struct GoldenCase
{
    std::string label;
    fmea::ControllerCatalog catalog;
    topology::DeploymentTopology topo;
    SupervisorPolicy policy;
    Plane plane;
    ExactVariableOrder order;
};

/**
 * Every exact model behind a golden CSV: the figure 4/5 grids
 * (OpenContrail, Small/Large, both policies, both planes), the raft
 * control-plane scale-up ladder and the OpenContrail data-plane
 * cluster-size ladder (node-major, 3..31 nodes).
 */
std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    auto oc = fmea::openContrail3();
    for (auto kind : {topology::ReferenceKind::Small,
                      topology::ReferenceKind::Large}) {
        for (auto policy : {SupervisorPolicy::NotRequired,
                            SupervisorPolicy::Required}) {
            for (auto plane : {Plane::ControlPlane, Plane::DataPlane}) {
                std::string label =
                    "openContrail " + topology::referenceKindName(kind) +
                    (policy == SupervisorPolicy::Required ? " required"
                                                          : " optional") +
                    (plane == Plane::ControlPlane ? " CP" : " DP");
                cases.push_back(
                    {label, oc, topology::referenceTopology(kind),
                     policy, plane,
                     ExactVariableOrder::SharedInfrastructureFirst});
            }
        }
    }
    auto raft = fmea::raftStyleController();
    for (std::size_t nodes : {3u, 5u, 9u, 17u, 31u}) {
        cases.push_back(
            {"raft CP " + std::to_string(nodes), raft,
             topology::largeTopology(raft.roles().size(), nodes),
             SupervisorPolicy::Required, Plane::ControlPlane,
             ExactVariableOrder::NodeMajor});
        cases.push_back(
            {"openContrail DP " + std::to_string(nodes), oc,
             topology::largeTopology(oc.roles().size(), nodes),
             SupervisorPolicy::Required, Plane::DataPlane,
             ExactVariableOrder::NodeMajor});
    }
    return cases;
}

TEST(ExactPlaneModelTest, GoldenModelsMatchReferenceEvaluationBitExactly)
{
    // The frozen model must equal the reference evaluator run over a
    // freshly compiled manager, to the last bit.
    for (const GoldenCase &c : goldenCases()) {
        ExactPlaneModel::Options options;
        options.order = c.order;
        ExactPlaneModel model(c.catalog, c.topo, c.policy, c.plane,
                              options);
        auto oracle = buildExactSystem(c.catalog, c.topo, c.policy,
                                       SwParams{}, c.plane);
        EXPECT_EQ(model.componentCount(), oracle.componentCount())
            << c.label;
        sdnav::bdd::BddManager fresh(exactVariableLevels(
            c.catalog, c.topo, c.policy, c.plane, c.order));
        sdnav::bdd::NodeRef root = oracle.compile(fresh);
        EXPECT_EQ(model.bddNodeCount(), fresh.nodeCount(root))
            << c.label;
        sdnav::bdd::ProbabilityScratch scratch;
        for (double shift : {-1.0, 0.5}) {
            SwParams params = SwParams{}.withDowntimeShift(shift);
            auto system = buildExactSystem(c.catalog, c.topo, c.policy,
                                           params, c.plane);
            double expected = sdnav::test::referenceProbability(
                fresh, root, system.availabilities());
            EXPECT_EQ(model.availability(params, scratch), expected)
                << c.label << " shift " << shift;
        }
    }
}

TEST(ExactPlaneModelTest, GoldenModelsGradientMatchesReference)
{
    // Every Birnbaum importance from the adjoint pass must be within
    // 1e-10 relative of the long double conditioning reference, on
    // every golden model at the paper's cluster size (the ones the
    // importance and outage analyses rank). These structure functions
    // are monotone, so every importance is non-negative. The larger
    // ladder clusters are left out: there some importances fall
    // below 1e-14 of the system unavailability, under the rounding
    // of the failure probabilities the adjoint pass differences.
    for (const GoldenCase &c : goldenCases()) {
        if (c.topo.clusterSize() != 3)
            continue;
        auto system = buildExactSystem(c.catalog, c.topo, c.policy,
                                       SwParams{}, c.plane);
        sdnav::bdd::BddManager manager(exactVariableLevels(
            c.catalog, c.topo, c.policy, c.plane, c.order));
        sdnav::bdd::NodeRef root = system.compile(manager);
        const std::vector<double> &probs = system.availabilities();
        sdnav::bdd::ProbabilityScratch scratch;
        std::vector<double> grad;
        manager.freeze(root).gradient(probs, scratch, grad);
        std::vector<long double> expected =
            sdnav::test::referenceGradient(manager, root, probs);
        ASSERT_EQ(grad.size(), expected.size()) << c.label;
        for (std::size_t i = 0; i < grad.size(); ++i) {
            double want = static_cast<double>(expected[i]);
            EXPECT_GE(want, 0.0) << c.label << " component " << i;
            EXPECT_NEAR(grad[i], want, 1e-10 * want)
                << c.label << " component " << i;
        }
    }
}

TEST(ExactPlaneModelTest, InvalidParamsRejected)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ExactPlaneModel engine(catalog, topo, SupervisorPolicy::Required,
                           Plane::ControlPlane);
    SwParams params;
    params.processAvailability = 1.5;
    EXPECT_THROW(engine.availability(params), sdnav::ModelError);
}

} // anonymous namespace
