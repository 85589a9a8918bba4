/**
 * @file
 * Tests for the SW-centric availability engine: structural behavior,
 * policies, topologies, and hand-computable special cases.
 */

#include <cmath>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "fmea/openContrail.hh"
#include "model/swCentric.hh"
#include "prob/kofn.hh"

namespace
{

using namespace sdnav::model;
using sdnav::fmea::Plane;
namespace fmea = sdnav::fmea;
namespace topology = sdnav::topology;

fmea::ControllerCatalog
singleProcessCatalog(fmea::QuorumClass quorum,
                     fmea::RestartMode mode = fmea::RestartMode::Auto)
{
    fmea::ControllerCatalog catalog("single");
    fmea::RoleSpec role;
    role.name = "Solo";
    role.tag = 'S';
    role.processes = {{"p", mode, quorum, fmea::QuorumClass::None, "",
                       "", ""}};
    catalog.addRole(std::move(role));
    return catalog;
}

SwParams
perfectPlatform()
{
    SwParams params;
    params.vmAvailability = 1.0;
    params.hostAvailability = 1.0;
    params.rackAvailability = 1.0;
    return params;
}

// The model reads its catalog on every evaluation, so it must not
// bind a temporary one: that would compile and then dangle.
static_assert(!std::is_constructible_v<
              SwAvailabilityModel, fmea::ControllerCatalog &&,
              const topology::DeploymentTopology &, SupervisorPolicy>);
static_assert(std::is_constructible_v<
              SwAvailabilityModel, const fmea::ControllerCatalog &,
              const topology::DeploymentTopology &, SupervisorPolicy>);

TEST(SwEngine, SingleAnyOneProcessOnPerfectPlatform)
{
    // With perfect infrastructure and no supervisor requirement, a
    // "1 of 3" process block is exactly A_{1/3}(A).
    auto catalog = singleProcessCatalog(fmea::QuorumClass::AnyOne);
    auto topo = topology::smallTopology(1);
    SwParams params = perfectPlatform();
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::NotRequired);
    EXPECT_NEAR(model.controlPlaneAvailability(params),
                sdnav::prob::kOfN(1, 3, params.processAvailability),
                1e-15);
}

TEST(SwEngine, SingleMajorityProcessOnPerfectPlatform)
{
    auto catalog = singleProcessCatalog(fmea::QuorumClass::Majority);
    auto topo = topology::smallTopology(1);
    SwParams params = perfectPlatform();
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::NotRequired);
    EXPECT_NEAR(model.controlPlaneAvailability(params),
                sdnav::prob::kOfN(2, 3, params.processAvailability),
                1e-15);
}

TEST(SwEngine, ManualProcessUsesManualAvailability)
{
    auto catalog = singleProcessCatalog(fmea::QuorumClass::Majority,
                                        fmea::RestartMode::Manual);
    auto topo = topology::smallTopology(1);
    SwParams params = perfectPlatform();
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::NotRequired);
    EXPECT_NEAR(
        model.controlPlaneAvailability(params),
        sdnav::prob::kOfN(2, 3, params.manualProcessAvailability),
        1e-15);
}

TEST(SwEngine, SupervisorRequiredAddsSeriesTerm)
{
    // One "1 of 1" process on one node with perfect platform: policy
    // Required multiplies by A_S.
    auto catalog = singleProcessCatalog(fmea::QuorumClass::AnyOne);
    auto topo = topology::smallTopology(1, 1);
    SwParams params = perfectPlatform();
    SwAvailabilityModel without(catalog, topo,
                                SupervisorPolicy::NotRequired);
    SwAvailabilityModel with(catalog, topo, SupervisorPolicy::Required);
    EXPECT_NEAR(without.controlPlaneAvailability(params),
                params.processAvailability, 1e-15);
    EXPECT_NEAR(with.controlPlaneAvailability(params),
                params.processAvailability *
                    params.manualProcessAvailability,
                1e-15);
}

TEST(SwEngine, RackFactorsThroughOnSmall)
{
    // In the Small topology, the single rack is a pure series factor.
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams base;
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::NotRequired);
    double with_rack = model.controlPlaneAvailability(base);
    SwParams no_rack = base;
    no_rack.rackAvailability = 1.0;
    double without_rack = model.controlPlaneAvailability(no_rack);
    EXPECT_NEAR(with_rack, without_rack * base.rackAvailability,
                1e-12);
}

TEST(SwEngine, PolicyRequiredNeverImprovesAvailability)
{
    auto catalog = fmea::openContrail3();
    for (auto kind : {topology::ReferenceKind::Small,
                      topology::ReferenceKind::Medium,
                      topology::ReferenceKind::Large}) {
        auto topo = topology::referenceTopology(kind);
        SwParams params;
        SwAvailabilityModel scen1(catalog, topo,
                                  SupervisorPolicy::NotRequired);
        SwAvailabilityModel scen2(catalog, topo,
                                  SupervisorPolicy::Required);
        EXPECT_GE(scen1.controlPlaneAvailability(params),
                  scen2.controlPlaneAvailability(params));
        EXPECT_GE(scen1.hostDataPlaneAvailability(params),
                  scen2.hostDataPlaneAvailability(params));
    }
}

TEST(SwEngine, LocalDataPlaneClosedForm)
{
    // A_LDP = A^K (scenario 1) or A^K * A_S (scenario 2), K = 2.
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    SwAvailabilityModel scen1(catalog, topo,
                              SupervisorPolicy::NotRequired);
    SwAvailabilityModel scen2(catalog, topo,
                              SupervisorPolicy::Required);
    double a = params.processAvailability;
    double as = params.manualProcessAvailability;
    EXPECT_NEAR(scen1.localDataPlaneAvailability(params), a * a,
                1e-15);
    EXPECT_NEAR(scen2.localDataPlaneAvailability(params), a * a * as,
                1e-15);
}

TEST(SwEngine, HostDpIsSharedTimesLocal)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    SwParams params;
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::Required);
    EXPECT_NEAR(model.hostDataPlaneAvailability(params),
                model.sharedDataPlaneAvailability(params) *
                    model.localDataPlaneAvailability(params),
                1e-15);
}

TEST(SwEngine, PlaneAvailabilityDispatch)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::NotRequired);
    EXPECT_DOUBLE_EQ(model.planeAvailability(params,
                                             Plane::ControlPlane),
                     model.controlPlaneAvailability(params));
    EXPECT_DOUBLE_EQ(model.planeAvailability(params, Plane::DataPlane),
                     model.hostDataPlaneAvailability(params));
}

TEST(SwEngine, SharedElementCounts)
{
    auto catalog = fmea::openContrail3();
    // Small: 3 shared VMs + 3 shared hosts + 1 shared rack.
    SwAvailabilityModel small(catalog, topology::smallTopology(),
                              SupervisorPolicy::NotRequired);
    EXPECT_EQ(small.sharedElementCount(), 7u);
    // Medium: VMs dedicated; 3 hosts + 2 racks shared.
    SwAvailabilityModel medium(catalog, topology::mediumTopology(),
                               SupervisorPolicy::NotRequired);
    EXPECT_EQ(medium.sharedElementCount(), 5u);
    // Large: only the 3 racks are shared.
    SwAvailabilityModel large(catalog, topology::largeTopology(),
                              SupervisorPolicy::NotRequired);
    EXPECT_EQ(large.sharedElementCount(), 3u);
}

TEST(SwEngine, RoleCountMismatchRejected)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology(3); // 3 roles, catalog has 4.
    EXPECT_THROW(SwAvailabilityModel(catalog, topo,
                                     SupervisorPolicy::NotRequired),
                 sdnav::ModelError);
}

TEST(SwEngine, MonotoneInProcessAvailability)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::Required);
    double prev_cp = 0.0, prev_dp = 0.0;
    for (double shift : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
        SwParams params = SwParams{}.withDowntimeShift(shift);
        double cp = model.controlPlaneAvailability(params);
        double dp = model.hostDataPlaneAvailability(params);
        EXPECT_GT(cp, prev_cp);
        EXPECT_GT(dp, prev_dp);
        prev_cp = cp;
        prev_dp = dp;
    }
}

TEST(SwEngine, DataPlaneSurvivesDatabaseLoss)
{
    // The paper's key decoupling: Database quorum loss halts the CP
    // but not the host DP. Make manual processes (i.e. Database)
    // nearly dead and watch only the CP collapse.
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    SwParams params = perfectPlatform();
    params.manualProcessAvailability = 0.01;
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::NotRequired);
    EXPECT_LT(model.controlPlaneAvailability(params), 0.01);
    EXPECT_GT(model.sharedDataPlaneAvailability(params), 0.999);
}

TEST(SwEngine, ControlBlockRequiresColocation)
{
    // DP control block {control+dns+named} needs all three on ONE
    // node: with a perfect platform, its availability through the
    // engine is A_{1/3}(A^3), strictly less than requiring any
    // control + any dns + any named (A_{1/3}(A)^3).
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params = perfectPlatform();
    params.processAvailability = 0.9; // Exaggerate for contrast.
    params.manualProcessAvailability = 0.9;
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::NotRequired);
    double shared = model.sharedDataPlaneAvailability(params);
    double block = sdnav::prob::kOfN(1, 3, std::pow(0.9, 3));
    double discovery = sdnav::prob::kOfN(1, 3, 0.9);
    EXPECT_NEAR(shared, block * discovery, 1e-12);
    double wrong_model = std::pow(sdnav::prob::kOfN(1, 3, 0.9), 3) *
                         discovery;
    EXPECT_LT(shared, wrong_model);
}

TEST(SwEngine, ConvenienceWrapperMatchesClass)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::Required);
    EXPECT_DOUBLE_EQ(
        swAvailability(catalog, topo, SupervisorPolicy::Required,
                       params, Plane::ControlPlane),
        model.controlPlaneAvailability(params));
}

TEST(SwParams, DowntimeShiftLockStep)
{
    SwParams params;
    SwParams shifted = params.withDowntimeShift(-1.0);
    EXPECT_NEAR(shifted.processAvailability, 0.9998, 1e-12);
    EXPECT_NEAR(shifted.manualProcessAvailability, 0.998, 1e-12);
    // Platform untouched.
    EXPECT_DOUBLE_EQ(shifted.vmAvailability, params.vmAvailability);
    EXPECT_DOUBLE_EQ(shifted.rackAvailability,
                     params.rackAvailability);
}

TEST(SwParams, FromTimingsMatchesPaper)
{
    sdnav::prob::ProcessTimings timings{5000.0, 0.1, 1.0};
    SwParams params = SwParams::fromTimings(timings);
    EXPECT_NEAR(params.processAvailability, 0.99998, 1e-8);
    EXPECT_NEAR(params.manualProcessAvailability, 0.9998, 1e-7);
}

TEST(SupervisorPolicyTag, MatchesPaperNaming)
{
    EXPECT_EQ(supervisorPolicyTag(SupervisorPolicy::NotRequired), '1');
    EXPECT_EQ(supervisorPolicyTag(SupervisorPolicy::Required), '2');
}

} // anonymous namespace
