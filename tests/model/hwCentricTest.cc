/**
 * @file
 * Tests for the HW-centric closed forms (paper eqs. 3, 6, 8) against
 * the exact RBD evaluation and the paper's approximations.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <random>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "model/exactModel.hh"
#include "model/hwCentric.hh"
#include "model/swCentric.hh"
#include "prob/kofn.hh"

namespace
{

using namespace sdnav::model;
namespace topology = sdnav::topology;

HwParams
paperParams()
{
    return HwParams{}; // Defaults are the paper's values.
}

TEST(HwClosedForms, SmallMatchesExactRbd)
{
    HwParams params = paperParams();
    double closed = hwSmallAvailability(params);
    double exact =
        hwExactAvailability(topology::smallTopology(), params);
    EXPECT_NEAR(closed, exact, 1e-12);
}

TEST(HwClosedForms, MediumMatchesExactRbdToFirstOrder)
{
    // Eq. (6) carries the paper's (4 - 3A_H - A_R) simplification;
    // the residual is O((1-A_H)(1-A_R)).
    HwParams params = paperParams();
    double closed = hwMediumAvailability(params);
    double exact =
        hwExactAvailability(topology::mediumTopology(), params);
    EXPECT_NEAR(closed, exact, 1e-8);
}

TEST(HwClosedForms, LargeMatchesExactRbd)
{
    HwParams params = paperParams();
    double closed = hwLargeAvailability(params);
    double exact =
        hwExactAvailability(topology::largeTopology(), params);
    EXPECT_NEAR(closed, exact, 1e-12);
}

TEST(HwClosedForms, ExactAgreementAcrossParameterGrid)
{
    for (double ac : {0.999, 0.9995, 0.99999}) {
        for (double ah : {0.999, 0.9999}) {
            HwParams params = paperParams();
            params.roleAvailability = ac;
            params.hostAvailability = ah;
            EXPECT_NEAR(
                hwSmallAvailability(params),
                hwExactAvailability(topology::smallTopology(), params),
                1e-12)
                << "ac=" << ac << " ah=" << ah;
            EXPECT_NEAR(
                hwLargeAvailability(params),
                hwExactAvailability(topology::largeTopology(), params),
                1e-12)
                << "ac=" << ac << " ah=" << ah;
        }
    }
}

TEST(HwClosedForms, DispatchesByKind)
{
    HwParams params = paperParams();
    EXPECT_DOUBLE_EQ(hwAvailability(topology::ReferenceKind::Small,
                                    params),
                     hwSmallAvailability(params));
    EXPECT_DOUBLE_EQ(hwAvailability(topology::ReferenceKind::Medium,
                                    params),
                     hwMediumAvailability(params));
    EXPECT_DOUBLE_EQ(hwAvailability(topology::ReferenceKind::Large,
                                    params),
                     hwLargeAvailability(params));
}

TEST(HwApproximations, TrackTheClosedForms)
{
    // The paper's A ~= A_{2/3} intuition: within ~1e-7 at defaults.
    HwParams params = paperParams();
    EXPECT_NEAR(hwSmallApproximation(params),
                hwSmallAvailability(params), 1e-7);
    EXPECT_NEAR(hwMediumApproximation(params),
                hwMediumAvailability(params), 1e-7);
    EXPECT_NEAR(hwLargeApproximation(params),
                hwLargeAvailability(params), 1e-7);
}

TEST(HwApproximations, ClosedFormOfSmallApproximation)
{
    HwParams params = paperParams();
    double alpha = params.roleAvailability * params.vmAvailability *
                   params.hostAvailability;
    EXPECT_NEAR(hwSmallApproximation(params),
                sdnav::prob::kOfN(2, 3, alpha) *
                    params.rackAvailability,
                1e-15);
}

TEST(HwModel, PerfectPartsGivePerfectController)
{
    HwParams params;
    params.roleAvailability = 1.0;
    params.vmAvailability = 1.0;
    params.hostAvailability = 1.0;
    params.rackAvailability = 1.0;
    EXPECT_DOUBLE_EQ(hwSmallAvailability(params), 1.0);
    EXPECT_DOUBLE_EQ(hwMediumAvailability(params), 1.0);
    EXPECT_DOUBLE_EQ(hwLargeAvailability(params), 1.0);
}

TEST(HwModel, DeadRoleKillsController)
{
    HwParams params = paperParams();
    params.roleAvailability = 0.0;
    EXPECT_DOUBLE_EQ(hwSmallAvailability(params), 0.0);
    EXPECT_DOUBLE_EQ(hwLargeAvailability(params), 0.0);
}

TEST(HwModel, MonotoneInEveryParameter)
{
    HwParams lo = paperParams();
    for (auto field :
         {&HwParams::roleAvailability, &HwParams::vmAvailability,
          &HwParams::hostAvailability, &HwParams::rackAvailability}) {
        HwParams hi = lo;
        hi.*field = std::min(1.0, lo.*field + 0.0004);
        EXPECT_GE(hwSmallAvailability(hi), hwSmallAvailability(lo));
        EXPECT_GE(hwMediumAvailability(hi), hwMediumAvailability(lo));
        EXPECT_GE(hwLargeAvailability(hi), hwLargeAvailability(lo));
    }
}

TEST(HwModel, ValidationRejectsBadParams)
{
    HwParams params = paperParams();
    params.roleAvailability = 1.5;
    EXPECT_THROW(params.validate(), sdnav::ModelError);
    EXPECT_THROW(hwSmallAvailability(params), sdnav::ModelError);
}

/** The exact HW-centric model of a topology, held for inspection. */
ExactPlaneModel
hwExactModel(const topology::DeploymentTopology &topo)
{
    return ExactPlaneModel(hwCentricCatalog(), topo,
                           SupervisorPolicy::NotRequired,
                           sdnav::fmea::Plane::ControlPlane);
}

TEST(HwExactModel, ComponentInventorySmall)
{
    // 1 rack + 3 hosts + 3 VMs + 12 role instances.
    EXPECT_EQ(hwExactModel(topology::smallTopology()).componentCount(),
              19u);
}

TEST(HwExactModel, ComponentInventoryLarge)
{
    // 3 racks + 12 hosts + 12 VMs + 12 role instances.
    EXPECT_EQ(hwExactModel(topology::largeTopology()).componentCount(),
              39u);
}

TEST(HwExactModel, RoleCountMismatchRejected)
{
    // hwCentricCatalog() has four roles; this topology has three.
    EXPECT_THROW(hwExactAvailability(topology::rackSweepTopology(3, 3),
                                     paperParams()),
                 sdnav::ModelError);
}

std::uint64_t
bitsOf(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

TEST(HwExactModel, PaperPointBitsArePinned)
{
    // IEEE-754 bit patterns of the exact values. The goldens print
    // only 10-12 digits, so only these hold the last bits.
    HwParams params = paperParams();
    EXPECT_EQ(bitsOf(hwExactAvailability(topology::smallTopology(),
                                         params)),
              0x3fefffe85ee4d4b2u);
    EXPECT_EQ(bitsOf(hwExactAvailability(topology::mediumTopology(),
                                         params)),
              0x3fefffe857e35830u);
    EXPECT_EQ(bitsOf(hwExactAvailability(topology::largeTopology(),
                                         params)),
              0x3feffffd42727072u);
}

TEST(HwExactModel, RackSensitivityBitsArePinned)
{
    // bench_rack_ablation's A_R sensitivity table, 1..3 racks per
    // row; 0.99999 is the paper's A_R.
    struct Row
    {
        double rackAvailability;
        std::uint64_t bits[3];
    };
    const Row rows[] = {
        {0.9999,
         {0x3fefff2ba0835899u, 0x3fefff2b5ac21949u,
          0x3feffffc76300009u}},
        {0.99995,
         {0x3fefff947c064f4bu, 0x3fefff9459253d57u,
          0x3feffffceae0a559u}},
        {0.99999,
         {0x3fefffe85ed57b0eu, 0x3fefffe857db9860u,
          0x3feffffd42727072u}},
        {0.999999,
         {0x3feffffb3eaa7e7fu, 0x3feffffb3df7e76bu,
          0x3feffffd55711757u}},
    };
    for (const Row &row : rows) {
        HwParams params = paperParams();
        params.rackAvailability = row.rackAvailability;
        for (std::size_t r = 1; r <= 3; ++r)
            EXPECT_EQ(bitsOf(hwExactAvailability(
                          topology::rackSweepTopology(r), params)),
                      row.bits[r - 1])
                << "A_R=" << row.rackAvailability << ", " << r
                << " racks";
    }
}

TEST(HwCatalogBridge, SwEngineReproducesHwClosedForms)
{
    // Feeding the degenerate HW catalog through the SW-centric engine
    // must reproduce section V exactly (the two models are one
    // framework).
    HwParams params = paperParams();
    auto catalog = hwCentricCatalog();
    SwParams sw = hwToSwParams(params);
    double engine_small = swAvailability(
        catalog, topology::smallTopology(), SupervisorPolicy::NotRequired,
        sw, sdnav::fmea::Plane::ControlPlane);
    EXPECT_NEAR(engine_small, hwSmallAvailability(params), 1e-12);
    double engine_large = swAvailability(
        catalog, topology::largeTopology(), SupervisorPolicy::NotRequired,
        sw, sdnav::fmea::Plane::ControlPlane);
    EXPECT_NEAR(engine_large, hwLargeAvailability(params), 1e-12);
}

TEST(HwCatalogBridge, MediumAgreesWithExactNotTruncatedForm)
{
    HwParams params = paperParams();
    auto catalog = hwCentricCatalog();
    SwParams sw = hwToSwParams(params);
    double engine = swAvailability(
        catalog, topology::mediumTopology(),
        SupervisorPolicy::NotRequired, sw,
        sdnav::fmea::Plane::ControlPlane);
    double exact =
        hwExactAvailability(topology::mediumTopology(), params);
    EXPECT_NEAR(engine, exact, 1e-12);
}

TEST(HwCatalogBridge, SwEngineMatchesExactAtRandomPoints)
{
    // The conditioning engine is independent of the BDD builder the
    // exact value shares with the SW-centric exact path.
    auto catalog = hwCentricCatalog();
    const topology::DeploymentTopology topos[] = {
        topology::smallTopology(),      topology::mediumTopology(),
        topology::largeTopology(),      topology::rackSweepTopology(1),
        topology::rackSweepTopology(2), topology::rackSweepTopology(3)};
    std::mt19937_64 rng(20190324);
    std::uniform_real_distribution<double> unit(0.99, 1.0);
    for (std::size_t t = 0; t < std::size(topos); ++t) {
        SwAvailabilityModel engine(catalog, topos[t],
                                   SupervisorPolicy::NotRequired);
        for (int i = 0; i < 100; ++i) {
            HwParams params;
            params.roleAvailability = unit(rng);
            params.vmAvailability = unit(rng);
            params.hostAvailability = unit(rng);
            params.rackAvailability = unit(rng);
            EXPECT_NEAR(engine.controlPlaneAvailability(
                            hwToSwParams(params)),
                        hwExactAvailability(topos[t], params), 1e-12)
                << "topology " << t << ", point " << i;
        }
    }
}

} // anonymous namespace
