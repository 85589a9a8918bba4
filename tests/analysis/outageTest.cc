/**
 * @file
 * Tests for analytic outage frequency/duration, including validation
 * against the discrete-event renewal simulator.
 */

#include <algorithm>
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "analysis/outage.hh"
#include "common/error.hh"
#include "common/units.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "sim/renewalSim.hh"
#include "support/referenceProbability.hh"

namespace
{

using namespace sdnav;
using namespace sdnav::analysis;

rbd::RbdSystem
singleComponent(double a)
{
    rbd::RbdSystem system;
    auto c = system.addComponent("only", a);
    system.setRoot(rbd::component(c));
    return system;
}

TEST(Outage, SingleComponentClosedForm)
{
    // One component: system outage frequency equals the component's
    // cycle frequency A/MTBF; MDT equals the component MTTR.
    double a = 0.99;
    double mtbf = 1000.0;
    auto system = singleComponent(a);
    OutageProfile profile = outageProfile(system, mtbf);
    EXPECT_NEAR(profile.availability, a, 1e-15);
    EXPECT_NEAR(profile.outagesPerHour, a / mtbf, 1e-15);
    EXPECT_NEAR(profile.meanOutageHours(),
                mttrFromAvailability(a, mtbf), 1e-9);
    EXPECT_NEAR(profile.meanTimeBetweenOutagesHours(), mtbf, 1e-9);
}

TEST(Outage, SeriesFrequencyAddsToFirstOrder)
{
    // Two highly available series components: nu ~= nu1 + nu2.
    rbd::RbdSystem system;
    auto a = system.addComponent("a", 0.9999);
    auto b = system.addComponent("b", 0.9999);
    system.setRoot(rbd::series({rbd::component(a), rbd::component(b)}));
    OutageProfile profile = outageProfile(system, 1000.0);
    EXPECT_NEAR(profile.outagesPerHour, 2.0 * 0.9999 * 0.9999 / 1000.0,
                1e-9);
}

TEST(Outage, ParallelOutagesAreRare)
{
    rbd::RbdSystem system;
    auto a = system.addComponent("a", 0.99);
    auto b = system.addComponent("b", 0.99);
    system.setRoot(rbd::parallel({rbd::component(a),
                                  rbd::component(b)}));
    OutageProfile profile = outageProfile(system, 1000.0);
    // System fails only when one component fails while the other is
    // already down: nu = 2 * (1 - a) * a / MTBF.
    EXPECT_NEAR(profile.outagesPerHour,
                2.0 * 0.01 * 0.99 / 1000.0, 1e-12);
    // U = nu * MDT must close the triangle.
    EXPECT_NEAR(profile.meanOutageHours() * profile.outagesPerHour,
                1.0 - profile.availability, 1e-15);
}

TEST(Outage, FrequencyDurationIdentityHolds)
{
    auto catalog = fmea::openContrail3();
    auto system = model::buildExactSystem(
        catalog, topology::smallTopology(),
        model::SupervisorPolicy::Required, model::SwParams{},
        fmea::Plane::ControlPlane);
    OutageProfile profile = outageProfile(system, 5000.0);
    EXPECT_NEAR(profile.meanOutageHours() * profile.outagesPerHour,
                1.0 - profile.availability, 1e-12);
    EXPECT_GT(profile.outagesPerYear(), 0.0);
}

TEST(Outage, FrequencyMatchesReferenceGradient)
{
    // nu = sum_i I_B(i) a_i / MTBF_i, with every Birnbaum importance
    // from the long double conditioning reference.
    auto catalog = fmea::openContrail3();
    auto system = model::buildExactSystem(
        catalog, topology::largeTopology(),
        model::SupervisorPolicy::Required, model::SwParams{},
        fmea::Plane::ControlPlane);
    std::vector<double> mtbfs = classifyMtbfs(system);
    bdd::BddManager manager;
    bdd::NodeRef root = system.compile(manager);
    const std::vector<double> &probs = system.availabilities();
    std::vector<long double> birnbaum =
        test::referenceGradient(manager, root, probs);
    long double nu = 0.0L;
    for (std::size_t i = 0; i < probs.size(); ++i)
        nu += birnbaum[i] * probs[i] / mtbfs[i];
    double expected = static_cast<double>(nu);
    EXPECT_NEAR(outageProfile(system, mtbfs).outagesPerHour, expected,
                1e-10 * expected);
}

TEST(Outage, SimulationConfirmsFrequencyAndDuration)
{
    // 2-of-3 block with exaggerated rates; compare the analytic
    // frequency-duration profile with the renewal simulator's
    // empirical outage statistics.
    rbd::RbdSystem system;
    double a = 0.95;
    auto c0 = system.addComponent("c0", a);
    auto c1 = system.addComponent("c1", a);
    auto c2 = system.addComponent("c2", a);
    system.setRoot(rbd::kOfN(2, {rbd::component(c0),
                                 rbd::component(c1),
                                 rbd::component(c2)}));
    double mtbf = 100.0;
    OutageProfile analytic = outageProfile(system, mtbf);

    sim::RenewalSimConfig config;
    config.horizonHours = 4e5;
    config.seed = 31;
    auto sim_result = sim::simulateRenewalSystem(
        system, sim::exponentialTimingsFor(system, mtbf), config);

    double sim_outages_per_hour =
        static_cast<double>(sim_result.outageCount) /
        config.horizonHours;
    EXPECT_NEAR(sim_outages_per_hour, analytic.outagesPerHour,
                0.05 * analytic.outagesPerHour);
    EXPECT_NEAR(sim_result.meanOutageHours, analytic.meanOutageHours(),
                0.05 * analytic.meanOutageHours());
}

TEST(Outage, ContributionsSumToTotalAndRank)
{
    auto catalog = fmea::openContrail3();
    auto system = model::buildExactSystem(
        catalog, topology::smallTopology(),
        model::SupervisorPolicy::Required, model::SwParams{},
        fmea::Plane::ControlPlane);
    OutageProfile profile = outageProfile(system, 5000.0);
    auto contributions = outageContributions(system, 5000.0);
    double total = 0.0, share = 0.0;
    for (const auto &c : contributions) {
        total += c.outagesPerYear;
        share += c.share;
    }
    EXPECT_NEAR(total, profile.outagesPerYear(), 1e-9);
    EXPECT_NEAR(share, 1.0, 1e-9);
    // Descending order, up to the 1e-10 relative window inside which
    // tied components rank in id order.
    for (std::size_t i = 1; i < contributions.size(); ++i) {
        EXPECT_GE(contributions[i - 1].outagesPerYear,
                  contributions[i].outagesPerYear * (1.0 - 1e-10));
    }
    // The single rack initiates most Small-topology CP outages when
    // every component shares one MTBF.
    EXPECT_EQ(contributions.front().name, "rack0");
}

TEST(Outage, SymmetricComponentsRankInIdOrder)
{
    // The `sdnav_cli outage --topology small` ranking: each role's
    // three supervisors, and the three VMs, are interchangeable, so
    // their outage rates tie up to rounding and must rank
    // consecutively in id order.
    auto system = model::buildExactSystem(
        fmea::openContrail3(), topology::smallTopology(),
        model::SupervisorPolicy::Required, model::SwParams{},
        fmea::Plane::ControlPlane);
    auto ranking = outageContributions(system, classifyMtbfs(system));
    for (const std::string prefix : {"supervisor-Database-", "vm"}) {
        auto first = std::find_if(ranking.begin(), ranking.end(),
                                  [&](const OutageContribution &c) {
                                      return c.name == prefix + "0";
                                  });
        ASSERT_GE(std::distance(first, ranking.end()), 3) << prefix;
        for (int node = 0; node < 3; ++node) {
            EXPECT_EQ(first[node].name, prefix + std::to_string(node))
                << "rank " << (first - ranking.begin()) + node + 1;
        }
        EXPECT_LT(first[0].component, first[1].component);
        EXPECT_LT(first[1].component, first[2].component);
    }
}

TEST(Outage, ClassifiedMtbfsFollowNames)
{
    auto catalog = fmea::openContrail3();
    auto system = model::buildExactSystem(
        catalog, topology::smallTopology(),
        model::SupervisorPolicy::Required, model::SwParams{},
        fmea::Plane::ControlPlane);
    MtbfClasses classes;
    auto mtbfs = classifyMtbfs(system, classes);
    ASSERT_EQ(mtbfs.size(), system.componentCount());
    for (rbd::ComponentId id = 0; id < system.componentCount(); ++id) {
        const std::string &name = system.componentName(id);
        double expected = classes.processHours;
        if (name.rfind("rack", 0) == 0)
            expected = classes.rackHours;
        else if (name.rfind("host", 0) == 0)
            expected = classes.hostHours;
        else if (name.rfind("vm", 0) == 0)
            expected = classes.vmHours;
        EXPECT_DOUBLE_EQ(mtbfs[id], expected) << name;
    }
}

TEST(Outage, PlatformMtbfsShrinkOutageFrequency)
{
    // With realistic (long) platform MTBFs the rack stops dominating
    // the outage *frequency* even though it still dominates downtime.
    auto catalog = fmea::openContrail3();
    auto system = model::buildExactSystem(
        catalog, topology::smallTopology(),
        model::SupervisorPolicy::Required, model::SwParams{},
        fmea::Plane::ControlPlane);
    OutageProfile common = outageProfile(system, 5000.0);
    OutageProfile classed =
        outageProfile(system, classifyMtbfs(system));
    EXPECT_LT(classed.outagesPerHour, common.outagesPerHour);
    // Availability is MTBF-independent.
    EXPECT_NEAR(classed.availability, common.availability, 1e-15);
    // Rare-but-long: the classed profile's mean outage is longer.
    EXPECT_GT(classed.meanOutageHours(), common.meanOutageHours());
}

TEST(Outage, InputValidation)
{
    auto system = singleComponent(0.9);
    EXPECT_THROW(outageProfile(system, 0.0), ModelError);
    EXPECT_THROW(outageProfile(system, std::vector<double>{}),
                 ModelError);
}

TEST(Outage, TableRendering)
{
    auto system = singleComponent(0.99999);
    auto table =
        outageProfileTable("profile", outageProfile(system, 5000.0));
    std::string out = table.str();
    EXPECT_NE(out.find("outages/year"), std::string::npos);
    EXPECT_NE(out.find("0.99999"), std::string::npos);
}

} // anonymous namespace
