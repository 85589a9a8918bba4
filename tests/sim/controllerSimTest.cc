/**
 * @file
 * Tests for the behavioral controller simulator. Convergence checks
 * use exaggerated failure rates so confidence intervals resolve in
 * seconds of CPU; agreement with the static models is the paper's
 * future-work validation in miniature (the full runs live in
 * bench_simulation_validation).
 */

#include <utility>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "fmea/openContrail.hh"
#include "model/swCentric.hh"
#include "sim/controllerSim.hh"

namespace
{

using namespace sdnav::sim;
using sdnav::model::SupervisorPolicy;
using sdnav::model::SwParams;
namespace fmea = sdnav::fmea;
namespace topology = sdnav::topology;

/** Fast-failing configuration for statistically cheap tests. */
ControllerSimConfig
fastConfig()
{
    ControllerSimConfig config;
    config.process = {50.0, 0.5, 2.0}; // F, R, R_S (hours).
    config.supervisorMtbfHours = 50.0;
    config.maintenanceIntervalHours = 5.0;
    config.vmMtbfHours = 200.0;
    config.hostMtbfHours = 400.0;
    config.rackMtbfHours = 2000.0;
    config.vmAvailability = 0.99;
    config.hostAvailability = 0.995;
    config.rackAvailability = 0.999;
    config.monitoredHosts = 12;
    config.horizonHours = 3e5;
    config.batches = 20;
    config.seed = 101;
    return config;
}

TEST(StaticParams, DeriveFromTimings)
{
    ControllerSimConfig config;
    SwParams params = staticParamsFor(config);
    EXPECT_NEAR(params.processAvailability, 0.99998, 1e-8);
    EXPECT_NEAR(params.manualProcessAvailability, 0.9998, 1e-7);
    EXPECT_DOUBLE_EQ(params.vmAvailability, config.vmAvailability);
}

TEST(ControllerSim, ConvergesToStaticModelScenario1)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    config.modelRediscovery = false; // Static comparison mode.
    auto result = simulateController(
        catalog, topo, SupervisorPolicy::NotRequired, config);

    sdnav::model::SwAvailabilityModel model(
        catalog, topo, SupervisorPolicy::NotRequired);
    SwParams params = staticParamsFor(config);
    double cp = model.controlPlaneAvailability(params);
    double dp = model.hostDataPlaneAvailability(params);

    // Scenario 1's behavioral twist (manual restarts while the
    // supervisor waits for a maintenance window) genuinely lowers
    // availability vs the static model — with these exaggerated rates
    // supervisors are down ~5% of the time — so allow 3 half-widths
    // plus a bias allowance, and require the bias direction.
    EXPECT_LE(result.dpAvailability.mean, dp + 1e-3);
    EXPECT_NEAR(result.cpAvailability.mean, cp,
                3.0 * result.cpAvailability.halfWidth95() + 6e-3);
    EXPECT_NEAR(result.dpAvailability.mean, dp,
                3.0 * result.dpAvailability.halfWidth95() + 6e-3);
}

TEST(ControllerSim, ConvergesToStaticModelScenario2)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    ControllerSimConfig config = fastConfig();
    config.modelRediscovery = false;
    auto result = simulateController(catalog, topo,
                                     SupervisorPolicy::Required,
                                     config);

    sdnav::model::SwAvailabilityModel model(catalog, topo,
                                            SupervisorPolicy::Required);
    SwParams params = staticParamsFor(config);
    double cp = model.controlPlaneAvailability(params);
    double dp = model.hostDataPlaneAvailability(params);
    EXPECT_NEAR(result.cpAvailability.mean, cp,
                3.0 * result.cpAvailability.halfWidth95() + 2e-3);
    EXPECT_NEAR(result.dpAvailability.mean, dp,
                3.0 * result.dpAvailability.halfWidth95() + 2e-3);
}

TEST(ControllerSim, SupervisorPolicyReducesAvailability)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    auto scen1 = simulateController(
        catalog, topo, SupervisorPolicy::NotRequired, config);
    auto scen2 = simulateController(catalog, topo,
                                    SupervisorPolicy::Required, config);
    EXPECT_GT(scen1.dpAvailability.mean, scen2.dpAvailability.mean);
}

TEST(ControllerSim, RediscoveryTransientsAreMeasured)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    config.rediscoveryDelayHours = 0.25; // Exaggerated delay.
    auto result = simulateController(
        catalog, topo, SupervisorPolicy::NotRequired, config);
    EXPECT_GT(result.rediscoveryDowntimeFraction, 0.0);

    // A longer delay must lose more host-hours.
    config.rediscoveryDelayHours = 1.0;
    auto slower = simulateController(
        catalog, topo, SupervisorPolicy::NotRequired, config);
    EXPECT_GT(slower.rediscoveryDowntimeFraction,
              result.rediscoveryDowntimeFraction);
}

TEST(ControllerSim, RediscoveryDisabledReportsZero)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    config.modelRediscovery = false;
    auto result = simulateController(
        catalog, topo, SupervisorPolicy::NotRequired, config);
    EXPECT_DOUBLE_EQ(result.rediscoveryDowntimeFraction, 0.0);
}

TEST(ControllerSim, DeterministicPerSeed)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    config.horizonHours = 2e4;
    auto a = simulateController(catalog, topo,
                                SupervisorPolicy::Required, config);
    auto b = simulateController(catalog, topo,
                                SupervisorPolicy::Required, config);
    EXPECT_DOUBLE_EQ(a.cpAvailability.mean, b.cpAvailability.mean);
    EXPECT_DOUBLE_EQ(a.dpAvailability.mean, b.dpAvailability.mean);
    EXPECT_EQ(a.events, b.events);
}

TEST(ControllerSim, LastBatchClosesAtTheHorizon)
{
    // batches * (horizon / batches) rounds above both horizons, so
    // the last batch boundary must be the horizon itself.
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    const std::pair<double, std::size_t> shapes[] = {{1e6, 30},
                                                     {1002.1, 20}};
    for (const auto &[horizon, batches] : shapes) {
        ControllerSimConfig config;
        config.horizonHours = horizon;
        config.batches = batches;
        auto result = simulateController(
            catalog, topo, SupervisorPolicy::Required, config);
        EXPECT_EQ(result.cpAvailability.batches, batches) << horizon;
        EXPECT_EQ(result.dpAvailability.batches, batches) << horizon;
    }
}

TEST(ControllerSim, UnmonitoredDataPlaneIsNotReportedPerfect)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    config.monitoredHosts = 0;
    config.horizonHours = 2e4;
    auto result = simulateController(catalog, topo,
                                     SupervisorPolicy::Required,
                                     config);
    // With nothing to measure, DP must be flagged unmeasured and
    // report zero host-hours — not the 1.0 a stale initial fraction
    // would produce.
    EXPECT_FALSE(result.dpMeasured);
    EXPECT_DOUBLE_EQ(result.dpAvailability.mean, 0.0);
    EXPECT_DOUBLE_EQ(result.rediscoveryDowntimeFraction, 0.0);
    // CP accounting is unaffected.
    EXPECT_GT(result.cpAvailability.mean, 0.5);
    EXPECT_LE(result.cpAvailability.mean, 1.0);
}

TEST(ControllerSim, MonitoredRunReportsDpMeasured)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    config.horizonHours = 2e4;
    auto result = simulateController(catalog, topo,
                                     SupervisorPolicy::Required,
                                     config);
    EXPECT_TRUE(result.dpMeasured);
    EXPECT_GT(result.dpAvailability.mean, 0.0);
}

TEST(ControllerSim, DeterministicRepairsScheduleFromEventTime)
{
    // Scenario 1 restores every failed supervisor deterministically at
    // the next maintenance boundary, so boundary times carry bursts of
    // coincident SupRepair events; each repaired supervisor's next
    // failure must be anchored at that boundary, never at a stale
    // accounting cursor (which would throw the scheduled-in-the-past
    // guard or bias the duty cycle).
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    ControllerSimConfig config = fastConfig();
    config.supervisorMtbfHours = 2.0;       // Supervisors fail often...
    config.maintenanceIntervalHours = 1.0;  // ...and repair coincide.
    config.monitoredHosts = 24;
    config.horizonHours = 5e3;
    auto result = simulateController(
        catalog, topo, SupervisorPolicy::NotRequired, config);

    // With failure MTBF Fs and a mean wait of interval/2 until the
    // next boundary, the supervisor duty cycle is Fs / (Fs + w). All
    // processes needing manual restarts in the exposure window drags
    // DP below the supervised static model but the run must stay
    // internally consistent.
    EXPECT_GT(result.events, 1000u);
    EXPECT_GT(result.cpAvailability.mean, 0.0);
    EXPECT_LE(result.cpAvailability.mean, 1.0);
    EXPECT_GT(result.dpAvailability.mean, 0.0);
    EXPECT_LE(result.dpAvailability.mean, 1.0);

    // Determinism must survive the coincident-event bursts.
    auto again = simulateController(
        catalog, topo, SupervisorPolicy::NotRequired, config);
    EXPECT_DOUBLE_EQ(result.cpAvailability.mean,
                     again.cpAvailability.mean);
    EXPECT_EQ(result.events, again.events);
}

TEST(ControllerSim, OutageStatisticsPopulated)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    auto result = simulateController(catalog, topo,
                                     SupervisorPolicy::Required,
                                     config);
    EXPECT_GT(result.cpOutages, 0u);
    EXPECT_GT(result.cpMeanOutageHours, 0.0);
    EXPECT_GE(result.cpMaxOutageHours, result.cpMeanOutageHours);
    EXPECT_GT(result.events, 10000u);
}

TEST(ControllerSim, WorksWithAlternativeCatalog)
{
    auto catalog = fmea::raftStyleController();
    auto topo = topology::largeTopology(catalog.roles().size());
    ControllerSimConfig config = fastConfig();
    config.horizonHours = 5e4;
    auto result = simulateController(catalog, topo,
                                     SupervisorPolicy::Required,
                                     config);
    EXPECT_GT(result.cpAvailability.mean, 0.5);
    EXPECT_LE(result.cpAvailability.mean, 1.0);
}

TEST(ControllerSim, ConfigValidation)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    config.horizonHours = 0.0;
    EXPECT_THROW(simulateController(catalog, topo,
                                    SupervisorPolicy::Required,
                                    config),
                 sdnav::ModelError);
    config = fastConfig();
    config.batches = 1;
    EXPECT_THROW(simulateController(catalog, topo,
                                    SupervisorPolicy::Required,
                                    config),
                 sdnav::ModelError);
    // Role-count mismatch.
    config = fastConfig();
    EXPECT_THROW(simulateController(catalog, topology::smallTopology(2),
                                    SupervisorPolicy::Required,
                                    config),
                 sdnav::ModelError);
}

TEST(ControllerSim, CpAttributionSumsToCpDowntime)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    auto result = simulateController(catalog, topo,
                                     SupervisorPolicy::Required,
                                     config);

    // Attributing whole episodes to the initiating class makes the
    // rows-sum-to-total invariant exact (1e-12 on the availability
    // fraction, the ISSUE acceptance bar).
    double attributed_fraction =
        result.cpAttribution.downtimeHours() / config.horizonHours;
    EXPECT_NEAR(attributed_fraction, 1.0 - result.cpAvailability.mean,
                1e-12);
    EXPECT_EQ(result.cpAttribution.episodes(), result.cpOutages);
    EXPECT_EQ(result.cpAttribution.censoredEpisodes,
              result.cpCensoredOutages);
    EXPECT_DOUBLE_EQ(result.cpAttribution.observedHours,
                     config.horizonHours);
}

TEST(ControllerSim, DpAttributionSumsToDpDowntime)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    auto result = simulateController(catalog, topo,
                                     SupervisorPolicy::Required,
                                     config);
    ASSERT_TRUE(result.dpMeasured);

    // DP observes monitoredHosts observables for the whole horizon.
    double host_hours = config.horizonHours *
                        static_cast<double>(config.monitoredHosts);
    EXPECT_DOUBLE_EQ(result.dpAttribution.observedHours, host_hours);
    double attributed_fraction =
        result.dpAttribution.downtimeHours() / host_hours;
    EXPECT_NEAR(attributed_fraction, 1.0 - result.dpAvailability.mean,
                1e-12);
    EXPECT_GT(result.dpAttribution.episodes(), 0u);
}

TEST(ControllerSim, RediscoveryEpisodesAttributedToRediscovery)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    ControllerSimConfig config = fastConfig();
    config.rediscoveryDelayHours = 0.25; // exaggerated, 15 minutes
    auto result = simulateController(catalog, topo,
                                     SupervisorPolicy::NotRequired,
                                     config);
    ASSERT_GT(result.rediscoveryDowntimeFraction, 0.0);
    const auto &redisc =
        result.dpAttribution.of(ComponentClass::Rediscovery);
    EXPECT_GT(redisc.episodes, 0u);
    EXPECT_GT(redisc.downtimeHours, 0.0);
}

} // anonymous namespace
