/**
 * @file
 * Tests for the deterministic parallel sweep executor: grid-order
 * results, bit-identity across thread counts, chunk boundary cases,
 * and exception propagation. The executor underneath has its own
 * cases in tests/common/parallelTest.cc.
 */

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/figures.hh"
#include "analysis/sensitivity.hh"
#include "analysis/sweep.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "topology/deployment.hh"

namespace
{

using namespace sdnav::analysis;

/** A pure, slightly expensive grid function. */
double
gridValue(std::size_t i)
{
    double x = static_cast<double>(i);
    return std::sin(x * 0.37) * std::exp(-x / 1000.0) + x * 1e-6;
}

SweepOptions
withThreads(std::size_t threads, std::size_t chunk = 0)
{
    SweepOptions options;
    options.threads = threads;
    options.chunk = chunk;
    return options;
}

TEST(Sweep, ResolvedThreadsNeverZero)
{
    EXPECT_GE(SweepOptions{}.resolvedThreads(), 1u);
    EXPECT_EQ(withThreads(3).resolvedThreads(), 3u);
}

TEST(Sweep, EmptyGridCallsNothing)
{
    std::atomic<int> calls{0};
    forEachGridPoint(
        0, [&](std::size_t) { ++calls; }, withThreads(8));
    EXPECT_EQ(calls.load(), 0);
    EXPECT_TRUE(sweepGrid(0, gridValue, withThreads(8)).empty());
}

TEST(Sweep, SinglePointManyThreads)
{
    auto results = sweepGrid(1, gridValue, withThreads(8));
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0], gridValue(0));
}

TEST(Sweep, ResultsAreInGridOrder)
{
    auto results = sweepGrid(257, gridValue, withThreads(4));
    ASSERT_EQ(results.size(), 257u);
    for (std::size_t i = 0; i < results.size(); ++i)
        EXPECT_EQ(results[i], gridValue(i)) << "i=" << i;
}

TEST(Sweep, BitIdenticalAcrossThreadCounts)
{
    auto serial = sweepGrid(1000, gridValue, withThreads(1));
    for (std::size_t threads : {2u, 8u}) {
        auto parallel = sweepGrid(1000, gridValue,
                                  withThreads(threads));
        // operator== on vector<double>: bit-identical, not just near.
        EXPECT_TRUE(serial == parallel) << threads << " threads";
    }
}

TEST(Sweep, EveryIndexVisitedExactlyOnceAtChunkBoundaries)
{
    // Chunk sizes around the grid size exercise the last-chunk
    // clamping: 1 (per-point claims), a non-divisor, an exact
    // divisor, the full grid, and larger than the grid.
    const std::size_t points = 96;
    for (std::size_t chunk : {1u, 7u, 32u, 96u, 1000u}) {
        std::vector<std::atomic<int>> visits(points);
        forEachGridPoint(
            points, [&](std::size_t i) { ++visits[i]; },
            withThreads(4, chunk));
        for (std::size_t i = 0; i < points; ++i)
            EXPECT_EQ(visits[i].load(), 1)
                << "chunk=" << chunk << " i=" << i;
    }
}

TEST(Sweep, MoreThreadsThanPointsIsSafe)
{
    auto serial = sweepGrid(3, gridValue, withThreads(1));
    auto wide = sweepGrid(3, gridValue, withThreads(16));
    EXPECT_TRUE(serial == wide);
}

TEST(Sweep, ExceptionPropagatesFromWorker)
{
    auto thrower = [](std::size_t i) {
        if (i == 37)
            throw std::runtime_error("grid point 37 failed");
    };
    EXPECT_THROW(forEachGridPoint(100, thrower, withThreads(4)),
                 std::runtime_error);
    EXPECT_THROW(forEachGridPoint(100, thrower, withThreads(1)),
                 std::runtime_error);
}

TEST(Sweep, Figure3BitIdenticalAcrossThreadCounts)
{
    sdnav::model::HwParams params;
    auto serial = figure3(params, 0.999, 1.0, 41, withThreads(1));
    auto two = figure3(params, 0.999, 1.0, 41, withThreads(2));
    auto eight = figure3(params, 0.999, 1.0, 41, withThreads(8));
    EXPECT_TRUE(serial.ys == two.ys);
    EXPECT_TRUE(serial.ys == eight.ys);
}

TEST(Sweep, Figure4BitIdenticalAcrossThreadCounts)
{
    auto catalog = sdnav::fmea::openContrail3();
    sdnav::model::SwParams params;
    auto serial = figure4(catalog, params, 21, withThreads(1));
    auto eight = figure4(catalog, params, 21, withThreads(8));
    EXPECT_TRUE(serial.ys == eight.ys);
    EXPECT_TRUE(serial.xs == eight.xs);
}

TEST(Sweep, OneFrozenModelServesEightThreads)
{
    // One immutable model, eight workers each with its own scratch:
    // the concurrent answers must equal a serial pass bit for bit.
    sdnav::model::ExactPlaneModel model(
        sdnav::fmea::openContrail3(), sdnav::topology::smallTopology(),
        sdnav::model::SupervisorPolicy::Required,
        sdnav::fmea::Plane::ControlPlane);
    sdnav::model::SwParams base;
    auto point = [&](std::size_t i) {
        thread_local sdnav::bdd::ProbabilityScratch scratch;
        return model.availability(
            base.withDowntimeShift(0.01 * static_cast<double>(i) - 1.0),
            scratch);
    };
    auto serial = sweepGrid(200, point, withThreads(1));
    auto eight = sweepGrid(200, point, withThreads(8));
    EXPECT_TRUE(serial == eight);
}

TEST(Sweep, RepeatedSweepsOnPersistentWorkersStayBitIdentical)
{
    // The workers and their thread_local scratch outlive each sweep.
    // Alternate two diagrams of different sizes through the same
    // scratches for 20 rounds: every round must equal the serial run.
    using namespace sdnav;
    auto raft = fmea::raftStyleController();
    model::ExactPlaneModel small(
        fmea::openContrail3(), topology::smallTopology(),
        model::SupervisorPolicy::Required, fmea::Plane::ControlPlane);
    model::ExactPlaneModel large(
        raft, topology::largeTopology(raft.roles().size(), 5),
        model::SupervisorPolicy::Required, fmea::Plane::ControlPlane);
    auto sweep = [](const model::ExactPlaneModel &m, std::size_t threads) {
        return sweepGrid(
            64,
            [&](std::size_t i) {
                thread_local bdd::ProbabilityScratch scratch;
                return m.availability(
                    model::SwParams{}.withDowntimeShift(
                        0.03 * static_cast<double>(i) - 1.0),
                    scratch);
            },
            withThreads(threads));
    };
    auto serial_small = sweep(small, 1);
    auto serial_large = sweep(large, 1);
    for (int round = 0; round < 20; ++round) {
        EXPECT_TRUE(sweep(small, 4) == serial_small) << "round " << round;
        EXPECT_TRUE(sweep(large, 4) == serial_large) << "round " << round;
    }
}

TEST(Sweep, SensitivityBitIdenticalAcrossThreadCounts)
{
    sdnav::model::HwParams params;
    auto serial = hwSensitivity(sdnav::topology::ReferenceKind::Large,
                                params, withThreads(1));
    auto four = hwSensitivity(sdnav::topology::ReferenceKind::Large,
                              params, withThreads(4));
    ASSERT_EQ(serial.size(), four.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].parameter, four[i].parameter);
        EXPECT_EQ(serial[i].derivative, four[i].derivative);
        EXPECT_EQ(serial[i].improvedAvailability,
                  four[i].improvedAvailability);
        EXPECT_EQ(serial[i].downtimeSavedMinutes,
                  four[i].downtimeSavedMinutes);
    }
}

} // anonymous namespace
