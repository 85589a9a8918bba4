/**
 * @file
 * Tests for the src/obs metrics library: counter/gauge/timer
 * correctness, snapshot shape and determinism, and the per-thread
 * cell design under real thread churn (this suite runs in the TSan
 * CI job alongside the other threaded suites).
 */

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "obs/obs.hh"

namespace
{

using namespace sdnav;

TEST(Counter, StartsAtZeroAndAccumulates)
{
    obs::Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    counter.add();
    counter.add(41);
    EXPECT_EQ(counter.value(), 42u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Counter, SumsAcrossThreadsExactly)
{
    obs::Counter counter;
    constexpr std::size_t threads = 8;
    constexpr std::uint64_t per_thread = 10000;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&counter] {
            for (std::uint64_t i = 0; i < per_thread; ++i)
                counter.add();
        });
    }
    for (std::thread &worker : pool)
        worker.join();
    EXPECT_EQ(counter.value(), threads * per_thread);
}

TEST(Counter, CellsSurviveThreadExit)
{
    // A thread's contribution must not disappear when the thread
    // does: cells belong to the counter, not to the thread.
    obs::Counter counter;
    std::thread([&counter] { counter.add(7); }).join();
    std::thread([&counter] { counter.add(5); }).join();
    EXPECT_EQ(counter.value(), 12u);
}

TEST(Gauge, SetAndSetMax)
{
    obs::Gauge gauge;
    EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
    gauge.set(3.5);
    EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
    gauge.setMax(2.0); // lower: no effect
    EXPECT_DOUBLE_EQ(gauge.value(), 3.5);
    gauge.setMax(9.0); // higher: raises
    EXPECT_DOUBLE_EQ(gauge.value(), 9.0);
}

TEST(Gauge, SetMaxRacesToTheMaximum)
{
    obs::Gauge gauge;
    constexpr int threads = 8;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&gauge, t] {
            for (int i = 0; i < 1000; ++i)
                gauge.setMax(static_cast<double>(t * 1000 + i));
        });
    }
    for (std::thread &worker : pool)
        worker.join();
    EXPECT_DOUBLE_EQ(gauge.value(), 7999.0);
}

TEST(Timer, FoldsCountTotalMinMax)
{
    obs::Timer timer;
    EXPECT_EQ(timer.stats().count, 0u);
    EXPECT_DOUBLE_EQ(timer.stats().meanMs(), 0.0);
    timer.record(2.0);
    timer.record(6.0);
    timer.record(4.0);
    obs::TimerStats stats = timer.stats();
    EXPECT_EQ(stats.count, 3u);
    EXPECT_DOUBLE_EQ(stats.totalMs, 12.0);
    EXPECT_DOUBLE_EQ(stats.minMs, 2.0);
    EXPECT_DOUBLE_EQ(stats.maxMs, 6.0);
    EXPECT_DOUBLE_EQ(stats.meanMs(), 4.0);
}

TEST(Timer, FoldsAcrossThreads)
{
    obs::Timer timer;
    std::thread([&timer] { timer.record(1.0); }).join();
    std::thread([&timer] { timer.record(3.0); }).join();
    obs::TimerStats stats = timer.stats();
    EXPECT_EQ(stats.count, 2u);
    EXPECT_DOUBLE_EQ(stats.minMs, 1.0);
    EXPECT_DOUBLE_EQ(stats.maxMs, 3.0);
}

TEST(ScopedTimer, RecordsOneIntervalOnDestruction)
{
    obs::Timer timer;
    {
        obs::ScopedTimer scope(timer);
    }
    EXPECT_EQ(timer.stats().count, 1u);
    EXPECT_GE(timer.stats().totalMs, 0.0);
}

TEST(Registry, ReturnsStableReferences)
{
    obs::Registry registry;
    obs::Counter &a = registry.counter("test.counter");
    obs::Counter &b = registry.counter("test.counter");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(registry.counter("test.counter").value(),
              3u);
}

TEST(Registry, SnapshotShape)
{
    obs::Registry registry;
    registry.counter("x.count").add(2);
    registry.gauge("x.level").set(1.5);
    registry.timer("x.time").record(4.0);

    json::Value snap = registry.snapshot();
    ASSERT_TRUE(snap.isObject());
    ASSERT_TRUE(snap.contains("enabled"));
    EXPECT_TRUE(snap.at("enabled").asBool());
    ASSERT_TRUE(snap.contains("counters"));
    ASSERT_TRUE(snap.contains("gauges"));
    ASSERT_TRUE(snap.contains("timers"));
    EXPECT_DOUBLE_EQ(snap.at("counters").at("x.count").asNumber(),
                     2.0);
    EXPECT_DOUBLE_EQ(snap.at("gauges").at("x.level").asNumber(), 1.5);
    const json::Value &timer = snap.at("timers").at("x.time");
    EXPECT_DOUBLE_EQ(timer.at("count").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(timer.at("total_ms").asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(timer.at("min_ms").asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(timer.at("mean_ms").asNumber(), 4.0);
    EXPECT_DOUBLE_EQ(timer.at("max_ms").asNumber(), 4.0);
}

TEST(Registry, SnapshotOfEqualStateSerializesIdentically)
{
    // Metrics are stored name-ordered, so two registries holding the
    // same values dump byte-identical JSON regardless of the order
    // the metrics were first touched in.
    obs::Registry first;
    first.counter("a.one").add(1);
    first.counter("b.two").add(2);
    first.gauge("c.g").set(3.0);

    obs::Registry second;
    second.gauge("c.g").set(3.0);
    second.counter("b.two").add(2);
    second.counter("a.one").add(1);

    EXPECT_EQ(first.snapshot().dump(2), second.snapshot().dump(2));
}

TEST(Registry, ResetZeroesEverythingButKeepsReferences)
{
    obs::Registry registry;
    obs::Counter &counter = registry.counter("r.count");
    counter.add(9);
    registry.gauge("r.gauge").set(2.0);
    registry.timer("r.timer").record(1.0);
    registry.reset();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_DOUBLE_EQ(registry.gauge("r.gauge").value(), 0.0);
    EXPECT_EQ(registry.timer("r.timer").stats().count, 0u);
    counter.add(); // cached reference still valid after reset
    EXPECT_EQ(counter.value(), 1u);
}

TEST(Registry, ConcurrentHammerWithLiveSnapshots)
{
    // 8 writer threads hammer one registry while the main thread
    // takes snapshots mid-flight. Under TSan this is the data-race
    // proof for the per-thread cell design; the final quiescent
    // fold must still be exact.
    obs::Registry registry;
    constexpr std::size_t threads = 8;
    constexpr std::uint64_t per_thread = 20000;
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&registry, &go] {
            while (!go.load(std::memory_order_acquire)) {
            }
            obs::Counter &counter =
                registry.counter("hammer.count");
            obs::Timer &timer = registry.timer("hammer.time");
            obs::Gauge &gauge = registry.gauge("hammer.gauge");
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                counter.add();
                if (i % 1000 == 0) {
                    timer.record(0.5);
                    gauge.setMax(static_cast<double>(i));
                }
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (int i = 0; i < 50; ++i) {
        json::Value snap = registry.snapshot();
        ASSERT_TRUE(snap.isObject());
    }
    for (std::thread &worker : pool)
        worker.join();
    EXPECT_EQ(registry.counter("hammer.count").value(),
              threads * per_thread);
    EXPECT_EQ(registry.timer("hammer.time").stats().count,
              threads * (per_thread / 1000));
}

TEST(Registry, GlobalIsASingleton)
{
    EXPECT_EQ(&obs::Registry::global(), &obs::Registry::global());
}

TEST(Histogram, CountsTotalsAndTracksMax)
{
    obs::Histogram histogram;
    EXPECT_EQ(histogram.stats().count, 0u);
    EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.0);
    histogram.record(1.0);
    histogram.record(2.0);
    histogram.record(9.0);
    obs::HistogramStats stats = histogram.stats();
    EXPECT_EQ(stats.count, 3u);
    EXPECT_DOUBLE_EQ(stats.total, 12.0);
    EXPECT_DOUBLE_EQ(stats.max, 9.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 4.0);

    // Values whose bucket index would overflow an int land in the
    // overflow bucket: counted, reported at the top bucket's bound,
    // and only in the exposition's +Inf bucket.
    const double inf = std::numeric_limits<double>::infinity();
    histogram.record(inf);
    histogram.record(1e306);
    stats = histogram.stats();
    EXPECT_EQ(stats.count, 5u);
    EXPECT_EQ(stats.max, inf);
    const double topBound = 1e-3 * std::exp2((27.0 * 8 + 1) / 8);
    EXPECT_DOUBLE_EQ(stats.p99, topBound);
    std::vector<obs::HistogramBucket> buckets =
        histogram.cumulativeBuckets();
    ASSERT_GE(buckets.size(), 2u);
    EXPECT_EQ(buckets.back().upperBound, inf);
    EXPECT_EQ(buckets.back().cumulativeCount, 5u);
    EXPECT_EQ(buckets[buckets.size() - 2].cumulativeCount, 3u);

    histogram.reset();
    EXPECT_EQ(histogram.stats().count, 0u);
}

TEST(Histogram, QuantilesAreExactToOneBucketWidth)
{
    obs::Histogram histogram;
    for (int i = 1; i <= 1000; ++i)
        histogram.record(static_cast<double>(i));
    // Buckets are 2^(1/8) (~9%) wide; each quantile reports its
    // bucket's upper bound, so the estimate sits in [q-th value,
    // q-th value * 2^(1/8)).
    double p50 = histogram.quantile(0.50);
    EXPECT_GE(p50, 500.0);
    EXPECT_LE(p50, 500.0 * 1.10);
    double p99 = histogram.quantile(0.99);
    EXPECT_GE(p99, 990.0);
    EXPECT_LE(p99, 990.0 * 1.10);
    obs::HistogramStats stats = histogram.stats();
    EXPECT_DOUBLE_EQ(stats.p50, p50);
    EXPECT_DOUBLE_EQ(stats.p99, p99);
    // Extremes clamp to the edge buckets instead of misfiling.
    histogram.record(0.0);
    histogram.record(1e9);
    EXPECT_DOUBLE_EQ(histogram.stats().max, 1e9);
    EXPECT_EQ(histogram.stats().count, 1002u);
}

TEST(Histogram, FoldsAcrossThreads)
{
    obs::Histogram histogram;
    constexpr std::size_t threads = 4;
    constexpr int perThread = 5000;
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < threads; ++t)
        pool.emplace_back([&histogram] {
            for (int i = 0; i < perThread; ++i)
                histogram.record(1.0 + (i % 100));
        });
    for (std::thread &worker : pool)
        worker.join();
    EXPECT_EQ(histogram.stats().count,
              threads * perThread);
}

TEST(Registry, SnapshotIncludesHistogramFamily)
{
    obs::Registry registry;
    registry.histogram("unit.latency").record(2.5);
    json::Value snap = registry.snapshot();
    const json::Value &family = snap.at("histograms");
    ASSERT_TRUE(family.contains("unit.latency"));
    const json::Value &entry = family.at("unit.latency");
    for (const char *key :
         {"count", "mean", "p50", "p90", "p99", "max"})
        EXPECT_TRUE(entry.contains(key)) << key;
    EXPECT_DOUBLE_EQ(entry.at("count").asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(entry.at("max").asNumber(), 2.5);
}

} // anonymous namespace
