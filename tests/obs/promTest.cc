/**
 * @file
 * Tests for the Prometheus text exposition (obs/prom.cc): the name
 * mangling, per-kind rendering, and cumulative histogram buckets.
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.hh"

namespace
{

using namespace sdnav;

TEST(Prom, CountersRenderAsTotalWithTypeLine)
{
    obs::Registry registry;
    registry.counter("server.requests").add(7);
    std::string text = registry.prometheusText();
    EXPECT_NE(text.find("# TYPE server_requests_total counter\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("server_requests_total 7\n"),
              std::string::npos);
}

TEST(Prom, GaugesRenderPlain)
{
    obs::Registry registry;
    registry.gauge("server.queue_depth").set(3.5);
    std::string text = registry.prometheusText();
    EXPECT_NE(text.find("# TYPE server_queue_depth gauge\n"),
              std::string::npos);
    EXPECT_NE(text.find("server_queue_depth 3.5\n"),
              std::string::npos);
}

TEST(Prom, TimersRenderAsMsSummaries)
{
    obs::Registry registry;
    obs::Timer &timer = registry.timer("server.compile");
    timer.record(2.0);
    timer.record(3.0);
    std::string text = registry.prometheusText();
    EXPECT_NE(text.find("# TYPE server_compile_ms summary\n"),
              std::string::npos);
    EXPECT_NE(text.find("server_compile_ms_sum 5\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("server_compile_ms_count 2\n"),
              std::string::npos);
}

TEST(Prom, HistogramBucketsAreCumulativeAndEndAtInf)
{
    obs::Registry registry;
    obs::Histogram &hist =
        registry.histogram("server.request_latency_ms");
    hist.record(0.5);
    hist.record(0.5);
    hist.record(100.0);

    // The folded buckets themselves: ascending bounds, non-decreasing
    // cumulative counts, final +Inf entry carrying the grand total.
    std::vector<obs::HistogramBucket> buckets =
        hist.cumulativeBuckets();
    ASSERT_GE(buckets.size(), 2u);
    for (std::size_t i = 1; i < buckets.size(); ++i) {
        EXPECT_GT(buckets[i].upperBound, buckets[i - 1].upperBound);
        EXPECT_GE(buckets[i].cumulativeCount,
                  buckets[i - 1].cumulativeCount);
    }
    EXPECT_TRUE(std::isinf(buckets.back().upperBound));
    EXPECT_EQ(buckets.back().cumulativeCount, 3u);

    std::string text = registry.prometheusText();
    EXPECT_NE(
        text.find("# TYPE server_request_latency_ms histogram\n"),
        std::string::npos);
    EXPECT_NE(
        text.find("server_request_latency_ms_bucket{le=\"+Inf\"} 3\n"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("server_request_latency_ms_count 3\n"),
              std::string::npos);
}

TEST(Prom, EmptyHistogramStillRendersAZeroInfBucket)
{
    obs::Registry registry;
    registry.histogram("server.request_latency_ms");
    std::string text = registry.prometheusText();
    EXPECT_NE(
        text.find("server_request_latency_ms_bucket{le=\"+Inf\"} 0\n"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("server_request_latency_ms_count 0\n"),
              std::string::npos);
}

TEST(Prom, IllegalNameCharactersBecomeUnderscores)
{
    obs::Registry registry;
    registry.counter("bdd.gc-runs").add();
    registry.counter("9lives").add();
    std::string text = registry.prometheusText();
    EXPECT_NE(text.find("bdd_gc_runs_total 1\n"), std::string::npos)
        << text;
    // A leading digit is not a legal first character.
    EXPECT_NE(text.find("_9lives_total 1\n"), std::string::npos);
}

TEST(Prom, EmptyRegistryRendersEmptyText)
{
    obs::Registry registry;
    EXPECT_EQ(registry.prometheusText(), "");
}

} // anonymous namespace
