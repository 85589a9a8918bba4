/**
 * @file
 * Tests for the src/obs tracer: span/instant recording, Chrome
 * trace_event export shape, the drop-pairs-whole overflow contract,
 * and concurrent recording with a live export (this suite runs in the
 * TSan CI job alongside the other threaded suites).
 */

#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "obs/trace.hh"

namespace
{

using namespace sdnav;

/** Non-metadata events of an exported trace, in stream order. */
std::vector<json::Value>
traceBody(const json::Value &root)
{
    std::vector<json::Value> body;
    for (const json::Value &event : root.at("traceEvents").asArray()) {
        if (event.at("ph").asString() != "M")
            body.push_back(event);
    }
    return body;
}

/**
 * Assert the invariants tools/trace_validate.py checks: ts sorted
 * non-decreasing, and per-tid every E closes the innermost open B of
 * the same name with nothing left open.
 */
void
expectWellFormed(const json::Value &root)
{
    double last_ts = -1.0;
    std::map<double, std::vector<std::string>> open;
    for (const json::Value &event : traceBody(root)) {
        double ts = event.at("ts").asNumber();
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
        double tid = event.at("tid").asNumber();
        EXPECT_EQ(event.at("pid").asNumber(), 1.0);
        EXPECT_GE(tid, 1.0);
        std::string ph = event.at("ph").asString();
        std::string name = event.at("name").asString();
        if (ph == "B") {
            open[tid].push_back(name);
        } else if (ph == "E") {
            ASSERT_FALSE(open[tid].empty());
            EXPECT_EQ(open[tid].back(), name);
            open[tid].pop_back();
        } else {
            EXPECT_EQ(ph, "i");
            EXPECT_EQ(event.at("s").asString(), "t");
        }
    }
    for (const auto &[tid, stack] : open)
        EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
}

TEST(Tracer, DisabledRecordsNothing)
{
    obs::Tracer tracer;
    tracer.begin("x");
    tracer.end("x");
    tracer.instant("y");
    obs::TraceStats stats = tracer.stats();
    EXPECT_EQ(stats.recorded, 0u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_TRUE(traceBody(tracer.chromeTrace()).empty());
}

TEST(Tracer, SpanArgsGoOnTheEndEvent)
{
    obs::Tracer tracer;
    tracer.enable();
    {
        obs::TraceSpan span("work", 7, tracer);
        span.arg("nodes", 12);
        span.arg("kept", 5);
        span.arg("dropped", 1); // A span holds two.
    }
    { obs::TraceSpan plain("plain", tracer); }
    tracer.disable();

    std::vector<json::Value> body = traceBody(tracer.chromeTrace());
    ASSERT_EQ(body.size(), 4u);
    EXPECT_DOUBLE_EQ(body[0].at("args").at("arg").asNumber(), 7.0);
    ASSERT_EQ(body[1].at("ph").asString(), "E");
    const json::Value &args = body[1].at("args");
    EXPECT_DOUBLE_EQ(args.at("nodes").asNumber(), 12.0);
    EXPECT_DOUBLE_EQ(args.at("kept").asNumber(), 5.0);
    EXPECT_FALSE(args.contains("dropped"));
    EXPECT_FALSE(body[2].contains("args"));
    EXPECT_FALSE(body[3].contains("args"));
}

TEST(Tracer, RecordsSpansAndInstants)
{
    obs::Tracer tracer;
    tracer.enable();
    {
        obs::TraceSpan span("work", 7, tracer);
        tracer.instant("tick", tracer.stats().recorded);
    }
    tracer.disable();

    obs::TraceStats stats = tracer.stats();
    EXPECT_EQ(stats.recorded, 3u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.threads, 1u);

    json::Value root = tracer.chromeTrace();
    EXPECT_EQ(root.at("displayTimeUnit").asString(), "ms");
    std::vector<json::Value> body = traceBody(root);
    ASSERT_EQ(body.size(), 3u);
    EXPECT_EQ(body[0].at("ph").asString(), "B");
    EXPECT_EQ(body[0].at("name").asString(), "work");
    EXPECT_DOUBLE_EQ(body[0].at("args").at("arg").asNumber(), 7.0);
    EXPECT_EQ(body[1].at("ph").asString(), "i");
    EXPECT_EQ(body[2].at("ph").asString(), "E");
    EXPECT_EQ(body[2].at("name").asString(), "work");
    expectWellFormed(root);
}

TEST(Tracer, SequentialOverflowDropsSpansWhole)
{
    obs::Tracer tracer;
    tracer.enable(4); // room for exactly two B/E pairs
    for (int i = 0; i < 10; ++i)
        obs::TraceSpan span("loop", tracer);
    tracer.disable();

    obs::TraceStats stats = tracer.stats();
    EXPECT_EQ(stats.recorded, 4u);
    EXPECT_EQ(stats.dropped, 16u);
    expectWellFormed(tracer.chromeTrace());
}

TEST(Tracer, NestedOverflowStillClosesRecordedBegins)
{
    obs::Tracer tracer;
    tracer.enable(2);
    {
        obs::TraceSpan outer("outer", tracer);
        obs::TraceSpan middle("middle", tracer);
        // Buffer is at capacity: this span is dropped whole, while
        // the two recorded begins still get their (overshooting)
        // ends.
        obs::TraceSpan inner("inner", tracer);
    }
    tracer.disable();

    obs::TraceStats stats = tracer.stats();
    EXPECT_EQ(stats.recorded, 4u);
    EXPECT_EQ(stats.dropped, 2u);
    expectWellFormed(tracer.chromeTrace());
}

TEST(Tracer, ThreadsGetDistinctTidsAndMetadata)
{
    obs::Tracer tracer;
    tracer.enable();
    constexpr std::size_t threads = 3;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&tracer] {
            obs::TraceSpan span("worker", tracer);
        });
    }
    for (std::thread &worker : pool)
        worker.join();
    tracer.disable();

    EXPECT_EQ(tracer.stats().threads, threads);

    json::Value root = tracer.chromeTrace();
    std::map<double, int> events_per_tid;
    for (const json::Value &event : traceBody(root))
        ++events_per_tid[event.at("tid").asNumber()];
    EXPECT_EQ(events_per_tid.size(), threads);
    for (const auto &[tid, count] : events_per_tid)
        EXPECT_EQ(count, 2);

    std::size_t thread_meta = 0;
    for (const json::Value &event :
         root.at("traceEvents").asArray()) {
        if (event.at("ph").asString() == "M" &&
            event.at("name").asString() == "thread_name")
            ++thread_meta;
    }
    EXPECT_EQ(thread_meta, threads);
    expectWellFormed(root);
}

TEST(Tracer, ConcurrentRecordingWithLiveExport)
{
    obs::Tracer tracer;
    tracer.enable();
    constexpr std::size_t threads = 4;
    constexpr int spans_per_thread = 500;
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
        pool.emplace_back([&tracer] {
            for (int i = 0; i < spans_per_thread; ++i) {
                obs::TraceSpan span("hammer",
                                    static_cast<std::uint64_t>(i),
                                    tracer);
                tracer.instant("beat", tracer.stats().recorded);
            }
        });
    }
    // Export while writers are active: must be data-race free (the
    // TSan job checks) and well-formed even mid-flight is not
    // required — only the quiescent export below is asserted on.
    for (int i = 0; i < 5; ++i)
        tracer.chromeTrace();
    for (std::thread &worker : pool)
        worker.join();
    tracer.disable();

    obs::TraceStats stats = tracer.stats();
    EXPECT_EQ(stats.recorded + stats.dropped,
              threads * spans_per_thread * 3u);
    expectWellFormed(tracer.chromeTrace());
}

TEST(Tracer, ResetClearsEventsAndDisables)
{
    obs::Tracer tracer;
    tracer.enable();
    tracer.instant("gone");
    tracer.reset();
    EXPECT_FALSE(tracer.enabled());
    EXPECT_EQ(tracer.stats().recorded, 0u);
    EXPECT_TRUE(traceBody(tracer.chromeTrace()).empty());
}

TEST(Tracer, WriteFileProducesParsableTrace)
{
    obs::Tracer tracer;
    tracer.enable();
    {
        obs::TraceSpan span("io", tracer);
    }
    tracer.disable();

    std::string path = testing::TempDir() + "sdnav_trace_test.json";
    tracer.writeFile(path);
    json::Value root = json::parseFile(path);
    EXPECT_EQ(root.at("displayTimeUnit").asString(), "ms");
    EXPECT_EQ(traceBody(root).size(), 2u);
    std::remove(path.c_str());
}

TEST(Tracer, WriteFileThrowsOnBadPath)
{
    obs::Tracer tracer;
    EXPECT_THROW(tracer.writeFile("/nonexistent-dir/trace.json"),
                 std::runtime_error);
}

} // anonymous namespace
