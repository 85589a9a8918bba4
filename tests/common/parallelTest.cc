/**
 * @file
 * Tests for the parallelFor executor that the sweep and the
 * simulation replications share: range coverage, worker counts, busy
 * times, abort-on-first-error, and the persistent helpers (reused
 * across calls, safe to nest and to call from several threads).
 */

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"

namespace
{

using sdnav::ParallelRun;
using sdnav::parallelFor;

TEST(Parallel, ResolveThreadsNeverZero)
{
    EXPECT_GE(sdnav::resolveThreads(0), 1u);
    EXPECT_EQ(sdnav::resolveThreads(3), 3u);
}

TEST(Parallel, CoversTheRangeWithOneBusyTimePerWorkerUsed)
{
    struct Case
    {
        std::size_t n, threads, chunk;
        std::size_t chunks, workers, calls;
    };
    for (Case c : {
             Case{0, 8, 0, 0, 0, 0},       // empty range: no worker
             Case{50, 1, 7, 8, 1, 1},      // one worker: one call
             Case{100, 4, 0, 15, 4, 15},   // automatic chunk size
             Case{100, 4, 50, 2, 2, 2},    // fewer chunks than threads
             Case{100, 4, 100, 1, 1, 1},   // one chunk runs serially
             Case{3, 16, 0, 3, 3, 3},      // threads > n
         }) {
        std::vector<std::atomic<int>> visits(c.n);
        std::atomic<std::size_t> calls{0};
        std::mutex mutex;
        std::set<std::thread::id> seen;
        ParallelRun run = parallelFor(
            c.n, c.threads, c.chunk,
            [&](std::size_t begin, std::size_t end) {
                ++calls;
                for (std::size_t i = begin; i < end; ++i)
                    ++visits[i];
                std::lock_guard<std::mutex> lock(mutex);
                seen.insert(std::this_thread::get_id());
            });
        std::string where = "n=" + std::to_string(c.n) +
                            " threads=" + std::to_string(c.threads) +
                            " chunk=" + std::to_string(c.chunk);
        for (std::size_t i = 0; i < c.n; ++i)
            EXPECT_EQ(visits[i].load(), 1) << where << " i=" << i;
        EXPECT_EQ(run.chunks, c.chunks) << where;
        EXPECT_EQ(calls.load(), c.calls) << where;
        EXPECT_EQ(run.workerBusyMs.size(), c.workers) << where;
        EXPECT_LE(seen.size(), c.workers) << where;
        for (double ms : run.workerBusyMs)
            EXPECT_GE(ms, 0.0) << where;
    }
}

TEST(Parallel, ExceptionIsRethrownAfterEveryWorkerStopped)
{
    // Slow chunks keep the other workers busy when chunk 5 throws;
    // the rethrow must wait for all of them to leave their bodies.
    std::atomic<int> in_body{0};
    bool caught = false;
    try {
        parallelFor(40, 4, 1, [&](std::size_t begin, std::size_t) {
            ++in_body;
            struct Leave
            {
                std::atomic<int> &count;
                ~Leave() { --count; }
            } leave{in_body};
            if (begin == 5)
                throw std::runtime_error("chunk 5 failed");
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        });
    } catch (const std::runtime_error &error) {
        caught = true;
        EXPECT_STREQ(error.what(), "chunk 5 failed");
        EXPECT_EQ(in_body.load(), 0);
    }
    EXPECT_TRUE(caught);
}

TEST(Parallel, FailureAbortsRemainingChunks)
{
    // A failure at index 0 must stop the other workers from draining
    // the range. Chunk 1 is the replication shape (every index a
    // separate claim); chunk 0 is the sweep's automatic size. The
    // sleep makes surviving indices slow enough that a full drain
    // would be unmistakable.
    const std::size_t n = 200;
    for (std::size_t chunk : {1u, 0u}) {
        std::atomic<std::size_t> executed{0};
        auto body = [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                if (i == 0)
                    throw std::runtime_error("index 0 failed");
                ++executed;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
            }
        };
        EXPECT_THROW(parallelFor(n, 4, chunk, body), std::runtime_error)
            << "chunk=" << chunk;
        // The other three workers can finish at most the chunks
        // claimed before the throw plus one in-flight chunk each;
        // give a generous margin while staying far below the range.
        EXPECT_LT(executed.load(), n / 2)
            << "chunk=" << chunk << ": workers drained the range";
    }
}

/** Run parallelFor and count how often each index was visited. */
std::vector<int>
visitCounts(std::size_t n, std::size_t threads, std::size_t chunk,
            ParallelRun *run = nullptr)
{
    std::vector<std::atomic<int>> visits(n);
    ParallelRun result = parallelFor(
        n, threads, chunk, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i)
                ++visits[i];
        });
    if (run)
        *run = result;
    return std::vector<int>(visits.begin(), visits.end());
}

TEST(Parallel, RepeatedCallsReuseTheSameWorkers)
{
    // Grow the pool past four workers first: a call on four threads
    // must still land on the same three helpers every time.
    visitCounts(64, 8, 1);
    struct PerThread
    {
        explicit PerThread(std::atomic<int> &count) { ++count; }
    };
    static std::atomic<int> constructed{0};
    std::mutex mutex;
    std::set<std::thread::id> seen;
    for (int call = 0; call < 50; ++call) {
        parallelFor(64, 4, 1, [&](std::size_t, std::size_t) {
            static thread_local PerThread state(constructed);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            std::lock_guard<std::mutex> lock(mutex);
            seen.insert(std::this_thread::get_id());
        });
    }
    EXPECT_LE(seen.size(), 4u);
    EXPECT_LE(constructed.load(), 4);
}

TEST(Parallel, NestedCallCoversItsRange)
{
    const std::size_t outer = 8, inner = 100;
    std::vector<std::atomic<int>> visits(outer * inner);
    parallelFor(outer, 4, 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t o = begin; o < end; ++o) {
            parallelFor(inner, 4, 3, [&](std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i)
                    ++visits[o * inner + i];
            });
        }
    });
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "i=" << i;
}

TEST(Parallel, ConcurrentCallersEachGetExactCoverage)
{
    const std::size_t n = 5000;
    std::vector<int> a, b;
    std::thread other([&] {
        for (int round = 0; round < 20; ++round)
            a = visitCounts(n, 4, 7);
    });
    for (int round = 0; round < 20; ++round)
        b = visitCounts(n, 3, 5);
    other.join();
    EXPECT_EQ(a, std::vector<int>(n, 1));
    EXPECT_EQ(b, std::vector<int>(n, 1));
}

TEST(Parallel, CallAfterAFailureCoversItsRange)
{
    EXPECT_THROW(parallelFor(40, 4, 1,
                             [](std::size_t begin, std::size_t) {
                                 if (begin == 3)
                                     throw std::runtime_error("fail");
                             }),
                 std::runtime_error);
    ParallelRun run;
    EXPECT_EQ(visitCounts(10, 4, 3, &run), std::vector<int>(10, 1));
    EXPECT_EQ(run.chunks, 4u);
    EXPECT_EQ(run.workerBusyMs.size(), 4u);
    EXPECT_EQ(visitCounts(10, 8, 5, &run), std::vector<int>(10, 1));
    EXPECT_EQ(run.workerBusyMs.size(), 2u);
}

} // anonymous namespace
