#include "server/modelCache.hh"

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hh"
#include "common/error.hh"
#include "model/exactModel.hh"

namespace
{

using namespace sdnav;
using namespace sdnav::server;

/** Distinct cheap-to-compile specs (small topology, tiny clusters). */
QuerySpec
spec(const std::string &catalog, std::size_t nodes)
{
    QuerySpec s;
    s.catalog = catalog;
    s.topology = "small";
    s.nodes = nodes;
    return s;
}

TEST(ModelCache, MissThenHit)
{
    ModelCache cache(2);
    CacheLookup first = cache.acquire(spec("opencontrail", 1));
    EXPECT_FALSE(first.hit);
    ASSERT_NE(first.model, nullptr);

    CacheLookup second = cache.acquire(spec("opencontrail", 1));
    EXPECT_TRUE(second.hit);
    // A hit serves the very same compiled model object.
    EXPECT_EQ(second.model.get(), first.model.get());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ModelCache, CoalescedWaiterGetsTheCompilesFailure)
{
    ModelCache cache(2);
    // OpenContrail Large x12 compiles for tens of seconds under any
    // order; the wall deadline ends it, and the node cap bounds its
    // memory if that comes first.
    cache.setCompileBudget(bdd::StepBudget{1000.0, 3000000});
    QuerySpec runaway;
    runaway.topology = "large";
    runaway.nodes = 12;
    std::string compilerError;
    std::thread compiler([&] {
        try {
            cache.acquire(runaway);
        } catch (const bdd::BudgetExceeded &e) {
            compilerError = e.what();
        }
    });
    // In flight: listed in the LRU, not yet resident.
    while (cache.keysMostRecentFirst().empty())
        std::this_thread::yield();
    EXPECT_EQ(cache.entryCount(), 0u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 1u);

    // A coalesced waiter gets the compile's failure as its own
    // exception, with the identical message.
    std::string waiterError;
    try {
        cache.acquire(runaway);
    } catch (const bdd::BudgetExceeded &e) {
        waiterError = e.what();
    }
    compiler.join();
    EXPECT_FALSE(compilerError.empty());
    EXPECT_EQ(waiterError, compilerError);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.entryCount(), 0u);
}

TEST(ModelCache, CompileSlotsBoundCompilesAndAbortsReleaseThem)
{
    // One slot: a second compile must wait until the first ends.
    auto cache = std::make_shared<ModelCache>(2, 1);
    // OpenContrail Large x12 compiles for tens of seconds; the wall
    // deadline ends it well after the cheap key below starts waiting.
    cache->setCompileBudget(bdd::StepBudget{300.0, 0});
    QuerySpec runaway;
    runaway.topology = "large";
    runaway.nodes = 12;
    bool aborted = false;
    std::thread compiler([&] {
        try {
            cache->acquire(runaway);
        } catch (const bdd::BudgetExceeded &) {
            aborted = true;
        }
    });
    // Listed means published; the pause lets it take the slot.
    while (cache->keysMostRecentFirst().empty())
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // The cheap compile gets the slot only once the runaway's budget
    // abort has released it. It runs on a detached thread that owns
    // a reference to the cache, so a slot the abort failed to release
    // fails this test instead of hanging it.
    std::packaged_task<CacheLookup()> cheapTask(
        [cache] { return cache->acquire(spec("opencontrail", 1)); });
    std::future<CacheLookup> pending = cheapTask.get_future();
    std::thread(std::move(cheapTask)).detach();
    std::future_status status = pending.wait_for(std::chrono::seconds(30));
    compiler.join();
    EXPECT_TRUE(aborted);
    ASSERT_EQ(status, std::future_status::ready);
    CacheLookup cheap = pending.get();
    EXPECT_FALSE(cheap.hit);
    ASSERT_NE(cheap.model, nullptr);
    EXPECT_GE(cheap.slotWaitMs, 100.0);
    EXPECT_EQ(cache->entryCount(), 1u);

    // A hit takes no slot.
    CacheLookup hit = cache->acquire(spec("opencontrail", 1));
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.slotWaitMs, 0.0);
}

TEST(ModelCache, HitAnswersAreBitIdenticalToColdCompile)
{
    QuerySpec query = spec("opencontrail", 3);
    bdd::ProbabilityScratch scratch;

    ModelCache cold(1);
    double coldValue = cold.acquire(query).model->availability(
        query.params, scratch);

    ModelCache cache(2);
    cache.acquire(query); // prime
    CacheLookup hit = cache.acquire(query);
    ASSERT_TRUE(hit.hit);
    double hitValue =
        hit.model->availability(query.params, scratch);
    // Same compiled structure, same evaluation path: the cached
    // answer must match a cold compile to full double precision.
    EXPECT_NEAR(hitValue, coldValue, 1e-15);
    EXPECT_EQ(hitValue, coldValue);
}

TEST(ModelCache, EvictsLeastRecentlyUsedInOrder)
{
    ModelCache cache(2);
    cache.acquire(spec("opencontrail", 1)); // A
    cache.acquire(spec("raft", 1));         // B
    // Touch A so B becomes the LRU victim.
    cache.acquire(spec("opencontrail", 1));
    cache.acquire(spec("fragile", 1)); // C evicts B

    std::vector<std::string> keys = cache.keysMostRecentFirst();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], spec("fragile", 1).modelKey());
    EXPECT_EQ(keys[1], spec("opencontrail", 1).modelKey());
    EXPECT_EQ(cache.evictions(), 1u);

    // B was evicted: asking again recompiles (a miss).
    EXPECT_FALSE(cache.acquire(spec("raft", 1)).hit);
}

TEST(ModelCache, CapacityAccountingStaysExact)
{
    ModelCache cache(2);
    EXPECT_EQ(cache.totalBddNodes(), 0u);
    CacheLookup a = cache.acquire(spec("opencontrail", 1));
    CacheLookup b = cache.acquire(spec("raft", 1));
    std::size_t both = a.model->bddNodeCount() +
                       b.model->bddNodeCount();
    EXPECT_EQ(cache.totalBddNodes(), both);

    // Evicting one entry subtracts exactly its footprint.
    CacheLookup c = cache.acquire(spec("fragile", 1));
    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_EQ(cache.totalBddNodes(),
              b.model->bddNodeCount() + c.model->bddNodeCount());

    // Evicted-but-still-referenced models stay usable (shared_ptr).
    bdd::ProbabilityScratch scratch;
    EXPECT_GT(a.model->availability(QuerySpec{}.params, scratch),
              0.0);
}

TEST(ModelCache, ReferenceModelFootprintIsPinned)
{
    // OpenContrail Large x3 CP (the default query), compiled
    // role-major: the `stats` bdd_nodes value counts the frozen
    // diagram, which holds exactly the nodes reachable from the
    // compiled root.
    ModelCache cache(2);
    CacheLookup lookup = cache.acquire(QuerySpec{});
    EXPECT_EQ(lookup.model->variableOrder(),
              model::ExactVariableOrder::RoleMajor);
    EXPECT_EQ(lookup.model->bddNodeCount(), 478u);
    EXPECT_EQ(cache.totalBddNodes(), 478u);
}

TEST(ModelCache, CompileFaultsAreCountedOnMissesOnly)
{
    // The raft Large x21 build arena is over a megabyte of freshly
    // mapped pages, so its compile must fault; a hit compiles nothing
    // and reports no faults.
    ModelCache cache(2);
    QuerySpec query;
    query.catalog = "raft";
    query.nodes = 21;
    CacheLookup miss = cache.acquire(query);
    ASSERT_FALSE(miss.hit);
    EXPECT_GT(miss.compileMinorFaults, 0u);
    CacheLookup hit = cache.acquire(query);
    ASSERT_TRUE(hit.hit);
    EXPECT_EQ(hit.compileMinorFaults, 0u);
}

TEST(ModelCache, ConcurrentSameKeyMissesCoalesceToOneCompile)
{
    ModelCache cache(4);
    constexpr int kThreads = 8;
    std::atomic<int> hits{0};
    std::vector<std::shared_ptr<const model::ExactPlaneModel>>
        models(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            CacheLookup lookup =
                cache.acquire(spec("opencontrail", 3));
            models[static_cast<std::size_t>(t)] = lookup.model;
            if (lookup.hit)
                hits.fetch_add(1);
        });
    for (std::thread &thread : threads)
        thread.join();

    // Exactly one thread compiled; everyone shares its model.
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(hits.load(), kThreads - 1);
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(models[static_cast<std::size_t>(t)].get(),
                  models[0].get());
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ModelCache, ConcurrentDistinctKeysAllLand)
{
    ModelCache cache(8);
    const char *catalogs[] = {"opencontrail", "raft", "fragile"};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t)
        threads.emplace_back([&, t] {
            cache.acquire(
                spec(catalogs[t % 3],
                     static_cast<std::size_t>(1 + 2 * (t / 3))));
        });
    for (std::thread &thread : threads)
        thread.join();
    EXPECT_EQ(cache.entryCount(), 6u);
    EXPECT_EQ(cache.misses(), 6u);
}

TEST(ModelCache, RejectsZeroCapacity)
{
    EXPECT_THROW(ModelCache cache(0), ModelError);
}

TEST(ModelCache, CompileBudgetAbortSurfacesAndDoesNotPoison)
{
    ModelCache cache(2);
    // A 16-node cap is below even this small model's variable
    // count, so the compile aborts almost immediately.
    cache.setCompileBudget(bdd::StepBudget{0.0, 16});
    QuerySpec query = spec("opencontrail", 3);
    try {
        cache.acquire(query);
        FAIL() << "expected BudgetExceeded";
    } catch (const bdd::BudgetExceeded &e) {
        EXPECT_EQ(e.budgetName(), "node-cap");
        EXPECT_GE(e.nodesAllocated(), 1u);
    }
    // The aborted compile must not leave a poisoned entry behind:
    // lifting the budget and asking again compiles cleanly.
    EXPECT_EQ(cache.entryCount(), 0u);
    cache.setCompileBudget(bdd::StepBudget{});
    CacheLookup retry = cache.acquire(query);
    EXPECT_FALSE(retry.hit);
    ASSERT_NE(retry.model, nullptr);
    bdd::ProbabilityScratch scratch;
    EXPECT_GT(retry.model->availability(query.params, scratch), 0.0);
    EXPECT_EQ(cache.entryCount(), 1u);
    EXPECT_TRUE(cache.acquire(query).hit);
}

TEST(ModelCache, ConcurrentBudgetAbortsAndRetriesStayConsistent)
{
    ModelCache cache(4);
    cache.setCompileBudget(bdd::StepBudget{0.0, 16});
    QuerySpec doomed = spec("opencontrail", 3);

    // Every acquire of the doomed key must observe the
    // BudgetExceeded — the thread that compiles and the coalesced
    // waiters that share its in-flight future alike.
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::atomic<int> aborts{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < kRounds; ++i) {
                try {
                    cache.acquire(doomed);
                } catch (const bdd::BudgetExceeded &) {
                    aborts.fetch_add(1);
                }
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    // Every attempt aborted and none left a cache entry behind.
    EXPECT_EQ(aborts.load(), kThreads * kRounds);
    EXPECT_EQ(cache.entryCount(), 0u);

    // The key is immediately usable once the budget is lifted.
    cache.setCompileBudget(bdd::StepBudget{});
    EXPECT_NE(cache.acquire(doomed).model, nullptr);
    EXPECT_EQ(cache.entryCount(), 1u);
}

/** Raft, one disjoint key per (thread, index): small or medium
 *  topology by thread parity, cluster sizes 3-13. */
QuerySpec
raftKey(std::size_t thread, std::size_t index)
{
    QuerySpec s;
    s.catalog = "raft";
    s.topology = thread % 2 == 0 ? "small" : "medium";
    s.nodes = 3 + 2 * (3 * (thread / 2) + index);
    return s;
}

/** The spec's availability from a compile in a workspace of its own,
 *  as bits. */
std::uint64_t
coldAvailabilityBits(const QuerySpec &s)
{
    fmea::ControllerCatalog catalog = resolveCatalog(s);
    topology::DeploymentTopology topo =
        resolveTopology(s, catalog.roles().size());
    model::ExactPlaneModel::Options options;
    options.order =
        model::chooseVariableOrder(catalog, topo, s.policy, s.plane);
    model::ExactPlaneModel model(catalog, topo, s.policy, s.plane, options);
    return std::bit_cast<std::uint64_t>(model.availability(s.params));
}

TEST(ModelCache, WorkspacesPassBetweenThreadsAndSurviveBudgetAborts)
{
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kKeys = 3;
    std::vector<std::vector<std::uint64_t>> serial(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t k = 0; k < kKeys; ++k)
            serial[t].push_back(coldAvailabilityBits(raftKey(t, k)));
    }

    // One entry, four slots: every acquire of a key other than the
    // last one compiled is a miss.
    ModelCache cache(1, kThreads);

    // One thread after another: each compile borrows the workspace
    // the thread before it handed back.
    for (std::size_t t = 0; t < kThreads; ++t)
        std::thread([&cache, t] { cache.acquire(raftKey(t, 0)); }).join();
    EXPECT_EQ(cache.workspaceCount(), 1u);

    // All at once, each thread on its own keys.
    auto compileAll = [&](std::size_t t) {
        bdd::ProbabilityScratch scratch;
        for (int round = 0; round < 2; ++round) {
            for (std::size_t k = 0; k < kKeys; ++k) {
                const QuerySpec key = raftKey(t, k);
                CacheLookup lookup = cache.acquire(key);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(
                              lookup.model->availability(key.params,
                                                         scratch)),
                          serial[t][k])
                    << key.modelKey();
            }
        }
    };
    auto runThreads = [&](auto body) {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kThreads; ++t)
            threads.emplace_back(body, t);
        for (std::thread &thread : threads)
            thread.join();
    };
    runThreads(compileAll);

    // Node-cap aborts mid-compile: each releases its slot and hands
    // its workspace back, so no later compile needs a new one. The
    // one resident key is a hit, the only acquire that succeeds.
    cache.setCompileBudget(bdd::StepBudget{0.0, 16});
    std::atomic<int> aborts{0};
    runThreads([&](std::size_t t) {
        for (std::size_t k = 0; k < kKeys; ++k) {
            try {
                EXPECT_TRUE(cache.acquire(raftKey(t, k)).hit);
            } catch (const bdd::BudgetExceeded &) {
                aborts.fetch_add(1);
            }
        }
    });
    EXPECT_GE(aborts.load(), static_cast<int>(kThreads * kKeys) - 1);

    // The workspaces the aborts left are whole: the same bits again.
    cache.setCompileBudget(bdd::StepBudget{});
    runThreads(compileAll);
    EXPECT_LE(cache.workspaceCount(), kThreads);
    EXPECT_GT(cache.workspaceBytes(), 0u);
}

} // anonymous namespace
