/**
 * @file
 * Size-bounded LRU cache of compiled exact plane models.
 *
 * Compiling an ExactPlaneModel (building the full RBD and its BDD)
 * costs milliseconds to hundreds of milliseconds; evaluating one at
 * new parameters is one forward pass over its frozen diagram, about
 * 1 us for OpenContrail Large x3 CP (4-core x86-64 VM). Each model
 * is compiled under the variable order model::chooseVariableOrder()
 * picks for its shape. The cache keys on QuerySpec::modelKey() —
 * (catalog, topology, nodes, policy, plane), never the parameters —
 * so every repeat what-if query skips compilation entirely.
 *
 * Concurrency: lookups take one mutex; compilation happens *outside*
 * it. Concurrent misses on the same key coalesce onto a single
 * compile (the losers wait on a shared_future and count as hits —
 * they never compiled). A failed compile reaches its waiters as a
 * value, and each waiter throws its own exception, so no exception
 * object is shared between threads. Concurrent misses on different
 * keys compile in parallel, each in its own BddManager, but never
 * more at once than the cache has compile slots: a miss publishes
 * its in-flight entry first (so same-key misses coalesce onto it
 * while it waits) and then blocks for a slot, which it holds until
 * its compile returns or throws. Served models are shared_ptr, so an
 * entry evicted while a thread still evaluates it stays alive until
 * released.
 *
 * Compile memory: the compile holding a slot builds in a
 * bdd::Workspace the cache lends it with the slot, made the first
 * time no idle one is left and handed back when the slot is
 * released, on return and throw alike. The cache never makes more
 * workspaces than it has slots, and each keeps the pages of the
 * largest compile it served, so a miss builds in memory an earlier
 * miss already faulted in. What they hold stays at most slots times
 * one compile's high-water mark; workspaceBytes() and the gauge
 * server.compile_workspace_bytes report it.
 *
 * The server answers every query through acquire() on the thread
 * that read it; a hit takes the mutex once and neither waits nor
 * allocates beyond the key string.
 *
 * Accounting: entryCount() never exceeds capacity, and
 * totalBddNodes() tracks the summed frozen-diagram size of the
 * resident models — the number the `stats` command reports. Reading
 * a model's size is O(1), so nothing traverses a diagram under the
 * mutex.
 */

#ifndef SDNAV_SERVER_MODEL_CACHE_HH
#define SDNAV_SERVER_MODEL_CACHE_HH

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <semaphore>
#include <string>
#include <unordered_map>
#include <vector>

#include "model/exactModel.hh"
#include "server/protocol.hh"

namespace sdnav::server
{

/** Result of one cache lookup. */
struct CacheLookup
{
    std::shared_ptr<const model::ExactPlaneModel> model;

    /** True when this call did not compile (resident or coalesced). */
    bool hit = false;

    /**
     * True when this call hit an entry whose compile was still in
     * flight and waited for it — a coalesced concurrent miss.
     */
    bool coalesced = false;

    /** Compile wall time of the model's original build. */
    double compileMs = 0.0;

    /**
     * How long this call waited for a compile slot; 0 on a hit or a
     * coalesced wait, which take no slot.
     */
    double slotWaitMs = 0.0;

    /**
     * Minor page faults the compiling thread took inside this call's
     * compile (getrusage RUSAGE_THREAD around it); 0 on a hit or a
     * coalesced wait, which compile nothing.
     */
    std::uint64_t compileMinorFaults = 0;
};

class ModelCache
{
  public:
    /**
     * @param capacity Maximum resident models (>= 1).
     * @param compileSlots Most compiles running at once; 0 means one
     *        per hardware thread (see resolveThreads()).
     */
    explicit ModelCache(std::size_t capacity,
                        std::size_t compileSlots = 0);

    ModelCache(const ModelCache &) = delete;
    ModelCache &operator=(const ModelCache &) = delete;

    /**
     * Return the compiled model for a spec, compiling on miss and
     * evicting the least recently used entry when over capacity. A
     * miss waits for a compile slot before it compiles; a miss on a
     * key already compiling waits for that compile instead.
     * Thread-safe; throws only what model compilation throws.
     */
    CacheLookup acquire(const QuerySpec &spec);

    /**
     * Set the compile budget applied to every subsequent miss
     * compile. Zeroed fields (the default) are unlimited. A compile
     * that exceeds the budget throws bdd::BudgetExceeded out of
     * acquire(); the failed entry is dropped, not cached, so a later
     * acquire() of the same key compiles afresh.
     */
    void setCompileBudget(const bdd::StepBudget &budget);

    /** Resident (fully compiled) entries. */
    std::size_t entryCount() const;

    /** Maximum resident entries. */
    std::size_t capacity() const { return capacity_; }

    /** Summed bddNodeCount() of the resident models. */
    std::size_t totalBddNodes() const;

    /** Bytes the compile workspaces hold mapped, as of the last
     *  compile to finish. */
    std::size_t workspaceBytes() const;

    /** Compile workspaces made so far: at most the compile slots. */
    std::size_t workspaceCount() const;

    /** Resident keys, most recently used first (for tests/stats). */
    std::vector<std::string> keysMostRecentFirst() const;

    /** Lifetime counters (also mirrored into obs metrics). */
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t evictions() const;

  private:
    /**
     * A failed compile as plain values: each coalesced waiter builds
     * and throws an exception of its own from them.
     */
    struct Failure
    {
        /** The tripped budget; empty for any other failure. */
        std::string budgetName;
        std::size_t nodesAllocated = 0;
        double elapsedMs = 0.0;

        /** what() of a failure that was not a budget abort. */
        std::string message;

        /** The failure of the exception being handled. */
        static Failure current();

        [[noreturn]] void raise() const;
    };

    /** What one compile hands its coalesced waiters. */
    struct Compiled
    {
        std::shared_ptr<const model::ExactPlaneModel> model;

        /** Wall time the compile took, for reply diagnostics. */
        double compileMs = 0.0;

        std::optional<Failure> failure;
    };

    struct Entry
    {
        std::string key;

        /** Ready (and holding a model) once `ready` is set. */
        std::shared_future<Compiled> future;
        bool ready = false;

        /** Node footprint, recorded once the compile finished. */
        std::size_t bddNodes = 0;
    };

    using EntryList = std::list<Entry>;

    /** The hit branch: bump the entry to the LRU front, count it. */
    void touchLocked(EntryList::iterator entry);

    /** Drop ready entries from the LRU tail until within capacity. */
    void evictOverCapacityLocked();

    /** A held compile slot and the workspace it lends. */
    class CompileSlot;

    std::size_t capacity_;
    bdd::StepBudget compileBudget_{}; // guarded by mutex_

    /** One permit per compile allowed to run at once. */
    std::counting_semaphore<> compileSlots_;

    mutable std::mutex mutex_;
    EntryList lru_; // front = most recently used
    std::unordered_map<std::string, EntryList::iterator> index_;

    /** Workspaces no compile holds, most recently used last. */
    std::vector<std::unique_ptr<bdd::Workspace>> idleWorkspaces_;
    std::size_t workspaceCount_ = 0;
    std::size_t workspaceBytes_ = 0;
    std::size_t readyCount_ = 0;
    std::size_t totalBddNodes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace sdnav::server

#endif // SDNAV_SERVER_MODEL_CACHE_HH
