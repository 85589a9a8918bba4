/**
 * @file
 * Size-bounded LRU cache of compiled exact plane models.
 *
 * Compiling an ExactPlaneModel (building the full RBD and its BDD)
 * costs milliseconds to hundreds of milliseconds; evaluating one at
 * new parameters is one forward pass over its frozen diagram, about
 * 50 us for OpenContrail Large x3 CP (median on a 4-core x86-64
 * VM). The cache keys on QuerySpec::modelKey() — (catalog, topology,
 * nodes, policy, plane), never the parameters — so every repeat
 * what-if query skips compilation entirely.
 *
 * Concurrency: lookups take one mutex; compilation happens *outside*
 * it. Concurrent misses on the same key coalesce onto a single
 * compile (the losers wait on a shared_future and count as hits —
 * they never compiled). Concurrent misses on different keys compile
 * in parallel; each compile owns its own BddManager, so builds are
 * independent. Served models are shared_ptr, so an entry evicted
 * while a worker still evaluates it stays alive until released.
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
#include <string>
#include <unordered_map>
#include <vector>

#include "model/exactModel.hh"
#include "server/protocol.hh"

namespace sdnav::server
{

/** The cached compiled model plus its provenance. */
struct CachedModel
{
    std::shared_ptr<const model::ExactPlaneModel> model;

    /** Wall time the compile took, for reply diagnostics. */
    double compileMs = 0.0;
};

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
};

class ModelCache
{
  public:
    /** @param capacity Maximum resident models (>= 1). */
    explicit ModelCache(std::size_t capacity);

    ModelCache(const ModelCache &) = delete;
    ModelCache &operator=(const ModelCache &) = delete;

    /**
     * Return the compiled model for a spec, compiling on miss and
     * evicting the least recently used entry when over capacity.
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

    /** Resident keys, most recently used first (for tests/stats). */
    std::vector<std::string> keysMostRecentFirst() const;

    /** Lifetime counters (also mirrored into obs metrics). */
    std::uint64_t hits() const;
    std::uint64_t misses() const;
    std::uint64_t evictions() const;

  private:
    struct Entry
    {
        std::string key;
        std::shared_future<CachedModel> future;
        bool ready = false;

        /** Node footprint, recorded once the compile finished. */
        std::size_t bddNodes = 0;
    };

    using EntryList = std::list<Entry>;

    /** Drop ready entries from the LRU tail until within capacity. */
    void evictOverCapacityLocked();

    std::size_t capacity_;
    bdd::StepBudget compileBudget_{}; // guarded by mutex_

    mutable std::mutex mutex_;
    EntryList lru_; // front = most recently used
    std::unordered_map<std::string, EntryList::iterator> index_;
    std::size_t readyCount_ = 0;
    std::size_t totalBddNodes_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace sdnav::server

#endif // SDNAV_SERVER_MODEL_CACHE_HH
