#include "server/modelCache.hh"

#include <chrono>
#include <sys/resource.h>

#include "common/error.hh"
#include "common/parallel.hh"
#include "obs/obs.hh"

namespace sdnav::server
{

namespace
{

obs::Counter &
hitCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.cache_hits");
    return c;
}

obs::Counter &
missCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.cache_misses");
    return c;
}

obs::Counter &
evictionCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.cache_evictions");
    return c;
}

obs::Gauge &
workspaceBytesGauge()
{
    static obs::Gauge &g =
        obs::Registry::global().gauge("server.compile_workspace_bytes");
    return g;
}

obs::Timer &
compileTimer()
{
    static obs::Timer &t =
        obs::Registry::global().timer("server.compile");
    return t;
}

/**
 * Compile the model a spec describes, under the variable order
 * model::chooseVariableOrder() picks for its shape. Availability is
 * the same under every order up to rounding; only the diagram's size
 * and shape differ.
 */
std::shared_ptr<const model::ExactPlaneModel>
compileModel(const QuerySpec &spec, const bdd::StepBudget &budget,
             bdd::Workspace &workspace)
{
    fmea::ControllerCatalog catalog = resolveCatalog(spec);
    topology::DeploymentTopology topo =
        resolveTopology(spec, catalog.roles().size());
    model::ExactPlaneModel::Options options;
    options.order =
        model::chooseVariableOrder(catalog, topo, spec.policy, spec.plane);
    options.budget = budget;
    options.workspace = &workspace;
    return std::make_shared<const model::ExactPlaneModel>(
        catalog, topo, spec.policy, spec.plane, options);
}

/** Minor page faults the calling thread has taken so far. */
std::uint64_t
threadMinorFaults()
{
    rusage usage{};
    ::getrusage(RUSAGE_THREAD, &usage);
    return static_cast<std::uint64_t>(usage.ru_minflt);
}

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // anonymous namespace

/**
 * Holds one compile slot and the workspace it lends for its scope:
 * both go back on return and throw alike.
 */
class ModelCache::CompileSlot
{
  public:
    explicit CompileSlot(ModelCache &cache) : cache_(cache)
    {
        cache_.compileSlots_.acquire();
        std::lock_guard<std::mutex> lock(cache_.mutex_);
        if (cache_.idleWorkspaces_.empty()) {
            workspace_ = std::make_unique<bdd::Workspace>();
            ++cache_.workspaceCount_;
        } else {
            workspace_ = std::move(cache_.idleWorkspaces_.back());
            cache_.idleWorkspaces_.pop_back();
        }
        bytes_ = workspace_->bytes();
    }

    ~CompileSlot()
    {
        {
            // No allocation: idleWorkspaces_ has room for every slot.
            std::lock_guard<std::mutex> lock(cache_.mutex_);
            cache_.workspaceBytes_ += workspace_->bytes() - bytes_;
            workspaceBytesGauge().set(
                static_cast<double>(cache_.workspaceBytes_));
            cache_.idleWorkspaces_.push_back(std::move(workspace_));
        }
        cache_.compileSlots_.release();
    }

    CompileSlot(const CompileSlot &) = delete;
    CompileSlot &operator=(const CompileSlot &) = delete;

    bdd::Workspace &workspace() { return *workspace_; }

  private:
    ModelCache &cache_;
    std::unique_ptr<bdd::Workspace> workspace_;

    /** What the workspace held when lent; it only grows. */
    std::size_t bytes_ = 0;
};

ModelCache::ModelCache(std::size_t capacity, std::size_t compileSlots)
    : capacity_(capacity),
      compileSlots_(
          static_cast<std::ptrdiff_t>(resolveThreads(compileSlots)))
{
    require(capacity >= 1, "model cache capacity must be >= 1");
    idleWorkspaces_.reserve(resolveThreads(compileSlots));
}

void
ModelCache::setCompileBudget(const bdd::StepBudget &budget)
{
    std::lock_guard<std::mutex> lock(mutex_);
    compileBudget_ = budget;
}

ModelCache::Failure
ModelCache::Failure::current()
{
    Failure failure;
    try {
        throw;
    } catch (const bdd::BudgetExceeded &e) {
        failure.budgetName = e.budgetName();
        failure.nodesAllocated = e.nodesAllocated();
        failure.elapsedMs = e.elapsedMs();
    } catch (const std::exception &e) {
        failure.message = e.what();
    } catch (...) {
        failure.message = "model compile failed";
    }
    return failure;
}

void
ModelCache::Failure::raise() const
{
    if (!budgetName.empty())
        throw bdd::BudgetExceeded(budgetName, nodesAllocated, elapsedMs);
    throw ModelError(message);
}

void
ModelCache::touchLocked(EntryList::iterator entry)
{
    lru_.splice(lru_.begin(), lru_, entry);
    ++hits_;
    hitCounter().add();
}

CacheLookup
ModelCache::acquire(const QuerySpec &spec)
{
    std::string key = spec.modelKey();
    // Engaged only on a miss, so a hit allocates no shared state.
    std::optional<std::promise<Compiled>> promise;
    std::shared_future<Compiled> future;
    bdd::StepBudget budget;
    bool coalesced = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            touchLocked(it->second);
            future = it->second->future;
            coalesced = !it->second->ready;
        } else {
            promise.emplace();
            future = promise->get_future().share();
            lru_.push_front(Entry{key, future, false, 0});
            index_[key] = lru_.begin();
            ++misses_;
            budget = compileBudget_;
        }
    }

    if (!promise) {
        // May be an in-flight compile: waiting here coalesces
        // concurrent misses onto one build.
        const Compiled &compiled = future.get();
        if (compiled.failure)
            compiled.failure->raise();
        return {compiled.model, true, coalesced, compiled.compileMs};
    }

    missCounter().add();
    std::shared_ptr<const model::ExactPlaneModel> model;
    double slotWaitMs = 0.0;
    double compileMs = 0.0;
    std::uint64_t compileFaults = 0;
    try {
        auto t0 = std::chrono::steady_clock::now();
        CompileSlot slot(*this);
        slotWaitMs = elapsedMs(t0);
        // The budget's wall clock starts inside compileModel(), so
        // time spent waiting for the slot is not charged to it.
        auto t1 = std::chrono::steady_clock::now();
        std::uint64_t faults0 = threadMinorFaults();
        model = compileModel(spec, budget, slot.workspace());
        compileFaults = threadMinorFaults() - faults0;
        compileMs = elapsedMs(t1);
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = index_.find(key);
            if (it != index_.end()) {
                lru_.erase(it->second);
                index_.erase(it);
            }
        }
        promise->set_value(Compiled{nullptr, 0.0, Failure::current()});
        throw;
    }
    // Fulfil the future before marking the entry ready, so that a
    // hit never finds a ready entry it would wait on.
    promise->set_value(Compiled{model, compileMs, std::nullopt});
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        // The entry cannot have been evicted: eviction skips entries
        // whose compile has not finished.
        require(it != index_.end(), "model cache lost an in-flight entry");
        it->second->ready = true;
        it->second->bddNodes = model->bddNodeCount();
        ++readyCount_;
        totalBddNodes_ += it->second->bddNodes;
        evictOverCapacityLocked();
    }
    compileTimer().record(compileMs);
    return {model, false, false, compileMs, slotWaitMs, compileFaults};
}

void
ModelCache::evictOverCapacityLocked()
{
    while (readyCount_ > capacity_) {
        // Walk from the LRU tail past in-flight entries (they are
        // pinned until their compile lands).
        auto victim = lru_.end();
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            if (it->ready) {
                victim = std::prev(it.base());
                break;
            }
        }
        if (victim == lru_.end())
            return;
        totalBddNodes_ -= victim->bddNodes;
        --readyCount_;
        ++evictions_;
        evictionCounter().add();
        index_.erase(victim->key);
        lru_.erase(victim);
    }
}

std::size_t
ModelCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return readyCount_;
}

std::size_t
ModelCache::totalBddNodes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return totalBddNodes_;
}

std::size_t
ModelCache::workspaceBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return workspaceBytes_;
}

std::size_t
ModelCache::workspaceCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return workspaceCount_;
}

std::vector<std::string>
ModelCache::keysMostRecentFirst() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> keys;
    keys.reserve(lru_.size());
    for (const Entry &entry : lru_)
        keys.push_back(entry.key);
    return keys;
}

std::uint64_t
ModelCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ModelCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
ModelCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return evictions_;
}

} // namespace sdnav::server
