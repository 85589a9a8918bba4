#include "bdd/bdd.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "common/error.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"

namespace sdnav::bdd
{

namespace
{

/**
 * Fold `op` over fs pairwise in a balanced tree; `unit` for empty
 * input. Each round combines neighbours (0,1), (2,3), ... and carries
 * an odd last operand, so every operand takes part in about log2(n)
 * applies. A left fold would run each late operand against the whole
 * accumulated diagram, rebuilding the shared levels on top of it
 * every time.
 */
template <class Op>
NodeRef
foldPairwise(std::span<const NodeRef> fs, NodeRef unit, Op op)
{
    if (fs.empty())
        return unit;
    std::vector<NodeRef> row(fs.begin(), fs.end());
    while (row.size() > 1) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i + 1 < row.size(); i += 2)
            row[kept++] = op(row[i], row[i + 1]);
        if (row.size() % 2 != 0)
            row[kept++] = row.back();
        row.resize(kept);
    }
    return row.front();
}

} // anonymous namespace

BddManager::BddManager(std::span<const unsigned> levelOfVariable,
                       Workspace *workspace)
    : own_workspace_(workspace ? nullptr : std::make_unique<Workspace>()),
      workspace_(workspace ? *workspace : *own_workspace_)
{
    require(!workspace_.busy_,
            "BddManager: the workspace serves another manager");
    workspace_.busy_ = true;
    // Whatever an earlier manager left in the buffers is dead: the
    // arena and the bucket pool are refilled from their starts, and
    // the cache starts over empty.
    workspace_.arena_.reserve(kInitialArena * sizeof(Node));
    workspace_.buckets_.reserve(kInitialBucketPool * sizeof(NodeRef));
    nodes_ = workspace_.arena_.as<Node>();
    node_capacity_ = workspace_.arena_.bytes() / sizeof(Node);
    bucket_pool_ = workspace_.buckets_.as<NodeRef>();
    resetIteCache();
    // Reserve slots 0 and 1 for the terminals. Their contents are
    // never dereferenced; var is a sentinel beyond any real variable.
    nodes_[falseNode] = {std::numeric_limits<unsigned>::max(), 0, 0, 0};
    nodes_[trueNode] = {std::numeric_limits<unsigned>::max(), 1, 1, 0};
    node_count_ = 2;
    if (levelOfVariable.empty())
        return;
    ensureVariable(static_cast<unsigned>(levelOfVariable.size() - 1));
    std::vector<bool> taken(levelOfVariable.size(), false);
    for (unsigned v = 0; v < variable_count_; ++v) {
        unsigned level = levelOfVariable[v];
        require(level < variable_count_ && !taken[level],
                "BddManager: level order is not a permutation");
        taken[level] = true;
        level_of_var_[v] = level;
        var_at_level_[level] = v;
    }
}

BddManager::~BddManager()
{
    workspace_.busy_ = false;
}

std::size_t
BddManager::hashChildren(NodeRef low, NodeRef high)
{
    std::uint64_t h = low;
    h = h * 0x9e3779b97f4a7c15ULL + high;
    h ^= h >> 32;
    return static_cast<std::size_t>(h);
}

unsigned
BddManager::topVar(NodeRef f) const
{
    return nodes_[f].var;
}

void
BddManager::ensureVariable(unsigned index)
{
    if (index < variable_count_)
        return;
    // New variables enter at the bottom level, so the constructor's
    // permutation keeps its levels.
    for (unsigned v = variable_count_; v <= index; ++v) {
        subtables_.emplace_back();
        level_of_var_.push_back(v);
        var_at_level_.push_back(v);
    }
    variable_count_ = index + 1;
}

void
BddManager::placeBuckets(SubTable &table, std::size_t size, std::size_t keep)
{
    // A table that ends the pool grows in place; otherwise it takes a
    // block of its new size that another table left behind, or the
    // pool's end.
    std::vector<std::size_t> &left = left_blocks_[std::countr_zero(size)];
    std::size_t offset = bucket_top_;
    if (table.offset + table.size == bucket_top_) {
        offset = table.offset;
    } else if (!left.empty()) {
        offset = left.back();
        left.pop_back();
    }
    if (offset + size > workspace_.buckets_.bytes() / sizeof(NodeRef)) {
        workspace_.buckets_.reserve(
            std::max(workspace_.buckets_.bytes() / 2 * 3,
                     (offset + size) * sizeof(NodeRef)));
        bucket_pool_ = workspace_.buckets_.as<NodeRef>();
    }
    NodeRef *buckets = bucket_pool_ + offset;
    if (offset != table.offset) {
        std::copy_n(bucket_pool_ + table.offset, keep, buckets);
        if (table.size > 0)
            left_blocks_[std::countr_zero(table.size)].push_back(
                table.offset);
    }
    std::fill(buckets + keep, buckets + size, falseNode);
    table.offset = offset;
    table.size = size;
    bucket_top_ = std::max(bucket_top_, offset + size);
}

void
BddManager::rehash(SubTable &table)
{
    // A rehash re-chains every node of the variable, each from a
    // random place in the arena. Small tables grow fourfold, so a
    // variable that gathers thousands of nodes is rehashed half as
    // often on its way there; large ones double, so their bucket
    // arrays stay under three times their node counts.
    ++unique_rehashes_;
    const std::size_t old_size = table.size;
    placeBuckets(table, old_size * (old_size < kFourfoldBuckets ? 4 : 2),
                 old_size);
    // Split each old bucket in place: its nodes land in the buckets
    // congruent to it modulo the old size, which only it fills.
    NodeRef *buckets = bucket_pool_ + table.offset;
    const std::size_t mask = table.size - 1;
    for (std::size_t b = 0; b < old_size; ++b) {
        NodeRef p = std::exchange(buckets[b], falseNode);
        while (p != 0) {
            NodeRef next = nodes_[p].next;
            std::size_t bucket =
                hashChildren(nodes_[p].low, nodes_[p].high) & mask;
            nodes_[p].next = buckets[bucket];
            buckets[bucket] = p;
            p = next;
        }
    }
}

void
BddManager::growArena()
{
    workspace_.arena_.reserve(node_capacity_ / 2 * 3 * sizeof(Node));
    nodes_ = workspace_.arena_.as<Node>();
    node_capacity_ = workspace_.arena_.bytes() / sizeof(Node);
}

void
BddManager::setStepBudget(const StepBudget &budget)
{
    budget_ = budget;
    budget_armed_ = budget.limited();
    budget_start_ = std::chrono::steady_clock::now();
    budget_tick_ = 0;
}

void
BddManager::clearStepBudget()
{
    budget_ = StepBudget{};
    budget_armed_ = false;
}

void
BddManager::throwBudgetExceeded(const char *budgetName) const
{
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - budget_start_)
            .count();
    throw BudgetExceeded(budgetName, node_count_, elapsed_ms);
}

void
BddManager::checkWallBudget()
{
    if (budget_.wallMs <= 0.0)
        return;
    double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - budget_start_)
            .count();
    if (elapsed_ms > budget_.wallMs)
        throwBudgetExceeded("wall-deadline");
}

NodeRef
BddManager::makeNode(unsigned var, NodeRef low, NodeRef high)
{
    if (low == high)
        return low; // Reduction rule: redundant test.
    // The node cap is the cheap budget check (two compares on the
    // sole allocation path): a runaway build aborts as soon as it
    // crosses the cap, long before the wall deadline would notice.
    if (budget_armed_ && budget_.nodeCap > 0 &&
        node_count_ >= budget_.nodeCap)
        throwBudgetExceeded("node-cap");
    SubTable &table = subtables_[var];
    if (table.size == 0)
        placeBuckets(table, kInitialBuckets, 0);
    NodeRef *buckets = bucket_pool_ + table.offset;
    std::size_t bucket = hashChildren(low, high) & (table.size - 1);
    for (NodeRef p = buckets[bucket]; p != 0; p = nodes_[p].next) {
        if (nodes_[p].low == low && nodes_[p].high == high) {
            ++unique_hits_;
            return p;
        }
    }
    ++unique_misses_;
    require(node_count_ < std::numeric_limits<NodeRef>::max(),
            "BDD node capacity exhausted");
    if (node_count_ == node_capacity_)
        growArena();
    const auto ref = static_cast<NodeRef>(node_count_++);
    nodes_[ref] = {var, low, high, buckets[bucket]};
    buckets[bucket] = ref;
    ++table.count;
    if (table.count * 4 > table.size * 3)
        rehash(table);
    return ref;
}

NodeRef
BddManager::var(unsigned index)
{
    ensureVariable(index);
    return makeNode(index, falseNode, trueNode);
}

NodeRef
BddManager::nvar(unsigned index)
{
    ensureVariable(index);
    return makeNode(index, trueNode, falseNode);
}

bool
BddManager::iteShortcut(NodeRef f, NodeRef g, NodeRef h, NodeRef &out)
{
    // Terminal cases.
    if (f == trueNode) {
        out = g;
        return true;
    }
    if (f == falseNode) {
        out = h;
        return true;
    }
    if (g == h) {
        out = g;
        return true;
    }
    if (g == trueNode && h == falseNode) {
        out = f;
        return true;
    }
    const IteEntry &entry = ite_cache_[iteSlot(f, g, h)];
    if (entry.f == f && entry.g == g && entry.h == h) {
        ++ite_cache_hits_;
        out = entry.result;
        return true;
    }
    ++ite_cache_misses_;
    return false;
}

std::size_t
BddManager::iteSlot(NodeRef f, NodeRef g, NodeRef h) const
{
    std::uint64_t key = f;
    key = key * 0x9e3779b97f4a7c15ULL + g;
    key = key * 0x9e3779b97f4a7c15ULL + h;
    key ^= key >> 32;
    return static_cast<std::size_t>(key) & (ite_size_ - 1);
}

void
BddManager::growIteCache()
{
    const std::size_t old_size = ite_size_;
    if (old_size >= kMaxIteCache)
        return;
    // Grow past twice the arena, so that the arena has to double
    // at least once more before the next growth re-inserts every
    // entry again.
    std::size_t size = old_size;
    while (size < 2 * node_count_ && size < kMaxIteCache)
        size *= 2;
    ++ite_cache_growths_;
    workspace_.cache_.reserve(size * sizeof(IteEntry));
    ite_cache_ = workspace_.cache_.as<IteEntry>();
    std::fill(ite_cache_ + old_size, ite_cache_ + size, IteEntry{});
    ite_size_ = size;
    // Carry the entries over in place: nodes are never freed, so
    // every entry stays valid. An entry's new slot keeps its old slot
    // index in its low bits, so it either stays or moves into the
    // grown part, where no other carried entry lands.
    for (std::size_t i = 0; i < old_size; ++i) {
        const IteEntry entry = ite_cache_[i];
        if (entry.f == 0)
            continue;
        const std::size_t slot = iteSlot(entry.f, entry.g, entry.h);
        if (slot != i) {
            ite_cache_[slot] = entry;
            ite_cache_[i] = IteEntry{};
        }
    }
}

void
BddManager::resetIteCache()
{
    workspace_.cache_.reserve(kInitialIteCache * sizeof(IteEntry));
    ite_cache_ = workspace_.cache_.as<IteEntry>();
    ite_size_ = kInitialIteCache;
    std::fill(ite_cache_, ite_cache_ + ite_size_, IteEntry{});
}

NodeRef
BddManager::ite(NodeRef f, NodeRef g, NodeRef h)
{
    if (budget_armed_)
        checkWallBudget();
    if (node_count_ > ite_size_)
        growIteCache();

    NodeRef result = falseNode;
    if (iteShortcut(f, g, h, result))
        return result;

    // Explicit frame stack instead of recursion: deep chain diagrams
    // (one node per variable) would otherwise overflow the call
    // stack. `result` always carries the value of the most recently
    // completed subproblem; phase 1 consumes it as the high branch,
    // phase 2 as the low branch.
    auto cofactor = [this](NodeRef x, unsigned v,
                           bool positive) -> NodeRef {
        if (isTerminal(x) || nodes_[x].var != v)
            return x;
        return positive ? nodes_[x].high : nodes_[x].low;
    };

    std::vector<IteFrame> &frames = ite_frames_;
    frames.clear();
    frames.push_back({f, g, h, 0, falseNode, 0});
    while (!frames.empty()) {
        // Wall-deadline safe point: frequent enough that one apply
        // cannot overshoot the budget by more than ~a thousand frame
        // steps, rare enough that the clock read stays off the hot
        // path.
        if (budget_armed_ &&
            ++budget_tick_ >= kBudgetCheckInterval) {
            budget_tick_ = 0;
            checkWallBudget();
        }
        IteFrame &frame = frames.back();
        switch (frame.phase) {
          case 0: {
            // Shannon expansion around the top (lowest-level) var.
            unsigned v = topVar(frame.f);
            unsigned level = level_of_var_[v];
            if (!isTerminal(frame.g) &&
                level_of_var_[topVar(frame.g)] < level) {
                v = topVar(frame.g);
                level = level_of_var_[v];
            }
            if (!isTerminal(frame.h) &&
                level_of_var_[topVar(frame.h)] < level) {
                v = topVar(frame.h);
            }
            frame.v = v;
            frame.phase = 1;
            NodeRef f1 = cofactor(frame.f, v, true);
            NodeRef g1 = cofactor(frame.g, v, true);
            NodeRef h1 = cofactor(frame.h, v, true);
            if (!iteShortcut(f1, g1, h1, result))
                frames.push_back({f1, g1, h1, 0, falseNode, 0});
            break;
          }
          case 1: {
            frame.high = result;
            frame.phase = 2;
            NodeRef f0 = cofactor(frame.f, frame.v, false);
            NodeRef g0 = cofactor(frame.g, frame.v, false);
            NodeRef h0 = cofactor(frame.h, frame.v, false);
            if (!iteShortcut(f0, g0, h0, result))
                frames.push_back({f0, g0, h0, 0, falseNode, 0});
            break;
          }
          default: {
            result = makeNode(frame.v, result, frame.high);
            // One top-level apply can grow the node table far past
            // the cache it entered with; a cache much smaller than
            // the table turns the lossy memoization into exponential
            // recomputation, so it grows mid-operation too.
            if (node_count_ > ite_size_)
                growIteCache();
            ite_cache_[iteSlot(frame.f, frame.g, frame.h)] = {
                frame.f, frame.g, frame.h, result};
            frames.pop_back();
            break;
          }
        }
    }
    return result;
}

NodeRef
BddManager::notOp(NodeRef f)
{
    return ite(f, falseNode, trueNode);
}

NodeRef
BddManager::andOp(NodeRef f, NodeRef g)
{
    return ite(f, g, falseNode);
}

NodeRef
BddManager::orOp(NodeRef f, NodeRef g)
{
    return ite(f, trueNode, g);
}

NodeRef
BddManager::xorOp(NodeRef f, NodeRef g)
{
    return ite(f, notOp(g), g);
}

NodeRef
BddManager::andAll(std::span<const NodeRef> fs)
{
    return foldPairwise(fs, trueNode, [this](NodeRef f, NodeRef g) {
        return andOp(f, g);
    });
}

NodeRef
BddManager::orAll(std::span<const NodeRef> fs)
{
    return foldPairwise(fs, falseNode, [this](NodeRef f, NodeRef g) {
        return orOp(f, g);
    });
}

NodeRef
BddManager::atLeast(std::span<const NodeRef> fs, unsigned m)
{
    if (m == 0)
        return trueNode;
    if (m > fs.size())
        return falseNode;
    // reach[j] = "at least j of the functions seen so far are true".
    // Process one function at a time:
    //   reach'[j] = f ? reach[j-1] : reach[j]
    // keeping only counts up to m. The threshold is symmetric in its
    // operands, so any order gives the same node; taking them deepest
    // top level first (constants before all) keeps the counters
    // below each new operand, and each step walks only that operand
    // instead of rebuilding the counters underneath it.
    auto depth = [this](NodeRef f) {
        return isTerminal(f) ? variable_count_ : level_of_var_[topVar(f)];
    };
    std::vector<NodeRef> order(fs.begin(), fs.end());
    std::ranges::stable_sort(order, std::ranges::greater{}, depth);
    std::vector<NodeRef> reach(m + 1, falseNode);
    reach[0] = trueNode;
    for (NodeRef f : order) {
        for (unsigned j = m; j >= 1; --j)
            reach[j] = ite(f, reach[j - 1], reach[j]);
    }
    return reach[m];
}

namespace
{

/**
 * freeze()'s fold table: open addressing over (class, low slot, high
 * slot), sized once to the reachable node count, so it never grows
 * and stays under two thirds full. An entry holds a numbered node's
 * slot and a 32-bit tag of its key, 8 bytes instead of 16, so more of
 * the table stays in cache; the key itself is read back from the
 * numbered nodes when the tags agree.
 */
class FoldTable
{
  public:
    /** slot 0, the false terminal's, marks an empty entry. */
    struct Entry
    {
        std::uint32_t slot, tag;
    };

    /** Entries a table for `nodes` numbered nodes takes. */
    static std::size_t
    entriesFor(std::size_t nodes)
    {
        return std::bit_ceil(nodes + nodes / 2 + 2);
    }

    /**
     * @param entries entriesFor(nodes) entries, emptied here.
     * @param classes Room for the class of each of `nodes` nodes.
     * @param low, high The numbered nodes' children: storage reserved
     *        for `nodes` entries, so appending never moves it.
     */
    FoldTable(std::span<Entry> entries, std::uint32_t *classes,
              const std::uint32_t *low, const std::uint32_t *high)
        : entries_(entries),
          shift_(64 - std::countr_zero(entries.size())),
          classes_(classes), low_(low), high_(high)
    {
        std::ranges::fill(entries_, Entry{});
    }

    static std::uint64_t
    hash(std::uint32_t cls, std::uint32_t low, std::uint32_t high)
    {
        std::uint64_t key = (std::uint64_t{low} << 32 | high) ^
                            std::uint64_t{cls} * 0xc2b2ae3d27d4eb4fULL;
        key *= 0x9e3779b97f4a7c15ULL;
        return key ^ (key >> 29);
    }

    /** Start loading the entry a probe for `hash` reads first. */
    void
    prefetch(std::uint64_t hash) const
    {
        __builtin_prefetch(&entries_[home(hash)]);
    }

    /**
     * The slot of the numbered node (cls, low, high) if there is one;
     * otherwise `fresh`, which the caller numbers next.
     */
    std::uint32_t
    findOrAdd(std::uint64_t hash, std::uint32_t cls, std::uint32_t low,
              std::uint32_t high, std::uint32_t fresh)
    {
        const auto tag = static_cast<std::uint32_t>(hash);
        const std::size_t mask = entries_.size() - 1;
        for (std::size_t i = home(hash);; i = (i + 1) & mask) {
            Entry &entry = entries_[i];
            if (entry.slot == 0) {
                entry = {fresh, tag};
                classes_[fresh - 2] = cls;
                return fresh;
            }
            const std::uint32_t k = entry.slot - 2;
            if (entry.tag == tag && low_[k] == low && high_[k] == high &&
                classes_[k] == cls)
                return entry.slot;
        }
    }

  private:
    std::size_t
    home(std::uint64_t hash) const
    {
        return static_cast<std::size_t>(hash >> shift_);
    }

    std::span<Entry> entries_;
    int shift_;

    /** Class of each numbered node. */
    std::uint32_t *classes_;
    const std::uint32_t *low_;
    const std::uint32_t *high_;
};

/** The array at byte `offset` of a buffer. */
template <class T>
T *
carved(PageBuffer &buffer, std::size_t offset)
{
    return reinterpret_cast<T *>(buffer.as<std::byte>() + offset);
}

} // anonymous namespace

FrozenDiagram
BddManager::freeze(NodeRef f, std::span<const unsigned> classOfVariable)
{
    obs::TraceSpan trace_span("bdd.freeze");
    require(classOfVariable.empty() ||
                classOfVariable.size() >= variable_count_,
            "freeze(): the class map does not cover every variable");
    constexpr std::uint32_t unvisited =
        std::numeric_limits<std::uint32_t>::max();
    // The loops below prefetch this far ahead of the random reads
    // they are about to make.
    constexpr std::size_t ahead = 16;

    // The tables below take the computed cache's memory, laid out one
    // after another: the cache's entries are dead once the build is
    // over, and it starts over empty when the freeze is done. The
    // cache holds 16 bytes per arena node or more, which the ref map
    // and the breadth-first queue take; the sort and the fold table,
    // sized to the reachable nodes, may grow the buffer past it.
    PageBuffer &scratch = workspace_.cache_;
    std::size_t used = 0;
    auto carve = [&used](std::size_t bytes) {
        const std::size_t at = used;
        used += (bytes + 63) / 64 * 64;
        return at;
    };
    const std::size_t slot_at = carve(node_count_ * sizeof(std::uint32_t));
    const std::size_t refs_at = carve(node_count_ * sizeof(NodeRef));
    scratch.reserve(used);
    auto *slot = carved<std::uint32_t>(scratch, slot_at);
    auto *refs = carved<NodeRef>(scratch, refs_at);
    std::fill_n(slot, node_count_, unvisited);
    slot[falseNode] = 0;
    slot[trueNode] = 1;

    // Find the reachable nodes, breadth first. Until the numbering
    // below, an expanded node's map entry holds its level, and
    // level_start[] counts the nodes per level.
    std::size_t n = 0;
    std::vector<std::uint32_t> level_start(variable_count_, 0);
    auto find = [&](NodeRef ref) {
        if (slot[ref] == unvisited) {
            refs[n++] = ref;
            slot[ref] = 0;
        }
    };
    find(f);
    for (std::size_t i = 0; i < n; ++i) {
        if (i + ahead < n)
            __builtin_prefetch(&nodes_[refs[i + ahead]]);
        const Node &node = nodes_[refs[i]];
        unsigned level = level_of_var_[node.var];
        slot[refs[i]] = level;
        ++level_start[level];
        find(node.low);
        find(node.high);
    }

    // Order them bottom level first: in an ordered diagram a child
    // always sits on a lower level than its parents, so it comes
    // first. Level-major order also keeps each node's children close
    // together in memory, which the evaluation loop reads.
    std::uint32_t next = 0;
    std::size_t widest = 0;
    for (std::size_t level = variable_count_; level-- > 0;) {
        std::uint32_t count = level_start[level];
        widest = std::max<std::size_t>(widest, count);
        level_start[level] = next;
        next += count;
    }
    // The queue holds n refs; the sorted order and the numbering's
    // tables follow them.
    used = refs_at;
    carve(n * sizeof(NodeRef));
    const std::size_t order_at = carve(n * sizeof(NodeRef));
    const std::size_t key_low_at = carve(widest * sizeof(std::uint32_t));
    const std::size_t key_high_at = carve(widest * sizeof(std::uint32_t));
    const std::size_t key_hash_at = carve(widest * sizeof(std::uint64_t));
    const std::size_t entries =
        classOfVariable.empty() ? 0 : FoldTable::entriesFor(n);
    const std::size_t entries_at =
        carve(entries * sizeof(FoldTable::Entry));
    const std::size_t classes_at =
        carve(entries > 0 ? n * sizeof(std::uint32_t) : 0);
    scratch.reserve(used);
    slot = carved<std::uint32_t>(scratch, slot_at);
    refs = carved<NodeRef>(scratch, refs_at);
    auto *order = carved<NodeRef>(scratch, order_at);
    for (std::size_t i = 0; i < n; ++i) {
        if (i + ahead < n)
            __builtin_prefetch(&slot[refs[i + ahead]]);
        order[level_start[slot[refs[i]]]++] = refs[i];
    }

    // Number them in that order, level by level, each child before
    // its parents. A node equal to an earlier one in class and
    // numbered children takes that one's slot. Distinct nodes of one
    // variable differ in their children, so without a class map
    // nothing folds and the table is skipped. A level's children are
    // all numbered before it, so its keys are read in one pass and
    // folded in a second that prefetches the table ahead.
    FrozenDiagram out;
    out.bddNodes_ = n;
    out.low_.reserve(n);
    out.high_.reserve(n);
    std::optional<FoldTable> table;
    if (entries > 0) {
        table.emplace(
            std::span(carved<FoldTable::Entry>(scratch, entries_at), entries),
            carved<std::uint32_t>(scratch, classes_at), out.low_.data(),
            out.high_.data());
    }
    auto *key_low = carved<std::uint32_t>(scratch, key_low_at);
    auto *key_high = carved<std::uint32_t>(scratch, key_high_at);
    auto *key_hash = carved<std::uint64_t>(scratch, key_hash_at);
    std::size_t first = 0;
    for (std::size_t level = variable_count_; level-- > 0;) {
        const unsigned v = var_at_level_[level];
        const std::uint32_t cls =
            classOfVariable.empty() ? v : classOfVariable[v];
        const std::size_t width = level_start[level] - first;
        for (std::size_t i = 0; i < width; ++i) {
            const Node &node = nodes_[order[first + i]];
            key_low[i] = slot[node.low];
            key_high[i] = slot[node.high];
            if (table)
                key_hash[i] = FoldTable::hash(cls, key_low[i], key_high[i]);
        }
        for (std::size_t i = 0; i < width; ++i) {
            const auto fresh =
                static_cast<std::uint32_t>(out.low_.size() + 2);
            std::uint32_t s = fresh;
            if (table) {
                if (i + ahead < width)
                    table->prefetch(key_hash[i + ahead]);
                s = table->findOrAdd(key_hash[i], cls, key_low[i],
                                     key_high[i], fresh);
            }
            slot[order[first + i]] = s;
            if (s == fresh) {
                out.low_.push_back(key_low[i]);
                out.high_.push_back(key_high[i]);
            }
        }
        first += width;

        // A level whose nodes all folded adds no run; one of the
        // class that ends the run below extends that run.
        const auto end = static_cast<std::uint32_t>(out.low_.size());
        if (end == out.runStart_.back())
            continue;
        if (!out.runClass_.empty() && out.runClass_.back() == cls) {
            out.runStart_.back() = end;
            continue;
        }
        out.runClass_.push_back(cls);
        out.runStart_.push_back(end);
        out.classBound_ = std::max<std::size_t>(out.classBound_, cls + 1u);
    }
    out.root_ = slot[f];
    resetIteCache();
    trace_span.arg("bdd_nodes", n);
    trace_span.arg("eval_nodes", out.low_.size());
    return out;
}

void
FrozenDiagram::forward(std::span<const double> probs, double *value,
                       double falseValue, double trueValue) const
{
    require(classBound_ <= probs.size(),
            "probability(): probs does not cover all BDD inputs");

    // Shannon decomposition, children before parents. This is the
    // only place a probability is computed from a diagram. Keep the
    // expression and its operand order: tests hold every result to
    // 0 ulp against a reference evaluator that uses the same ones.
    value[falseNode] = falseValue;
    value[trueNode] = trueValue;
    const std::uint32_t *low = low_.data();
    const std::uint32_t *high = high_.data();
    for (std::size_t r = 0; r < runClass_.size(); ++r) {
        const double p = probs[runClass_[r]];
        const double q = 1.0 - p;
        for (std::size_t k = runStart_[r], end = runStart_[r + 1];
             k < end; ++k)
            value[k + 2] = p * value[high[k]] + q * value[low[k]];
    }
}

double
FrozenDiagram::probability(std::span<const double> probs,
                           ProbabilityScratch &scratch) const
{
    static obs::Counter &evals =
        obs::Registry::global().counter("bdd.prob_evals");
    evals.add();
    PageVector<double> &value = scratch.value_;
    value.resize(nodeCount() + 2);
    forward(probs, value.data(), 0.0, 1.0);
    return value[root_];
}

void
FrozenDiagram::gradient(std::span<const double> probs,
                        ProbabilityScratch &scratch,
                        std::vector<double> &grad) const
{
    // The scratch holds the failure probabilities u in its first
    // half and the adjoints in its second.
    const std::size_t slots = nodeCount() + 2;
    PageVector<double> &value = scratch.value_;
    value.resize(2 * slots);
    double *u = value.data();
    forward(probs, u, 1.0, 0.0);
    double *adjoint = u + slots;
    std::fill(adjoint, adjoint + slots, 0.0);
    adjoint[root_] = 1.0;
    grad.assign(probs.size(), 0.0);

    // Parents before children: every parent sits at a higher slot, so
    // a node's adjoint is complete when the loop reaches it. A run's
    // terms are summed in a local and then added to its class; a
    // class that only one run tests (every variable, without a class
    // map) gets the local's bits, as 0.0 + g == g.
    for (std::size_t r = runClass_.size(); r-- > 0;) {
        const double p = probs[runClass_[r]];
        const double q = 1.0 - p;
        double g = 0.0;
        for (std::size_t k = runStart_[r + 1]; k-- > runStart_[r];) {
            double a = adjoint[k + 2];
            g += a * (u[low_[k]] - u[high_[k]]);
            adjoint[high_[k]] += a * p;
            adjoint[low_[k]] += a * q;
        }
        grad[runClass_[r]] += g;
    }
}

bool
BddManager::evaluate(NodeRef f, const std::vector<bool> &assignment) const
{
    while (!isTerminal(f)) {
        const Node &node = nodes_[f];
        require(node.var < assignment.size(),
                "evaluate(): assignment does not cover all variables");
        f = assignment[node.var] ? node.high : node.low;
    }
    return f == trueNode;
}

std::size_t
BddManager::nodeCount(NodeRef f) const
{
    std::vector<std::uint8_t> seen(node_count_, 0);
    seen[falseNode] = 1;
    seen[trueNode] = 1;
    std::size_t count = 0;
    std::vector<NodeRef> stack{f};
    while (!stack.empty()) {
        NodeRef cur = stack.back();
        stack.pop_back();
        if (seen[cur])
            continue;
        seen[cur] = 1;
        ++count;
        stack.push_back(nodes_[cur].low);
        stack.push_back(nodes_[cur].high);
    }
    return count;
}

unsigned
BddManager::levelOfVariable(unsigned index) const
{
    require(index < variable_count_,
            "levelOfVariable(): unknown variable");
    return level_of_var_[index];
}

BddStats
BddManager::stats() const
{
    BddStats s;
    s.iteCacheHits = ite_cache_hits_;
    s.iteCacheMisses = ite_cache_misses_;
    s.uniqueTableHits = unique_hits_;
    s.uniqueTableMisses = unique_misses_;
    s.uniqueRehashes = unique_rehashes_;
    s.iteCacheGrowths = ite_cache_growths_;
    s.peakNodes = node_count_;
    s.variables = variable_count_;
    return s;
}

void
BddManager::recordMetrics() const
{
    obs::Registry &registry = obs::Registry::global();
    BddStats s = stats();
    registry.counter("bdd.ite_cache_hits").add(s.iteCacheHits);
    registry.counter("bdd.ite_cache_misses").add(s.iteCacheMisses);
    registry.counter("bdd.unique_table_hits").add(s.uniqueTableHits);
    registry.counter("bdd.unique_table_misses")
        .add(s.uniqueTableMisses);
    registry.counter("bdd.unique_rehashes").add(s.uniqueRehashes);
    registry.counter("bdd.ite_cache_growths").add(s.iteCacheGrowths);
    registry.counter("bdd.managers_published").add();
    registry.gauge("bdd.peak_nodes")
        .setMax(static_cast<double>(s.peakNodes));
}

unsigned
BddManager::nodeVariable(NodeRef f) const
{
    require(!terminal(f) && f < node_count_,
            "nodeVariable() needs a non-terminal node");
    return nodes_[f].var;
}

NodeRef
BddManager::nodeLow(NodeRef f) const
{
    require(!terminal(f) && f < node_count_,
            "nodeLow() needs a non-terminal node");
    return nodes_[f].low;
}

NodeRef
BddManager::nodeHigh(NodeRef f) const
{
    require(!terminal(f) && f < node_count_,
            "nodeHigh() needs a non-terminal node");
    return nodes_[f].high;
}

} // namespace sdnav::bdd
