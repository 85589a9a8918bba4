/**
 * @file
 * A reduced ordered binary decision diagram (ROBDD) engine.
 *
 * The availability models in this library are probabilities of Boolean
 * *structure functions* over independent components (processes,
 * supervisors, VMs, hosts, racks). When components are shared between
 * blocks — a host failure takes down every role VM placed on it — the
 * blocks are no longer independent and naive products are wrong. An
 * ROBDD represents the structure function exactly; the probability of
 * the function being true under independent per-variable probabilities
 * is then a single linear-time traversal (Shannon decomposition).
 *
 * The engine stores nodes in an arena (one contiguous array) with
 * per-variable unique subtables chained through the nodes themselves,
 * so hash-consing allocates nothing beyond the arena. The arena only
 * grows: a manager builds one structure function, is frozen and is
 * dropped, so it never reclaims a node. The arena, the tables and
 * freeze()'s scratch live in a Workspace, which outlives the manager
 * when the caller lends one, so that a server compiling model after
 * model keeps their pages. On top of that it provides:
 *
 *  - ITE-based apply with a lossy direct-mapped computed cache that
 *    keeps its entries when it grows with the arena, balanced
 *    pairwise AND/OR folds and threshold ("at least m of these
 *    functions") builders — all iterative, so deep chain diagrams
 *    cannot overflow the call stack;
 *  - freeze(): export one root's reachable nodes as an immutable
 *    FrozenDiagram, the single place probabilities and their
 *    per-variable derivatives (Birnbaum importance) are evaluated,
 *    optionally folded over classes of variables that share one
 *    probability; the manager can then be dropped.
 *
 * Callers choose the variable order, either by how they number their
 * variables or by handing the constructor a level permutation. Every
 * node keeps the level that order gives it for the manager's
 * lifetime.
 */

#ifndef SDNAV_BDD_BDD_HH
#define SDNAV_BDD_BDD_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bdd/pageAlloc.hh"

namespace sdnav::bdd
{

/** Handle to a BDD node within a BddManager. */
using NodeRef = std::uint32_t;

/**
 * Engine statistics, accumulated by a manager over its lifetime.
 *
 * Unique-table and ITE-cache hit/miss counts are exact operation
 * counts. All fields are deterministic functions of the sequence of
 * operations performed on the manager (construction is
 * single-threaded), so two identical builds report identical stats
 * regardless of what other threads do elsewhere.
 */
struct BddStats
{
    /** ITE computed-cache hits / misses (sub-calls included). */
    std::uint64_t iteCacheHits = 0;
    std::uint64_t iteCacheMisses = 0;

    /** Unique-table (hash-consing) hits / misses in makeNode. */
    std::uint64_t uniqueTableHits = 0;
    std::uint64_t uniqueTableMisses = 0;

    /** Unique subtables grown and re-chained, summed over the
     *  variables. */
    std::uint64_t uniqueRehashes = 0;

    /** Times the ITE computed cache grew (each re-inserts every
     *  entry it held). */
    std::uint64_t iteCacheGrowths = 0;

    /** Nodes the arena holds, terminals included. Nothing is ever
     *  freed, so this is also the build's high-water mark. */
    std::size_t peakNodes = 0;

    /** Distinct variables created. */
    unsigned variables = 0;
};

/**
 * Cooperative build budget: a wall-clock deadline and/or a node
 * cap enforced inside the apply loops. Some structure functions are
 * exponentially large under every order the builder knows (the
 * OpenContrail Large topology past 3 nodes), and a server compiling
 * on behalf of untrusted queries must bound that work. Zero means
 * unlimited for either field. Enforcement is plain control flow —
 * it functions identically with metrics compiled out.
 */
struct StepBudget
{
    /** Wall-clock limit on one build phase, in ms (0 = unlimited). */
    double wallMs = 0.0;

    /** Node cap, terminals included (0 = unlimited). */
    std::size_t nodeCap = 0;

    /** True when either limit is set. */
    bool
    limited() const
    {
        return wallMs > 0.0 || nodeCap > 0;
    }
};

/**
 * Thrown by BddManager when an active StepBudget is exhausted. Carries
 * the engine state at the abort so the error reply (and the request
 * log) can say how far the build got — nodes allocated, elapsed wall
 * time — not just that it died.
 */
class BudgetExceeded : public std::runtime_error
{
  public:
    BudgetExceeded(const std::string &budgetName,
                   std::size_t nodesAllocated, double elapsedMs)
        : std::runtime_error(
              "BDD build budget exceeded (" + budgetName + "): " +
              std::to_string(nodesAllocated) + " nodes allocated, " +
              std::to_string(elapsedMs) + " ms elapsed"),
          budget_name_(budgetName), nodes_allocated_(nodesAllocated),
          elapsed_ms_(elapsedMs)
    {
    }

    /** Which limit tripped: "node-cap" or "wall-deadline". */
    const std::string &budgetName() const { return budget_name_; }

    /** Nodes in the manager at the abort. */
    std::size_t nodesAllocated() const { return nodes_allocated_; }

    /** Wall time since the budget was armed, in ms. */
    double elapsedMs() const { return elapsed_ms_; }

  private:
    std::string budget_name_;
    std::size_t nodes_allocated_;
    double elapsed_ms_;
};

/** The constant-false terminal. */
constexpr NodeRef falseNode = 0;

/** The constant-true terminal. */
constexpr NodeRef trueNode = 1;

class ProbabilityScratch;

/**
 * An immutable, evaluation-only export of one BDD root.
 *
 * A compiled manager's arena also holds every intermediate its build
 * produced: for OpenContrail on the Large topology only about a fifth
 * of the arena is reachable from the root. BddManager::freeze() copies
 * out just the reachable nodes, renumbered level by level from the
 * bottom so that every child precedes its parents, as two 32-bit
 * arrays (low child, high child). Value slots 0 and 1 are the false
 * and true terminals and node k is slot k + 2, so evaluation is one
 * forward pass over the arrays: no visited flags, no stack, no
 * per-arena initialisation.
 *
 * The diagram's inputs are classes of variables. freeze() takes a
 * map from variable to class; by default every variable is its own
 * class, and the inputs are the variables themselves. Each level
 * holds exactly one variable, so the nodes of a level take
 * consecutive slots that all test the same class, and so do those of
 * adjacent levels of one class: a run. The diagram stores one (first
 * node, class) pair per run instead of a class per node: the pass
 * loads p and 1 - p once per run, and streams 8 bytes of index per
 * node.
 *
 * With a coarser map the diagram is folded: a node whose class and
 * (folded) children equal an earlier node's evaluates to the same
 * bits, p * v[high] + (1 - p) * v[low] over equal operands, so it
 * shares that node's slot instead of taking its own. The folded
 * diagram is no longer a BDD of the variables, but an arithmetic
 * circuit of the class probabilities with the same value, bit for
 * bit, as the unfolded one given each variable its class's
 * probability. nodeCount() counts the slots the pass fills,
 * bddNodeCount() the reachable BDD nodes they stand for.
 *
 * The diagram owns its arrays and shares nothing with the manager
 * that froze it, so the manager can be destroyed once frozen. It is
 * immutable: one diagram can serve concurrent probability() and
 * gradient() calls from many threads, each passing its own scratch.
 */
class FrozenDiagram
{
  public:
    /** The constant-false diagram. */
    FrozenDiagram() = default;

    /**
     * Probability that the function is true when each variable of
     * class c is independently true with probability probs[c].
     *
     * @param probs Per-class probabilities (per-variable without a
     *              class map); must cover every class appearing in
     *              the diagram.
     * @param scratch Per-thread value buffer, reused across calls.
     */
    double probability(std::span<const double> probs,
                       ProbabilityScratch &scratch) const;

    /**
     * Partial derivative of probability() with respect to every
     * input: grad[c] = dP/dp_c. Without a class map P is multilinear
     * in each variable's p_i, so grad[i] is exactly the Birnbaum
     * importance P(f | x_i = 1) - P(f | x_i = 0). On a folded diagram
     * p_c drives every variable of class c, so by the chain rule
     * grad[c] is the sum of the Birnbaum importances of the class's
     * variables (up to rounding: the terms are added in another
     * order).
     *
     * One forward pass computes each node's probability of being
     * false, u = P(!f); one reverse pass accumulates the probability
     * of reaching each node from the root (the adjoint) and adds
     * adjoint * (u[low] - u[high]) into the node's variable. Both
     * terms of that difference are small when the function is
     * nearly always true, so it loses no digits to cancellation the
     * way P(f | x=1) - P(f | x=0) does.
     *
     * @param probs As for probability().
     * @param scratch Per-thread value buffer, reused across calls.
     * @param grad Resized to probs.size(); entries for inputs
     *             absent from the diagram are exactly 0.
     */
    void gradient(std::span<const double> probs,
                  ProbabilityScratch &scratch,
                  std::vector<double> &grad) const;

    /** Nodes an evaluation computes: the non-terminal slots. */
    std::size_t nodeCount() const { return low_.size(); }

    /** Non-terminal BDD nodes reachable from the frozen root; equals
     *  nodeCount() unless the diagram was folded. */
    std::size_t bddNodeCount() const { return bddNodes_; }

  private:
    friend class BddManager;
    /** Reads the arrays, for tests that pin them byte for byte. */
    friend struct FrozenArrays;

    /**
     * The Shannon pass: fills value[0 .. nodeCount() + 2) children
     * before parents, with the terminals' values as given.
     */
    void forward(std::span<const double> probs, double *value,
                 double falseValue, double trueValue) const;

    // The value slots of node k's children.
    std::vector<std::uint32_t> low_;
    std::vector<std::uint32_t> high_;

    // Runs, bottom level first: nodes runStart_[r] up to
    // runStart_[r + 1] all test class runClass_[r]. runStart_ has one
    // entry more than runClass_, the node count.
    std::vector<std::uint32_t> runStart_{0};
    std::vector<std::uint32_t> runClass_;

    /** Value slot of the root (0 or 1 for a constant). */
    std::uint32_t root_ = 0;

    /** One past the largest class in the diagram. */
    std::size_t classBound_ = 0;

    /** Reachable BDD nodes before folding. */
    std::size_t bddNodes_ = 0;
};

/**
 * Caller-owned buffers for FrozenDiagram evaluation.
 *
 * probability() needs one value per node and gradient() two. A sweep
 * evaluating thousands of points would otherwise pay a fresh
 * allocation per point; holding one scratch per thread (the scratch
 * is NOT thread-safe, the diagram is) makes repeated evaluation
 * allocation-free after the first call.
 */
class ProbabilityScratch
{
  public:
    ProbabilityScratch() = default;

    /** Release the held buffers. */
    void
    clear()
    {
        *this = ProbabilityScratch();
    }

    /**
     * A buffer for the caller's own input probabilities, held here so
     * that a caller who rebuilds them for every evaluation
     * (model::ExactPlaneModel, five class probabilities) allocates
     * nothing after its first call either. FrozenDiagram never
     * touches it.
     */
    std::vector<double> &inputs() { return inputs_; }

  private:
    friend class FrozenDiagram;

    // PageVector: eval reads this in data-dependent order, so its
    // page placement must not depend on prior heap churn.
    PageVector<double> value_;
    std::vector<double> inputs_;
};

/**
 * The memory a BddManager builds in: the node arena, the unique
 * subtables' buckets and the ITE computed cache, whose memory
 * freeze() then borrows for its own tables. The buffers stay mapped
 * and keep their pages when the manager is dropped, so the next
 * manager lent the workspace builds in warm memory. A workspace holds
 * what the largest build it served touched at once, and no more: one
 * arena, one bucket pool, one cache.
 *
 * One manager at a time may use a workspace; the manager starts from
 * a clean state whatever an earlier one (finished or aborted by its
 * budget) left behind, so a build's diagram and its BddStats are the
 * same in a fresh workspace and in a reused one. A workspace may pass
 * between threads with the usual synchronisation.
 */
class Workspace
{
  public:
    Workspace() = default;
    Workspace(const Workspace &) = delete;
    Workspace &operator=(const Workspace &) = delete;

    /** Bytes the buffers hold mapped. */
    std::size_t
    bytes() const
    {
        return arena_.bytes() + buckets_.bytes() + cache_.bytes();
    }

  private:
    friend class BddManager;

    PageBuffer arena_;
    PageBuffer buckets_;
    PageBuffer cache_;

    /** True while a manager builds in the workspace. */
    bool busy_ = false;
};

/**
 * Owns all BDD nodes and implements the BDD algebra.
 *
 * Nodes are hash-consed: structurally equal functions share a single
 * node, so equality of functions is ref equality. Nodes are never
 * freed or moved to another level, so a NodeRef stays valid, and
 * keeps denoting the same function, for the manager's lifetime.
 */
class BddManager
{
  public:
    /**
     * A manager whose variable i sits at level levelOfVariable[i]
     * from the start, so a caller can choose the variable order
     * without renumbering its variables. levelOfVariable must be a
     * permutation of 0 .. size - 1; empty (the default) is the
     * identity order. Variables past the permutation enter at the
     * bottom level, as in an identity-ordered manager.
     *
     * @param workspace Where to build; it must outlive the manager
     *        and serve no other manager meanwhile. Null gives the
     *        manager a workspace of its own, dropped with it.
     */
    explicit BddManager(std::span<const unsigned> levelOfVariable = {},
                        Workspace *workspace = nullptr);

    ~BddManager();

    BddManager(const BddManager &) = delete;
    BddManager &operator=(const BddManager &) = delete;

    /** The projection function for variable `index` (x_index). */
    NodeRef var(unsigned index);

    /** Negation of the projection function (!x_index). */
    NodeRef nvar(unsigned index);

    /** Logical NOT. */
    NodeRef notOp(NodeRef f);

    /** Logical AND. */
    NodeRef andOp(NodeRef f, NodeRef g);

    /** Logical OR. */
    NodeRef orOp(NodeRef f, NodeRef g);

    /** Logical XOR. */
    NodeRef xorOp(NodeRef f, NodeRef g);

    /** If-then-else: f ? g : h, the universal ternary connective. */
    NodeRef ite(NodeRef f, NodeRef g, NodeRef h);

    /**
     * AND of a sequence of functions (true for empty input), folded
     * pairwise in a balanced tree: each round ANDs neighbours (0,1),
     * (2,3), ... in list order and carries an odd last operand to
     * the next round. Each operand takes part in about log2(n)
     * applies, against a left fold's one apply per operand over the
     * whole accumulated diagram. The result is the same canonical
     * node either way.
     */
    NodeRef andAll(std::span<const NodeRef> fs);

    /** OR of a sequence of functions (false for empty input), folded
     *  pairwise like andAll(). */
    NodeRef orAll(std::span<const NodeRef> fs);

    /**
     * Threshold function: true iff at least `m` of the given functions
     * are true. Built by dynamic programming over partial counts, so
     * the inputs may be arbitrary functions (not just variables). The
     * functions are taken bottom level first, whatever their order
     * in `fs`: the result is the same node, built with fewer
     * intermediates.
     *
     * @param fs The functions to count.
     * @param m The required number of true functions (0 gives the
     *          constant true; m > fs.size() gives constant false,
     *          matching the paper's eq. (1) conventions).
     */
    NodeRef atLeast(std::span<const NodeRef> fs, unsigned m);

    /**
     * Export the nodes reachable from f as an immutable diagram, the
     * one evaluator of f's probability. Cost: a breadth-first pass
     * over the reachable nodes, a counting sort of them by level, and
     * a ref-to-slot map sized to the arena. Its tables take the
     * computed cache's memory, so it leaves the cache empty: applies
     * after it start over from a cache of the initial size.
     *
     * @param classOfVariable The diagram's inputs: variable v is
     *        evaluated with the probability of input
     *        classOfVariable[v], and the nodes are folded over the
     *        classes (see FrozenDiagram). The map must cover every
     *        variable; a fold table sized to the reachable nodes
     *        finds the equal nodes. Empty (the default) makes every
     *        variable its own class: nothing folds, and the inputs
     *        are the variables.
     */
    FrozenDiagram freeze(NodeRef f,
                         std::span<const unsigned> classOfVariable = {});

    /** Evaluate the function on a concrete assignment. */
    bool evaluate(NodeRef f, const std::vector<bool> &assignment) const;

    /** Number of (non-terminal) nodes reachable from f. */
    std::size_t nodeCount(NodeRef f) const;

    /** True for the constant nodes. */
    static bool
    terminal(NodeRef f)
    {
        return f <= trueNode;
    }

    /** Top variable index of a non-terminal node. */
    unsigned nodeVariable(NodeRef f) const;

    /** Low child (variable false) of a non-terminal node. */
    NodeRef nodeLow(NodeRef f) const;

    /** High child (variable true) of a non-terminal node. */
    NodeRef nodeHigh(NodeRef f) const;

    /** Nodes allocated, terminals included. */
    std::size_t totalNodes() const { return node_count_; }

    /** Highest variable index created so far, plus one. */
    unsigned variableCount() const { return variable_count_; }

    /** The level a variable sits at: the constructor's order. */
    unsigned levelOfVariable(unsigned index) const;

    /**
     * Arm a cooperative build budget and start its wall clock. Until
     * clearStepBudget(), node allocation checks the node cap and
     * the apply loops periodically check the wall deadline; crossing
     * either throws BudgetExceeded. The manager survives the abort in
     * a consistent state (hash-consing invariants hold), so the owner
     * may clear the budget and keep building — but a caller that
     * wants a clean model simply discards the manager.
     *
     * A budget with neither limit set disarms (same as clear).
     */
    void setStepBudget(const StepBudget &budget);

    /** Disarm the budget; later operations run unbounded again. */
    void clearStepBudget();

    /** True while a budget with at least one limit is armed. */
    bool budgetArmed() const { return budget_armed_; }

    /** Lifetime engine statistics (cache behaviour, table sizes). */
    BddStats stats() const;

    /**
     * Fold this manager's stats into the global obs registry
     * (counters "bdd.*", the gauge "bdd.peak_nodes" as a set-max
     * high-water mark). Callers that own a manager publish once,
     * after the build phase.
     */
    void recordMetrics() const;

  private:
    /** Arena node. `next` chains the node into its variable's
     *  unique subtable bucket. */
    struct Node
    {
        unsigned var;
        NodeRef low;
        NodeRef high;
        NodeRef next;
    };

    /** One variable's slice of the unique table: power-of-two open
     *  hash buckets chained through Node::next, the `size` entries
     *  from `offset` of the workspace's bucket pool. */
    struct SubTable
    {
        std::size_t offset = 0;
        std::size_t size = 0;
        std::size_t count = 0;
    };

    /** Lossy direct-mapped ITE computed-cache entry; f == 0 means
     *  empty (a cached call never has a terminal f). */
    struct IteEntry
    {
        NodeRef f = 0;
        NodeRef g = 0;
        NodeRef h = 0;
        NodeRef result = 0;
    };

    /** Explicit-stack frame for the iterative ite(). */
    struct IteFrame
    {
        NodeRef f, g, h;
        unsigned v;
        NodeRef high;
        std::uint8_t phase;
    };

    static std::size_t hashChildren(NodeRef low, NodeRef high);

    /** Variable index of a node; terminals sort after all variables. */
    unsigned topVar(NodeRef f) const;

    /** Create or find the canonical node (var, low, high). */
    NodeRef makeNode(unsigned var, NodeRef low, NodeRef high);

    /** Extend per-variable structures up to `index`. */
    void ensureVariable(unsigned index);

    /** Grow a subtable's bucket array (x4 below kFourfoldBuckets
     *  buckets, x2 from there) and re-chain its nodes. */
    void rehash(SubTable &table);

    /**
     * Give a table `size` buckets from the pool, the first `keep` of
     * them its current ones and the rest empty: in place when it
     * ends the pool, else at the pool's end (the old block stays
     * unused until the pool is reset for the next manager).
     */
    void placeBuckets(SubTable &table, std::size_t size, std::size_t keep);

    /** Double the arena's capacity. */
    void growArena();

    /** Start the computed cache over: kInitialIteCache empty entries. */
    void resetIteCache();

    /** Resolve one ite call without recursing: terminal rules, then
     *  the computed cache. True when `out` holds the result. */
    bool iteShortcut(NodeRef f, NodeRef g, NodeRef h, NodeRef &out);

    /** The computed-cache slot of the call ite(f, g, h). */
    std::size_t iteSlot(NodeRef f, NodeRef g, NodeRef h) const;

    /**
     * Double the computed cache until it covers twice the arena (up
     * to kMaxIteCache), re-inserting every entry into the grown
     * table: growth itself evicts nothing.
     */
    void growIteCache();

    /** Throw BudgetExceeded for the named limit. */
    [[noreturn]] void throwBudgetExceeded(const char *budgetName) const;

    /** Wall-deadline check, called periodically from apply loops. */
    void checkWallBudget();

    bool isTerminal(NodeRef f) const { return f <= trueNode; }

    /** The workspace made for a caller that lent none. */
    std::unique_ptr<Workspace> own_workspace_;
    Workspace &workspace_;

    // Views of the workspace's buffers, taken again when one grows:
    // the arena's first node_count_ nodes, the bucket pool's first
    // bucket_top_ entries and a computed cache of ite_size_ entries.
    Node *nodes_ = nullptr;
    std::size_t node_count_ = 0;
    std::size_t node_capacity_ = 0;
    NodeRef *bucket_pool_ = nullptr;
    std::size_t bucket_top_ = 0;
    IteEntry *ite_cache_ = nullptr;
    std::size_t ite_size_ = 0;

    std::vector<SubTable> subtables_;
    std::vector<IteFrame> ite_frames_;

    /** Pool offsets of the bucket blocks grown tables left behind,
     *  by log2 of their size. */
    std::array<std::vector<std::size_t>, 64> left_blocks_;

    /** Level permutation: the constructor's (identity by default). */
    std::vector<unsigned> level_of_var_;
    std::vector<unsigned> var_at_level_;

    unsigned variable_count_ = 0;

    /** Armed build budget; checked only while budget_armed_. */
    StepBudget budget_{};
    bool budget_armed_ = false;
    std::chrono::steady_clock::time_point budget_start_{};
    std::uint32_t budget_tick_ = 0;

    std::uint64_t ite_cache_hits_ = 0;
    std::uint64_t ite_cache_misses_ = 0;
    std::uint64_t unique_hits_ = 0;
    std::uint64_t unique_misses_ = 0;
    std::uint64_t unique_rehashes_ = 0;
    std::uint64_t ite_cache_growths_ = 0;

    /** ite() loop iterations between wall-deadline checks. */
    static constexpr std::uint32_t kBudgetCheckInterval = 1024;

    static constexpr std::size_t kInitialArena = 1u << 12;
    static constexpr std::size_t kInitialBucketPool = 1u << 12;
    static constexpr std::size_t kInitialIteCache = 1u << 10;
    static constexpr std::size_t kMaxIteCache = 1u << 22;
    static constexpr std::size_t kInitialBuckets = 16;
    static constexpr std::size_t kFourfoldBuckets = 1024;
};

} // namespace sdnav::bdd

#endif // SDNAV_BDD_BDD_HH
