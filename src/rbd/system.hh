/**
 * @file
 * A complete reliability block diagram system: the component table
 * (names and availabilities) plus the structure tree, with three
 * evaluation engines and component importance measures.
 */

#ifndef SDNAV_RBD_SYSTEM_HH
#define SDNAV_RBD_SYSTEM_HH

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bdd/bdd.hh"
#include "prob/rng.hh"
#include "rbd/block.hh"

namespace sdnav::rbd
{

/** Result of a Monte Carlo availability estimate. */
struct MonteCarloResult
{
    /** Point estimate of availability. */
    double estimate = 0.0;

    /** Standard error of the estimate. */
    double standardError = 0.0;

    /** Number of samples drawn. */
    std::size_t samples = 0;

    /** Lower edge of the 95% confidence interval (clamped to [0,1]). */
    double ci95Low() const;

    /** Upper edge of the 95% confidence interval (clamped to [0,1]). */
    double ci95High() const;

    /** True if the interval [ci95Low, ci95High] contains `value`. */
    bool brackets(double value) const;
};

/** One row of an importance ranking. */
struct ImportanceEntry
{
    ComponentId component;
    std::string name;

    /** Birnbaum importance: dA_sys / dA_i. */
    double birnbaum;

    /**
     * Criticality importance: probability that the component is both
     * failed and critical, given the system is down. This is the
     * "weak link" measure the paper's conclusions call for.
     */
    double criticality;
};

/**
 * Sort rows by descending score, ranking ties in component id order.
 * Symmetric components tie in exact arithmetic, but a diagram sums
 * their paths in different orders, which splits them by a few ulps.
 * So a tie is a run of scores within 1e-10 relative of the run's
 * first row. Anchoring the window on the run's first row, not on
 * neighbours, keeps the result a strict ordering.
 */
template <typename Row>
void
rankDescending(std::vector<Row> &rows, double Row::*score)
{
    constexpr double kTieTolerance = 1e-10;
    std::sort(rows.begin(), rows.end(), [score](const Row &a, const Row &b) {
        return a.*score > b.*score;
    });
    for (auto run = rows.begin(); run != rows.end();) {
        const double top = (*run).*score;
        auto end = std::find_if(run, rows.end(), [&](const Row &row) {
            return top - row.*score > kTieTolerance * top;
        });
        std::sort(run, end, [](const Row &a, const Row &b) {
            return a.component < b.component;
        });
        run = end;
    }
}

/**
 * An RBD system: components with availabilities, a structure tree,
 * and evaluation.
 *
 * Evaluation engines:
 * - availabilityFormula(): recursive product/Poisson-binomial rules.
 *   Exact only when no component is shared between subtrees (the tree
 *   is then a tree of independent blocks); throws ModelError if the
 *   system shares components.
 * - availabilityExact(): compiles the structure function to a BDD and
 *   evaluates the probability exactly, handling shared components.
 * - availabilityMonteCarlo(): samples component states; useful as an
 *   independent statistical check and for very large systems.
 */
class RbdSystem
{
  public:
    RbdSystem() = default;

    /**
     * Add a component to the table.
     *
     * @param name Human-readable component name.
     * @param availability Steady-state availability in [0, 1].
     * @return The component's id for use in Block leaves.
     */
    ComponentId addComponent(std::string name, double availability);

    /** Set the structure tree. Must reference only known components. */
    void setRoot(Block root);

    /** The structure tree. Throws if not set. */
    const Block &root() const;

    /** Number of components in the table. */
    std::size_t componentCount() const { return availabilities_.size(); }

    /** A component's name. */
    const std::string &componentName(ComponentId id) const;

    /** A component's availability. */
    double componentAvailability(ComponentId id) const;

    /** Update a component's availability (for sweeps). */
    void setComponentAvailability(ComponentId id, double availability);

    /** True if any component appears in more than one leaf. */
    bool hasSharedComponents() const;

    /**
     * Availability by recursive block formulas (series product,
     * parallel complement product, heterogeneous k-of-n via the
     * Poisson-binomial tail). Exact for tree-independent systems.
     *
     * @throws ModelError if the system has shared components.
     */
    double availabilityFormula() const;

    /** Exact availability via BDD compilation. */
    double availabilityExact() const;

    /**
     * Monte Carlo availability estimate.
     *
     * @param samples Number of independent state samples.
     * @param rng Random stream to consume.
     */
    MonteCarloResult availabilityMonteCarlo(std::size_t samples,
                                            prob::Rng &rng) const;

    /**
     * Birnbaum importance of a component: the partial derivative of
     * system availability with respect to the component availability,
     * P[system up | comp up] - P[system up | comp down].
     */
    double birnbaumImportance(ComponentId id) const;

    /**
     * Criticality importance: Birnbaum scaled by the component's
     * unavailability over the system unavailability. Returns 0 when
     * the system unavailability is 0.
     */
    double criticalityImportance(ComponentId id) const;

    /**
     * All components ranked by descending criticality importance.
     * Components whose criticalities agree to 1e-10 relative (the
     * symmetric ones, split only by rounding) rank in id order.
     */
    std::vector<ImportanceEntry> rankImportance() const;

    /**
     * Compile the structure function into the given BDD manager, with
     * component i mapped to BDD variable i.
     */
    bdd::NodeRef compile(bdd::BddManager &manager) const;

    /** A snapshot of the current per-component availabilities. */
    const std::vector<double> &
    availabilities() const
    {
        return availabilities_;
    }

  private:
    void checkComponent(ComponentId id) const;
    bdd::NodeRef compileBlock(bdd::BddManager &manager,
                              const Block &block) const;
    double formulaFor(const Block &block) const;

    std::vector<std::string> names_;
    std::vector<double> availabilities_;
    std::optional<Block> root_;
};

/** Build-time knobs for compileFrozen(). */
struct CompileOptions
{
    /**
     * Variable order: component i's BDD variable sits at level
     * levels[i] (see bdd::BddManager's constructor). Empty is the
     * component order itself. The order shapes the diagram, never
     * the component ids or the values.
     */
    std::vector<unsigned> levels;

    /**
     * Input classes: component i is evaluated with the probability
     * of the diagram's input classes[i], and components of one class
     * must share one availability (see bdd::BddManager::freeze(),
     * which folds the diagram over them). Empty gives every component
     * its own input, its id.
     */
    std::vector<unsigned> classes;

    /**
     * Compile budget (wall deadline / node cap); enforced across the
     * whole build. Exceeding it throws bdd::BudgetExceeded. Zeroed
     * fields (the default) are unlimited.
     */
    bdd::StepBudget budget{};

    /**
     * Where the build runs (see bdd::Workspace): a caller compiling
     * many systems lends one so that each build reuses the last one's
     * pages. Null builds in a workspace made for this compile and
     * dropped with it.
     */
    bdd::Workspace *workspace = nullptr;
};

/** A compiled structure function and the cost of compiling it. */
struct FrozenRbd
{
    /** The root's reachable nodes, folded over the classes; component
     *  i is variable i, whatever level the order put it on. */
    bdd::FrozenDiagram diagram;

    /** The build manager's final statistics (peak nodes included). */
    bdd::BddStats stats;
};

/**
 * Compile a system's structure function and freeze its root, for
 * repeated evaluation with varying per-component availabilities.
 *
 * The structure function depends only on the topology, not on the
 * availabilities, so sweeps compile once and evaluate per point. The
 * build manager is dropped on return, after publishing its stats to
 * the obs registry; its arena and tables stay in the workspace when
 * the caller lent one, and are released otherwise. The diagram
 * is immutable: it can serve evaluation from many threads at once,
 * each passing its own bdd::ProbabilityScratch.
 */
FrozenRbd compileFrozen(const RbdSystem &system,
                        const CompileOptions &options = {});

} // namespace sdnav::rbd

#endif // SDNAV_RBD_SYSTEM_HH
