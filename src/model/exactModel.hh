/**
 * @file
 * Exact process-level structure-function models.
 *
 * Builds the full reliability block diagram of a controller catalog
 * deployed on a topology — every process, supervisor, VM, host, and
 * rack as an explicit component — so that BDD compilation (or Monte
 * Carlo sampling) yields the ground-truth plane availability against
 * which the closed-form SW-centric engine is validated.
 *
 * Structure, per plane:
 *
 *   plane up  =  AND over quorum blocks b:
 *                  at least m_b of the cluster's node instances of b,
 *   instance of b on node i  =  AND of b's member processes on i
 *                               AND node i's role VM, host, rack
 *                               AND node i's role supervisor
 *                                   (SupervisorPolicy::Required only).
 *
 * For the data plane the local vRouter processes (and the host
 * supervisor under policy Required) are appended in series.
 */

#ifndef SDNAV_MODEL_EXACT_MODEL_HH
#define SDNAV_MODEL_EXACT_MODEL_HH

#include "fmea/catalog.hh"
#include "model/params.hh"
#include "rbd/system.hh"
#include "topology/deployment.hh"

namespace sdnav::model
{

/**
 * Which SwParams field a component of the exact RBD draws its
 * availability from. The structure function itself never depends on
 * the parameter values, so recording the class per component lets a
 * sweep rebuild the per-component availability vector for new
 * parameters without rebuilding the system (see ExactPlaneModel).
 */
enum class ExactComponentClass
{
    Rack,
    Host,
    Vm,
    AutoProcess,
    ManualProcess,
};

/** Number of ExactComponentClass values; a class's value indexes
 *  the inputs of an ExactPlaneModel's diagram. */
constexpr std::size_t kExactClassCount = 5;

/** The SwParams value an exact-model component class evaluates to. */
double exactClassAvailability(ExactComponentClass cls,
                              const SwParams &params);

/**
 * BDD variable order of the exact RBD. An order is a level
 * permutation handed to the compile (rbd::CompileOptions::levels), so
 * the component ids, names and classes never depend on it: every
 * order yields the same availability up to rounding, and only the
 * diagram's size and shape differ. BDD size is extremely
 * order-sensitive; chooseVariableOrder() picks one per model.
 */
enum class ExactVariableOrder
{
    /**
     * Shared infrastructure first (racks, hosts, VMs), then per-node
     * supervisors, then processes grouped by quorum block: the order
     * buildExactSystem() emits the components in, and the one every
     * golden baseline was produced with. The process sections must
     * remember the whole infrastructure pattern, so the diagram grows
     * exponentially in the cluster size.
     */
    SharedInfrastructureFirst,

    /**
     * Node-major: each node's racks, hosts, VMs, supervisors and
     * quorum processes occupy one contiguous run of levels. Quorum
     * counting then crosses node boundaries with only one counter
     * per block as state: polynomial in the cluster size, but the
     * product of every block's counter.
     */
    NodeMajor,

    /**
     * Role-major: the components more than one role uses (on the
     * Large topology, the racks) on top; then, role by role, that
     * role's own racks, hosts, VMs and supervisors, followed by its
     * quorum blocks with the node instances of each block one after
     * another. Once the shared components are fixed the roles are
     * independent, and the diagram carries one role's block counters
     * at a time: the conditioning of the paper's eqs. 3-8.
     */
    RoleMajor,
};

/** The order's name in logs: "sif", "node_major" or "role_major". */
const char *variableOrderName(ExactVariableOrder order);

/**
 * Build the exact RBD for one plane of a catalog on a topology.
 *
 * Components are emitted in SharedInfrastructureFirst order, whatever
 * order the diagram is later compiled under (see
 * exactVariableLevels()).
 *
 * @param classes When non-null, receives one ExactComponentClass per
 *                component, indexed by ComponentId.
 */
rbd::RbdSystem buildExactSystem(
    const fmea::ControllerCatalog &catalog,
    const topology::DeploymentTopology &topo, SupervisorPolicy policy,
    const SwParams &params, fmea::Plane plane,
    std::vector<ExactComponentClass> *classes = nullptr);

/**
 * The level permutation that compiles buildExactSystem()'s components
 * for the same arguments under `order`: component i's variable sits
 * at level result[i]. SharedInfrastructureFirst is the identity.
 * Components the plane never references sit below every referenced
 * one.
 */
std::vector<unsigned>
exactVariableLevels(const fmea::ControllerCatalog &catalog,
                    const topology::DeploymentTopology &topo,
                    SupervisorPolicy policy, fmea::Plane plane,
                    ExactVariableOrder order);

/**
 * The order to compile a model under, chosen from the catalog's and
 * topology's shape alone: no trial compile, no flag, and no test on
 * names. Each order's widest frontier is estimated by the state it
 * must carry across it, in logarithms:
 *
 *   node-major  B * ln(n + 1)              every block's counter
 *   role-major  S * ln 2 + Bmax * ln(n + 1)
 *                                          the shared state, then
 *                                          one role's counters
 *
 * n is the cluster size, B the plane's quorum blocks and Bmax the
 * most any one role has. S counts the bits of state the components
 * more than one role uses add: components under exactly the same
 * role instances (a node's host and VM on the Small topology) are
 * one bit between them, and a component whose loss alone breaks a
 * quorum (the single rack of Small) is a conjunct of the plane,
 * not state. Role-major is chosen when its estimate is smaller;
 * ties keep node-major.
 */
ExactVariableOrder
chooseVariableOrder(const fmea::ControllerCatalog &catalog,
                    const topology::DeploymentTopology &topo,
                    SupervisorPolicy policy, fmea::Plane plane);

/** Exact plane availability via BDD compilation of the full RBD. */
double exactPlaneAvailability(const fmea::ControllerCatalog &catalog,
                              const topology::DeploymentTopology &topo,
                              SupervisorPolicy policy,
                              const SwParams &params, fmea::Plane plane);

/**
 * Exact plane model compiled once, evaluated many times.
 *
 * exactPlaneAvailability() rebuilds the component table and
 * recompiles the BDD on every call even though only the per-variable
 * probabilities change between sweep points. This class does the
 * expensive work once per (catalog, topology, policy, plane): it
 * compiles the structure function, freezes the root into a
 * bdd::FrozenDiagram and drops the compile's manager (its arena,
 * unique tables and ITE cache stay in a lent workspace). Each sweep
 * point or query is then one forward
 * pass over the frozen nodes only.
 *
 * Every component of one class takes the same SwParams value, so the
 * diagram is frozen over the five classes (bdd::BddManager::freeze):
 * its inputs are the class availabilities, and sub-diagrams that
 * compute the same expression over them are evaluated once. The
 * values are bit-identical to evaluating the unfolded diagram with
 * one probability per component; raft on the Large topology at 21
 * nodes, node-major, evaluates 111,095 of its 163,137 nodes.
 *
 * availability() is const and evaluation-only: one model can be
 * shared read-only across sweep worker threads, each thread passing
 * its own scratch.
 */
class ExactPlaneModel
{
  public:
    /** Build-time knobs; the default order reproduces the golden
     *  baselines' diagrams. */
    struct Options
    {
        /** Variable order the structure function is compiled under. */
        ExactVariableOrder order =
            ExactVariableOrder::SharedInfrastructureFirst;

        /**
         * Compile budget (wall deadline / node cap) forwarded to
         * rbd::compileFrozen(); exceeding it throws
         * bdd::BudgetExceeded out of the constructor. Defaults to
         * unlimited.
         */
        bdd::StepBudget budget{};

        /** Workspace forwarded to rbd::compileFrozen(); null builds
         *  in one of the compile's own. */
        bdd::Workspace *workspace = nullptr;
    };

    ExactPlaneModel(const fmea::ControllerCatalog &catalog,
                    const topology::DeploymentTopology &topo,
                    SupervisorPolicy policy, fmea::Plane plane)
        : ExactPlaneModel(catalog, topo, policy, plane, Options())
    {
    }

    ExactPlaneModel(const fmea::ControllerCatalog &catalog,
                    const topology::DeploymentTopology &topo,
                    SupervisorPolicy policy, fmea::Plane plane,
                    const Options &options);

    /** Exact plane availability at the given parameters. */
    double availability(const SwParams &params) const;

    /** As availability(), reusing a caller-owned scratch: after its
     *  first call on a thread, an evaluation allocates nothing. */
    double availability(const SwParams &params,
                        bdd::ProbabilityScratch &scratch) const;

    /** The variable order the diagram was compiled under. */
    ExactVariableOrder variableOrder() const { return order_; }

    /** Components (BDD variables) of the structure function. */
    std::size_t componentCount() const { return components_; }

    /** Compiled diagram size: the BDD's reachable nodes. */
    std::size_t bddNodeCount() const { return diagram_.bddNodeCount(); }

    /** Nodes an evaluation computes: the reachable nodes folded over
     *  the component classes. */
    std::size_t evalNodeCount() const { return diagram_.nodeCount(); }

    /**
     * BDD nodes the model was frozen from; equals bddNodeCount().
     * Evaluation never changes it.
     */
    std::size_t totalBddNodes() const { return diagram_.bddNodeCount(); }

  private:
    ExactVariableOrder order_;
    std::size_t components_ = 0;
    bdd::FrozenDiagram diagram_;
};

} // namespace sdnav::model

#endif // SDNAV_MODEL_EXACT_MODEL_HH
