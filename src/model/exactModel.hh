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

/** The SwParams value an exact-model component class evaluates to. */
double exactClassAvailability(ExactComponentClass cls,
                              const SwParams &params);

/**
 * Variable (component) order the exact RBD builder emits. BDD size is
 * extremely order-sensitive; the right choice depends on the cluster
 * size.
 */
enum class ExactVariableOrder
{
    /**
     * Shared infrastructure first (racks, hosts, VMs), then per-node
     * supervisors, then processes grouped by quorum block. Compact at
     * the paper's reference cluster size (2N+1 = 3) and the order all
     * golden baselines were produced with — but the diagram must
     * remember the full infrastructure pattern across every process
     * section, which grows exponentially in the cluster size.
     */
    SharedInfrastructureFirst,

    /**
     * Node-major: each node's racks, hosts, VMs, supervisor, and
     * quorum processes occupy one contiguous variable group. Quorum
     * counting then crosses node-group boundaries with only the
     * per-block counters as state, keeping the diagram polynomial in
     * the cluster size — the order the 2N+1 scale-up benches use.
     */
    NodeMajor,
};

/**
 * Build the exact RBD for one plane of a catalog on a topology.
 *
 * Components are added in BDD-friendly order (shared infrastructure
 * first, then per-node supervisors and processes grouped by node) so
 * availabilityExact() stays cheap.
 *
 * @param classes When non-null, receives one ExactComponentClass per
 *                component, indexed by ComponentId.
 * @param order   Component emission order (see ExactVariableOrder);
 *                the default reproduces the golden baselines.
 */
rbd::RbdSystem buildExactSystem(
    const fmea::ControllerCatalog &catalog,
    const topology::DeploymentTopology &topo, SupervisorPolicy policy,
    const SwParams &params, fmea::Plane plane,
    std::vector<ExactComponentClass> *classes = nullptr,
    ExactVariableOrder order =
        ExactVariableOrder::SharedInfrastructureFirst);

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
 * bdd::FrozenDiagram and drops the compile's manager (arena, unique
 * tables, ITE cache). Each sweep point or query is then one forward
 * pass over the reachable nodes only.
 *
 * availability() is const and evaluation-only: one model can be
 * shared read-only across sweep worker threads, each thread passing
 * its own scratch.
 */
class ExactPlaneModel
{
  public:
    /** Build-time knobs; the default reproduces the natural
     *  component order the topology builder emits. */
    struct Options
    {
        /** Variable order the structure function is built with. */
        ExactVariableOrder order =
            ExactVariableOrder::SharedInfrastructureFirst;

        /**
         * Sift the compiled diagram (bdd::BddManager::reorderSifting)
         * after compilation. Shrinks node count on orders the builder
         * got wrong; availability values are unchanged.
         */
        bool reorderBdd = false;

        /** Tuning for the reorder pass when enabled. */
        bdd::ReorderOptions reorderOptions{};

        /**
         * Compile budget (wall deadline / live-node cap) forwarded to
         * rbd::compileFrozen(); exceeding it throws
         * bdd::BudgetExceeded out of the constructor. Defaults to
         * unlimited.
         */
        bdd::StepBudget budget{};
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

    /** As availability(), reusing a caller-owned scratch buffer. */
    double availability(const SwParams &params,
                        bdd::ProbabilityScratch &scratch) const;

    /** Components (BDD variables) of the structure function. */
    std::size_t componentCount() const { return classes_.size(); }

    /** Compiled diagram size (reachable nodes). */
    std::size_t bddNodeCount() const { return diagram_.nodeCount(); }

    /**
     * BDD nodes the model keeps resident: the frozen diagram only,
     * so this equals bddNodeCount(). Evaluation never changes it.
     */
    std::size_t totalBddNodes() const { return diagram_.nodeCount(); }

  private:
    // Declaration order is load-bearing: diagram_'s initializer fills
    // classes_.
    std::vector<ExactComponentClass> classes_;
    bdd::FrozenDiagram diagram_;
};

} // namespace sdnav::model

#endif // SDNAV_MODEL_EXACT_MODEL_HH
