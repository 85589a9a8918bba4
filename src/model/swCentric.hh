/**
 * @file
 * SW-centric availability models (paper section VI).
 *
 * The engine computes SDN control-plane and host data-plane
 * availability for ANY controller catalog on ANY deployment topology,
 * under either supervisor policy. It generalizes the paper's options
 * 1S / 2S / 1L / 2L (and covers the Medium topology the paper skips).
 *
 * Method — exactly the paper's conditioning argument, made generic:
 *
 * 1. Classify infrastructure (VMs, hosts, racks) into *shared*
 *    elements supporting multiple role instances (enumerated exactly)
 *    and *dedicated* elements supporting a single role instance
 *    (folded into that instance's independent availability rho, as in
 *    the paper's rho = A_V A_H for option 1L).
 * 2. For each joint up/down state of the shared elements, a role
 *    instance is "reachable" iff all its shared elements are up.
 * 3. Per role, the number of *usable* node instances among the
 *    reachable ones is Poisson-binomial in the per-instance rho
 *    (which includes the supervisor availability A_S under
 *    SupervisorPolicy::Required — the paper's eq. (14)).
 * 4. Given j usable instances, the role contributes the product over
 *    its quorum blocks of A_{m_b / j}(beta_b), where beta_b is the
 *    product of the block's member-process availabilities — auto-
 *    restarted processes at A, manual-restart processes at A_S (the
 *    paper's Table II distinction) — exactly eq. (13).
 *
 * Steps 2-4 factor per role, so the paper's four-fold sum in eq. (12)
 * collapses to a product of per-role sums.
 *
 * The host data plane is the product of the *shared* contribution
 * (same computation with the DP quorum columns) and the *local*
 * contribution A^K (times A_S when the vRouter supervisor is
 * required).
 */

#ifndef SDNAV_MODEL_SW_CENTRIC_HH
#define SDNAV_MODEL_SW_CENTRIC_HH

#include <cstddef>
#include <vector>

#include "fmea/catalog.hh"
#include "model/params.hh"
#include "topology/deployment.hh"

namespace sdnav::model
{

/**
 * SW-centric availability model of one catalog on one topology under
 * one supervisor policy. Construction precomputes the sharing
 * structure; evaluation is cheap, so parameter sweeps construct once
 * and evaluate per point.
 */
class SwAvailabilityModel
{
  public:
    /**
     * @param catalog Controller software catalog. The number of
     *                catalog roles must match the topology role count.
     *                The model keeps a reference and reads it on every
     *                evaluation, so the catalog must outlive the model.
     * @param topo Deployment topology (validated).
     * @param policy Supervisor policy (scenario 1 or 2).
     */
    SwAvailabilityModel(const fmea::ControllerCatalog &catalog,
                        const topology::DeploymentTopology &topo,
                        SupervisorPolicy policy);

    /** A temporary catalog would dangle once the statement ends. */
    SwAvailabilityModel(const fmea::ControllerCatalog &&catalog,
                        const topology::DeploymentTopology &topo,
                        SupervisorPolicy policy) = delete;

    /** SDN control-plane availability A_CP. */
    double controlPlaneAvailability(const SwParams &params) const;

    /**
     * Shared data-plane availability A_SDP: the controller-side
     * contribution that affects every host's DP at once.
     */
    double sharedDataPlaneAvailability(const SwParams &params) const;

    /**
     * Local data-plane availability A_LDP: the per-host vRouter
     * processes (and their supervisor under policy Required).
     */
    double localDataPlaneAvailability(const SwParams &params) const;

    /** Total per-host data-plane availability A_DP = A_SDP * A_LDP. */
    double hostDataPlaneAvailability(const SwParams &params) const;

    /** Availability for a plane (DP = total host DP). */
    double planeAvailability(const SwParams &params,
                             fmea::Plane plane) const;

    /** The supervisor policy this model was built with. */
    SupervisorPolicy policy() const { return policy_; }

    /** Number of enumerated shared infrastructure elements. */
    std::size_t sharedElementCount() const { return shared_.size(); }

  private:
    enum class ElementKind { Vm, Host, Rack };

    struct SharedElement
    {
        ElementKind kind;
        std::size_t index;
    };

    struct SlotInfo
    {
        /** Indices into shared_ that must all be up. */
        std::vector<std::size_t> sharedElements;
        bool vmDedicated = false;
        bool hostDedicated = false;
        bool rackDedicated = false;
    };

    double elementAvailability(const SharedElement &element,
                               const SwParams &params) const;
    double slotRho(const SlotInfo &slot, const SwParams &params) const;
    double sharedPlaneAvailability(const SwParams &params,
                                   fmea::Plane plane) const;

    const fmea::ControllerCatalog &catalog_;
    SupervisorPolicy policy_;
    std::size_t role_count_;
    std::size_t cluster_size_;
    std::vector<SharedElement> shared_;
    /** slots_[role * cluster_size_ + node]. */
    std::vector<SlotInfo> slots_;
};

/**
 * Convenience: build the model and return the plane availability in
 * one call (for one-off evaluations).
 */
double swAvailability(const fmea::ControllerCatalog &catalog,
                      const topology::DeploymentTopology &topo,
                      SupervisorPolicy policy, const SwParams &params,
                      fmea::Plane plane);

} // namespace sdnav::model

#endif // SDNAV_MODEL_SW_CENTRIC_HH
