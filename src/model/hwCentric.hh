/**
 * @file
 * HW-centric availability models (paper section V).
 *
 * Each of the four controller roles is an atomic element of
 * availability A_C; the Config, Control, and Analytics roles need "1
 * of 3" node instances up and the Database role needs "2 of 3". The
 * closed forms condition on the shared-infrastructure states exactly
 * as the paper derives them:
 *
 * - Small (eq. 3): shared {VM+host} per node, single rack.
 * - Medium (eq. 6): per-role VMs, per-node hosts, two racks. Note
 *   the paper's eq. (6) carries a deliberate first-order
 *   simplification (the (4 - 3A_H - A_R) factor); the exact value is
 *   available through hwExactAvailability().
 * - Large (eq. 8): everything dedicated, one rack per node.
 *
 * Each topology also has the paper's intuitive approximation
 * (A ~= A_{2/3} in series with whatever the quorum shares).
 */

#ifndef SDNAV_MODEL_HW_CENTRIC_HH
#define SDNAV_MODEL_HW_CENTRIC_HH

#include "fmea/catalog.hh"
#include "model/params.hh"
#include "topology/deployment.hh"

namespace sdnav::model
{

/** Controller availability in the Small topology, paper eq. (3). */
double hwSmallAvailability(const HwParams &params);

/** Controller availability in the Medium topology, paper eq. (6). */
double hwMediumAvailability(const HwParams &params);

/** Controller availability in the Large topology, paper eq. (8). */
double hwLargeAvailability(const HwParams &params);

/** Closed form for a reference topology kind. */
double hwAvailability(topology::ReferenceKind kind,
                      const HwParams &params);

/**
 * The paper's Small/Medium approximation A ~= A_{2/3}(alpha) A_R with
 * alpha = A_C A_V A_H.
 */
double hwSmallApproximation(const HwParams &params);

/** Identical in form to hwSmallApproximation (the paper's A_M ~= A_S). */
double hwMediumApproximation(const HwParams &params);

/**
 * The paper's Large approximation A ~= A_{2/3}(alpha) with
 * alpha = A_C A_V A_H A_R.
 */
double hwLargeApproximation(const HwParams &params);

/**
 * Exact HW-centric availability of any four-role deployment topology:
 * the SW-centric exact model (ExactPlaneModel, control plane, no
 * supervisors) of hwCentricCatalog() evaluated at hwToSwParams().
 * Its structure function has one atomic component per role instance
 * plus the topology's VMs, hosts and racks. This is the ground-truth
 * value the closed forms are tested against. Each call compiles the
 * diagram; a sweep should hold one ExactPlaneModel instead.
 */
double hwExactAvailability(const topology::DeploymentTopology &topo,
                           const HwParams &params);

/**
 * The HW-centric analysis expressed as a degenerate controller
 * catalog: one atomic auto-restarted process per role, "1 of n" for
 * the Config, Control and Analytics roles and majority for the
 * Database role. Feeding this catalog (with hwToSwParams()) to the
 * SW-centric engine reproduces section V from section VI's machinery
 * — the two models are one framework.
 */
fmea::ControllerCatalog hwCentricCatalog();

/**
 * Map HW-centric parameters onto SW-centric ones for use with
 * hwCentricCatalog(): process availability A_C (both restart modes),
 * platform availabilities copied.
 */
SwParams hwToSwParams(const HwParams &params);

} // namespace sdnav::model

#endif // SDNAV_MODEL_HW_CENTRIC_HH
