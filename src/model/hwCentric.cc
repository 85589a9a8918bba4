#include "model/hwCentric.hh"

#include <cmath>
#include <string>

#include "common/error.hh"
#include "model/exactModel.hh"
#include "prob/kofn.hh"

namespace sdnav::model
{

using prob::kOfN;

double
hwSmallAvailability(const HwParams &params)
{
    params.validate();
    double ac = params.roleAvailability;
    double av = params.vmAvailability;
    double ah = params.hostAvailability;
    double ar = params.rackAvailability;
    double avh = av * ah;

    // Eq. (3): condition on how many {VM+host} pairs are up. With all
    // three up, the three "1 of 3" roles and one "2 of 3" role draw
    // from 3 nodes; with two up, from 2 nodes; one node up violates
    // the Database quorum.
    double three_up = std::pow(kOfN(1, 3, ac), 3) * kOfN(2, 3, ac) * avh;
    double two_up = 3.0 * std::pow(kOfN(1, 2, ac), 3) *
                    kOfN(2, 2, ac) * (1.0 - avh);
    return (three_up + two_up) * av * av * ah * ah * ar;
}

double
hwMediumAvailability(const HwParams &params)
{
    params.validate();
    double alpha = params.roleAvailability * params.vmAvailability;
    double ah = params.hostAvailability;
    double ar = params.rackAvailability;

    // Eq. (6). The (4 - 3A_H - A_R) factor is the paper's first-order
    // combination of the "two hosts up, both racks up" and "rack 2
    // down" cases. Note: the paper's printed eq. (6) omits the A_R
    // factor on the first (all-hosts-up) term; restoring it is
    // required to reproduce the paper's own quoted A_M = 0.999989
    // (and matches the exact RBD evaluation).
    double three_up = std::pow(kOfN(1, 3, alpha), 3) *
                      kOfN(2, 3, alpha) * ah * ar;
    double degraded = std::pow(kOfN(1, 2, alpha), 3) *
                      kOfN(2, 2, alpha) * (4.0 - 3.0 * ah - ar);
    return (three_up + degraded) * ah * ah * ar;
}

double
hwLargeAvailability(const HwParams &params)
{
    params.validate();
    double alpha = params.roleAvailability * params.vmAvailability *
                   params.hostAvailability;
    double ar = params.rackAvailability;

    // Eq. (8): condition on rack count; a single surviving rack
    // violates the Database quorum.
    double three_up = std::pow(kOfN(1, 3, alpha), 3) *
                      kOfN(2, 3, alpha) * ar;
    double two_up = std::pow(kOfN(1, 2, alpha), 3) * kOfN(2, 2, alpha) *
                    3.0 * (1.0 - ar);
    return (three_up + two_up) * ar * ar;
}

double
hwAvailability(topology::ReferenceKind kind, const HwParams &params)
{
    switch (kind) {
      case topology::ReferenceKind::Small:
        return hwSmallAvailability(params);
      case topology::ReferenceKind::Medium:
        return hwMediumAvailability(params);
      case topology::ReferenceKind::Large:
        return hwLargeAvailability(params);
    }
    throw ModelError("unknown reference topology kind");
}

double
hwSmallApproximation(const HwParams &params)
{
    params.validate();
    double alpha = params.roleAvailability * params.vmAvailability *
                   params.hostAvailability;
    return kOfN(2, 3, alpha) * params.rackAvailability;
}

double
hwMediumApproximation(const HwParams &params)
{
    return hwSmallApproximation(params);
}

double
hwLargeApproximation(const HwParams &params)
{
    params.validate();
    double alpha = params.roleAvailability * params.vmAvailability *
                   params.hostAvailability * params.rackAvailability;
    return kOfN(2, 3, alpha);
}

double
hwExactAvailability(const topology::DeploymentTopology &topo,
                    const HwParams &params)
{
    SwParams sw = hwToSwParams(params);
    return ExactPlaneModel(hwCentricCatalog(), topo,
                           SupervisorPolicy::NotRequired,
                           fmea::Plane::ControlPlane)
        .availability(sw);
}

fmea::ControllerCatalog
hwCentricCatalog()
{
    struct AtomicRole
    {
        const char *name;
        char tag;
        fmea::QuorumClass quorum;
    };
    static const AtomicRole roles[] = {
        {"Config", 'G', fmea::QuorumClass::AnyOne},
        {"Control", 'C', fmea::QuorumClass::AnyOne},
        {"Analytics", 'A', fmea::QuorumClass::AnyOne},
        {"Database", 'D', fmea::QuorumClass::Majority},
    };
    fmea::ControllerCatalog catalog("HW-centric atomic roles");
    for (const AtomicRole &role : roles) {
        fmea::RoleSpec spec;
        spec.name = role.name;
        spec.tag = role.tag;
        spec.processes.push_back({"role-" + spec.name,
                                  fmea::RestartMode::Auto, role.quorum,
                                  fmea::QuorumClass::None, "", "",
                                  "Atomic role element."});
        catalog.addRole(std::move(spec));
    }
    catalog.validate();
    return catalog;
}

SwParams
hwToSwParams(const HwParams &params)
{
    params.validate();
    SwParams sw;
    sw.processAvailability = params.roleAvailability;
    sw.manualProcessAvailability = params.roleAvailability;
    sw.vmAvailability = params.vmAvailability;
    sw.hostAvailability = params.hostAvailability;
    sw.rackAvailability = params.rackAvailability;
    return sw;
}

} // namespace sdnav::model
