#include "model/exactModel.hh"

#include <limits>
#include <string>
#include <vector>

#include "common/error.hh"

namespace sdnav::model
{

using fmea::Plane;
using fmea::QuorumBlock;
using fmea::RestartMode;

double
exactClassAvailability(ExactComponentClass cls, const SwParams &params)
{
    switch (cls) {
      case ExactComponentClass::Rack:
        return params.rackAvailability;
      case ExactComponentClass::Host:
        return params.hostAvailability;
      case ExactComponentClass::Vm:
        return params.vmAvailability;
      case ExactComponentClass::AutoProcess:
        return params.processAvailability;
      case ExactComponentClass::ManualProcess:
        return params.manualProcessAvailability;
    }
    return 0.0; // Unreachable.
}

rbd::RbdSystem
buildExactSystem(const fmea::ControllerCatalog &catalog,
                 const topology::DeploymentTopology &topo,
                 SupervisorPolicy policy, const SwParams &params,
                 Plane plane, std::vector<ExactComponentClass> *classes,
                 ExactVariableOrder order)
{
    catalog.validate();
    topo.validate();
    params.validate();
    require(catalog.roles().size() == topo.roleCount(),
            "catalog role count does not match topology role count");

    rbd::RbdSystem system;
    if (classes)
        classes->clear();
    auto add_component = [&](std::string name,
                             ExactComponentClass cls) {
        if (classes)
            classes->push_back(cls);
        return system.addComponent(std::move(name),
                                   exactClassAvailability(cls, params));
    };
    auto process_class = [](RestartMode mode) {
        return mode == RestartMode::Auto
            ? ExactComponentClass::AutoProcess
            : ExactComponentClass::ManualProcess;
    };

    // Every component slot starts unassigned; the two emission orders
    // below fill the same tables in different sequences, and the
    // block-building code underneath is order-agnostic.
    constexpr rbd::ComponentId no_id =
        std::numeric_limits<rbd::ComponentId>::max();
    std::size_t n = topo.clusterSize();
    std::size_t role_count = topo.roleCount();
    std::vector<rbd::ComponentId> racks(topo.rackCount(), no_id);
    std::vector<rbd::ComponentId> hosts(topo.hostCount(), no_id);
    std::vector<rbd::ComponentId> vms(topo.vmCount(), no_id);
    std::vector<rbd::ComponentId> supervisors;
    if (policy == SupervisorPolicy::Required)
        supervisors.assign(role_count * n, no_id);
    std::vector<std::vector<rbd::ComponentId>> procs(role_count * n);
    for (std::size_t role = 0; role < role_count; ++role) {
        std::size_t count = catalog.role(role).processes.size();
        for (std::size_t node = 0; node < n; ++node)
            procs[role * n + node].assign(count, no_id);
    }

    auto ensure_rack = [&](std::size_t r) {
        if (racks[r] == no_id)
            racks[r] = add_component("rack" + std::to_string(r),
                                     ExactComponentClass::Rack);
    };
    auto ensure_host = [&](std::size_t h) {
        if (hosts[h] == no_id)
            hosts[h] = add_component("host" + std::to_string(h),
                                     ExactComponentClass::Host);
    };
    auto ensure_vm = [&](std::size_t v) {
        if (vms[v] == no_id)
            vms[v] = add_component("vm" + std::to_string(v),
                                   ExactComponentClass::Vm);
    };
    auto ensure_supervisor = [&](std::size_t role, std::size_t node) {
        auto &slot = supervisors[role * n + node];
        if (slot == no_id) {
            slot = add_component("supervisor-" +
                                     catalog.role(role).name + "-" +
                                     std::to_string(node),
                                 ExactComponentClass::ManualProcess);
        }
    };
    auto add_process = [&](std::size_t role, std::size_t node,
                           std::size_t p) {
        auto &slot = procs[role * n + node][p];
        if (slot != no_id)
            return;
        const fmea::ProcessSpec &proc = catalog.role(role).processes[p];
        slot = add_component(proc.name + "-" + std::to_string(node),
                             process_class(proc.restart));
    };

    if (order == ExactVariableOrder::NodeMajor) {
        // Node-major: emit each node's infrastructure, supervisor,
        // and quorum processes as one contiguous variable group. The
        // only state a quorum block carries across node groups is its
        // own counter, so the diagram stays polynomial in n.
        for (std::size_t node = 0; node < n; ++node) {
            for (std::size_t role = 0; role < role_count; ++role) {
                std::size_t vm = topo.vmOf(role, node);
                std::size_t host = topo.hostOfVm(vm);
                ensure_rack(topo.rackOfHost(host));
                ensure_host(host);
                ensure_vm(vm);
                if (policy == SupervisorPolicy::Required)
                    ensure_supervisor(role, node);
                for (const QuorumBlock &block :
                     catalog.planeBlocks(role, plane)) {
                    for (std::size_t p : block.memberProcesses)
                        add_process(role, node, p);
                }
            }
        }
    } else {
        // Shared infrastructure first: racks, hosts, VMs, then
        // per-node supervisors (also effectively shared: every block
        // of a role on a node depends on the same supervisor), then
        // the plane's quorum processes grouped by block so each
        // block's counting structure touches a contiguous variable
        // range. This is the order every golden baseline was produced
        // with; it is compact at the paper's reference cluster sizes
        // but exponential in n (the process sections must remember
        // the whole infrastructure pattern).
        for (std::size_t r = 0; r < topo.rackCount(); ++r)
            ensure_rack(r);
        for (std::size_t h = 0; h < topo.hostCount(); ++h)
            ensure_host(h);
        for (std::size_t v = 0; v < topo.vmCount(); ++v)
            ensure_vm(v);
        if (policy == SupervisorPolicy::Required) {
            for (std::size_t role = 0; role < role_count; ++role) {
                for (std::size_t node = 0; node < n; ++node)
                    ensure_supervisor(role, node);
            }
        }
        for (std::size_t role = 0; role < role_count; ++role) {
            for (const QuorumBlock &block :
                 catalog.planeBlocks(role, plane)) {
                for (std::size_t node = 0; node < n; ++node) {
                    for (std::size_t p : block.memberProcesses)
                        add_process(role, node, p);
                }
            }
        }
    }

    // Plane-irrelevant processes (and, under NodeMajor, any infra the
    // placements never touched) are appended afterwards; they never
    // appear in the structure function but keep the component
    // inventory complete.
    for (std::size_t role = 0; role < role_count; ++role) {
        for (std::size_t node = 0; node < n; ++node) {
            for (std::size_t p = 0;
                 p < catalog.role(role).processes.size(); ++p) {
                add_process(role, node, p);
            }
        }
    }
    for (std::size_t r = 0; r < topo.rackCount(); ++r)
        ensure_rack(r);
    for (std::size_t h = 0; h < topo.hostCount(); ++h)
        ensure_host(h);
    for (std::size_t v = 0; v < topo.vmCount(); ++v)
        ensure_vm(v);

    // Quorum blocks.
    std::vector<rbd::Block> top;
    for (std::size_t role = 0; role < role_count; ++role) {
        for (const QuorumBlock &block : catalog.planeBlocks(role, plane)) {
            std::vector<rbd::Block> instances;
            instances.reserve(n);
            for (std::size_t node = 0; node < n; ++node) {
                std::vector<rbd::Block> parts;
                for (std::size_t p : block.memberProcesses) {
                    parts.push_back(rbd::component(
                        procs[role * n + node][p]));
                }
                std::size_t vm = topo.vmOf(role, node);
                std::size_t host = topo.hostOfVm(vm);
                parts.push_back(rbd::component(vms[vm]));
                parts.push_back(rbd::component(hosts[host]));
                parts.push_back(
                    rbd::component(racks[topo.rackOfHost(host)]));
                if (policy == SupervisorPolicy::Required) {
                    parts.push_back(rbd::component(
                        supervisors[role * n + node]));
                }
                instances.push_back(rbd::series(std::move(parts)));
            }
            top.push_back(
                rbd::kOfN(fmea::requiredCount(
                              block.quorum, static_cast<unsigned>(n)),
                          std::move(instances)));
        }
    }

    // Local data-plane contribution: the per-host vRouter processes.
    if (plane == Plane::DataPlane) {
        for (const fmea::HostProcessSpec &proc : catalog.hostProcesses()) {
            if (!proc.requiredForDp)
                continue;
            top.push_back(rbd::component(add_component(
                proc.name, process_class(proc.restart))));
        }
        if (policy == SupervisorPolicy::Required) {
            top.push_back(rbd::component(add_component(
                "supervisor-vrouter",
                ExactComponentClass::ManualProcess)));
        }
    }

    require(!top.empty(), "plane has no availability-relevant blocks");
    system.setRoot(rbd::series(std::move(top)));
    return system;
}

double
exactPlaneAvailability(const fmea::ControllerCatalog &catalog,
                       const topology::DeploymentTopology &topo,
                       SupervisorPolicy policy, const SwParams &params,
                       Plane plane)
{
    return buildExactSystem(catalog, topo, policy, params, plane)
        .availabilityExact();
}

ExactPlaneModel::ExactPlaneModel(const fmea::ControllerCatalog &catalog,
                                 const topology::DeploymentTopology &topo,
                                 SupervisorPolicy policy, Plane plane,
                                 const Options &options)
    // The table availabilities are placeholders (paper defaults);
    // evaluation always rebuilds the probability vector from the
    // classes and the caller's params.
    : diagram_(rbd::compileFrozen(
                   buildExactSystem(catalog, topo, policy, SwParams{},
                                    plane, &classes_, options.order),
                   {options.reorderBdd, options.reorderOptions,
                    options.budget})
                   .diagram)
{
}

double
ExactPlaneModel::availability(const SwParams &params) const
{
    bdd::ProbabilityScratch scratch;
    return availability(params, scratch);
}

double
ExactPlaneModel::availability(const SwParams &params,
                              bdd::ProbabilityScratch &scratch) const
{
    params.validate();
    // Small fixed-size stack vector would do; the probability vector
    // is one double per component, reused sizes are tiny next to the
    // BDD traversal itself.
    std::vector<double> probs(classes_.size());
    for (std::size_t i = 0; i < classes_.size(); ++i)
        probs[i] = exactClassAvailability(classes_[i], params);
    return diagram_.probability(probs, scratch);
}

} // namespace sdnav::model
