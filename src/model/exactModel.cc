#include "model/exactModel.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
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

const char *
variableOrderName(ExactVariableOrder order)
{
    switch (order) {
      case ExactVariableOrder::SharedInfrastructureFirst:
        return "sif";
      case ExactVariableOrder::NodeMajor:
        return "node_major";
      case ExactVariableOrder::RoleMajor:
        return "role_major";
    }
    return ""; // Unreachable.
}

namespace
{

constexpr rbd::ComponentId kNoId =
    std::numeric_limits<rbd::ComponentId>::max();

/**
 * The exact RBD's component ids, assigned once in
 * SharedInfrastructureFirst order. The block builder and every
 * order's level permutation read the same tables.
 */
struct ComponentTable
{
    std::size_t n = 0;
    std::vector<rbd::ComponentId> racks;
    std::vector<rbd::ComponentId> hosts;
    std::vector<rbd::ComponentId> vms;

    /** By role * n + node; empty unless SupervisorPolicy::Required. */
    std::vector<rbd::ComponentId> supervisors;

    /** By role * n + node: one id per process of the role. */
    std::vector<std::vector<rbd::ComponentId>> procs;

    /** The data plane's local vRouter processes and supervisor, in
     *  series with the whole plane. */
    std::vector<rbd::ComponentId> local;

    /** Each role's quorum blocks in the plane. */
    std::vector<std::vector<QuorumBlock>> blocks;

    /** Each component's name and class, by id. */
    std::vector<std::pair<std::string, ExactComponentClass>> inventory;

    /** Rack, host and VM ids of one role instance. */
    std::array<rbd::ComponentId, 3>
    infrastructure(const topology::DeploymentTopology &topo,
                   std::size_t role, std::size_t node) const
    {
        std::size_t vm = topo.vmOf(role, node);
        std::size_t host = topo.hostOfVm(vm);
        return {racks[topo.rackOfHost(host)], hosts[host], vms[vm]};
    }
};

ExactComponentClass
processClass(RestartMode mode)
{
    return mode == RestartMode::Auto ? ExactComponentClass::AutoProcess
                                     : ExactComponentClass::ManualProcess;
}

ComponentTable
emitComponents(const fmea::ControllerCatalog &catalog,
               const topology::DeploymentTopology &topo,
               SupervisorPolicy policy, Plane plane)
{
    catalog.validate();
    topo.validate();
    require(catalog.roles().size() == topo.roleCount(),
            "catalog role count does not match topology role count");

    ComponentTable t;
    t.n = topo.clusterSize();
    const std::size_t n = t.n;
    const std::size_t role_count = topo.roleCount();
    auto add = [&](std::string name, ExactComponentClass cls) {
        t.inventory.emplace_back(std::move(name), cls);
        return static_cast<rbd::ComponentId>(t.inventory.size() - 1);
    };

    // Shared infrastructure first: racks, hosts, VMs, then per-node
    // supervisors (every block of a role on a node depends on the
    // same one), then the plane's quorum processes grouped by block,
    // then the processes the plane never references, which keep the
    // inventory complete.
    for (std::size_t r = 0; r < topo.rackCount(); ++r)
        t.racks.push_back(
            add("rack" + std::to_string(r), ExactComponentClass::Rack));
    for (std::size_t h = 0; h < topo.hostCount(); ++h)
        t.hosts.push_back(
            add("host" + std::to_string(h), ExactComponentClass::Host));
    for (std::size_t v = 0; v < topo.vmCount(); ++v)
        t.vms.push_back(
            add("vm" + std::to_string(v), ExactComponentClass::Vm));
    if (policy == SupervisorPolicy::Required) {
        for (std::size_t role = 0; role < role_count; ++role) {
            for (std::size_t node = 0; node < n; ++node)
                t.supervisors.push_back(
                    add("supervisor-" + catalog.role(role).name + "-" +
                            std::to_string(node),
                        ExactComponentClass::ManualProcess));
        }
    }
    t.procs.resize(role_count * n);
    auto add_process = [&](std::size_t role, std::size_t node,
                           std::size_t p) {
        std::vector<rbd::ComponentId> &ids = t.procs[role * n + node];
        if (ids.empty())
            ids.assign(catalog.role(role).processes.size(), kNoId);
        if (ids[p] != kNoId)
            return;
        const fmea::ProcessSpec &proc = catalog.role(role).processes[p];
        ids[p] = add(proc.name + "-" + std::to_string(node),
                     processClass(proc.restart));
    };
    for (std::size_t role = 0; role < role_count; ++role) {
        t.blocks.push_back(catalog.planeBlocks(role, plane));
        for (const QuorumBlock &block : t.blocks.back()) {
            for (std::size_t node = 0; node < n; ++node) {
                for (std::size_t p : block.memberProcesses)
                    add_process(role, node, p);
            }
        }
    }
    for (std::size_t role = 0; role < role_count; ++role) {
        for (std::size_t node = 0; node < n; ++node) {
            for (std::size_t p = 0;
                 p < catalog.role(role).processes.size(); ++p)
                add_process(role, node, p);
        }
    }

    if (plane == Plane::DataPlane) {
        for (const fmea::HostProcessSpec &proc : catalog.hostProcesses()) {
            if (proc.requiredForDp)
                t.local.push_back(
                    add(proc.name, processClass(proc.restart)));
        }
        if (policy == SupervisorPolicy::Required)
            t.local.push_back(add("supervisor-vrouter",
                                  ExactComponentClass::ManualProcess));
    }
    return t;
}

/**
 * The role instances (role * n + node, ascending) whose plane blocks
 * stand on each component, by id; empty for all but the racks, hosts
 * and VMs under some plane block.
 */
std::vector<std::vector<std::size_t>>
instanceUsers(const ComponentTable &t,
              const topology::DeploymentTopology &topo)
{
    std::vector<std::vector<std::size_t>> users(t.inventory.size());
    for (std::size_t role = 0; role < t.blocks.size(); ++role) {
        if (t.blocks[role].empty())
            continue;
        for (std::size_t node = 0; node < t.n; ++node) {
            for (rbd::ComponentId id : t.infrastructure(topo, role, node))
                users[id].push_back(role * t.n + node);
        }
    }
    return users;
}

/** True when the instances span more than one role. */
bool
spansRoles(const std::vector<std::size_t> &instances, std::size_t n)
{
    return !instances.empty() &&
           instances.front() / n != instances.back() / n;
}

} // anonymous namespace

rbd::RbdSystem
buildExactSystem(const fmea::ControllerCatalog &catalog,
                 const topology::DeploymentTopology &topo,
                 SupervisorPolicy policy, const SwParams &params,
                 Plane plane, std::vector<ExactComponentClass> *classes)
{
    params.validate();
    const ComponentTable t = emitComponents(catalog, topo, policy, plane);
    const std::size_t n = t.n;

    rbd::RbdSystem system;
    if (classes)
        classes->clear();
    for (const auto &[name, cls] : t.inventory) {
        if (classes)
            classes->push_back(cls);
        system.addComponent(name, exactClassAvailability(cls, params));
    }

    // Quorum blocks.
    std::vector<rbd::Block> top;
    for (std::size_t role = 0; role < t.blocks.size(); ++role) {
        for (const QuorumBlock &block : t.blocks[role]) {
            std::vector<rbd::Block> instances;
            instances.reserve(n);
            for (std::size_t node = 0; node < n; ++node) {
                std::vector<rbd::Block> parts;
                for (std::size_t p : block.memberProcesses) {
                    parts.push_back(
                        rbd::component(t.procs[role * n + node][p]));
                }
                auto [rack, host, vm] =
                    t.infrastructure(topo, role, node);
                parts.push_back(rbd::component(vm));
                parts.push_back(rbd::component(host));
                parts.push_back(rbd::component(rack));
                if (policy == SupervisorPolicy::Required) {
                    parts.push_back(
                        rbd::component(t.supervisors[role * n + node]));
                }
                instances.push_back(rbd::series(std::move(parts)));
            }
            top.push_back(
                rbd::kOfN(fmea::requiredCount(
                              block.quorum, static_cast<unsigned>(n)),
                          std::move(instances)));
        }
    }
    for (rbd::ComponentId id : t.local)
        top.push_back(rbd::component(id));

    require(!top.empty(), "plane has no availability-relevant blocks");
    system.setRoot(rbd::series(std::move(top)));
    return system;
}

std::vector<unsigned>
exactVariableLevels(const fmea::ControllerCatalog &catalog,
                    const topology::DeploymentTopology &topo,
                    SupervisorPolicy policy, Plane plane,
                    ExactVariableOrder order)
{
    const ComponentTable t = emitComponents(catalog, topo, policy, plane);
    const std::size_t n = t.n;
    std::vector<unsigned> levels(t.inventory.size());
    if (order == ExactVariableOrder::SharedInfrastructureFirst) {
        std::iota(levels.begin(), levels.end(), 0u);
        return levels;
    }

    // Hand out levels top down; a component keeps the first one.
    constexpr unsigned unplaced = std::numeric_limits<unsigned>::max();
    std::fill(levels.begin(), levels.end(), unplaced);
    unsigned next = 0;
    auto place = [&](rbd::ComponentId id) {
        if (levels[id] == unplaced)
            levels[id] = next++;
    };
    // One role instance's infrastructure and supervisor.
    auto place_instance = [&](std::size_t role, std::size_t node) {
        for (rbd::ComponentId id : t.infrastructure(topo, role, node))
            place(id);
        if (policy == SupervisorPolicy::Required)
            place(t.supervisors[role * n + node]);
    };
    const std::size_t role_count = t.blocks.size();
    if (order == ExactVariableOrder::NodeMajor) {
        for (std::size_t node = 0; node < n; ++node) {
            for (std::size_t role = 0; role < role_count; ++role) {
                place_instance(role, node);
                for (const QuorumBlock &block : t.blocks[role]) {
                    for (std::size_t p : block.memberProcesses)
                        place(t.procs[role * n + node][p]);
                }
            }
        }
    } else {
        std::vector<std::vector<std::size_t>> users =
            instanceUsers(t, topo);
        for (rbd::ComponentId id = 0; id < users.size(); ++id) {
            if (spansRoles(users[id], n))
                place(id);
        }
        for (std::size_t role = 0; role < role_count; ++role) {
            if (t.blocks[role].empty())
                continue;
            for (std::size_t node = 0; node < n; ++node)
                place_instance(role, node);
            for (const QuorumBlock &block : t.blocks[role]) {
                for (std::size_t node = 0; node < n; ++node) {
                    for (std::size_t p : block.memberProcesses)
                        place(t.procs[role * n + node][p]);
                }
            }
        }
    }

    // Then whatever no block placed: the processes the plane never
    // references, unused infrastructure and supervisors, and last the
    // local data-plane components, in series with the whole plane.
    for (const std::vector<rbd::ComponentId> &ids : t.procs) {
        for (rbd::ComponentId id : ids)
            place(id);
    }
    for (const auto *ids :
         {&t.racks, &t.hosts, &t.vms, &t.supervisors, &t.local}) {
        for (rbd::ComponentId id : *ids)
            place(id);
    }
    return levels;
}

ExactVariableOrder
chooseVariableOrder(const fmea::ControllerCatalog &catalog,
                    const topology::DeploymentTopology &topo,
                    SupervisorPolicy policy, Plane plane)
{
    const ComponentTable t = emitComponents(catalog, topo, policy, plane);
    const std::size_t n = t.n;
    std::size_t blocks = 0;
    std::size_t role_blocks = 0;
    // The most instances of each role that can fail before its
    // strictest block loses quorum.
    std::vector<std::size_t> tolerated(t.blocks.size(), n);
    for (std::size_t role = 0; role < t.blocks.size(); ++role) {
        blocks += t.blocks[role].size();
        role_blocks = std::max(role_blocks, t.blocks[role].size());
        for (const QuorumBlock &block : t.blocks[role])
            tolerated[role] = std::min<std::size_t>(
                tolerated[role],
                n - std::min<std::size_t>(
                        n, fmea::requiredCount(block.quorum,
                                               static_cast<unsigned>(n))));
    }
    // A shared component that takes down more of some role's
    // instances than that role tolerates fails the plane on its own:
    // a conjunct, not state. Components under exactly the same
    // instances are one bit of state between them.
    auto fails_the_plane = [&](const std::vector<std::size_t> &users) {
        for (auto run = users.begin(); run != users.end();) {
            std::size_t role = *run / n;
            auto end = std::find_if(run, users.end(), [&](std::size_t i) {
                return i / n != role;
            });
            if (static_cast<std::size_t>(end - run) > tolerated[role])
                return true;
            run = end;
        }
        return false;
    };
    std::vector<std::vector<std::size_t>> state;
    for (std::vector<std::size_t> &users : instanceUsers(t, topo)) {
        if (spansRoles(users, n) && !fails_the_plane(users))
            state.push_back(std::move(users));
    }
    std::sort(state.begin(), state.end());
    const auto shared_bits = static_cast<double>(
        std::unique(state.begin(), state.end()) - state.begin());

    const double counter = std::log(static_cast<double>(n) + 1.0);
    const double node_major = static_cast<double>(blocks) * counter;
    const double role_major = shared_bits * std::log(2.0) +
                              static_cast<double>(role_blocks) * counter;
    return role_major < node_major ? ExactVariableOrder::RoleMajor
                                   : ExactVariableOrder::NodeMajor;
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
    : order_(options.order)
{
    // The table availabilities are placeholders (paper defaults): the
    // diagram's inputs are the component classes, whose
    // availabilities every evaluation reads from the caller's params.
    std::vector<ExactComponentClass> classes;
    rbd::RbdSystem system = buildExactSystem(catalog, topo, policy,
                                             SwParams{}, plane, &classes);
    rbd::CompileOptions compile{
        exactVariableLevels(catalog, topo, policy, plane, options.order),
        {}, options.budget, options.workspace};
    compile.classes.reserve(classes.size());
    for (ExactComponentClass cls : classes)
        compile.classes.push_back(static_cast<unsigned>(cls));
    components_ = classes.size();
    diagram_ = rbd::compileFrozen(system, compile).diagram;
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
    std::vector<double> &probs = scratch.inputs();
    probs.resize(kExactClassCount);
    for (std::size_t c = 0; c < kExactClassCount; ++c)
        probs[c] = exactClassAvailability(
            static_cast<ExactComponentClass>(c), params);
    return diagram_.probability(probs, scratch);
}

} // namespace sdnav::model
