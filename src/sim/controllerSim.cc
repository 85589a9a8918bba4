#include "sim/controllerSim.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <queue>

#include "common/error.hh"
#include "common/units.hh"
#include "obs/trace.hh"
#include "prob/rng.hh"

namespace sdnav::sim
{

using fmea::Plane;
using fmea::QuorumBlock;
using fmea::RestartMode;
using model::SupervisorPolicy;

namespace
{

constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

/** Event kinds processed by the simulation loop. */
enum class EventKind
{
    InfraFlip,  ///< Rack/host/VM toggles between up and down.
    ProcFail,   ///< A controller or vRouter process fails.
    ProcRepair, ///< A process restart completes.
    SupFail,    ///< A supervisor fails.
    SupRepair,  ///< A supervisor restart (or maintenance) completes.
    Rediscover, ///< A vRouter agent retries control-node discovery.
};

struct Event
{
    double time;
    std::uint64_t seq;
    EventKind kind;
    std::size_t index;

    bool
    operator>(const Event &other) const
    {
        if (time != other.time)
            return time > other.time;
        return seq > other.seq;
    }
};

} // anonymous namespace

model::SwParams
staticParamsFor(const ControllerSimConfig &config)
{
    model::SwParams params;
    params.processAvailability = config.process.supervisedAvailability();
    params.manualProcessAvailability =
        config.process.unsupervisedAvailability();
    params.vmAvailability = config.vmAvailability;
    params.hostAvailability = config.hostAvailability;
    params.rackAvailability = config.rackAvailability;
    return params;
}

/**
 * The simulation engine. A single class keeps the (considerable)
 * shared state manageable; the public entry point constructs it, runs
 * the event loop, and extracts results.
 */
class ControllerSimulation
{
  public:
    ControllerSimulation(const fmea::ControllerCatalog &catalog,
                         const topology::DeploymentTopology &topo,
                         SupervisorPolicy policy,
                         const ControllerSimConfig &config)
        : catalog_(catalog), topo_(topo), policy_(policy),
          config_(config), rng_(config.seed)
    {
        catalog.validate();
        topo.validate();
        config.process.validate();
        require(catalog.roles().size() == topo.roleCount(),
                "catalog role count does not match topology");
        require(config.horizonHours > 0.0, "horizon must be positive");
        require(config.batches >= 2, "need at least two batches");
        build();
    }

    ControllerSimResult run();

  private:
    // --- static structure -------------------------------------------
    struct BlockRef
    {
        std::size_t role;
        unsigned required;
        std::vector<std::size_t> members; // process index within role
    };

    void build();
    void scheduleInfra(std::size_t index, double now);
    void scheduleProcFailure(std::size_t pid, double now);
    void scheduleSupFailure(std::size_t sid, double now);
    void push(double time, EventKind kind, std::size_t index);

    bool infraChainUp(std::size_t role, std::size_t node) const;
    bool nodeRoleUsable(std::size_t role, std::size_t node) const;
    bool blockInstanceUp(const BlockRef &block, std::size_t node) const;
    bool blockSatisfied(const BlockRef &block) const;
    bool controlBlockServing(std::size_t node) const;
    bool localHostUp(std::size_t host) const;

    void handle(const Event &event);
    OutageCause causeOf(const Event &event) const;
    void evaluate(double time, const OutageCause &cause);
    void accumulate(double time);
    void recordBatches(double time);
    void attemptRediscovery(std::size_t host, double time);

    double repairTime(RestartMode mode, bool supervisor_up);

    // --- inputs ------------------------------------------------------
    const fmea::ControllerCatalog &catalog_;
    const topology::DeploymentTopology &topo_;
    SupervisorPolicy policy_;
    ControllerSimConfig config_;
    prob::Rng rng_;

    // --- component state ---------------------------------------------
    // Infra components: racks, then hosts, then VMs, flat.
    std::vector<bool> infra_up_;
    std::vector<double> infra_mtbf_;
    std::vector<double> infra_mttr_;
    std::size_t host_base_ = 0;
    std::size_t vm_base_ = 0;

    // Controller processes, flattened (role, node, proc).
    std::vector<bool> proc_up_;
    std::vector<RestartMode> proc_mode_;
    std::vector<std::size_t> proc_sup_; // supervisor id
    std::vector<std::size_t> role_offset_;
    std::size_t n_ = 0;          // cluster size
    std::size_t role_count_ = 0;

    // Supervisors: controller (role, node) then one per vRouter host.
    std::vector<bool> sup_up_;

    // vRouter host processes, flattened (host, proc).
    std::size_t vr_proc_base_ = 0;   // offset into proc arrays
    std::size_t vr_procs_per_host_ = 0;
    std::size_t vr_sup_base_ = 0;

    // Quorum blocks.
    std::vector<BlockRef> cp_blocks_;
    std::vector<BlockRef> dp_blocks_;        // excluding control block
    std::size_t control_role_ = npos;        // role of control block
    BlockRef control_block_;                 // DP connectivity block
    bool has_control_block_ = false;

    // Connection state per monitored host.
    std::vector<std::array<std::size_t, 2>> slots_;
    std::vector<bool> rediscover_pending_;
    std::vector<bool> serving_; // per controller node

    // --- event queue ---------------------------------------------------
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
    std::uint64_t seq_ = 0;

    // --- accounting ---------------------------------------------------
    double last_time_ = 0.0;
    bool cp_up_ = true;
    double dp_fraction_ = 1.0;
    double redisc_fraction_ = 0.0;
    double cp_uptime_ = 0.0;
    double dp_hosthours_up_ = 0.0;
    double redisc_hosthours_ = 0.0;
    UptimeTracker cp_tracker_{true};
    OutageLedger cp_ledger_{true};
    std::vector<OutageLedger> dp_ledgers_;  // one per monitored host
    std::vector<bool> host_dp_up_;
    std::vector<double> cp_batches_;
    std::vector<double> dp_batches_;
    double batch_cp_mark_ = 0.0;
    double batch_dp_mark_ = 0.0;
    std::size_t next_batch_ = 1;
    std::size_t events_ = 0;
    std::size_t queue_hwm_ = 0;
};

void
ControllerSimulation::push(double time, EventKind kind, std::size_t index)
{
    require(time >= last_time_, "event scheduled in the past");
    queue_.push({time, seq_++, kind, index});
    queue_hwm_ = std::max(queue_hwm_, queue_.size());
}

void
ControllerSimulation::build()
{
    n_ = topo_.clusterSize();
    role_count_ = topo_.roleCount();

    // Infra: racks, hosts, VMs.
    std::size_t racks = topo_.rackCount();
    std::size_t hosts = topo_.hostCount();
    std::size_t vms = topo_.vmCount();
    host_base_ = racks;
    vm_base_ = racks + hosts;
    infra_up_.assign(racks + hosts + vms, true);
    infra_mtbf_.resize(infra_up_.size());
    infra_mttr_.resize(infra_up_.size());
    for (std::size_t r = 0; r < racks; ++r) {
        infra_mtbf_[r] = config_.rackMtbfHours;
        infra_mttr_[r] = mttrFromAvailability(config_.rackAvailability,
                                              config_.rackMtbfHours);
    }
    for (std::size_t h = 0; h < hosts; ++h) {
        infra_mtbf_[host_base_ + h] = config_.hostMtbfHours;
        infra_mttr_[host_base_ + h] = mttrFromAvailability(
            config_.hostAvailability, config_.hostMtbfHours);
    }
    for (std::size_t v = 0; v < vms; ++v) {
        infra_mtbf_[vm_base_ + v] = config_.vmMtbfHours;
        infra_mttr_[vm_base_ + v] = mttrFromAvailability(
            config_.vmAvailability, config_.vmMtbfHours);
    }

    // Controller processes and supervisors.
    role_offset_.resize(role_count_ + 1, 0);
    for (std::size_t role = 0; role < role_count_; ++role) {
        role_offset_[role + 1] = role_offset_[role] +
            catalog_.role(role).processes.size() * n_;
    }
    std::size_t controller_procs = role_offset_[role_count_];
    std::size_t controller_sups = role_count_ * n_;

    vr_procs_per_host_ = catalog_.hostProcesses().size();
    vr_proc_base_ = controller_procs;
    std::size_t total_procs = controller_procs +
        vr_procs_per_host_ * config_.monitoredHosts;
    vr_sup_base_ = controller_sups;
    std::size_t total_sups =
        controller_sups + config_.monitoredHosts;

    proc_up_.assign(total_procs, true);
    proc_mode_.resize(total_procs);
    proc_sup_.resize(total_procs);
    sup_up_.assign(total_sups, true);

    for (std::size_t role = 0; role < role_count_; ++role) {
        const auto &procs = catalog_.role(role).processes;
        for (std::size_t node = 0; node < n_; ++node) {
            for (std::size_t p = 0; p < procs.size(); ++p) {
                std::size_t pid = role_offset_[role] +
                    node * procs.size() + p;
                proc_mode_[pid] = procs[p].restart;
                proc_sup_[pid] = role * n_ + node;
            }
        }
    }
    for (std::size_t host = 0; host < config_.monitoredHosts; ++host) {
        for (std::size_t p = 0; p < vr_procs_per_host_; ++p) {
            std::size_t pid = vr_proc_base_ +
                host * vr_procs_per_host_ + p;
            proc_mode_[pid] = catalog_.hostProcesses()[p].restart;
            proc_sup_[pid] = vr_sup_base_ + host;
        }
    }

    // Quorum blocks.
    for (std::size_t role = 0; role < role_count_; ++role) {
        for (const QuorumBlock &block :
             catalog_.planeBlocks(role, Plane::ControlPlane)) {
            cp_blocks_.push_back(
                {role,
                 fmea::requiredCount(block.quorum,
                                     static_cast<unsigned>(n_)),
                 block.memberProcesses});
        }
        for (const QuorumBlock &block :
             catalog_.planeBlocks(role, Plane::DataPlane)) {
            BlockRef ref{role,
                         fmea::requiredCount(
                             block.quorum, static_cast<unsigned>(n_)),
                         block.memberProcesses};
            // The multi-member any-one DP block is the control block
            // whose connectivity the rediscovery model tracks.
            if (config_.modelRediscovery &&
                block.memberProcesses.size() > 1 &&
                block.quorum == fmea::QuorumClass::AnyOne &&
                !has_control_block_) {
                control_block_ = ref;
                control_role_ = role;
                has_control_block_ = true;
            } else {
                dp_blocks_.push_back(std::move(ref));
            }
        }
    }

    // Connection slots: host i starts on nodes i % n and (i+1) % n.
    serving_.assign(n_, true);
    slots_.resize(config_.monitoredHosts);
    rediscover_pending_.assign(config_.monitoredHosts, false);
    for (std::size_t host = 0; host < config_.monitoredHosts; ++host) {
        slots_[host][0] = host % n_;
        slots_[host][1] = n_ > 1 ? (host + 1) % n_ : npos;
    }

    // Per-host DP attribution: everything starts up.
    dp_ledgers_.resize(config_.monitoredHosts);
    host_dp_up_.assign(config_.monitoredHosts, true);

    // Initial failure events.
    for (std::size_t i = 0; i < infra_up_.size(); ++i)
        scheduleInfra(i, 0.0);
    for (std::size_t pid = 0; pid < proc_up_.size(); ++pid)
        scheduleProcFailure(pid, 0.0);
    for (std::size_t sid = 0; sid < sup_up_.size(); ++sid)
        scheduleSupFailure(sid, 0.0);
}

// The next-transition anchor is the handled event's time, passed
// explicitly: `last_time_` is an accounting cursor that only advances
// on positive deltas, so with coincident events (maintenance
// boundaries, deterministic repairs) it is not a safe anchor.

void
ControllerSimulation::scheduleInfra(std::size_t index, double now)
{
    double hold = infra_up_[index]
        ? rng_.exponential(infra_mtbf_[index])
        : rng_.exponential(infra_mttr_[index]);
    push(now + hold, EventKind::InfraFlip, index);
}

void
ControllerSimulation::scheduleProcFailure(std::size_t pid, double now)
{
    push(now + rng_.exponential(config_.process.mtbfHours),
         EventKind::ProcFail, pid);
}

void
ControllerSimulation::scheduleSupFailure(std::size_t sid, double now)
{
    push(now + rng_.exponential(config_.supervisorMtbfHours),
         EventKind::SupFail, sid);
}

double
ControllerSimulation::repairTime(RestartMode mode, bool supervisor_up)
{
    bool manual = mode == RestartMode::Manual || !supervisor_up;
    return rng_.exponential(manual ? config_.process.manualRestartHours
                                   : config_.process.autoRestartHours);
}

bool
ControllerSimulation::infraChainUp(std::size_t role,
                                   std::size_t node) const
{
    std::size_t vm = topo_.vmOf(role, node);
    std::size_t host = topo_.hostOfVm(vm);
    std::size_t rack = topo_.rackOfHost(host);
    return infra_up_[vm_base_ + vm] && infra_up_[host_base_ + host] &&
           infra_up_[rack];
}

bool
ControllerSimulation::nodeRoleUsable(std::size_t role,
                                     std::size_t node) const
{
    if (!infraChainUp(role, node))
        return false;
    if (policy_ == SupervisorPolicy::Required &&
        !sup_up_[role * n_ + node]) {
        return false;
    }
    return true;
}

bool
ControllerSimulation::blockInstanceUp(const BlockRef &block,
                                      std::size_t node) const
{
    if (!nodeRoleUsable(block.role, node))
        return false;
    std::size_t procs_per_node =
        catalog_.role(block.role).processes.size();
    for (std::size_t p : block.members) {
        std::size_t pid = role_offset_[block.role] +
            node * procs_per_node + p;
        if (!proc_up_[pid])
            return false;
    }
    return true;
}

bool
ControllerSimulation::blockSatisfied(const BlockRef &block) const
{
    unsigned up = 0;
    for (std::size_t node = 0; node < n_; ++node) {
        if (blockInstanceUp(block, node)) {
            if (++up >= block.required)
                return true;
        }
    }
    return block.required == 0;
}

bool
ControllerSimulation::controlBlockServing(std::size_t node) const
{
    return blockInstanceUp(control_block_, node);
}

bool
ControllerSimulation::localHostUp(std::size_t host) const
{
    if (policy_ == SupervisorPolicy::Required &&
        !sup_up_[vr_sup_base_ + host]) {
        return false;
    }
    const auto &host_procs = catalog_.hostProcesses();
    for (std::size_t p = 0; p < vr_procs_per_host_; ++p) {
        if (!host_procs[p].requiredForDp)
            continue;
        if (!proc_up_[vr_proc_base_ + host * vr_procs_per_host_ + p])
            return false;
    }
    return true;
}

void
ControllerSimulation::accumulate(double time)
{
    double delta = time - last_time_;
    if (delta > 0.0) {
        if (cp_up_)
            cp_uptime_ += delta;
        dp_hosthours_up_ += dp_fraction_ * delta;
        redisc_hosthours_ += redisc_fraction_ * delta;
        last_time_ = time;
    }
}

void
ControllerSimulation::recordBatches(double time)
{
    double batch_length = config_.horizonHours /
        static_cast<double>(config_.batches);
    while (next_batch_ <= config_.batches) {
        // The last batch ends at the horizon itself: batches *
        // batch_length can round above it, and that batch would
        // then never close.
        double boundary = next_batch_ == config_.batches
            ? config_.horizonHours
            : static_cast<double>(next_batch_) * batch_length;
        if (boundary > time)
            break;
        accumulate(boundary);
        cp_batches_.push_back((cp_uptime_ - batch_cp_mark_) /
                              batch_length);
        dp_batches_.push_back((dp_hosthours_up_ - batch_dp_mark_) /
                              batch_length);
        batch_cp_mark_ = cp_uptime_;
        batch_dp_mark_ = dp_hosthours_up_;
        ++next_batch_;
    }
}

/**
 * The attribution cause of a just-handled event. Called after
 * handle(), so component state reflects the event: an InfraFlip is a
 * failure exactly when the component is now down.
 */
OutageCause
ControllerSimulation::causeOf(const Event &event) const
{
    switch (event.kind) {
      case EventKind::InfraFlip: {
        ComponentClass cls = event.index < host_base_
            ? ComponentClass::Rack
            : event.index < vm_base_ ? ComponentClass::Host
                                     : ComponentClass::Vm;
        return {cls, event.index, !infra_up_[event.index]};
      }
      case EventKind::ProcFail:
        return {ComponentClass::Process, event.index, true};
      case EventKind::ProcRepair:
        return {ComponentClass::Process, event.index, false};
      case EventKind::SupFail:
        return {ComponentClass::Supervisor, event.index, true};
      case EventKind::SupRepair:
        return {ComponentClass::Supervisor, event.index, false};
      case EventKind::Rediscover:
        return {ComponentClass::Rediscovery, event.index, false};
    }
    return {};
}

void
ControllerSimulation::evaluate(double time, const OutageCause &cause)
{
    // Control plane.
    bool cp = true;
    for (const BlockRef &block : cp_blocks_) {
        if (!blockSatisfied(block)) {
            cp = false;
            break;
        }
    }

    // Shared DP without the connectivity block.
    bool shared_dp = true;
    for (const BlockRef &block : dp_blocks_) {
        if (!blockSatisfied(block)) {
            shared_dp = false;
            break;
        }
    }

    // Serving set and rediscovery triggers.
    bool any_serving = true;
    if (has_control_block_) {
        any_serving = false;
        for (std::size_t node = 0; node < n_; ++node) {
            bool serving = controlBlockServing(node);
            if (serving)
                any_serving = true;
            if (serving_[node] && !serving) {
                // Connections to this node just dropped.
                for (std::size_t host = 0;
                     host < config_.monitoredHosts; ++host) {
                    if ((slots_[host][0] == node ||
                         slots_[host][1] == node) &&
                        !rediscover_pending_[host]) {
                        rediscover_pending_[host] = true;
                        push(time + config_.rediscoveryDelayHours,
                             EventKind::Rediscover, host);
                    }
                }
            }
            serving_[node] = serving;
        }
    }

    // Per-host DP.
    std::size_t hosts_up = 0;
    std::size_t hosts_redisc = 0;
    for (std::size_t host = 0; host < config_.monitoredHosts; ++host) {
        bool connected = true;
        if (has_control_block_) {
            connected = false;
            for (std::size_t slot_node : slots_[host]) {
                if (slot_node != npos && serving_[slot_node]) {
                    connected = true;
                    break;
                }
            }
        }
        bool rest = shared_dp && localHostUp(host);
        bool redisc_only = rest && !connected && any_serving;
        if (rest && connected) {
            ++hosts_up;
        } else if (redisc_only) {
            // Down purely because rediscovery has not completed.
            ++hosts_redisc;
        }

        // Attribution: a host episode opening as a pure re-learning
        // window belongs to the Rediscovery phase; otherwise to the
        // class of the event that flipped the host. The ledger call
        // is skipped on the common nothing-changed-and-up path.
        bool host_up = rest && connected;
        if (host_up != host_dp_up_[host]) {
            dp_ledgers_[host].observe(
                time, host_up,
                redisc_only
                    ? OutageCause{ComponentClass::Rediscovery, host,
                                  true}
                    : cause);
            host_dp_up_[host] = host_up;
        } else if (!host_up && cause.failure) {
            dp_ledgers_[host].observe(time, host_up, cause);
        }
    }

    cp_tracker_.observe(time, cp);
    cp_ledger_.observe(time, cp, cause);
    cp_up_ = cp;
    if (config_.monitoredHosts > 0) {
        dp_fraction_ = static_cast<double>(hosts_up) /
            static_cast<double>(config_.monitoredHosts);
        redisc_fraction_ = static_cast<double>(hosts_redisc) /
            static_cast<double>(config_.monitoredHosts);
    } else {
        // No monitored hosts: there is no DP to measure. Accumulate
        // zero host-hours rather than the initial 1.0, which would
        // report perfect DP availability for an unmeasured plane;
        // the result carries dpMeasured = false.
        dp_fraction_ = 0.0;
        redisc_fraction_ = 0.0;
    }
}

void
ControllerSimulation::attemptRediscovery(std::size_t host, double time)
{
    rediscover_pending_[host] = false;
    auto &slots = slots_[host];
    // Refill every slot that is not currently serving.
    for (std::size_t s = 0; s < 2; ++s) {
        if (slots[s] != npos && serving_[slots[s]])
            continue;
        std::size_t other = slots[1 - s];
        std::size_t choice = npos;
        // Deterministic scan with a random start to spread load.
        std::size_t start = n_ > 0 ? rng_.uniformInt(n_) : 0;
        for (std::size_t k = 0; k < n_; ++k) {
            std::size_t node = (start + k) % n_;
            if (node != other && serving_[node]) {
                choice = node;
                break;
            }
        }
        if (choice != npos) {
            slots[s] = choice;
        } else if (!rediscover_pending_[host]) {
            rediscover_pending_[host] = true;
            push(time + config_.rediscoveryDelayHours,
                 EventKind::Rediscover, host);
        }
    }
}

void
ControllerSimulation::handle(const Event &event)
{
    switch (event.kind) {
      case EventKind::InfraFlip:
        infra_up_[event.index] = !infra_up_[event.index];
        scheduleInfra(event.index, event.time);
        break;
      case EventKind::ProcFail:
        if (proc_up_[event.index]) {
            proc_up_[event.index] = false;
            double repair = repairTime(proc_mode_[event.index],
                                       sup_up_[proc_sup_[event.index]]);
            push(event.time + repair, EventKind::ProcRepair,
                 event.index);
        }
        break;
      case EventKind::ProcRepair:
        proc_up_[event.index] = true;
        scheduleProcFailure(event.index, event.time);
        break;
      case EventKind::SupFail:
        if (sup_up_[event.index]) {
            sup_up_[event.index] = false;
            double restore;
            if (policy_ == SupervisorPolicy::NotRequired) {
                // Hitless restore at the next maintenance boundary.
                double interval = config_.maintenanceIntervalHours;
                double next_window =
                    (std::floor(event.time / interval) + 1.0) * interval;
                restore = next_window - event.time;
            } else {
                restore = rng_.exponential(
                    config_.process.manualRestartHours);
            }
            push(event.time + restore, EventKind::SupRepair,
                 event.index);
        }
        break;
      case EventKind::SupRepair:
        sup_up_[event.index] = true;
        scheduleSupFailure(event.index, event.time);
        break;
      case EventKind::Rediscover:
        attemptRediscovery(event.index, event.time);
        break;
    }
}

ControllerSimResult
ControllerSimulation::run()
{
    obs::TraceSpan trace_span("sim.controller_run", config_.seed);
    evaluate(0.0, {});
    while (!queue_.empty()) {
        Event event = queue_.top();
        if (event.time >= config_.horizonHours)
            break;
        queue_.pop();
        ++events_;
        recordBatches(event.time);
        accumulate(event.time);
        handle(event);
        // The tracker and ledgers are fed inside evaluate() at the
        // event's own time, so outage boundaries land on the actual
        // state flip, consistent with the uptime integration.
        evaluate(event.time, causeOf(event));
    }
    recordBatches(config_.horizonHours);
    accumulate(config_.horizonHours);
    cp_tracker_.finish(config_.horizonHours);
    cp_ledger_.finish(config_.horizonHours);

    ControllerSimResult result;
    result.cpAvailability = batchMeans(cp_batches_);
    result.dpAvailability = batchMeans(dp_batches_);
    result.dpMeasured = config_.monitoredHosts > 0;
    result.cpOutages = cp_tracker_.outageCount();
    result.cpMeanOutageHours = cp_tracker_.meanOutageDuration();
    result.cpMaxOutageHours = cp_tracker_.maxOutageDuration();
    result.cpCensoredOutages =
        cp_tracker_.finalOutageCensored() ? 1 : 0;
    result.cpCensoredOutageHours = cp_tracker_.censoredOutageDuration();
    result.cpAttribution = cp_ledger_.totals();
    for (OutageLedger &ledger : dp_ledgers_) {
        ledger.finish(config_.horizonHours);
        result.dpAttribution.add(ledger.totals());
    }
    result.rediscoveryDowntimeFraction =
        config_.horizonHours > 0.0
            ? redisc_hosthours_ / config_.horizonHours
            : 0.0;
    result.events = events_;
    result.queueHighWater = queue_hwm_;
    recordSimMetrics(events_, queue_hwm_);
    return result;
}

ControllerSimResult
simulateController(const fmea::ControllerCatalog &catalog,
                   const topology::DeploymentTopology &topo,
                   SupervisorPolicy policy,
                   const ControllerSimConfig &config)
{
    ControllerSimulation sim(catalog, topo, policy, config);
    return sim.run();
}

} // namespace sdnav::sim
