#include "sim/replication.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hh"
#include "common/parallel.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "prob/rng.hh"

namespace sdnav::sim
{

namespace
{

/**
 * Run replica(i) for every replication on the shared executor, one
 * replication per claimed chunk, each under its own trace span and
 * wall timer. Returns the workers' summed busy milliseconds, the
 * denominator of the events/sec gauge.
 */
template <typename Replica>
double
runReplications(const ReplicatedSimConfig &replication,
                const Replica &replica)
{
    obs::Timer &wall =
        obs::Registry::global().timer("sim.replication_wall");
    ParallelRun run = parallelFor(
        replication.replications, replication.threads, 1,
        [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                obs::TraceSpan trace_span("sim.replication", i);
                obs::ScopedTimer scope(wall);
                replica(i);
            }
        });
    return std::accumulate(run.workerBusyMs.begin(),
                           run.workerBusyMs.end(), 0.0);
}

/** Publish pooled throughput after a replicated run. */
void
recordReplicationThroughput(std::size_t replications,
                            std::size_t events, double busy_ms)
{
    obs::Registry &registry = obs::Registry::global();
    registry.counter("sim.replications").add(replications);
    if (busy_ms > 0.0) {
        registry.gauge("sim.events_per_sec")
            .set(static_cast<double>(events) / (busy_ms / 1000.0));
    }
}

} // anonymous namespace

void
ReplicatedSimConfig::validate() const
{
    require(replications >= 1, "need at least one replication");
}

std::uint64_t
replicationSeed(std::uint64_t baseSeed, std::size_t replica)
{
    return prob::Rng(baseSeed).deriveStream(replica).seed();
}

double
PooledEstimate::halfWidth95() const
{
    if (replications < 2) {
        if (batchesPerReplication < 2)
            return 0.0;
        return tCritical95(batchesPerReplication - 1) *
               withinStandardError;
    }
    return tCritical95(replications - 1) * acrossStandardError;
}

bool
PooledEstimate::brackets(double value) const
{
    double hw = halfWidth95();
    return value >= mean - hw && value <= mean + hw;
}

PooledEstimate
poolEstimates(const std::vector<BatchMeansResult> &perReplication)
{
    require(!perReplication.empty(),
            "pooling needs at least one replication");
    PooledEstimate pooled;
    pooled.replications = perReplication.size();
    pooled.batchesPerReplication = perReplication.front().batches;

    double r = static_cast<double>(perReplication.size());
    double sum = 0.0;
    for (const BatchMeansResult &rep : perReplication)
        sum += rep.mean;
    pooled.mean = sum / r;

    // The grand mean averages R independent replication means, each
    // with its own batch-means standard error: var(grand) =
    // sum(se_i^2) / R^2.
    double within_ss = 0.0;
    for (const BatchMeansResult &rep : perReplication)
        within_ss += rep.standardError * rep.standardError;
    pooled.withinStandardError = std::sqrt(within_ss) / r;

    if (perReplication.size() >= 2) {
        double ss = 0.0;
        for (const BatchMeansResult &rep : perReplication) {
            double d = rep.mean - pooled.mean;
            ss += d * d;
        }
        double variance = ss / (r - 1.0);
        pooled.acrossStandardError = std::sqrt(variance / r);
    }
    return pooled;
}

namespace
{

/**
 * Merge outage episode statistics from per-replication (count, mean,
 * max) triples, in replication order.
 */
struct OutageMerger
{
    std::size_t count = 0;
    double total_hours = 0.0;
    double max_hours = 0.0;

    void
    add(std::size_t rep_count, double rep_mean, double rep_max)
    {
        count += rep_count;
        total_hours += rep_mean * static_cast<double>(rep_count);
        max_hours = std::max(max_hours, rep_max);
    }

    double
    meanHours() const
    {
        return count > 0 ? total_hours / static_cast<double>(count)
                         : 0.0;
    }
};

} // anonymous namespace

ReplicatedControllerResult
simulateControllerReplicated(const fmea::ControllerCatalog &catalog,
                             const topology::DeploymentTopology &topo,
                             model::SupervisorPolicy policy,
                             const ControllerSimConfig &perReplication,
                             const ReplicatedSimConfig &replication)
{
    replication.validate();

    std::vector<ControllerSimResult> results(replication.replications);
    double busy_ms = runReplications(replication, [&](std::size_t i) {
        ControllerSimConfig config = perReplication;
        config.seed = replicationSeed(replication.baseSeed, i);
        results[i] = simulateController(catalog, topo, policy, config);
    });

    ReplicatedControllerResult merged;
    std::vector<BatchMeansResult> cp, dp;
    cp.reserve(results.size());
    dp.reserve(results.size());
    OutageMerger outages;
    double redisc_sum = 0.0;
    for (const ControllerSimResult &rep : results) {
        cp.push_back(rep.cpAvailability);
        dp.push_back(rep.dpAvailability);
        outages.add(rep.cpOutages, rep.cpMeanOutageHours,
                    rep.cpMaxOutageHours);
        redisc_sum += rep.rediscoveryDowntimeFraction;
        merged.events += rep.events;
        merged.dpMeasured = rep.dpMeasured;
        merged.cpCensoredOutages += rep.cpCensoredOutages;
        merged.cpAttribution.add(rep.cpAttribution);
        merged.dpAttribution.add(rep.dpAttribution);
    }
    merged.cpAvailability = poolEstimates(cp);
    merged.dpAvailability = poolEstimates(dp);
    merged.cpOutages = outages.count;
    merged.cpMeanOutageHours = outages.meanHours();
    merged.cpMaxOutageHours = outages.max_hours;
    merged.rediscoveryDowntimeFraction =
        redisc_sum / static_cast<double>(results.size());
    merged.perReplication = std::move(results);
    recordReplicationThroughput(replication.replications,
                                merged.events, busy_ms);
    return merged;
}

ReplicatedRenewalResult
simulateRenewalSystemReplicated(
    const rbd::RbdSystem &system,
    const std::vector<ComponentTimings> &timings,
    const RenewalSimConfig &perReplication,
    const ReplicatedSimConfig &replication)
{
    replication.validate();

    std::vector<RenewalSimResult> results(replication.replications);
    double busy_ms = runReplications(replication, [&](std::size_t i) {
        RenewalSimConfig config = perReplication;
        config.seed = replicationSeed(replication.baseSeed, i);
        results[i] = simulateRenewalSystem(system, timings, config);
    });

    ReplicatedRenewalResult merged;
    std::vector<BatchMeansResult> avail;
    avail.reserve(results.size());
    OutageMerger outages;
    for (const RenewalSimResult &rep : results) {
        avail.push_back(rep.availability);
        outages.add(rep.outageCount, rep.meanOutageHours,
                    rep.maxOutageHours);
        merged.events += rep.events;
        merged.censoredOutages += rep.censoredOutages;
        merged.attribution.add(rep.attribution);
    }
    merged.availability = poolEstimates(avail);
    merged.outageCount = outages.count;
    merged.meanOutageHours = outages.meanHours();
    merged.maxOutageHours = outages.max_hours;
    merged.perReplication = std::move(results);
    recordReplicationThroughput(replication.replications,
                                merged.events, busy_ms);
    return merged;
}

} // namespace sdnav::sim
