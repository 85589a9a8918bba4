/**
 * @file
 * Parallel multi-replication layer over the discrete-event
 * simulators.
 *
 * A single long run gives confidence intervals only through batch
 * means, whose batches are serially correlated; the standard remedy
 * (Sakic & Kellerer's RAFT study, Nencioni et al.'s Möbius model) is
 * many independent replications. This layer runs R replications of
 * `simulateController` / `simulateRenewalSystem` on the shared
 * parallelFor executor (common/parallel.hh), one replication per
 * claimed chunk, and pools their estimates. A replication that throws
 * stops the other workers from claiming more; its exception is
 * rethrown once they have stopped.
 *
 * Reproducibility contract: replication r is seeded with
 * `prob::Rng(baseSeed).deriveStream(r)`, which depends only on
 * (baseSeed, r) — never on scheduling — and results are merged in
 * replication order. A run with `threads = N` is therefore
 * bit-identical to `threads = 1` for the same base seed.
 */

#ifndef SDNAV_SIM_REPLICATION_HH
#define SDNAV_SIM_REPLICATION_HH

#include <cstdint>
#include <vector>

#include "sim/controllerSim.hh"
#include "sim/renewalSim.hh"
#include "sim/stats.hh"

namespace sdnav::sim
{

/**
 * How to replicate a simulation: R independent replications of one
 * per-replication configuration, spread over a thread pool. The
 * per-replication config (horizon, rates, batches) travels alongside
 * as the engine-specific `ControllerSimConfig` / `RenewalSimConfig`;
 * its `seed` field is ignored and replaced by the derived stream.
 */
struct ReplicatedSimConfig
{
    /** Number of independent replications, >= 1. */
    std::size_t replications = 8;

    /** Worker threads; 0 means one per hardware thread. */
    std::size_t threads = 0;

    /** Master seed from which every replication stream derives. */
    std::uint64_t baseSeed = 0xc0ffeeULL;

    /** Throw ModelError if out of range. */
    void validate() const;
};

/**
 * The seed replication `replica` runs with: the construction seed of
 * `prob::Rng(baseSeed).deriveStream(replica)`.
 */
std::uint64_t replicationSeed(std::uint64_t baseSeed,
                              std::size_t replica);

/**
 * Availability estimate pooled over replications, separating the two
 * variance sources: the spread of the R replication means (the
 * statistically honest CI basis — replications are fully independent)
 * and the within-replication batch-means error (reported so a
 * suspiciously large ratio across/within can flag unconverged runs).
 */
struct PooledEstimate
{
    /** Grand mean over replication means (equal horizons). */
    double mean = 0.0;

    /**
     * Standard error of the grand mean from the across-replication
     * sample variance; 0 when only one replication ran.
     */
    double acrossStandardError = 0.0;

    /**
     * Standard error of the grand mean propagated from the
     * per-replication batch-means standard errors.
     */
    double withinStandardError = 0.0;

    /** Number of replications pooled. */
    std::size_t replications = 0;

    /** Batches per replication. */
    std::size_t batchesPerReplication = 0;

    /**
     * Half width of the 95% CI. Uses the across-replication t
     * interval (R - 1 df); with a single replication it falls back to
     * the within-replication batch-means interval.
     */
    double halfWidth95() const;

    /** True if value lies within mean +- halfWidth95(). */
    bool brackets(double value) const;
};

/** Pool per-replication batch-means estimates (replication order). */
PooledEstimate poolEstimates(
    const std::vector<BatchMeansResult> &perReplication);

/** Replicated behavioral controller simulation results. */
struct ReplicatedControllerResult
{
    /** Pooled control-plane availability. */
    PooledEstimate cpAvailability;

    /** Pooled mean per-host data-plane availability. */
    PooledEstimate dpAvailability;

    /** False when no monitored hosts existed to measure DP on. */
    bool dpMeasured = true;

    /** CP outages summed over replications. */
    std::size_t cpOutages = 0;

    /** Mean CP outage duration over all episodes of all replications. */
    double cpMeanOutageHours = 0.0;

    /** Longest CP outage across replications. */
    double cpMaxOutageHours = 0.0;

    /** Mean rediscovery downtime fraction across replications. */
    double rediscoveryDowntimeFraction = 0.0;

    /** CP episodes right-censored by the horizon, summed. */
    std::size_t cpCensoredOutages = 0;

    /** Events summed over replications. */
    std::size_t events = 0;

    /** CP downtime attribution folded in replication order —
     *  bit-identical for any thread count. */
    AttributionTotals cpAttribution;

    /** Per-host DP attribution folded in replication order. */
    AttributionTotals dpAttribution;

    /** Per-replication results, in replication order. */
    std::vector<ControllerSimResult> perReplication;
};

/** Replicated renewal simulation results. */
struct ReplicatedRenewalResult
{
    /** Pooled system availability. */
    PooledEstimate availability;

    /** Outages summed over replications. */
    std::size_t outageCount = 0;

    /** Mean outage duration over all episodes of all replications. */
    double meanOutageHours = 0.0;

    /** Longest outage across replications. */
    double maxOutageHours = 0.0;

    /** Final episodes right-censored by the horizon, summed. */
    std::size_t censoredOutages = 0;

    /** Events summed over replications. */
    std::size_t events = 0;

    /** Downtime attribution folded in replication order —
     *  bit-identical for any thread count. */
    AttributionTotals attribution;

    /** Per-replication results, in replication order. */
    std::vector<RenewalSimResult> perReplication;
};

/**
 * Run R independent replications of the behavioral controller
 * simulation and pool the estimates.
 *
 * @param perReplication Configuration of each replication; its seed
 *                       is overridden per replication.
 */
ReplicatedControllerResult simulateControllerReplicated(
    const fmea::ControllerCatalog &catalog,
    const topology::DeploymentTopology &topo,
    model::SupervisorPolicy policy,
    const ControllerSimConfig &perReplication,
    const ReplicatedSimConfig &replication);

/**
 * Run R independent replications of the renewal simulation and pool
 * the estimates. The timings are shared read-only across threads
 * (distributions are stateless).
 */
ReplicatedRenewalResult simulateRenewalSystemReplicated(
    const rbd::RbdSystem &system,
    const std::vector<ComponentTimings> &timings,
    const RenewalSimConfig &perReplication,
    const ReplicatedSimConfig &replication);

} // namespace sdnav::sim

#endif // SDNAV_SIM_REPLICATION_HH
