/**
 * @file
 * Deterministic parallel sweep executor.
 *
 * Every figure, table, and sensitivity study in this library is a
 * parameter sweep: evaluate a pure function at each point of a fixed
 * grid. This executor chunks the grid across common/parallel.hh's
 * parallelFor (the executor the simulation replications run on too)
 * and writes each result into its grid slot, so the output is in
 * grid order and bit-identical for any thread count: result i
 * depends only on eval(i), never on scheduling.
 *
 * The calling thread works on the grid alongside persistent helper
 * threads that sleep between sweeps. A sweep repeated on the same
 * thread count runs on the same helpers, so a `thread_local` scratch
 * in eval is built once per worker, not once per sweep. A sweep may
 * be started from inside another sweep's eval, or from several
 * threads at once.
 *
 * Callers must make eval(i) depend only on i and on state that is
 * safe to read concurrently (the analytic models are const-evaluable
 * after construction; see SwAvailabilityModel and ExactPlaneModel).
 */

#ifndef SDNAV_ANALYSIS_SWEEP_HH
#define SDNAV_ANALYSIS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace sdnav::analysis
{

/** How to spread a sweep over worker threads. */
struct SweepOptions
{
    /** Worker threads; 0 means one per hardware thread. */
    std::size_t threads = 0;

    /**
     * Grid points per claimed chunk; 0 picks a size that gives each
     * thread several chunks (dynamic load balancing) while keeping
     * the claim counter off the per-point path.
     */
    std::size_t chunk = 0;

    /** Threads resolved against the hardware (never 0). */
    std::size_t resolvedThreads() const;
};

/**
 * Run body(i) for every i in [0, points) across the pool described by
 * `options`. The first exception from body stops the other workers
 * from claiming more chunks and is rethrown after they have stopped.
 */
void forEachGridPoint(std::size_t points,
                      const std::function<void(std::size_t)> &body,
                      const SweepOptions &options = {});

/**
 * Evaluate a grid and collect the results in grid order.
 *
 * @param points Number of grid points.
 * @param eval Pure evaluation function of the grid index.
 * @return results[i] == eval(i), independent of options.threads.
 */
template <typename Eval>
auto
sweepGrid(std::size_t points, Eval &&eval,
          const SweepOptions &options = {})
    -> std::vector<decltype(eval(std::size_t{0}))>
{
    std::vector<decltype(eval(std::size_t{0}))> results(points);
    forEachGridPoint(
        points, [&](std::size_t i) { results[i] = eval(i); }, options);
    return results;
}

} // namespace sdnav::analysis

#endif // SDNAV_ANALYSIS_SWEEP_HH
