#include "analysis/sweep.hh"

#include <algorithm>
#include <limits>

#include "common/parallel.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"

namespace sdnav::analysis
{

std::size_t
SweepOptions::resolvedThreads() const
{
    return resolveThreads(threads);
}

namespace
{

/**
 * Publish one executed sweep: how it was chunked, each worker's busy
 * time, and the busy-time imbalance (max-min)/max across workers — 0
 * means perfectly balanced claiming, 1 means a worker sat idle the
 * whole sweep. "sweep.points" is thread-count independent;
 * "sweep.chunks" legitimately varies with the pool size.
 */
void
recordSweepMetrics(std::size_t points, std::size_t chunks,
                   const std::vector<double> &worker_busy_ms)
{
    obs::Registry &registry = obs::Registry::global();
    registry.counter("sweep.points").add(points);
    registry.counter("sweep.chunks").add(chunks);
    registry.counter("sweep.runs").add();
    obs::Timer &busy = registry.timer("sweep.worker_busy");
    double max_busy = 0.0;
    double min_busy = std::numeric_limits<double>::infinity();
    for (double ms : worker_busy_ms) {
        busy.record(ms);
        max_busy = std::max(max_busy, ms);
        min_busy = std::min(min_busy, ms);
    }
    if (worker_busy_ms.size() > 1 && max_busy > 0.0) {
        registry.gauge("sweep.imbalance")
            .setMax((max_busy - min_busy) / max_busy);
    }
}

} // anonymous namespace

void
forEachGridPoint(std::size_t points,
                 const std::function<void(std::size_t)> &body,
                 const SweepOptions &options)
{
    if (points == 0)
        return;
    // Any chunk may run on any thread; determinism comes from results
    // being keyed by grid index, not by completion order. A span's
    // argument is its chunk's first grid index.
    ParallelRun run = parallelFor(
        points, options.threads, options.chunk,
        [&](std::size_t begin, std::size_t end) {
            obs::TraceSpan trace_span("sweep.chunk", begin);
            for (std::size_t i = begin; i < end; ++i)
                body(i);
        });
    recordSweepMetrics(points, run.chunks, run.workerBusyMs);
}

} // namespace sdnav::analysis
