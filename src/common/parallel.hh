/**
 * @file
 * The claim-an-index parallel executor.
 *
 * Parameter sweeps and independent simulation replications share one
 * shape: run a pure function of an index over [0, n) on a few worker
 * threads, with results keyed by index so the output never depends
 * on scheduling. parallelFor splits the range into fixed-size
 * chunks; workers claim chunks from a shared atomic counter, so any
 * chunk may run on any thread and an uneven range still balances.
 *
 * The workers are the calling thread plus persistent helper threads.
 * Helpers start on first use, the pool grows to the largest
 * `threads - 1` any call has asked for, and between calls they sleep;
 * they are joined when the process exits. A call with t workers wakes
 * helpers 0 .. t-2, so thread_local state a body keeps (an evaluation
 * scratch, metric cells, trace buffers) survives from one call to the
 * next. The caller claims chunks too and waits only for chunks a
 * helper has already claimed, so a parallelFor nested inside a body,
 * or several threads calling at once, cannot deadlock: at worst the
 * caller runs its whole range itself.
 *
 * The first exception thrown by a body raises an abort flag: the
 * other workers finish their in-flight chunk and stop claiming, and
 * the exception is rethrown once every claimed chunk has finished.
 * The executor records no metrics or trace spans of its own; callers
 * name their spans inside the body and publish the returned busy
 * times.
 */

#ifndef SDNAV_COMMON_PARALLEL_HH
#define SDNAV_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace sdnav
{

/** `threads`, or one per hardware thread when 0; never 0. */
std::size_t resolveThreads(std::size_t threads);

/** What one parallelFor call did. */
struct ParallelRun
{
    /**
     * Chunks [0, n) divides into at the resolved chunk size (a
     * single-worker run still covers them with one body call).
     */
    std::size_t chunks = 0;

    /**
     * Busy milliseconds of each worker, one entry per worker used
     * (min(threads, chunks)); empty when n == 0. The caller's is the
     * first entry. A helper that woke after the range was drained
     * reads 0.
     */
    std::vector<double> workerBusyMs;
};

/**
 * Run body(begin, end) over consecutive chunks covering [0, n).
 *
 * @param threads Worker threads; 0 means one per hardware thread.
 *        Never more workers than chunks are used; with one worker
 *        the whole range runs as a single body(0, n) call on the
 *        calling thread.
 * @param chunk Indices per claimed chunk; 0 picks a size that gives
 *        each worker about four chunks, keeping the claim counter off
 *        the per-index path while still balancing uneven ranges.
 * @throws whatever the first failing body threw, after every claimed
 *         chunk has finished.
 */
ParallelRun parallelFor(
    std::size_t n, std::size_t threads, std::size_t chunk,
    const std::function<void(std::size_t begin, std::size_t end)> &body);

} // namespace sdnav

#endif // SDNAV_COMMON_PARALLEL_HH
