/**
 * @file
 * Lightweight runtime metrics: counters, gauges, and scoped timers.
 *
 * The parallel simulation and sweep engines are judged by measured
 * behaviour — events/sec, cache hit rates, worker imbalance — but
 * until now that evidence only existed as human-readable timing text.
 * This library gives the hot subsystems a zero-dependency place to
 * record those numbers and one `Registry::snapshot()` that serializes
 * them through common/json, so the CLI (`--metrics`), every bench
 * binary (`BENCH_<name>.json`), and the CI perf gate all read the
 * same machine-readable artifact.
 *
 * Thread-safety model: counters and timers accumulate into per-thread
 * cells (registered on a thread's first touch, folded at snapshot
 * time), so the hot path is an uncontended relaxed atomic update —
 * no locks, no shared cache line ping-pong. Gauges are a single
 * atomic with set / set-max semantics. A concurrent snapshot is safe
 * and sees some consistent partial sum; quiescent snapshots are
 * exact. Counter folds are integer sums, so any counter whose
 * per-thread increments are deterministic folds to a bit-identical
 * value for every thread count.
 */

#ifndef SDNAV_OBS_OBS_HH
#define SDNAV_OBS_OBS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"

namespace sdnav::obs
{

/** Folded view of one timer across all threads. */
struct TimerStats
{
    /** Number of recorded intervals. */
    std::uint64_t count = 0;

    /** Sum of recorded intervals (milliseconds). */
    double totalMs = 0.0;

    /** Shortest recorded interval; 0 when count == 0. */
    double minMs = 0.0;

    /** Longest recorded interval; 0 when count == 0. */
    double maxMs = 0.0;

    double
    meanMs() const
    {
        return count > 0 ? totalMs / static_cast<double>(count) : 0.0;
    }
};

/** Folded view of one histogram across all threads. */
struct HistogramStats
{
    /** Number of recorded values. */
    std::uint64_t count = 0;

    /** Sum of recorded values. */
    double total = 0.0;

    /** Largest recorded value; 0 when count == 0. */
    double max = 0.0;

    /** Quantile estimates from the log-spaced buckets. */
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;

    double
    mean() const
    {
        return count > 0 ? total / static_cast<double>(count) : 0.0;
    }
};

/**
 * One cumulative histogram bucket: the count of recorded values <=
 * upperBound. The top bucket reports upperBound = +infinity, matching
 * the Prometheus `le="+Inf"` convention.
 */
struct HistogramBucket
{
    double upperBound = 0.0;
    std::uint64_t cumulativeCount = 0;
};

/**
 * A monotonic counter. add() touches only the calling thread's cell;
 * value() folds all cells (exact once writers are quiescent).
 */
class Counter
{
  public:
    Counter();
    ~Counter();
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    /** Increment this thread's cell. */
    void add(std::uint64_t n = 1);

    /** Sum over every thread's cell. */
    std::uint64_t value() const;

    /** Zero every cell (for test setup; not for concurrent use). */
    void reset();

  private:
    struct Cell;

    Cell &cell();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Cell>> cells_;
    std::uint64_t id_;
};

/** A single value with set / set-max semantics (e.g. high-water marks). */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    /** Overwrite the value. */
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    /** Raise the value to v if v is larger (atomic max). */
    void setMax(double v);

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Reset to zero (for test setup; not for concurrent use). */
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A wall-clock interval accumulator (count / total / min / max in
 * milliseconds), per-thread cells like Counter.
 */
class Timer
{
  public:
    Timer();
    ~Timer();
    Timer(const Timer &) = delete;
    Timer &operator=(const Timer &) = delete;

    /** Record one interval, in milliseconds. */
    void record(double ms);

    /** Fold all cells. */
    TimerStats stats() const;

    /** Zero every cell (for test setup; not for concurrent use). */
    void reset();

  private:
    struct Cell;

    Cell &cell();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Cell>> cells_;
    std::uint64_t id_;
};

/**
 * A latency/size distribution with quantile estimates, per-thread
 * cells like Counter. Values land in geometrically spaced buckets
 * (~9% wide, covering 1e-3 .. ~1e5 with under/overflow buckets), so
 * a quantile read is exact to one bucket width — tight enough for a
 * p99 report, and recording stays an uncontended array increment.
 * The query server's `stats` command and BENCH_server.json read
 * their p99 from here.
 */
class Histogram
{
  public:
    Histogram();
    ~Histogram();
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Record one value into this thread's cell. */
    void record(double value);

    /** Fold all cells into counts, total, max, and quantiles. */
    HistogramStats stats() const;

    /**
     * One folded quantile (q in [0, 1]); the upper bound of the
     * bucket holding the q-th value. 0 when empty.
     */
    double quantile(double q) const;

    /**
     * Folded cumulative buckets for exposition: one entry per bucket
     * that received at least one value, in ascending upper-bound
     * order, each carrying the count of values <= its bound; the
     * final entry is always the +Inf bucket with the total count.
     * Empty when no values were recorded.
     */
    std::vector<HistogramBucket> cumulativeBuckets() const;

    /** Zero every cell (for test setup; not for concurrent use). */
    void reset();

  private:
    struct Cell;

    Cell &cell();

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Cell>> cells_;
    std::uint64_t id_;
};

/** RAII wall-clock scope: records into the timer on destruction. */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Timer &timer)
        : timer_(&timer), start_(std::chrono::steady_clock::now())
    {
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

    ~ScopedTimer()
    {
        auto end = std::chrono::steady_clock::now();
        timer_->record(
            std::chrono::duration<double, std::milli>(end - start_)
                .count());
    }

  private:
    Timer *timer_;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Named metric store. Metrics are created on first lookup and live
 * for the registry's lifetime, so callers may cache references:
 *
 *     static obs::Counter &hits =
 *         obs::Registry::global().counter("bdd.ite_cache_hits");
 *     hits.add();
 *
 * Names are dotted lowercase `subsystem.metric`. snapshot() emits all
 * metrics in name order, so two snapshots of equal state serialize
 * identically.
 */
class Registry
{
  public:
    /** The process-wide registry every subsystem records into. */
    static Registry &global();

    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Timer &timer(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * Serialize every metric:
     *
     *   {"enabled": true,
     *    "counters": {name: value, ...},
     *    "gauges":   {name: value, ...},
     *    "timers":   {name: {"count", "total_ms", "min_ms",
     *                        "mean_ms", "max_ms"}, ...},
     *    "histograms": {name: {"count", "mean", "p50", "p90",
     *                          "p99", "max"}, ...}}
     */
    json::Value snapshot() const;

    /**
     * Render every metric in Prometheus text exposition format
     * (version 0.0.4): counters as `<name>_total`, gauges plain,
     * timers as `<name>_ms_sum` / `<name>_ms_count`, histograms as
     * cumulative `<name>_bucket{le="..."}` series plus `<name>_sum`
     * and `<name>_count`. Dots in metric names become underscores.
     */
    std::string prometheusText() const;

    /** Zero every metric (keeps registrations and cached references). */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Timer>> timers_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace sdnav::obs

#endif // SDNAV_OBS_OBS_HH
