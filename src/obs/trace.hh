/**
 * @file
 * Execution tracing: span / instant events exported as Chrome
 * `trace_event` JSON (loadable in perfetto or chrome://tracing).
 *
 * The metrics library (obs.hh) answers "how much, in total"; the
 * tracer answers "when, on which thread". BDD compile / apply /
 * probability phases, sweep chunks, and per-replication simulation
 * runs record begin/end pairs into per-thread bounded buffers, so a
 * slow sweep or an imbalanced replication pool can be inspected on a
 * real timeline instead of inferred from folded timers.
 *
 * Design mirrors the per-thread-cell counters: a thread's first event
 * registers a buffer owned by the tracer (surviving thread exit), and
 * every later event touches only that buffer under an uncontended
 * per-buffer mutex. Event names must be string literals (or otherwise
 * outlive the tracer) — only the pointer is stored. Buffers are
 * bounded: once a thread's buffer is full, new begin events are
 * dropped *in pairs* with their matching end (spans nest LIFO per
 * thread, so a drop-depth counter suffices), keeping the exported
 * stream well-formed — every emitted "B" has its "E". Drops are
 * counted and reported in stats().
 *
 * The tracer starts disabled; a disabled begin/end is one relaxed
 * atomic load and a branch.
 */

#ifndef SDNAV_OBS_TRACE_HH
#define SDNAV_OBS_TRACE_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/json.hh"

namespace sdnav::obs
{

/**
 * A named number on a trace event, exported under "args". The key,
 * like an event name, must be a string literal (or otherwise outlive
 * the tracer).
 */
struct TraceArg
{
    const char *key = nullptr;
    std::uint64_t value = 0;
};

/** Folded view of tracer activity across all threads. */
struct TraceStats
{
    /** Events currently buffered (spans count twice: B and E). */
    std::uint64_t recorded = 0;

    /** Events rejected because a thread's buffer was full. */
    std::uint64_t dropped = 0;

    /** Threads that have recorded at least one event. */
    std::size_t threads = 0;
};

/**
 * Process-wide event collector. Typical use is the RAII guard:
 *
 *     obs::TraceSpan span("sweep.chunk", firstIndex);
 *
 * which records nothing until Tracer::global().enable() has run
 * (the CLI enables it when --trace FILE is passed).
 */
class Tracer
{
  public:
    /** Per-thread event budget when enable() is given no override. */
    static constexpr std::size_t kDefaultCapacity = 1u << 16;

    /** The process-wide tracer every subsystem records into. */
    static Tracer &global();

    Tracer();
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Start collecting, with the given per-thread event budget.
     * Call before spawning workers; events recorded while disabled
     * are discarded for free.
     */
    void enable(std::size_t perThreadCapacity = kDefaultCapacity);

    /** Stop collecting (buffered events are kept for export). */
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_acquire);
    }

    /** Open a span on the calling thread ("B" event). */
    void begin(const char *name);
    void begin(const char *name, std::uint64_t arg);

    /** Close the innermost open span ("E" event). */
    void end(const char *name);

    /** As end(), with named args on the "E" event; trace viewers
     *  merge them with the span's begin args. At most two are kept;
     *  entries with a null key are skipped. */
    void end(const char *name, std::span<const TraceArg> args);

    /** A point event on the calling thread's track ("i" event). */
    void instant(const char *name);
    void instant(const char *name, std::uint64_t arg);

    /**
     * Serialize all buffered events as a Chrome trace_event object:
     *
     *   {"displayTimeUnit": "ms",
     *    "traceEvents": [process/thread "M" metadata...,
     *                    B/E/i events, ts-sorted, in microseconds]}
     *
     * Threads appear as tid 1..N in registration order under pid 1.
     * Safe to call while writers are active (each buffer is copied
     * under its mutex), but a quiescent export is the useful one.
     */
    json::Value chromeTrace() const;

    /**
     * Write chromeTrace() to a file. @throws std::runtime_error when
     * the path is not writable.
     */
    void writeFile(const std::string &path) const;

    TraceStats stats() const;

    /** Drop all buffered events and disable (for test setup). */
    void reset();

  private:
    struct Buffer;

    Buffer &buffer();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_{};
    std::size_t capacity_ = kDefaultCapacity;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::uint64_t id_;
};

/**
 * RAII span guard: begin on construction, end on destruction. The
 * enabled check happens once, in the constructor, so a span whose
 * begin was recorded always records its end even if the tracer is
 * disabled mid-span.
 */
class TraceSpan
{
  public:
    explicit TraceSpan(const char *name,
                       Tracer &tracer = Tracer::global())
        : tracer_(&tracer), name_(name), active_(tracer.enabled())
    {
        if (active_)
            tracer_->begin(name_);
    }

    TraceSpan(const char *name, std::uint64_t arg,
              Tracer &tracer = Tracer::global())
        : tracer_(&tracer), name_(name), active_(tracer.enabled())
    {
        if (active_)
            tracer_->begin(name_, arg);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (active_)
            tracer_->end(name_, args_);
    }

    /**
     * Attach a named value to the span, recorded on its end event. A
     * span holds two; a third is dropped. The key must be a string
     * literal, like the name.
     */
    void
    arg(const char *key, std::uint64_t value)
    {
        for (TraceArg &slot : args_) {
            if (slot.key == nullptr) {
                slot = {key, value};
                return;
            }
        }
    }

  private:
    Tracer *tracer_;
    const char *name_;
    bool active_;
    std::array<TraceArg, 2> args_{};
};

} // namespace sdnav::obs

#endif // SDNAV_OBS_TRACE_HH
