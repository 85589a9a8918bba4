#include "obs/trace.hh"

#include <algorithm>
#include <array>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace sdnav::obs
{

namespace
{

/** Tracer ids are never reused; see the metric-id comment in obs.cc. */
std::atomic<std::uint64_t> next_tracer_id{1};

/** Per-thread buffer cache: tracer id -> this thread's buffer. */
thread_local std::unordered_map<std::uint64_t, void *> t_buffer_cache;

enum class Phase : std::uint8_t { Begin, End, Instant };

struct Event
{
    const char *name;
    std::uint64_t tsNs;
    /** Unused entries have a null key. */
    std::array<TraceArg, 2> args;
    Phase phase;
};

} // anonymous namespace

/**
 * One thread's event log. Only the owning thread appends, but the
 * export path copies concurrently, so every access goes through the
 * (uncontended on the hot path) per-buffer mutex.
 */
struct alignas(64) Tracer::Buffer
{
    std::mutex mutex;
    std::vector<Event> events;

    /** Events rejected because the buffer was full. */
    std::uint64_t dropped = 0;

    /**
     * Open spans whose begin was dropped. Spans nest LIFO per
     * thread, so while this is non-zero the incoming ends belong to
     * dropped begins and are dropped too — recorded B/E events stay
     * perfectly paired.
     */
    std::uint64_t dropDepth = 0;
};

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

Tracer::Tracer()
    : id_(next_tracer_id.fetch_add(1, std::memory_order_relaxed))
{
}

Tracer::~Tracer() = default;

void
Tracer::enable(std::size_t perThreadCapacity)
{
    // Publish the epoch and capacity before the flag: recorders load
    // enabled_ with acquire, so they always see both.
    capacity_ = perThreadCapacity > 0 ? perThreadCapacity : 1;
    epoch_ = std::chrono::steady_clock::now();
    enabled_.store(true, std::memory_order_release);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_release);
}

Tracer::Buffer &
Tracer::buffer()
{
    auto it = t_buffer_cache.find(id_);
    if (it != t_buffer_cache.end())
        return *static_cast<Buffer *>(it->second);
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<Buffer>());
    Buffer *b = buffers_.back().get();
    t_buffer_cache.emplace(id_, b);
    return *b;
}

namespace
{

std::uint64_t
nanosSince(std::chrono::steady_clock::time_point epoch)
{
    auto delta = std::chrono::steady_clock::now() - epoch;
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  delta)
                  .count();
    return ns > 0 ? static_cast<std::uint64_t>(ns) : 0u;
}

} // anonymous namespace

void
Tracer::begin(const char *name)
{
    if (!enabled())
        return;
    std::uint64_t ts = nanosSince(epoch_);
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.events.size() < capacity_ && b.dropDepth == 0) {
        b.events.push_back({name, ts, {}, Phase::Begin});
    } else {
        // Full (or already inside a dropped span): drop this span
        // whole — its end will be swallowed by dropDepth.
        ++b.dropped;
        ++b.dropDepth;
    }
}

void
Tracer::begin(const char *name, std::uint64_t arg)
{
    if (!enabled())
        return;
    std::uint64_t ts = nanosSince(epoch_);
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.events.size() < capacity_ && b.dropDepth == 0) {
        b.events.push_back({name, ts, {{{"arg", arg}}}, Phase::Begin});
    } else {
        ++b.dropped;
        ++b.dropDepth;
    }
}

void
Tracer::end(const char *name)
{
    end(name, {});
}

void
Tracer::end(const char *name, std::span<const TraceArg> args)
{
    if (!enabled())
        return;
    std::uint64_t ts = nanosSince(epoch_);
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.dropDepth > 0) {
        // This end closes a span whose begin was dropped.
        --b.dropDepth;
        ++b.dropped;
        return;
    }
    // A recorded begin always gets its end, even past the soft
    // capacity: the overshoot is bounded by the open-span depth at
    // the moment the buffer filled.
    Event event{name, ts, {}, Phase::End};
    std::size_t kept = 0;
    for (const TraceArg &arg : args) {
        if (arg.key != nullptr && kept < event.args.size())
            event.args[kept++] = arg;
    }
    b.events.push_back(event);
}

void
Tracer::instant(const char *name)
{
    if (!enabled())
        return;
    std::uint64_t ts = nanosSince(epoch_);
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.events.size() < capacity_)
        b.events.push_back({name, ts, {}, Phase::Instant});
    else
        ++b.dropped;
}

void
Tracer::instant(const char *name, std::uint64_t arg)
{
    if (!enabled())
        return;
    std::uint64_t ts = nanosSince(epoch_);
    Buffer &b = buffer();
    std::lock_guard<std::mutex> lock(b.mutex);
    if (b.events.size() < capacity_)
        b.events.push_back({name, ts, {{{"arg", arg}}}, Phase::Instant});
    else
        ++b.dropped;
}

json::Value
Tracer::chromeTrace() const
{
    // Copy buffer pointers under the registry lock, then each
    // buffer's events under its own lock — same one-at-a-time lock
    // ordering as Registry::snapshot().
    std::vector<Buffer *> buffers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &b : buffers_)
            buffers.push_back(b.get());
    }

    struct Placed
    {
        Event event;
        std::size_t tid;
    };
    std::vector<Placed> placed;
    for (std::size_t i = 0; i < buffers.size(); ++i) {
        std::lock_guard<std::mutex> lock(buffers[i]->mutex);
        for (const Event &event : buffers[i]->events)
            placed.push_back({event, i + 1});
    }
    // Stable: per-thread order (and therefore B/E nesting) survives
    // equal timestamps.
    std::stable_sort(placed.begin(), placed.end(),
                     [](const Placed &a, const Placed &b) {
                         return a.event.tsNs < b.event.tsNs;
                     });

    json::Value events = json::Value::makeArray();
    json::Value process = json::Value::makeObject();
    process.set("ph", "M");
    process.set("pid", 1);
    process.set("tid", 0);
    process.set("name", "process_name");
    json::Value process_args = json::Value::makeObject();
    process_args.set("name", "sdnav");
    process.set("args", std::move(process_args));
    events.push(std::move(process));
    for (std::size_t i = 0; i < buffers.size(); ++i) {
        json::Value meta = json::Value::makeObject();
        meta.set("ph", "M");
        meta.set("pid", 1);
        meta.set("tid", static_cast<double>(i + 1));
        meta.set("name", "thread_name");
        json::Value args = json::Value::makeObject();
        args.set("name", "sdnav-thread-" + std::to_string(i + 1));
        meta.set("args", std::move(args));
        events.push(std::move(meta));
    }

    for (const Placed &p : placed) {
        json::Value entry = json::Value::makeObject();
        entry.set("name", p.event.name);
        switch (p.event.phase) {
        case Phase::Begin:
            entry.set("ph", "B");
            break;
        case Phase::End:
            entry.set("ph", "E");
            break;
        case Phase::Instant:
            entry.set("ph", "i");
            entry.set("s", "t"); // thread-scoped instant
            break;
        }
        entry.set("ts", static_cast<double>(p.event.tsNs) / 1000.0);
        entry.set("pid", 1);
        entry.set("tid", static_cast<double>(p.tid));
        if (p.event.args[0].key != nullptr) {
            json::Value args = json::Value::makeObject();
            for (const TraceArg &arg : p.event.args) {
                if (arg.key != nullptr)
                    args.set(arg.key, static_cast<double>(arg.value));
            }
            entry.set("args", std::move(args));
        }
        events.push(std::move(entry));
    }

    json::Value root = json::Value::makeObject();
    root.set("displayTimeUnit", "ms");
    root.set("traceEvents", std::move(events));
    return root;
}

void
Tracer::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    out << chromeTrace().dump(2) << "\n";
    if (!out.good())
        throw std::runtime_error("cannot write trace file: " + path);
}

TraceStats
Tracer::stats() const
{
    std::vector<Buffer *> buffers;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &b : buffers_)
            buffers.push_back(b.get());
    }
    TraceStats folded;
    folded.threads = buffers.size();
    for (Buffer *b : buffers) {
        std::lock_guard<std::mutex> lock(b->mutex);
        folded.recorded += b->events.size();
        folded.dropped += b->dropped;
    }
    return folded;
}

void
Tracer::reset()
{
    disable();
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &b : buffers_) {
        std::lock_guard<std::mutex> buffer_lock(b->mutex);
        b->events.clear();
        b->dropped = 0;
        b->dropDepth = 0;
    }
}

} // namespace sdnav::obs
