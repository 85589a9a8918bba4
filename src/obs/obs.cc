#include "obs/obs.hh"

#include <array>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace sdnav::obs
{

namespace
{

/**
 * Metric instance ids are allocated once and never reused, so a
 * thread-local cache entry for a destroyed metric can never alias a
 * newer metric that happens to land at the same address.
 */
std::atomic<std::uint64_t> next_metric_id{1};

/**
 * Per-thread cell cache: metric id -> that thread's cell. Entries for
 * dead metrics are simply never looked up again. The map is touched
 * only by its owning thread.
 */
thread_local std::unordered_map<std::uint64_t, void *> t_cell_cache;

std::uint64_t
allocateMetricId()
{
    return next_metric_id.fetch_add(1, std::memory_order_relaxed);
}

} // anonymous namespace

/**
 * One thread's accumulator. Written only by the owning thread (relaxed
 * atomics keep a concurrent snapshot race-free); cache-line aligned so
 * two threads' cells never share a line.
 */
struct alignas(64) Counter::Cell
{
    std::atomic<std::uint64_t> value{0};
};

Counter::Counter() : id_(allocateMetricId()) {}

Counter::~Counter() = default;

Counter::Cell &
Counter::cell()
{
    auto it = t_cell_cache.find(id_);
    if (it != t_cell_cache.end())
        return *static_cast<Cell *>(it->second);
    std::lock_guard<std::mutex> lock(mutex_);
    cells_.push_back(std::make_unique<Cell>());
    Cell *c = cells_.back().get();
    t_cell_cache.emplace(id_, c);
    return *c;
}

void
Counter::add(std::uint64_t n)
{
    auto &v = cell().value;
    v.store(v.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

std::uint64_t
Counter::value() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t sum = 0;
    for (const auto &c : cells_)
        sum += c->value.load(std::memory_order_relaxed);
    return sum;
}

void
Counter::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &c : cells_)
        c->value.store(0, std::memory_order_relaxed);
}

void
Gauge::setMax(double v)
{
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed)) {
    }
}

/** One thread's interval accumulator; see Counter::Cell. */
struct alignas(64) Timer::Cell
{
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> total{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

Timer::Timer() : id_(allocateMetricId()) {}

Timer::~Timer() = default;

Timer::Cell &
Timer::cell()
{
    auto it = t_cell_cache.find(id_);
    if (it != t_cell_cache.end())
        return *static_cast<Cell *>(it->second);
    std::lock_guard<std::mutex> lock(mutex_);
    cells_.push_back(std::make_unique<Cell>());
    Cell *c = cells_.back().get();
    t_cell_cache.emplace(id_, c);
    return *c;
}

void
Timer::record(double ms)
{
    Cell &c = cell();
    c.count.store(c.count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    c.total.store(c.total.load(std::memory_order_relaxed) + ms,
                  std::memory_order_relaxed);
    if (ms < c.min.load(std::memory_order_relaxed))
        c.min.store(ms, std::memory_order_relaxed);
    if (ms > c.max.load(std::memory_order_relaxed))
        c.max.store(ms, std::memory_order_relaxed);
}

TimerStats
Timer::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    TimerStats folded;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    for (const auto &c : cells_) {
        std::uint64_t count = c->count.load(std::memory_order_relaxed);
        if (count == 0)
            continue;
        folded.count += count;
        folded.totalMs += c->total.load(std::memory_order_relaxed);
        min = std::min(min, c->min.load(std::memory_order_relaxed));
        max = std::max(max, c->max.load(std::memory_order_relaxed));
    }
    if (folded.count > 0) {
        folded.minMs = min;
        folded.maxMs = max;
    }
    return folded;
}

void
Timer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &c : cells_) {
        c->count.store(0, std::memory_order_relaxed);
        c->total.store(0.0, std::memory_order_relaxed);
        c->min.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
        c->max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    }
}

namespace
{

/**
 * Histogram bucket layout: geometric buckets a factor 2^(1/8) apart
 * (~9% wide) from kHistMin up, plus an underflow bucket 0 and an
 * overflow bucket at the top. Index math is shared by record() and
 * the quantile fold so a value always lands where the fold looks.
 */
constexpr double kHistMin = 1e-3;
constexpr int kHistBucketsPerOctave = 8;
constexpr int kHistOctaves = 27; // 1e-3 .. ~1.3e5
constexpr int kHistBuckets =
    kHistOctaves * kHistBucketsPerOctave + 2;

int
histBucketIndex(double value)
{
    if (!(value > kHistMin)) // NaN and underflow both land at 0
        return 0;
    double scaled = std::floor(std::log2(value / kHistMin) *
                               kHistBucketsPerOctave);
    // Clamp in double: +inf, and anything whose ratio to kHistMin
    // overflows, scales to a value no int can hold.
    if (scaled >= kHistBuckets - 2)
        return kHistBuckets - 1;
    return 1 + static_cast<int>(scaled);
}

/** Upper bound of a bucket, used as the quantile estimate. */
double
histBucketUpper(int index)
{
    if (index <= 0)
        return kHistMin;
    return kHistMin *
           std::exp2(static_cast<double>(index) /
                     kHistBucketsPerOctave);
}

} // anonymous namespace

/** One thread's bucket array; see Counter::Cell. */
struct alignas(64) Histogram::Cell
{
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> total{0.0};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
};

Histogram::Histogram() : id_(allocateMetricId()) {}

Histogram::~Histogram() = default;

Histogram::Cell &
Histogram::cell()
{
    auto it = t_cell_cache.find(id_);
    if (it != t_cell_cache.end())
        return *static_cast<Cell *>(it->second);
    std::lock_guard<std::mutex> lock(mutex_);
    cells_.push_back(std::make_unique<Cell>());
    Cell *c = cells_.back().get();
    t_cell_cache.emplace(id_, c);
    return *c;
}

void
Histogram::record(double value)
{
    Cell &c = cell();
    auto &bucket = c.buckets[histBucketIndex(value)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    c.count.store(c.count.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
    c.total.store(c.total.load(std::memory_order_relaxed) + value,
                  std::memory_order_relaxed);
    if (value > c.max.load(std::memory_order_relaxed))
        c.max.store(value, std::memory_order_relaxed);
}

HistogramStats
Histogram::stats() const
{
    std::array<std::uint64_t, kHistBuckets> folded{};
    HistogramStats result;
    double max = -std::numeric_limits<double>::infinity();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &c : cells_) {
            std::uint64_t count =
                c->count.load(std::memory_order_relaxed);
            if (count == 0)
                continue;
            result.count += count;
            result.total +=
                c->total.load(std::memory_order_relaxed);
            max = std::max(max,
                           c->max.load(std::memory_order_relaxed));
            for (int i = 0; i < kHistBuckets; ++i) {
                folded[i] +=
                    c->buckets[i].load(std::memory_order_relaxed);
            }
        }
    }
    if (result.count == 0)
        return result;
    result.max = max;
    auto quantileOf = [&folded, &result](double q) {
        std::uint64_t target = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(result.count)));
        if (target == 0)
            target = 1;
        std::uint64_t seen = 0;
        for (int i = 0; i < kHistBuckets; ++i) {
            seen += folded[i];
            if (seen >= target)
                return histBucketUpper(i);
        }
        return histBucketUpper(kHistBuckets - 1);
    };
    result.p50 = quantileOf(0.50);
    result.p90 = quantileOf(0.90);
    result.p99 = quantileOf(0.99);
    return result;
}

double
Histogram::quantile(double q) const
{
    std::array<std::uint64_t, kHistBuckets> folded{};
    std::uint64_t total = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &c : cells_) {
            total += c->count.load(std::memory_order_relaxed);
            for (int i = 0; i < kHistBuckets; ++i) {
                folded[i] +=
                    c->buckets[i].load(std::memory_order_relaxed);
            }
        }
    }
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    std::uint64_t target = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (int i = 0; i < kHistBuckets; ++i) {
        seen += folded[i];
        if (seen >= target)
            return histBucketUpper(i);
    }
    return histBucketUpper(kHistBuckets - 1);
}

std::vector<HistogramBucket>
Histogram::cumulativeBuckets() const
{
    std::array<std::uint64_t, kHistBuckets> folded{};
    std::uint64_t total = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &c : cells_) {
            total += c->count.load(std::memory_order_relaxed);
            for (int i = 0; i < kHistBuckets; ++i) {
                folded[i] +=
                    c->buckets[i].load(std::memory_order_relaxed);
            }
        }
    }
    std::vector<HistogramBucket> buckets;
    if (total == 0)
        return buckets;
    // Emit a cumulative entry per occupied bucket; sparse output is
    // legal because the counts are cumulative. The overflow bucket
    // has no finite bound, so it folds into the final +Inf entry.
    std::uint64_t cumulative = 0;
    for (int i = 0; i < kHistBuckets - 1; ++i) {
        if (folded[i] == 0)
            continue;
        cumulative += folded[i];
        buckets.push_back(
            HistogramBucket{histBucketUpper(i), cumulative});
    }
    buckets.push_back(HistogramBucket{
        std::numeric_limits<double>::infinity(), total});
    return buckets;
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &c : cells_) {
        for (auto &bucket : c->buckets)
            bucket.store(0, std::memory_order_relaxed);
        c->count.store(0, std::memory_order_relaxed);
        c->total.store(0.0, std::memory_order_relaxed);
        c->max.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    }
}

Registry &
Registry::global()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Timer &
Registry::timer(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = timers_[name];
    if (!slot)
        slot = std::make_unique<Timer>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

json::Value
Registry::snapshot() const
{
    // Copy the metric pointers under the lock, fold outside it: the
    // fold takes each metric's own mutex, and lock ordering stays
    // one-at-a-time.
    std::vector<std::pair<std::string, const Counter *>> counters;
    std::vector<std::pair<std::string, const Gauge *>> gauges;
    std::vector<std::pair<std::string, const Timer *>> timers;
    std::vector<std::pair<std::string, const Histogram *>> histograms;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, c] : counters_)
            counters.emplace_back(name, c.get());
        for (const auto &[name, g] : gauges_)
            gauges.emplace_back(name, g.get());
        for (const auto &[name, t] : timers_)
            timers.emplace_back(name, t.get());
        for (const auto &[name, h] : histograms_)
            histograms.emplace_back(name, h.get());
    }

    json::Value root = json::Value::makeObject();
    // Always true; kept so snapshot consumers and the committed
    // bench baselines see an unchanged document shape.
    root.set("enabled", true);
    json::Value counter_obj = json::Value::makeObject();
    for (const auto &[name, c] : counters)
        counter_obj.set(name, static_cast<double>(c->value()));
    root.set("counters", std::move(counter_obj));
    json::Value gauge_obj = json::Value::makeObject();
    for (const auto &[name, g] : gauges)
        gauge_obj.set(name, g->value());
    root.set("gauges", std::move(gauge_obj));
    json::Value timer_obj = json::Value::makeObject();
    for (const auto &[name, t] : timers) {
        TimerStats stats = t->stats();
        json::Value entry = json::Value::makeObject();
        entry.set("count", static_cast<double>(stats.count));
        entry.set("total_ms", stats.totalMs);
        entry.set("min_ms", stats.minMs);
        entry.set("mean_ms", stats.meanMs());
        entry.set("max_ms", stats.maxMs);
        timer_obj.set(name, std::move(entry));
    }
    root.set("timers", std::move(timer_obj));
    json::Value histogram_obj = json::Value::makeObject();
    for (const auto &[name, h] : histograms) {
        HistogramStats stats = h->stats();
        json::Value entry = json::Value::makeObject();
        entry.set("count", static_cast<double>(stats.count));
        entry.set("mean", stats.mean());
        entry.set("p50", stats.p50);
        entry.set("p90", stats.p90);
        entry.set("p99", stats.p99);
        entry.set("max", stats.max);
        histogram_obj.set(name, std::move(entry));
    }
    root.set("histograms", std::move(histogram_obj));
    return root;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : counters_)
        entry.second->reset();
    for (auto &entry : gauges_)
        entry.second->reset();
    for (auto &entry : timers_)
        entry.second->reset();
    for (auto &entry : histograms_)
        entry.second->reset();
}

} // namespace sdnav::obs
