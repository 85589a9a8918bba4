/**
 * @file
 * perfbench_harness — the measuring half of the sdnav benchmark.
 *
 * perfbench/run.py builds this binary next to sdnavd, starts and stops
 * the daemon, and calls the harness once per measured segment, then
 * once to check the outputs and once to probe the layers:
 *
 *   perfbench_harness run   --workload W --seed N --segment I
 *                           --seconds S [--port P --server-pid PID]
 *                           [--request-log FILE]
 *   perfbench_harness check --workload W --seed N --segments FILE
 *                           [--perturb-oracle]
 *   perfbench_harness probe --workload W --seed N
 *
 * `run` prints "ready" once its set-up is done (exact_sweep compiles
 * its model first), drives the workload for S
 * seconds after a short warm-up, and prints one JSON object: raw
 * latencies, operation counts, resource use, layer numbers, and what
 * the oracle needs. `check` reads the segments' objects (a JSON array)
 * and verifies every oracle. `probe` times calls into each layer's
 * public functions on the workload's own inputs, serially.
 *
 * Every input is drawn from --seed through a fixed splitmix64 stream,
 * so the same seed gives the same request lines, keys and grids; the
 * program only ever sees the generated lines and parameter points.
 */

#include <algorithm>
#include <arpa/inet.h>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <netinet/in.h>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "analysis/sweep.hh"
#include "common/json.hh"
#include "common/units.hh"
#include "common/version.hh"
#include "model/exactModel.hh"
#include "obs/obs.hh"
#include "server/modelCache.hh"
#include "server/protocol.hh"
#include "sim/replication.hh"

namespace
{

using namespace sdnav;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kThreads = 4;

/** Warm-up before a server segment's window opens. */
constexpr double kServerWarmupS = 0.2;

/** Grid points per exact_sweep request. */
constexpr std::size_t kSweepPoints = 64;

/** exact_sweep segments whose first grid the oracle re-runs. */
constexpr std::size_t kCheckedSweepSegments = 2;

/**
 * exact_sweep's simulation (checked and probed, not timed end to end):
 * replications x horizon per call, fixed base seed.
 */
constexpr std::size_t kSimReplications = 64;
constexpr double kSimHorizonHours = 5.0e4;
constexpr std::uint64_t kSimBaseSeed = 20190324;

/** Simulated CP availability must lie within this many half-widths. */
constexpr double kSimOracleHalfWidths = 3.0;

/** The precision sim.time_to_precision_s aims at: CP min/yr, 95%. */
constexpr double kSimTargetMinPerYear = 0.1;

/** Timed simulation calls in the probe, after one warm-up call. */
constexpr std::size_t kSimProbeCalls = 6;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

Clock::time_point
after(Clock::time_point t0, double seconds)
{
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
}

// ---------------------------------------------------------------- inputs

/** splitmix64: a tiny, fully specified generator (same draws anywhere). */
class Rng
{
  public:
    Rng(std::uint64_t seed, std::uint64_t stream)
        : state_(seed * 0x9e3779b97f4a7c15ULL ^
                 (stream + 1) * 0xd1b54a32d192ed03ULL)
    {
    }

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }

  private:
    std::uint64_t state_;
};

/** An availability whose downtime is log-uniform in [lo, hi]. */
double
drawAvailability(Rng &rng, double lo, double hi)
{
    return 1.0 - lo * std::pow(hi / lo, rng.uniform());
}

/**
 * A what-if parameter point: downtimes spread over several orders of
 * magnitude around and below the paper's defaults, so that even the
 * 21-node quorums evaluate to availabilities distinguishable from 1.
 */
model::SwParams
drawParams(Rng &rng)
{
    model::SwParams params;
    params.processAvailability = drawAvailability(rng, 1e-5, 1e-1);
    params.manualProcessAvailability = drawAvailability(rng, 1e-4, 1e-1);
    params.vmAvailability = drawAvailability(rng, 1e-5, 1e-2);
    params.hostAvailability = drawAvailability(rng, 1e-4, 1e-2);
    params.rackAvailability = drawAvailability(rng, 1e-5, 1e-2);
    return params;
}

/** A compiled-model key: (catalog, topology, nodes, policy), plane CP. */
struct ModelKey
{
    const char *catalog;
    const char *topology;
    int nodes;
    const char *policy;
};

/** hot_query: the paper's reference deployment, always resident. */
constexpr ModelKey kHotKey{"opencontrail", "large", 3, "required"};

/** exact_sweep: a dense node-major diagram. */
constexpr ModelKey kSweepKey{"raft", "large", 21, "required"};

/**
 * cold_compile: four disjoint slices, one per connection, balanced so
 * each slice's summed compile time is about equal. Every key compiles
 * in roughly 10-60 ms on its own.
 */
constexpr ModelKey kColdSlices[kConnections][4] = {
    {{"raft", "large", 21, "required"},
     {"opencontrail", "small", 3, "required"},
     {"raft", "large", 15, "required"},
     {"fragile", "large", 31, "required"}},
    {{"raft", "large", 21, "not-required"},
     {"opencontrail", "medium", 3, "not-required"},
     {"raft", "large", 17, "required"},
     {"opencontrail", "medium", 3, "required"}},
    {{"raft", "medium", 21, "required"},
     {"raft", "small", 15, "required"},
     {"opencontrail", "large", 3, "not-required"},
     {"fragile", "small", 31, "required"}},
    {{"raft", "large", 19, "required"},
     {"opencontrail", "large", 3, "required"},
     {"raft", "large", 15, "not-required"},
     {"fragile", "large", 25, "required"}},
};

json::Value
paramsJson(const model::SwParams &params)
{
    json::Value doc = json::Value::makeObject();
    doc.set("a", params.processAvailability);
    doc.set("as", params.manualProcessAvailability);
    doc.set("av", params.vmAvailability);
    doc.set("ah", params.hostAvailability);
    doc.set("ar", params.rackAvailability);
    return doc;
}

/** One protocol request line for a key at a parameter point. */
std::string
queryLine(const ModelKey &key, const model::SwParams &params, double id)
{
    json::Value doc = json::Value::makeObject();
    doc.set("id", id);
    doc.set("catalog", key.catalog);
    doc.set("topology", key.topology);
    doc.set("nodes", key.nodes);
    doc.set("policy", key.policy);
    doc.set("plane", "cp");
    doc.set("params", paramsJson(params));
    return doc.dump();
}

server::QuerySpec
specFor(const ModelKey &key)
{
    return server::parseRequest(queryLine(key, model::SwParams{}, 0), 1)
        .queries.at(0)
        .spec;
}

/**
 * The request lines one connection of one segment sends, in order:
 * the hot key, or the connection's cold slice in a seeded order,
 * cycled; every line with fresh seeded parameters.
 */
class LineSource
{
  public:
    LineSource(const std::string &workload, std::uint64_t seed,
               std::size_t segment, std::size_t connection)
        : rng_(seed, segment * kConnections + connection),
          connection_(connection)
    {
        if (workload == "hot_query") {
            keys_.push_back(kHotKey);
        } else {
            for (const ModelKey &key : kColdSlices[connection])
                keys_.push_back(key);
            for (std::size_t i = keys_.size() - 1; i > 0; --i)
                std::swap(keys_[i], keys_[rng_.below(i + 1)]);
        }
    }

    const ModelKey &key() const { return keys_[index_ % keys_.size()]; }

    std::string
    next()
    {
        const ModelKey &k = key();
        double id = static_cast<double>(connection_ * 100000000 + index_);
        ++index_;
        return queryLine(k, drawParams(rng_), id);
    }

  private:
    Rng rng_;
    std::size_t connection_;
    std::vector<ModelKey> keys_;
    std::size_t index_ = 0;
};

/** exact_sweep: the grid of request `call` in segment `segment`. */
std::vector<model::SwParams>
sweepGrid(std::uint64_t seed, std::size_t segment, std::size_t call)
{
    Rng rng(seed, (std::uint64_t{1} << 32) + segment * 100000 + call);
    std::vector<model::SwParams> grid(kSweepPoints);
    for (model::SwParams &p : grid)
        p = drawParams(rng);
    return grid;
}

// ------------------------------------------------------------- process

/** CPU time (ms) and minor faults of a process. */
struct ProcSample
{
    double cpuMs = 0.0;
    double minorFaults = 0.0;
};

/** Another process's counters, from /proc/<pid>/stat. */
ProcSample
readProc(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        throw std::runtime_error("cannot read /proc stat of " +
                                 std::to_string(pid));
    std::istringstream fields(text.substr(close + 2));
    std::vector<std::string> f;
    std::string field;
    while (fields >> field)
        f.push_back(field);
    // Counted from the state field: minflt is the 8th, utime and
    // stime the 12th and 13th (proc(5) fields 10, 14 and 15).
    double tick = 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
    ProcSample sample;
    sample.minorFaults = std::stod(f.at(7));
    sample.cpuMs = (std::stod(f.at(11)) + std::stod(f.at(12))) * tick;
    return sample;
}

ProcSample
readSelf()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    return {ms(usage.ru_utime) + ms(usage.ru_stime),
            static_cast<double>(usage.ru_minflt)};
}

/** A "Vm..." line of /proc/<pid>/status, in MB. */
double
statusMb(const std::string &pid, const std::string &field)
{
    std::ifstream in("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(field + ":", 0) == 0)
            return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
    throw std::runtime_error("no " + field + " in /proc/" + pid);
}

// ----------------------------------------------------------- statistics

/** Nearest-rank quantile of an unsorted sample. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

json::Value
numbers(const std::vector<double> &values)
{
    json::Value array = json::Value::makeArray();
    for (double v : values)
        array.push(v);
    return array;
}

/** What one measured segment reports back to run.py. */
struct Segment
{
    std::size_t failed = 0;
    std::string firstError;
    double windowS = 0.0;
    double ops = 0.0;
    std::vector<double> latenciesMs;
    double peakRssMb = 0.0;
    ProcSample proc;
    json::Value layers = json::Value::makeObject();
    json::Value oracle = json::Value::makeObject();

    json::Value
    toJson() const
    {
        json::Value doc = json::Value::makeObject();
        doc.set("failed", static_cast<double>(failed));
        doc.set("error", firstError);
        doc.set("window_s", windowS);
        doc.set("ops", ops);
        doc.set("latencies_ms", numbers(latenciesMs));
        doc.set("peak_rss_mb", peakRssMb);
        doc.set("cpu_ms", proc.cpuMs);
        doc.set("minor_faults", proc.minorFaults);
        doc.set("layers", layers);
        doc.set("oracle", oracle);
        return doc;
    }
};

// ------------------------------------------------------- server client

/** One blocking loopback connection speaking the line protocol. */
class Connection
{
  public:
    explicit Connection(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (fd_ < 0 ||
            ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            throw std::runtime_error("cannot connect to sdnavd");
        socklen_t len = sizeof(addr);
        ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len);
        localPort_ = ntohs(addr.sin_port);
    }

    ~Connection()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    std::uint16_t localPort() const { return localPort_; }

    void
    send(std::string line)
    {
        line += '\n';
        std::size_t sent = 0;
        while (sent < line.size()) {
            ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
            if (n <= 0)
                throw std::runtime_error("send failed");
            sent += static_cast<std::size_t>(n);
        }
    }

    std::string
    recv()
    {
        for (;;) {
            std::size_t pos = buffer_.find('\n');
            if (pos != std::string::npos) {
                std::string line = buffer_.substr(0, pos);
                buffer_.erase(0, pos + 1);
                return line;
            }
            char chunk[4096];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                throw std::runtime_error("connection closed by sdnavd");
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::uint16_t localPort_ = 0;
    std::string buffer_;
};

struct ConnectionResult
{
    std::uint16_t localPort = 0;

    /** Every line's latency in send order, warm-up included. */
    std::vector<double> latenciesMs;

    /** Index of the first line sent inside the measured window. */
    std::size_t firstInWindow = 0;

    std::size_t failed = 0;
    std::string firstError;
    std::map<std::string, double> cache; // reply "cache" -> count
    json::Value samples = json::Value::makeArray();
};

/** Check one reply's shape; returns its availability. */
double
parseReply(const std::string &reply, const std::string &expectedKey,
           ConnectionResult &result)
{
    json::Value doc = json::parse(reply);
    if (!doc.boolOr("ok", false))
        throw std::runtime_error("error reply: " + reply);
    if (doc.stringOr("model_key", "") != expectedKey)
        throw std::runtime_error("wrong model_key: " + reply);
    result.cache[doc.at("cache").asString()] += 1.0;
    return doc.at("availability").asNumber();
}

/** A closed loop of one connection: send, wait for the reply, repeat. */
void
driveConnection(const std::string &workload, std::uint64_t seed,
                std::size_t segment, std::size_t connection,
                std::uint16_t port, Clock::time_point windowStart,
                Clock::time_point windowEnd, ConnectionResult &result)
{
    // About 30 hot samples and 10 cold ones per second of window.
    const std::size_t sampleEvery = workload == "hot_query" ? 64 : 8;
    try {
        Connection conn(port);
        result.localPort = conn.localPort();
        LineSource source(workload, seed, segment, connection);
        result.firstInWindow = SIZE_MAX;
        for (std::size_t i = 0;; ++i) {
            std::string expectedKey = specFor(source.key()).modelKey();
            std::string line = source.next();
            Clock::time_point sent = Clock::now();
            if (sent >= windowEnd)
                break;
            conn.send(line);
            std::string reply = conn.recv();
            double availability;
            try {
                availability = parseReply(reply, expectedKey, result);
            } catch (const std::exception &e) {
                ++result.failed;
                if (result.firstError.empty())
                    result.firstError = e.what();
                availability = -1.0;
            }
            result.latenciesMs.push_back(msSince(sent));
            if (sent < windowStart)
                continue;
            if (result.firstInWindow == SIZE_MAX)
                result.firstInWindow = i;
            if ((i - result.firstInWindow) % sampleEvery == 0 &&
                availability >= 0.0) {
                json::Value sample = json::Value::makeArray();
                sample.push(line);
                sample.push(availability);
                result.samples.push(std::move(sample));
            }
        }
    } catch (const std::exception &e) {
        ++result.failed;
        if (result.firstError.empty())
            result.firstError = e.what();
    }
    result.firstInWindow =
        std::min(result.firstInWindow, result.latenciesMs.size());
}

/** One request-log record, in the order the server appended it. */
struct LogRecord
{
    double queueWaitMs = 0.0;
    double compileMs = 0.0;
    double evalMs = 0.0;
    double replyBytes = 0.0;
};

/**
 * Join the request log with the client's per-line latencies: a
 * session serves its lines in order, so the k-th query record of peer
 * port p is the k-th line of the connection bound to p. Each stage is
 * reported as its median (p99 for queue wait) over the client latency
 * median (p99).
 */
void
addServerLayers(const std::string &logPath,
                const std::vector<ConnectionResult> &connections,
                Segment &out)
{
    std::map<std::uint16_t, std::vector<LogRecord>> byPort;
    std::ifstream in(logPath);
    std::string text;
    while (std::getline(in, text)) {
        json::Value doc = json::parse(text);
        if (doc.stringOr("kind", "") != "query")
            continue;
        const std::string &peer = doc.at("peer").asString();
        auto port = static_cast<std::uint16_t>(
            std::stoul(peer.substr(peer.rfind(':') + 1)));
        byPort[port].push_back(
            {doc.numberOr("queue_wait_ms", 0.0),
             doc.numberOr("compile_ms", 0.0), doc.numberOr("eval_ms", 0.0),
             doc.numberOr("reply_bytes", 0.0)});
    }
    std::vector<double> queue, compile, eval, residual, bytes;
    for (const ConnectionResult &c : connections) {
        const std::vector<LogRecord> &records = byPort[c.localPort];
        if (records.size() != c.latenciesMs.size())
            throw std::runtime_error(
                "request log has " + std::to_string(records.size()) +
                " records for a connection that sent " +
                std::to_string(c.latenciesMs.size()) + " lines");
        for (std::size_t i = c.firstInWindow; i < records.size(); ++i) {
            const LogRecord &r = records[i];
            queue.push_back(r.queueWaitMs);
            compile.push_back(r.compileMs);
            eval.push_back(r.evalMs);
            bytes.push_back(r.replyBytes);
            residual.push_back(c.latenciesMs[i] - r.queueWaitMs -
                               r.compileMs - r.evalMs);
        }
    }
    double p50 = median(out.latenciesMs);
    double p99 = quantile(out.latenciesMs, 0.99);
    double bytesSum = 0.0;
    for (double b : bytes)
        bytesSum += b;
    json::Value &layers = out.layers;
    layers.set("server.queue_wait_p50_share", share(median(queue), p50));
    layers.set("server.queue_wait_p99_share",
               share(quantile(queue, 0.99), p99));
    layers.set("server.compile_p50_share", share(median(compile), p50));
    layers.set("server.eval_p50_share", share(median(eval), p50));
    layers.set("server.residual_p50_share", share(median(residual), p50));
    layers.set("server.reply_bytes",
               share(bytesSum, static_cast<double>(bytes.size())));
}

Segment
runServerSegment(const std::string &workload, std::uint64_t seed,
                 std::size_t segment, double seconds, std::uint16_t port,
                 int serverPid, const std::string &requestLog)
{
    std::cout << "ready" << std::endl;
    Segment out;
    std::vector<ConnectionResult> connections(kConnections);
    Clock::time_point windowStart = after(Clock::now(), kServerWarmupS);
    Clock::time_point windowEnd = after(windowStart, seconds);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c)
        threads.emplace_back([&, c] {
            driveConnection(workload, seed, segment, c, port, windowStart,
                            windowEnd, connections[c]);
        });
    std::this_thread::sleep_until(windowStart);
    ProcSample before = readProc(serverPid);
    std::this_thread::sleep_until(windowEnd);
    ProcSample end = readProc(serverPid);
    out.peakRssMb = statusMb(std::to_string(serverPid), "VmHWM");
    for (std::thread &t : threads)
        t.join();
    out.windowS =
        std::chrono::duration<double>(Clock::now() - windowStart).count();
    out.proc = {end.cpuMs - before.cpuMs,
                end.minorFaults - before.minorFaults};

    std::map<std::string, double> cache;
    json::Value samples = json::Value::makeArray();
    for (const ConnectionResult &c : connections) {
        out.failed += c.failed;
        if (out.firstError.empty())
            out.firstError = c.firstError;
        out.latenciesMs.insert(
            out.latenciesMs.end(),
            c.latenciesMs.begin() +
                static_cast<std::ptrdiff_t>(c.firstInWindow),
            c.latenciesMs.end());
        for (const auto &[outcome, count] : c.cache)
            cache[outcome] += count;
        for (const json::Value &s : c.samples.asArray())
            samples.push(s);
    }
    out.ops = static_cast<double>(out.latenciesMs.size());

    double hits = cache["hit"], misses = cache["miss"],
           coalesced = cache["coalesced"];
    out.layers.set("cache.hit_share",
                   share(hits, hits + misses + coalesced));
    out.layers.set("cache.coalesced", coalesced);
    out.oracle.set("hits", hits);
    out.oracle.set("misses", misses);
    out.oracle.set("coalesced", coalesced);
    out.oracle.set("samples", std::move(samples));
    if (!requestLog.empty())
        addServerLayers(requestLog, connections, out);
    return out;
}

// ------------------------------------------------- in-process workloads

/**
 * Call `request` back to back: one warm-up call, then every call that
 * starts within the window. Each call returns its operation count.
 */
template <typename Request>
void
closedLoop(double seconds, Segment &out, const Request &request)
{
    request(0);
    ProcSample before = readSelf();
    Clock::time_point windowStart = Clock::now();
    Clock::time_point windowEnd = after(windowStart, seconds);
    for (std::size_t call = 1; Clock::now() < windowEnd; ++call) {
        Clock::time_point t0 = Clock::now();
        out.ops += request(call);
        out.latenciesMs.push_back(msSince(t0));
    }
    out.windowS =
        std::chrono::duration<double>(Clock::now() - windowStart).count();
    ProcSample end = readSelf();
    out.proc = {end.cpuMs - before.cpuMs,
                end.minorFaults - before.minorFaults};
    out.peakRssMb = statusMb("self", "VmHWM");
}

model::ExactPlaneModel
compileSweepModel()
{
    server::QuerySpec spec = specFor(kSweepKey);
    fmea::ControllerCatalog catalog = server::resolveCatalog(spec);
    model::ExactPlaneModel::Options options;
    options.order = model::ExactVariableOrder::NodeMajor;
    return model::ExactPlaneModel(
        catalog, server::resolveTopology(spec, catalog.roles().size()),
        spec.policy, spec.plane, options);
}

std::vector<double>
evaluateGrid(const model::ExactPlaneModel &model,
             const std::vector<model::SwParams> &grid, std::size_t threads)
{
    analysis::SweepOptions options;
    options.threads = threads;
    return analysis::sweepGrid(
        grid.size(),
        [&](std::size_t i) {
            static thread_local bdd::ProbabilityScratch scratch;
            return model.availability(grid[i], scratch);
        },
        options);
}

Segment
runExactSweep(std::uint64_t seed, std::size_t segment, double seconds)
{
    model::ExactPlaneModel model = compileSweepModel();
    std::cout << "ready" << std::endl;
    obs::Registry::global().reset();

    Segment out;
    json::Value grids = json::Value::makeArray();
    closedLoop(seconds, out, [&](std::size_t call) {
        std::vector<double> results =
            evaluateGrid(model, sweepGrid(seed, segment, call), kThreads);
        if (call == 1 && segment < kCheckedSweepSegments)
            grids.push(numbers(results));
        return static_cast<double>(kSweepPoints);
    });
    out.oracle.set("grids", std::move(grids));
    out.layers.set(
        "sweep.imbalance",
        obs::Registry::global().gauge("sweep.imbalance").value());
    return out;
}

/** The simulation: OpenContrail on the Large topology, policy Required. */
struct SimSetup
{
    fmea::ControllerCatalog catalog;
    topology::DeploymentTopology topo;
    sim::ControllerSimConfig config;
    sim::ReplicatedSimConfig replication;
};

SimSetup
makeSimSetup()
{
    server::QuerySpec spec = specFor(kHotKey);
    fmea::ControllerCatalog catalog = server::resolveCatalog(spec);
    topology::DeploymentTopology topo =
        server::resolveTopology(spec, catalog.roles().size());
    sim::ControllerSimConfig config;
    config.horizonHours = kSimHorizonHours;
    sim::ReplicatedSimConfig replication;
    replication.replications = kSimReplications;
    replication.threads = kThreads;
    replication.baseSeed = kSimBaseSeed;
    return SimSetup{std::move(catalog), std::move(topo), config,
                    replication};
}

sim::ReplicatedControllerResult
simulateOnce(const SimSetup &s)
{
    return sim::simulateControllerReplicated(
        s.catalog, s.topo, model::SupervisorPolicy::Required, s.config,
        s.replication);
}

// ---------------------------------------------------------------- check

/** Collects oracle verdicts; the first failure is reported. */
struct Verdict
{
    std::string failure;
    std::size_t checked = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++checked;
        if (!ok && failure.empty())
            failure = what;
    }

    void
    absorb(const Verdict &other)
    {
        checked += other.checked;
        if (!other.failure.empty())
            failure += (failure.empty() ? "" : "; ") + other.failure;
    }
};

std::string
exactText(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/**
 * Query workloads: the cache shape (every hot line a hit; every cold
 * line a miss, none coalesced) and sampled replies equal to a direct
 * in-process evaluation of the same model at the same parsed
 * parameters, to the last bit.
 */
void
checkServer(const std::string &workload, const json::Value &segments,
            bool perturb, Verdict &verdict)
{
    double expectedShare = workload == "hot_query" ? 1.0 : 0.0;
    if (perturb)
        expectedShare = 1.0 - expectedShare;
    server::ModelCache cache(64);
    bdd::ProbabilityScratch scratch;
    for (const json::Value &segment : segments.asArray()) {
        const json::Value &oracle = segment.at("oracle");
        double hits = oracle.at("hits").asNumber();
        double coalesced = oracle.at("coalesced").asNumber();
        double all = hits + oracle.at("misses").asNumber() + coalesced;
        verdict.expect(all > 0.0 && hits / all == expectedShare,
                       "cache hit share " + exactText(share(hits, all)) +
                           ", expected " + exactText(expectedShare));
        verdict.expect(workload == "hot_query" || coalesced == 0.0,
                       "a cold line was coalesced");
        for (const json::Value &sample : oracle.at("samples").asArray()) {
            const std::string &line = sample.asArray()[0].asString();
            double got = sample.asArray()[1].asNumber();
            server::QuerySpec spec =
                server::parseRequest(line, 1).queries.at(0).spec;
            double expected = cache.acquire(spec).model->availability(
                spec.params, scratch);
            if (perturb)
                expected = std::nextafter(expected, 2.0);
            verdict.expect(sameBits(got, expected),
                           "reply availability " + exactText(got) +
                               " != in-process " + exactText(expected) +
                               " for " + line);
        }
    }
}

/** exact_sweep: checked 4-thread grids equal 1-thread sweepGrid runs. */
json::Value
checkSweep(std::uint64_t seed, const json::Value &segments, bool perturb,
           Verdict &verdict)
{
    model::ExactPlaneModel model = compileSweepModel();
    double points = 0.0, ms = 0.0;
    for (std::size_t s = 0; s < segments.asArray().size(); ++s) {
        for (const json::Value &grid :
             segments.asArray()[s].at("oracle").at("grids").asArray()) {
            Clock::time_point t0 = Clock::now();
            std::vector<double> serial =
                evaluateGrid(model, sweepGrid(seed, s, 1), 1);
            ms += msSince(t0);
            points += static_cast<double>(serial.size());
            for (std::size_t i = 0; i < serial.size(); ++i) {
                double expected =
                    perturb ? std::nextafter(serial[i], 2.0) : serial[i];
                verdict.expect(
                    sameBits(grid.asArray().at(i).asNumber(), expected) &&
                        expected > 0.0 && expected <= 1.0,
                    "segment " + std::to_string(s) + " point " +
                        std::to_string(i) +
                        " differs from the 1-thread sweep");
            }
        }
    }
    verdict.expect(points > 0.0, "no sweep grid was checked");
    json::Value layers = json::Value::makeObject();
    layers.set("sweep.points_per_s_1t", share(points, ms / 1e3));
    return layers;
}

/**
 * exact_sweep's simulation: a second call repeats the first exactly
 * (fixed base seed, replication-ordered pooling), and the pooled CP
 * estimate lies within kSimOracleHalfWidths half-widths of the exact
 * BDD value.
 */
void
checkSimulation(bool perturb, Verdict &verdict)
{
    SimSetup s = makeSimSetup();
    double exact = model::ExactPlaneModel(s.catalog, s.topo,
                                          model::SupervisorPolicy::Required,
                                          fmea::Plane::ControlPlane)
                       .availability(sim::staticParamsFor(s.config));
    sim::ReplicatedControllerResult first = simulateOnce(s);
    sim::ReplicatedControllerResult second = simulateOnce(s);
    double mean = first.cpAvailability.mean;
    double hw = first.cpAvailability.halfWidth95();
    verdict.expect(second.events == first.events &&
                       sameBits(second.cpAvailability.mean, mean) &&
                       sameBits(second.cpAvailability.halfWidth95(), hw),
                   "replicated simulation is not deterministic");
    verdict.expect(hw > 0.0, "simulated CP half-width is 0");
    if (perturb)
        exact += 10.0 * hw;
    verdict.expect(std::fabs(mean - exact) <= kSimOracleHalfWidths * hw,
                   "simulated CP availability " + exactText(mean) +
                       " is not within " + exactText(kSimOracleHalfWidths) +
                       " half-widths of the exact " + exactText(exact));
}

json::Value
check(const std::string &workload, std::uint64_t seed,
      const std::string &segmentsPath, bool perturb)
{
    json::Value segments = json::parseFile(segmentsPath);
    Verdict verdict;
    json::Value layers = json::Value::makeObject();
    if (workload == "hot_query" || workload == "cold_compile")
        checkServer(workload, segments, perturb, verdict);
    else {
        layers = checkSweep(seed, segments, perturb, verdict);
        // Its own verdict, so that its first failure is reported too.
        Verdict simulation;
        checkSimulation(perturb, simulation);
        verdict.absorb(simulation);
    }
    verdict.expect(verdict.checked > 1, "nothing was checked");

    json::Value doc = json::Value::makeObject();
    doc.set("correct", verdict.failure.empty());
    doc.set("oracle", verdict.failure.empty() ? "pass" : verdict.failure);
    doc.set("checked", static_cast<double>(verdict.checked));
    doc.set("layers", std::move(layers));
    return doc;
}

// ---------------------------------------------------------------- probe

/** The workload's compiled-model keys (one, or the cold key set). */
std::vector<ModelKey>
probeKeys(const std::string &workload)
{
    if (workload == "cold_compile") {
        std::vector<ModelKey> keys;
        for (const auto &slice : kColdSlices)
            keys.insert(keys.end(), std::begin(slice), std::end(slice));
        return keys;
    }
    if (workload == "exact_sweep")
        return {kSweepKey};
    return {kHotKey};
}

/** The workload's inputs as protocol lines (parse probe). */
std::vector<std::string>
probeLines(const std::string &workload, std::uint64_t seed)
{
    constexpr std::size_t kLines = 2000;
    std::vector<std::string> lines;
    if (workload == "hot_query" || workload == "cold_compile") {
        for (std::size_t c = 0; c < kConnections; ++c) {
            LineSource source(workload, seed, 0, c);
            for (std::size_t i = 0; i < kLines / kConnections; ++i)
                lines.push_back(source.next());
        }
    } else {
        for (std::size_t call = 1; lines.size() < kLines; ++call)
            for (const model::SwParams &p : sweepGrid(seed, 0, call))
                lines.push_back(queryLine(kSweepKey, p, 0));
    }
    return lines;
}

/**
 * exact_sweep's simulation, timed call by call: the event kernel, the
 * outage ledger and the replication executor.
 */
void
probeSimulation(json::Value &layers)
{
    SimSetup s = makeSimSetup();
    obs::Registry &registry = obs::Registry::global();
    sim::ReplicatedControllerResult first = simulateOnce(s);
    registry.reset();
    std::vector<double> callMs;
    for (std::size_t call = 0; call < kSimProbeCalls; ++call) {
        Clock::time_point t0 = Clock::now();
        sim::ReplicatedControllerResult r = simulateOnce(s);
        callMs.push_back(msSince(t0));
        if (r.events != first.events)
            throw std::runtime_error("simulation probe is not deterministic");
    }
    double events = static_cast<double>(first.events);
    double callS = median(callMs) / 1e3;
    double halfWidth = first.cpAvailability.halfWidth95() * minutesPerYear;
    obs::TimerStats wall = registry.timer("sim.replication_wall").stats();
    layers.set("sim.events", events);
    layers.set("sim.events_per_s", share(events, callS));
    layers.set("sim.queue_high_water",
               registry.gauge("sim.queue_high_water").value());
    layers.set("sim.halfwidth_min_per_year", halfWidth);
    // Wall time to a CP answer of the target precision: the call's time
    // scaled by (half-width / target)^2, so a faster event kernel and a
    // variance-reducing estimator both move it.
    layers.set("sim.time_to_precision_s",
               callS * std::pow(halfWidth / kSimTargetMinPerYear, 2));
    layers.set("replication.imbalance", share(wall.maxMs, wall.meanMs()));
}

json::Value
probe(const std::string &workload, std::uint64_t seed)
{
    json::Value layers = json::Value::makeObject();
    obs::Registry &registry = obs::Registry::global();

    // Protocol: parse the workload's own lines.
    std::vector<double> parseUs;
    for (const std::string &line : probeLines(workload, seed)) {
        Clock::time_point t0 = Clock::now();
        server::Request request = server::parseRequest(line, 1);
        parseUs.push_back(msSince(t0) * 1e3);
        if (request.queries.empty())
            throw std::runtime_error("parse probe lost its query");
    }
    layers.set("server.parse_us", median(parseUs));

    // Compile serially, each through a cache miss: every key once, a
    // single-key workload's key four times.
    std::vector<ModelKey> keys = probeKeys(workload);
    std::vector<ModelKey> compiles = keys;
    while (compiles.size() < kThreads)
        compiles.push_back(keys.front());
    registry.reset();
    std::vector<double> compileMs, faults, rss;
    for (const ModelKey &key : compiles) {
        server::ModelCache cache(1);
        server::QuerySpec spec = specFor(key);
        double rss0 = statusMb("self", "VmRSS");
        ProcSample before = readSelf();
        Clock::time_point t0 = Clock::now();
        server::CacheLookup lookup = cache.acquire(spec);
        compileMs.push_back(msSince(t0));
        ProcSample end = readSelf();
        faults.push_back(end.minorFaults - before.minorFaults);
        rss.push_back(statusMb("self", "VmRSS") - rss0);
        if (lookup.hit)
            throw std::runtime_error("compile probe hit the cache");
    }
    double serialMs = 0.0;
    for (double ms : compileMs)
        serialMs += ms;
    auto counter = [&](const char *name) {
        return static_cast<double>(registry.counter(name).value());
    };
    double iteHits = counter("bdd.ite_cache_hits");
    double uniqueHits = counter("bdd.unique_table_hits");
    layers.set("model.compile_ms", median(compileMs));
    layers.set("compile.minor_faults", median(faults));
    layers.set("compile.rss_mb", median(rss));
    layers.set("bdd.ite_cache_hit_share",
               share(iteHits, iteHits + counter("bdd.ite_cache_misses")));
    layers.set("bdd.unique_table_hit_share",
               share(uniqueHits,
                     uniqueHits + counter("bdd.unique_table_misses")));
    layers.set("bdd.peak_nodes", registry.gauge("bdd.peak_nodes").value());
    layers.set("bdd.gc_runs", counter("bdd.gc_runs"));

    // The same compiles, four threads at once, each in its own cache.
    Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = t; i < compiles.size(); i += kThreads) {
                server::ModelCache cache(1);
                cache.acquire(specFor(compiles[i]));
            }
        });
    for (std::thread &t : threads)
        t.join();
    layers.set("compile.parallel_scaling", share(serialMs, msSince(t0)));

    // Resident models: cache-hit acquire, evaluation, reachable share.
    server::ModelCache cache(keys.size());
    double reachable = 0.0, arena = 0.0;
    for (const ModelKey &key : keys) {
        const auto &model = *cache.acquire(specFor(key)).model;
        reachable += static_cast<double>(model.bddNodeCount());
        arena += static_cast<double>(model.totalBddNodes());
    }
    layers.set("bdd.reachable_share", share(reachable, arena));

    std::vector<double> acquireUs;
    for (std::size_t i = 0; i < 4000; ++i) {
        server::QuerySpec spec = specFor(keys[i % keys.size()]);
        Clock::time_point a0 = Clock::now();
        server::CacheLookup lookup = cache.acquire(spec);
        acquireUs.push_back(msSince(a0) * 1e3);
        if (!lookup.hit)
            throw std::runtime_error("acquire probe missed the cache");
    }
    layers.set("cache.acquire_hit_us", median(acquireUs));

    Rng rng(seed, 2000);
    bdd::ProbabilityScratch scratch;
    std::size_t evalsPerKey = std::max<std::size_t>(8, 160 / keys.size());
    std::vector<double> evalUs;
    for (const ModelKey &key : keys) {
        server::QuerySpec spec = specFor(key);
        const auto &model = *cache.acquire(spec).model;
        for (std::size_t i = 0; i < evalsPerKey; ++i) {
            model::SwParams params = drawParams(rng);
            Clock::time_point e0 = Clock::now();
            double a = model.availability(params, scratch);
            evalUs.push_back(msSince(e0) * 1e3);
            if (!(a > 0.0 && a <= 1.0))
                throw std::runtime_error("eval probe out of range");
        }
    }
    layers.set("model.eval_us", median(evalUs));

    if (workload == "exact_sweep")
        probeSimulation(layers);
    return layers;
}

// ----------------------------------------------------------------- main

struct Args
{
    std::string command;
    std::string workload;
    std::uint64_t seed = 1;
    std::size_t segment = 0;
    double seconds = 1.0;
    std::uint16_t port = 0;
    int serverPid = 0;
    std::string requestLog;
    std::string segments;
    bool perturb = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        throw std::invalid_argument("missing command");
    args.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--perturb-oracle") {
            args.perturb = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::invalid_argument(arg + " needs a value");
        std::string value = argv[++i];
        if (arg == "--workload")
            args.workload = value;
        else if (arg == "--seed")
            args.seed = std::stoull(value);
        else if (arg == "--segment")
            args.segment = std::stoul(value);
        else if (arg == "--seconds")
            args.seconds = std::stod(value);
        else if (arg == "--port")
            args.port = static_cast<std::uint16_t>(std::stoul(value));
        else if (arg == "--server-pid")
            args.serverPid = std::stoi(value);
        else if (arg == "--request-log")
            args.requestLog = value;
        else if (arg == "--segments")
            args.segments = value;
        else
            throw std::invalid_argument("unknown option " + arg);
    }
    static const char *kWorkloads[] = {"hot_query", "cold_compile",
                                       "exact_sweep"};
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads),
                  args.workload) == std::end(kWorkloads))
        throw std::invalid_argument("unknown workload '" + args.workload +
                                    "'");
    return args;
}

/** Build facts every result is stamped with. */
json::Value
stamp()
{
    json::Value doc = json::Value::makeObject();
    doc.set("nproc",
            static_cast<double>(std::thread::hardware_concurrency()));
    doc.set("client_threads", static_cast<double>(kConnections));
    doc.set("git_sha", common::gitSha());
    doc.set("build_type", PERFBENCH_BUILD_TYPE);
    doc.set("sdnav_metrics", PERFBENCH_METRICS != 0);
    return doc;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 2;
    }
    try {
        const std::string &w = args.workload;
        json::Value result;
        if (args.command == "run") {
            Segment segment;
            if (w == "hot_query" || w == "cold_compile")
                segment = runServerSegment(w, args.seed, args.segment,
                                           args.seconds, args.port,
                                           args.serverPid, args.requestLog);
            else
                segment = runExactSweep(args.seed, args.segment,
                                        args.seconds);
            result = segment.toJson();
        } else if (args.command == "check") {
            result = check(w, args.seed, args.segments, args.perturb);
            result.set("stamp", stamp());
        } else if (args.command == "probe") {
            result = json::Value::makeObject();
            result.set("layers", probe(w, args.seed));
        } else {
            std::cerr << "perfbench_harness: unknown command "
                      << args.command << "\n";
            return 2;
        }
        std::cout << result.dump() << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << e.what() << "\n";
        return 1;
    }
}
