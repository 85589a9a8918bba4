/**
 * @file
 * bench_server — the availability-query server's reason to exist,
 * measured: a cache-hit query answers >= 50x faster than a cold
 * compile of the same model (a 21-node Raft cluster on the Large
 * reference topology, tens of milliseconds to compile), through the
 * real socket protocol end to end.
 *
 * The report runs two phases against live servers:
 *
 *   cold   a capacity-1 cache alternating two model keys of about the
 *          same compile cost, so every Raft/Large/21 query
 *          re-compiles;
 *   hot    a primed cache serving the same query repeatedly.
 *
 * and then a sustained throughput curve at 1, 2, 4 and 8 concurrent
 * connections on the golden-config key, OpenContrail on the Large
 * topology (server.qps_c1 ... server.qps_c8, with the hardware
 * concurrency recorded beside them). The
 * speedup is *asserted* (require >= 50x): if caching ever stops
 * paying for itself, this bench fails rather than quietly recording
 * a regression. Hit rate and latency percentiles come from the
 * src/obs metrics snapshot (server.cache_* counters and the
 * server.request_latency_ms histogram), which writeBenchJson embeds
 * in BENCH_server.json for the CI perf gate.
 */

#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/benchCommon.hh"
#include "server/lineClient.hh"
#include "server/modelCache.hh"
#include "server/server.hh"

namespace
{

using namespace sdnav;

/** A query line for a model key on the Large topology. */
std::string
largeQuery(double id, const char *catalog, int nodes,
           const char *policy = "required")
{
    json::Value doc = json::Value::makeObject();
    doc.set("id", id);
    doc.set("catalog", catalog);
    doc.set("topology", "large");
    doc.set("nodes", nodes);
    doc.set("policy", policy);
    return doc.dump();
}

/** The golden-config query: OpenContrail, Large topology, 3 nodes.
 *  It compiles in well under a millisecond. */
std::string
targetQuery(double id)
{
    return largeQuery(id, "opencontrail", 3);
}

/** The timed cold key: Raft, 21 nodes, about 166k BDD nodes. */
std::string
coldQuery(double id)
{
    return largeQuery(id, "raft", 21);
}

/**
 * A different model key to evict the cold key from a capacity-1
 * cache: the same cluster without the supervisor requirement, a
 * distinct key of comparable compile cost.
 */
std::string
evictorQuery(double id)
{
    return largeQuery(id, "raft", 21, "not-required");
}

/** Connection counts of the sustained-throughput scaling curve. */
constexpr int kScalingConnections[] = {1, 2, 4, 8};

double
timedRequestMs(server::LineClient &client, const std::string &line)
{
    auto t0 = std::chrono::steady_clock::now();
    client.sendLine(line);
    std::string reply = client.recvLine();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    json::Value doc = json::parse(reply);
    require(doc.at("ok").asBool(),
            "bench query failed: " + reply);
    return ms;
}

void
printReport()
{
    bench::section(
        "Availability-query server: cold compile vs cache hit");

    constexpr int kColdRounds = 8;
    constexpr int kHotRounds = 200;

    // Cold phase: capacity 1, and every cold-key query preceded by a
    // different-key query, so the cold key is always evicted and must
    // recompile — the per-query price a cacheless server would pay.
    double coldTotalMs = 0.0;
    {
        server::ServerOptions options;
        options.cacheCapacity = 1;
        server::Server srv(options);
        srv.start();
        server::LineClient client;
        client.connect(srv.port());
        for (int i = 0; i < kColdRounds; ++i) {
            timedRequestMs(client, evictorQuery(1000.0 + i));
            coldTotalMs += timedRequestMs(client, coldQuery(i));
        }
        client.close();
        srv.requestStop();
        srv.wait();
    }
    double coldMeanMs = coldTotalMs / kColdRounds;

    // Hot phase: a fresh server, one priming miss, then the cold
    // phase's model key over and over — the steady state an
    // interactive sweep session lives in.
    double hotTotalMs = 0.0;
    double hitRate = 0.0;
    double p99Ms = 0.0;
    std::vector<double> qps; // per entry of kScalingConnections
    {
        obs::Registry::global().reset();
        server::ServerOptions options;
        server::Server srv(options);
        srv.start();
        server::LineClient client;
        client.connect(srv.port());
        timedRequestMs(client, coldQuery(-1.0)); // prime the cache
        for (int i = 0; i < kHotRounds; ++i)
            hotTotalMs += timedRequestMs(client, coldQuery(i));
        timedRequestMs(client, targetQuery(-1.0));

        // Sustained throughput: 1, 2, 4 and 8 connections hammering
        // the golden-config key concurrently. Hits are served on the
        // session threads, so this curve is the session layer's
        // scaling.
        constexpr int kPerConnection = 200;
        for (int connections : kScalingConnections) {
            auto t0 = std::chrono::steady_clock::now();
            std::vector<std::thread> threads;
            for (int c = 0; c < connections; ++c)
                threads.emplace_back([&srv, c] {
                    server::LineClient worker;
                    worker.connect(srv.port());
                    for (int i = 0; i < kPerConnection; ++i)
                        timedRequestMs(worker,
                                       targetQuery(c * 1000.0 + i));
                });
            for (std::thread &thread : threads)
                thread.join();
            double wallS = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
            qps.push_back(
                static_cast<double>(connections * kPerConnection) /
                wallS);
        }

        // Hit rate and p99 from the obs metrics, the same counters
        // the `stats` command serves.
        const server::ModelCache &cache = srv.cache();
        hitRate = static_cast<double>(cache.hits()) /
                  static_cast<double>(cache.hits() + cache.misses());
        p99Ms = obs::Registry::global()
                    .histogram("server.request_latency_ms")
                    .quantile(0.99);

        client.close();
        srv.requestStop();
        srv.wait();
    }
    double hotMeanMs = hotTotalMs / kHotRounds;
    double speedup = coldMeanMs / hotMeanMs;

    bench::recordValue("server.cold_mean_ms", coldMeanMs);
    bench::recordValue("server.hit_mean_ms", hotMeanMs);
    bench::recordValue("server.hit_speedup", speedup);
    bench::recordValue("server.hit_p99_ms", p99Ms);
    bench::recordValue("server.hit_rate", hitRate);
    std::ostringstream curve;
    for (std::size_t i = 0; i < qps.size(); ++i) {
        std::string c = std::to_string(kScalingConnections[i]);
        bench::recordValue("server.qps_c" + c, qps[i]);
        curve << (i > 0 ? ", " : "") << c << "c "
              << formatFixed(qps[i], 0);
    }
    bench::recordValue(
        "server.hardware_concurrency",
        static_cast<double>(std::thread::hardware_concurrency()));

    // The tentpole claim, asserted end to end through the socket.
    require(speedup >= 50.0,
            "cache-hit speedup " + formatGeneral(speedup, 4) +
                "x fell below the required 50x");
    std::cout << "[server] cache-hit speedup "
              << formatFixed(speedup, 1) << "x (cold "
              << formatFixed(coldMeanMs, 2) << " ms -> hit "
              << formatFixed(hotMeanMs, 3) << " ms), hit rate "
              << formatFixed(hitRate, 4) << ", p99 "
              << formatFixed(p99Ms, 3) << " ms, sustained req/s "
              << curve.str() << " (hardware concurrency "
              << std::thread::hardware_concurrency() << ")\n";
}

/** Microbenchmark: request-line parse + validation alone. */
void
benchParseRequest(benchmark::State &state)
{
    std::string line = targetQuery(1.0);
    for (auto _ : state) {
        auto request = server::parseRequest(line, 256);
        benchmark::DoNotOptimize(request);
    }
}
BENCHMARK(benchParseRequest);

/** Microbenchmark: a cache hit plus one availability evaluation. */
void
benchCacheHitEvaluate(benchmark::State &state)
{
    server::ModelCache cache(4);
    server::QuerySpec spec; // defaults = OpenContrail Large x3
    cache.acquire(spec);    // prime
    bdd::ProbabilityScratch scratch;
    for (auto _ : state) {
        server::CacheLookup lookup = cache.acquire(spec);
        double a =
            lookup.model->availability(spec.params, scratch);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchCacheHitEvaluate);

} // anonymous namespace

int
main(int argc, char **argv)
{
    return sdnav::bench::benchMain("server", printReport, argc, argv);
}
