/**
 * @file
 * sdnavd — the long-running availability-query server.
 *
 * Operators sweep what-if questions ("availability of catalog X on
 * topology Y with MTTR Z?") interactively; answering each one from a
 * fresh process pays a full BDD compilation per question. This
 * server keeps the compiled models hot: requests arrive as
 * newline-delimited JSON over a TCP socket (see server/protocol.hh),
 * a size-bounded LRU cache (server/ModelCache) compiles each
 * distinct (catalog, topology, nodes, policy, plane) once, and every
 * repeat query is one forward pass over the model's frozen diagram,
 * against per-thread scratch buffers: about 1 us for OpenContrail
 * Large x3 CP (478 role-major nodes; 4-core x86-64 VM).
 *
 * Architecture (one thread each unless noted):
 *
 *   acceptor ── accepts connections, reaps finished sessions
 *   session (per connection) ── reads lines, parses requests, answers
 *     each query itself through ModelCache::acquire(), writes reply
 *     lines in request order; a "queries" batch runs its items on
 *     parallelFor (common/parallel.hh) with up to `workers` threads
 *
 * So a hit costs no thread handoff, and the cache's compile slots,
 * not a thread count, bound how many compiles run at once (at most
 * `workers`). A session answers one line before it reads the next,
 * so a client that pipelines faster than it is answered stalls in
 * TCP flow control instead of growing server memory.
 *
 * Failure isolation: a malformed, oversized, or invalid request
 * yields a JSON error reply on that connection and nothing else —
 * other sessions are untouched; a mid-line disconnect just ends
 * that session.
 *
 * Graceful shutdown (SIGINT in sdnavd, or the "shutdown" command):
 * stop accepting, let each session finish the request it is
 * answering, then join the acceptor and every session.
 */

#ifndef SDNAV_SERVER_SERVER_HH
#define SDNAV_SERVER_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/parallel.hh"
#include "server/modelCache.hh"
#include "server/promHttp.hh"
#include "server/protocol.hh"
#include "server/requestLog.hh"

namespace sdnav::server
{

/** Server configuration. */
struct ServerOptions
{
    /** Listen port; 0 picks an ephemeral port (see Server::port()). */
    std::uint16_t port = 0;

    /**
     * Most compiles running at once, and the threads that run one
     * "queries" batch; 0 = hardware concurrency.
     */
    std::size_t workers = 0;

    /** Compiled-model LRU capacity, in models. */
    std::size_t cacheCapacity = 16;

    /** Largest accepted request line, in bytes. */
    std::size_t maxLineBytes = 1 << 20;

    /** Largest accepted "queries" batch. */
    std::size_t maxBatch = 256;

    /** JSONL per-request log path; empty = no request log. */
    std::string requestLogPath;

    /**
     * Slow-request threshold in milliseconds; a request slower than
     * this bumps server.slow_requests and drops an instant trace
     * event. 0 disables the check.
     */
    double slowMs = 0.0;

    /** Serve Prometheus exposition over HTTP when true. */
    bool promEnabled = false;

    /** Prometheus endpoint port; 0 picks an ephemeral port. */
    std::uint16_t promPort = 0;

    /**
     * Per-query compile budget: wall deadline in milliseconds and
     * BDD node cap (0 = unlimited). A compile that exceeds
     * either returns a budget_exceeded error reply for that request;
     * the session and the cache stay healthy. Enforcement is plain
     * control flow, independent of the obs metrics.
     */
    double compileBudgetMs = 0.0;
    std::size_t compileNodeCap = 0;

    /** `workers`, or one per hardware thread when 0. */
    std::size_t resolvedWorkers() const { return resolveThreads(workers); }
};

/** Where one query's time went, reported back with its reply. */
struct JobTelemetry
{
    /**
     * Wait for a compile slot (the request log's queue_wait_ms); 0 on
     * a hit or a coalesced wait.
     */
    double queueWaitMs = 0.0;

    /** Compile wall time when this job compiled; 0 on a hit. */
    double compileMs = 0.0;

    /** Minor page faults of this job's compile; 0 on a hit. */
    std::uint64_t compileMinorFaults = 0;

    /** The compiled model's reachable BDD nodes and class-folded
     *  evaluation nodes when this job compiled; 0 on a hit. */
    std::uint64_t bddNodes = 0;
    std::uint64_t evalNodes = 0;

    /** Model evaluation wall time. */
    double evalMs = 0.0;

    /** Wall time writing this query's answer members. */
    double serializeMs = 0.0;

    /** "hit", "miss", or "coalesced" (empty if the query failed). */
    const char *cache = "";

    /** The compiled model's variable order (model::variableOrderName)
     *  when this job compiled; empty otherwise. */
    const char *variableOrder = "";

    /** True when the compile hit its StepBudget. */
    bool budgetExceeded = false;
};

/** One query's answer: its reply members plus its telemetry. */
struct JobResult
{
    /**
     * The answer's members as JSON text without the braces, e.g.
     * `"ok":true,"availability":0.99,...`; the caller wraps them in
     * the single-query or the batch-item object.
     */
    std::string members;

    /** The value of the "ok" member. */
    bool ok = false;

    JobTelemetry telemetry;
};

class Server
{
  public:
    explicit Server(const ServerOptions &options);

    /** Stops and joins if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and spawn the acceptor thread.
     * @throws ModelError when the socket cannot be bound.
     */
    void start();

    /** The bound port (the chosen one when options.port was 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Begin graceful shutdown; returns immediately. Safe to call
     * from any thread, from a session handling the "shutdown"
     * command, and more than once.
     */
    void requestStop();

    /** Block until shutdown completes and every thread is joined. */
    void wait();

    /** True once requestStop() has been called. */
    bool
    stopping() const
    {
        return stopping_.load(std::memory_order_acquire);
    }

    /** The compiled-model cache (stats and tests). */
    const ModelCache &cache() const { return cache_; }

    /** The "stats" command payload. */
    json::Value statsJson() const;

    /**
     * The Prometheus endpoint's bound port; 0 unless options enabled
     * it and start() has run.
     */
    std::uint16_t promPort() const { return promHttp_.port(); }

    /** Requests slower than options.slowMs so far. */
    std::uint64_t
    slowRequests() const
    {
        return slowRequests_.load(std::memory_order_relaxed);
    }

  private:
    struct Session
    {
        int fd = -1;

        /** Client address, "ip:port" (request-log attribution). */
        std::string peer;

        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop();
    void sessionLoop(Session &session);

    /**
     * Handle one request line: append its reply line (without the
     * newline) to out, which the caller passes in empty.
     */
    void handleLine(const std::string &line, const std::string &peer,
                    std::string &out);

    /** Count an error and write its "ok":false members. */
    JobResult errorResult(const std::string &message);

    /**
     * Answer one query item on the calling thread and write its
     * reply members; every query answer is written here. A parse error
     * gets its error reply; any other item is counted, its model
     * acquired (and maybe compiled), and evaluated. Never throws, so
     * a batch item cannot abort its parallelFor.
     */
    JobResult serveQuery(const ParsedQuery &item,
                         std::uint64_t requestId);

    /** Reap finished session threads (acceptor housekeeping). */
    void reapSessions(bool joinAll);

    ServerOptions options_;
    ModelCache cache_;

    int listenFd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> joined_{false};
    std::chrono::steady_clock::time_point startTime_{};

    std::thread acceptor_;
    std::mutex sessionsMutex_;
    std::list<std::unique_ptr<Session>> sessions_;

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> queries_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> connections_{0};
    std::atomic<std::uint64_t> slowRequests_{0};

    /** Source of the monotonic per-request ids. */
    std::atomic<std::uint64_t> nextRequestId_{0};

    RequestLog requestLog_;
    PromHttpServer promHttp_;
};

} // namespace sdnav::server

#endif // SDNAV_SERVER_SERVER_HH
