#include "server/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "bdd/bdd.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "common/version.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"

namespace sdnav::server
{

namespace
{

/** How often blocked accept/read loops re-check the stop flag. */
constexpr int kPollMs = 100;

obs::Counter &
requestCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.requests");
    return c;
}

obs::Counter &
queryCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.queries");
    return c;
}

obs::Counter &
errorCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.errors");
    return c;
}

obs::Counter &
connectionCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.connections");
    return c;
}

obs::Histogram &
latencyHistogram()
{
    static obs::Histogram &h = obs::Registry::global().histogram(
        "server.request_latency_ms");
    return h;
}

obs::Timer &
evalTimer()
{
    static obs::Timer &t =
        obs::Registry::global().timer("server.eval");
    return t;
}

obs::Counter &
slowRequestCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.slow_requests");
    return c;
}

obs::Counter &
oversizedLineCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.oversized_lines");
    return c;
}

obs::Counter &
compileAbortCounter()
{
    static obs::Counter &c =
        obs::Registry::global().counter("server.compile_aborts");
    return c;
}

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * Write a full buffer to a socket. MSG_NOSIGNAL turns a peer that
 * vanished mid-reply into an error return instead of SIGPIPE — the
 * session just ends; the server must not.
 */
bool
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // anonymous namespace

Server::Server(const ServerOptions &options)
    : options_(options),
      cache_(options.cacheCapacity, options.resolvedWorkers())
{
    require(options.maxLineBytes >= 64,
            "max line bytes must be >= 64");
    require(options.maxBatch >= 1, "max batch must be >= 1");
    if (options.compileBudgetMs > 0.0 || options.compileNodeCap > 0) {
        cache_.setCompileBudget(bdd::StepBudget{
            options.compileBudgetMs, options.compileNodeCap});
    }
}

Server::~Server()
{
    if (started_.load()) {
        requestStop();
        wait();
    }
}

void
Server::start()
{
    require(!started_.load(), "server already started");

    // Observability endpoints come up first: if the request log or
    // the Prometheus port is unusable, fail before accepting query
    // traffic we could not account for.
    if (!options_.requestLogPath.empty())
        requestLog_.open(options_.requestLogPath);
    if (options_.promEnabled)
        promHttp_.start(options_.promPort);

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    require(listenFd_ >= 0, std::string("socket() failed: ") +
                                std::strerror(errno));

    int enable = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        std::string reason = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw ModelError("bind to 127.0.0.1:" +
                         std::to_string(options_.port) +
                         " failed: " + reason);
    }
    if (::listen(listenFd_, 64) != 0) {
        std::string reason = std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        throw ModelError("listen failed: " + reason);
    }

    socklen_t addrLen = sizeof(addr);
    require(::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&addr),
                          &addrLen) == 0,
            "getsockname failed");
    port_ = ntohs(addr.sin_port);

    startTime_ = std::chrono::steady_clock::now();
    started_.store(true);
    acceptor_ = std::thread([this] { acceptLoop(); });
}

void
Server::requestStop()
{
    stopping_.store(true, std::memory_order_release);
}

void
Server::wait()
{
    // Block until someone (signal handler, "shutdown" command, or a
    // test) asks for shutdown. The flag is also the session/acceptor
    // exit condition, so a plain poll keeps this signal-handler
    // compatible — no condvar a handler would have to notify.
    while (!stopping())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));

    bool expected = false;
    if (!joined_.compare_exchange_strong(expected, true))
        return; // another wait() already ran the join sequence

    // Each session finishes the request it is answering, writes its
    // reply and exits; joining them is the whole drain. The endpoint
    // stays up until then so a scrape can still see it.
    if (acceptor_.joinable())
        acceptor_.join();
    reapSessions(true);
    promHttp_.stop();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
Server::acceptLoop()
{
    while (!stopping()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, kPollMs);
        reapSessions(false);
        if (ready <= 0)
            continue;
        sockaddr_in peerAddr{};
        socklen_t peerLen = sizeof(peerAddr);
        int fd = ::accept(listenFd_,
                          reinterpret_cast<sockaddr *>(&peerAddr),
                          &peerLen);
        if (fd < 0)
            continue;
        connections_.fetch_add(1, std::memory_order_relaxed);
        connectionCounter().add();
        auto session = std::make_unique<Session>();
        session->fd = fd;
        char ip[INET_ADDRSTRLEN] = "?";
        ::inet_ntop(AF_INET, &peerAddr.sin_addr, ip, sizeof(ip));
        session->peer =
            std::string(ip) + ":" +
            std::to_string(ntohs(peerAddr.sin_port));
        Session *raw = session.get();
        {
            std::lock_guard<std::mutex> lock(sessionsMutex_);
            sessions_.push_back(std::move(session));
        }
        raw->thread = std::thread([this, raw] {
            sessionLoop(*raw);
            raw->done.store(true, std::memory_order_release);
        });
    }
}

void
Server::reapSessions(bool joinAll)
{
    std::lock_guard<std::mutex> lock(sessionsMutex_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
        Session &session = **it;
        if (joinAll || session.done.load(std::memory_order_acquire)) {
            if (session.thread.joinable())
                session.thread.join();
            it = sessions_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::sessionLoop(Session &session)
{
    // A blocking recv that times out every kPollMs: one syscall per
    // read, and the stop flag is still checked that often.
    timeval timeout{0, kPollMs * 1000};
    ::setsockopt(session.fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof(timeout));

    // Lines are consumed by offset and the buffer is compacted once
    // per recv, so a burst of pipelined lines costs linear time.
    std::string buffer;
    std::string line;
    std::string out; // one reply at a time; keeps its capacity
    bool discarding = false;
    char chunk[4096];

    while (!stopping()) {
        ssize_t n = ::recv(session.fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            break; // client closed (possibly mid-line: just ends)
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == EWOULDBLOCK)
                continue;
            break;
        }
        // The bytes already buffered hold no newline.
        std::size_t scanFrom = buffer.size();
        buffer.append(chunk, static_cast<std::size_t>(n));

        std::size_t start = 0;
        for (;;) {
            std::size_t pos = buffer.find('\n', std::max(start, scanFrom));
            if (pos == std::string::npos) {
                if (discarding) {
                    // Still inside an already-rejected line; keep
                    // dropping bytes until its newline arrives.
                    start = buffer.size();
                } else if (buffer.size() - start > options_.maxLineBytes) {
                    errors_.fetch_add(1, std::memory_order_relaxed);
                    errorCounter().add();
                    oversizedLineCounter().add();
                    if (!sendAll(session.fd,
                                 errorReplyLine(
                                     json::Value{},
                                     "request line exceeds " +
                                         std::to_string(
                                             options_.maxLineBytes) +
                                         " bytes") +
                                     "\n"))
                        goto done;
                    start = buffer.size();
                    discarding = true;
                }
                break;
            }
            line.assign(buffer, start, pos - start);
            start = pos + 1;
            if (discarding) {
                // This newline terminates the rejected line; the
                // next line starts clean.
                discarding = false;
                continue;
            }
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            out.clear();
            try {
                handleLine(line, session.peer, out);
            } catch (const std::exception &e) {
                // A fault in answering one line is that line's error
                // reply; the session keeps serving.
                errors_.fetch_add(1, std::memory_order_relaxed);
                errorCounter().add();
                out = errorReplyLine(json::Value{}, e.what());
            }
            out.push_back('\n');
            if (!sendAll(session.fd, out))
                goto done;
        }
        buffer.erase(0, start);
    }

done:
    ::close(session.fd);
}

void
Server::handleLine(const std::string &line, const std::string &peer,
                   std::string &out)
{
    auto t0 = std::chrono::steady_clock::now();
    std::uint64_t requestId =
        nextRequestId_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::TraceSpan request_span("server.request", requestId);
    requests_.fetch_add(1, std::memory_order_relaxed);
    requestCounter().add();

    RequestRecord record;
    record.id = requestId;
    record.peer = peer;

    // Every exit runs through here once it has written the reply
    // from `written` on: measure, flag slow requests, and append the
    // request-log line after the reply is final.
    auto finish = [&](std::chrono::steady_clock::time_point written) {
        record.serializeMs += elapsedMs(written);
        double latency = elapsedMs(t0);
        latencyHistogram().record(latency);
        if (options_.slowMs > 0.0 && latency > options_.slowMs) {
            slowRequests_.fetch_add(1, std::memory_order_relaxed);
            slowRequestCounter().add();
            obs::Tracer::global().instant("server.slow_request",
                                          requestId);
        }
        record.replyBytes = out.size();
        record.latencyMs = latency;
        requestLog_.append(record);
    };

    Request request;
    try {
        request = parseRequest(line, options_.maxBatch);
        record.parseMs = elapsedMs(t0);
    } catch (const std::exception &e) {
        record.parseMs = elapsedMs(t0);
        errors_.fetch_add(1, std::memory_order_relaxed);
        errorCounter().add();
        record.kind = "invalid";
        record.outcome = "error";
        auto written = std::chrono::steady_clock::now();
        out = errorReplyLine(json::Value{}, e.what());
        return finish(written);
    }

    // A command's reply is written right away, a query's once it ran.
    auto written = std::chrono::steady_clock::now();
    record.outcome = "ok";
    switch (request.kind) {
    case Request::Kind::Ping:
        record.kind = "cmd:ping";
        openReply(out, request.id);
        out += "\"ok\":true,\"pong\":true}";
        return finish(written);
    case Request::Kind::Stats:
        record.kind = "cmd:stats";
        openReply(out, request.id);
        out += "\"ok\":true,\"stats\":";
        statsJson().dump(out);
        out += '}';
        return finish(written);
    case Request::Kind::Metrics:
        record.kind = "cmd:metrics";
        openReply(out, request.id);
        out += "\"ok\":true,\"metrics\":";
        json::appendString(out,
                           obs::Registry::global().prometheusText());
        out += '}';
        return finish(written);
    case Request::Kind::Shutdown:
        record.kind = "cmd:shutdown";
        openReply(out, request.id);
        out += "\"ok\":true,\"stopping\":true}";
        requestStop();
        return finish(written);
    case Request::Kind::Query:
    case Request::Kind::Batch:
        break;
    }

    record.kind =
        request.kind == Request::Kind::Query ? "query" : "batch";
    // The key only names the request in the log.
    if (requestLog_.enabled()) {
        if (request.kind == Request::Kind::Batch)
            record.key = "batch";
        else if (request.queries[0].ok)
            record.key = request.queries[0].spec.modelKey();
    }

    // Fold each item's telemetry into the request-log record. A
    // label the items disagree on reads "mixed".
    bool anyError = false;
    bool anyBudgetExceeded = false;
    auto fold = [](std::string &agg, const char *label) {
        if (label[0] == '\0' || agg == "mixed")
            return;
        if (agg.empty())
            agg = label;
        else if (agg != label)
            agg = "mixed";
    };
    auto account = [&](const JobResult &result) {
        const JobTelemetry &telemetry = result.telemetry;
        record.queueWaitMs += telemetry.queueWaitMs;
        record.compileMs += telemetry.compileMs;
        record.compileMinorFaults += telemetry.compileMinorFaults;
        record.bddNodes += telemetry.bddNodes;
        record.evalNodes += telemetry.evalNodes;
        record.evalMs += telemetry.evalMs;
        record.serializeMs += telemetry.serializeMs;
        fold(record.cache, telemetry.cache);
        fold(record.variableOrder, telemetry.variableOrder);
        if (telemetry.budgetExceeded)
            anyBudgetExceeded = true;
        if (!result.ok)
            anyError = true;
    };
    auto settle = [&] {
        record.outcome = anyBudgetExceeded
                             ? "budget_exceeded"
                             : (anyError ? "error" : "ok");
    };

    if (request.kind == Request::Kind::Query) {
        JobResult result = serveQuery(request.queries[0], requestId);
        account(result);
        settle();
        written = std::chrono::steady_clock::now();
        openReply(out, request.id);
        out += result.members;
        out += '}';
        return finish(written);
    }

    // Items may run on any thread; results stay keyed by index, so
    // replies keep request order.
    std::vector<JobResult> results(request.queries.size());
    parallelFor(results.size(), options_.resolvedWorkers(), 1,
                [&](std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i)
                        results[i] =
                            serveQuery(request.queries[i], requestId);
                });
    written = std::chrono::steady_clock::now();
    openReply(out, request.id);
    out += "\"ok\":true,\"results\":[";
    for (std::size_t i = 0; i < results.size(); ++i) {
        account(results[i]);
        out += i == 0 ? "{" : ",{";
        out += results[i].members;
        out += '}';
    }
    out += "]}";
    settle();
    finish(written);
}

JobResult
Server::errorResult(const std::string &message)
{
    errors_.fetch_add(1, std::memory_order_relaxed);
    errorCounter().add();
    JobResult result;
    result.members = "\"ok\":false,\"error\":";
    json::appendString(result.members, message);
    return result;
}

JobResult
Server::serveQuery(const ParsedQuery &item, std::uint64_t requestId)
{
    if (!item.ok)
        return errorResult(item.error);
    queries_.fetch_add(1, std::memory_order_relaxed);
    queryCounter().add();
    const QuerySpec &spec = item.spec;
    JobTelemetry telemetry;
    obs::TraceSpan job_span("server.job", requestId);
    JobResult result;
    try {
        CacheLookup lookup;
        {
            obs::TraceSpan acquire_span("server.model_acquire",
                                        requestId);
            lookup = cache_.acquire(spec);
        }
        telemetry.queueWaitMs = lookup.slotWaitMs;
        if (!lookup.hit) {
            telemetry.compileMs = lookup.compileMs;
            telemetry.compileMinorFaults = lookup.compileMinorFaults;
            telemetry.bddNodes = lookup.model->bddNodeCount();
            telemetry.evalNodes = lookup.model->evalNodeCount();
            telemetry.variableOrder =
                model::variableOrderName(lookup.model->variableOrder());
        }
        telemetry.cache =
            lookup.hit ? (lookup.coalesced ? "coalesced" : "hit")
                       : "miss";
        auto t0 = std::chrono::steady_clock::now();
        double availability;
        {
            obs::TraceSpan eval_span("server.eval", requestId);
            thread_local bdd::ProbabilityScratch scratch;
            availability =
                lookup.model->availability(spec.params, scratch);
        }
        double evalMs = elapsedMs(t0);
        evalTimer().record(evalMs);
        telemetry.evalMs = evalMs;

        auto s0 = std::chrono::steady_clock::now();
        std::string &m = result.members;
        m += "\"ok\":true,\"availability\":";
        json::appendNumber(m, availability);
        m += ",\"plane\":";
        json::appendString(m, spec.planeName());
        m += ",\"model_key\":";
        json::appendString(m, spec.modelKey());
        m += ",\"cache\":";
        json::appendString(m, telemetry.cache);
        result.ok = true;
        telemetry.serializeMs = elapsedMs(s0);
    } catch (const bdd::BudgetExceeded &e) {
        // A budget abort is a per-request answer, not a session
        // failure: report what the compile had consumed and move on.
        // Coalesced waiters throw their own copy and land here too.
        compileAbortCounter().add();
        obs::Tracer::global().instant("server.budget_exceeded",
                                      requestId);
        telemetry.budgetExceeded = true;
        result = errorResult(e.what());
        std::string &m = result.members;
        m += ",\"budget_exceeded\":true,\"budget\":";
        json::appendString(m, e.budgetName());
        m += ",\"nodes_allocated\":";
        json::appendNumber(m, static_cast<double>(e.nodesAllocated()));
        m += ",\"elapsed_ms\":";
        json::appendNumber(m, e.elapsedMs());
    } catch (const std::exception &e) {
        result = errorResult(e.what());
    }
    result.telemetry = telemetry;
    return result;
}

json::Value
Server::statsJson() const
{
    double uptimeS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      startTime_)
            .count();
    std::uint64_t requests =
        requests_.load(std::memory_order_relaxed);

    json::Value stats = json::Value::makeObject();
    stats.set("uptime_seconds", uptimeS);
    stats.set("git_sha", common::gitSha());
    stats.set("qps", uptimeS > 0.0
                         ? static_cast<double>(requests) / uptimeS
                         : 0.0);
    stats.set("requests", static_cast<double>(requests));
    stats.set("slow_requests",
              static_cast<double>(
                  slowRequests_.load(std::memory_order_relaxed)));
    stats.set("queries",
              static_cast<double>(
                  queries_.load(std::memory_order_relaxed)));
    stats.set("errors",
              static_cast<double>(
                  errors_.load(std::memory_order_relaxed)));
    stats.set("connections",
              static_cast<double>(
                  connections_.load(std::memory_order_relaxed)));
    stats.set("workers",
              static_cast<double>(options_.resolvedWorkers()));

    json::Value cache = json::Value::makeObject();
    std::uint64_t hits = cache_.hits();
    std::uint64_t misses = cache_.misses();
    cache.set("hits", static_cast<double>(hits));
    cache.set("misses", static_cast<double>(misses));
    cache.set("evictions", static_cast<double>(cache_.evictions()));
    cache.set("entries", static_cast<double>(cache_.entryCount()));
    cache.set("capacity", static_cast<double>(cache_.capacity()));
    cache.set("hit_rate",
              hits + misses > 0
                  ? static_cast<double>(hits) /
                        static_cast<double>(hits + misses)
                  : 0.0);
    cache.set("bdd_nodes",
              static_cast<double>(cache_.totalBddNodes()));
    cache.set("compile_workspace_bytes",
              static_cast<double>(cache_.workspaceBytes()));
    stats.set("cache", std::move(cache));

    obs::HistogramStats latency = latencyHistogram().stats();
    json::Value latencyDoc = json::Value::makeObject();
    latencyDoc.set("count", static_cast<double>(latency.count));
    latencyDoc.set("mean_ms", latency.mean());
    latencyDoc.set("p50_ms", latency.p50);
    latencyDoc.set("p90_ms", latency.p90);
    latencyDoc.set("p99_ms", latency.p99);
    latencyDoc.set("max_ms", latency.max);
    stats.set("latency", std::move(latencyDoc));

    return stats;
}

} // namespace sdnav::server
