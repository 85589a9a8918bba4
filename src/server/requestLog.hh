/**
 * @file
 * Per-request JSONL log for sdnavd (`--request-log FILE`).
 *
 * Metrics aggregate and the trace samples; the request log is the
 * ground truth in between — exactly one line per request, written
 * after the reply is assembled, so an operator can answer "what did
 * request 4711 cost, and where?" without correlating counters. One
 * record:
 *
 *   {"id": 4711, "peer": "127.0.0.1:52114", "kind": "query",
 *    "key": "catalog=opencontrail;topology=large;nodes=3;...",
 *    "cache": "hit" | "miss" | "coalesced" | "mixed" | "",
 *    "parse_ms": 0.004, "queue_wait_ms": 0.01, "compile_ms": 0.0,
 *    "compile_minor_faults": 0,
 *    "variable_order": "role_major" | "node_major" | "sif" | "mixed"
 *                      | "",
 *    "bdd_nodes": 0, "eval_nodes": 0,
 *    "eval_ms": 0.02, "serialize_ms": 0.001, "reply_bytes": 213,
 *    "latency_ms": 0.21, "outcome": "ok" | "error" | "budget_exceeded"}
 *
 * parse_ms is the parseRequest call (JSON parse and validation) and
 * serialize_ms the writing of the reply text, so a request's stages
 * read parse, queue wait, compile, eval, serialize; latency_ms less
 * their sum is what the session spent around them (spans, counters,
 * the log itself). Both are wall times on the session thread, except
 * that a batch sums its items' serialize times across the threads
 * that ran them.
 *
 * compile_minor_faults counts the minor page faults the compiling
 * thread took inside its compile (getrusage RUSAGE_THREAD read around
 * it), so a miss line shows what its compile cost in fresh memory as
 * well as in time. Hits and coalesced waits compile nothing and read 0.
 *
 * variable_order names the BDD variable order a miss compiled its
 * model under (model::chooseVariableOrder picks it from the model's
 * shape), so a slow or large compile can be told apart from a badly
 * ordered one. Hits, coalesced waits and failed compiles read "";
 * a batch whose compiles used different orders reads "mixed".
 *
 * bdd_nodes and eval_nodes size what a miss compiled: the BDD's
 * reachable nodes, and the nodes each evaluation of the model
 * computes once its diagram is folded over the five component
 * classes (model::ExactPlaneModel). eval_nodes is at most bdd_nodes;
 * their ratio is the fold's saving per evaluation. Hits and
 * coalesced waits read 0 for both, and a batch sums its misses.
 *
 * A record is written as text by the reply writers' codec
 * (json::appendString / appendNumber), one line per request. Writes
 * take one mutex and flush per record (a crashed server keeps its
 * log).
 */

#ifndef SDNAV_SERVER_REQUEST_LOG_HH
#define SDNAV_SERVER_REQUEST_LOG_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>

namespace sdnav::server
{

/** Everything one request-log line records. */
struct RequestRecord
{
    /** Monotonic per-process request id (also in the trace spans). */
    std::uint64_t id = 0;

    /** Client address, "ip:port". */
    std::string peer;

    /** "query", "batch", or "cmd:<name>"; "invalid" on parse fail. */
    std::string kind;

    /** Model key for queries; empty for commands. */
    std::string key;

    /** Aggregate cache outcome; "mixed" when batch items disagree. */
    std::string cache;

    /** The parseRequest call, failed parses included. */
    double parseMs = 0.0;

    /** Summed over batch items; zero for commands. */
    double queueWaitMs = 0.0;
    double compileMs = 0.0;
    double evalMs = 0.0;

    /** Writing the reply text: each item's answer members (summed
     *  over batch items) plus the envelope around them. */
    double serializeMs = 0.0;

    /** Minor page faults the compiling threads took; summed like
     *  compileMs, so 0 on hits and coalesced waits. */
    std::uint64_t compileMinorFaults = 0;

    /** Variable order of the compiled models; "mixed" when batch
     *  items disagree, empty when nothing compiled. */
    std::string variableOrder;

    /** Reachable BDD nodes of the models this request compiled, and
     *  the nodes their evaluation computes once folded over the
     *  component classes; summed like compileMs, so 0 on hits. */
    std::uint64_t bddNodes = 0;
    std::uint64_t evalNodes = 0;

    /** Size of the reply line (without the newline). */
    std::size_t replyBytes = 0;

    /** Wall time from first parse to assembled reply. */
    double latencyMs = 0.0;

    /** "ok", "error", or "budget_exceeded". */
    std::string outcome;
};

class RequestLog
{
  public:
    RequestLog() = default;
    RequestLog(const RequestLog &) = delete;
    RequestLog &operator=(const RequestLog &) = delete;

    /**
     * Open (append) the log file; records flow after this. @throws
     * ModelError when the path is not writable.
     */
    void open(const std::string &path);

    /** True once open() succeeded. */
    bool enabled() const { return enabled_; }

    /** Write one record as a line and flush it (no-op until
     *  open()). */
    void append(const RequestRecord &record);

  private:
    std::mutex mutex_;
    std::ofstream out_;
    bool enabled_ = false;
};

} // namespace sdnav::server

#endif // SDNAV_SERVER_REQUEST_LOG_HH
