/**
 * @file
 * The sdnavd wire protocol: newline-delimited JSON requests.
 *
 * One request per line, one reply line per request. A request is
 * either a command or an availability query:
 *
 *   {"cmd": "ping" | "stats" | "metrics" | "shutdown", "id": <any>}
 *
 *   {"id": <any>,
 *    "catalog": "opencontrail" | "raft" | "fragile",
 *    "topology": "small" | "medium" | "large",
 *    "nodes": 3,
 *    "policy": "required" | "not-required",
 *    "plane": "cp" | "dp",
 *    "timings": {"mtbf": H, "restart": H, "manual-restart": H},
 *    "params": {"a": A, "as": A, "av": A, "ah": A, "ar": A}}
 *
 *   {"id": <any>, "queries": [<query object without id>, ...]}
 *
 * Every query field is optional (paper defaults apply). "timings"
 * derives the process availabilities from MTBF/restart hours
 * (A = F/(F+R), the operator's MTTR knob); "params" then overrides
 * individual availabilities. The "id" is echoed verbatim in the
 * reply so clients can pipeline.
 *
 * The cache key deliberately excludes the parameters: the compiled
 * structure function depends only on (catalog, topology, nodes,
 * policy, plane), so one cached model answers every parameter
 * variation with a linear-time evaluation (see server::ModelCache).
 *
 * Parsing is strict — unknown members, non-integral node counts, and
 * out-of-range availabilities are rejected with a reason — and
 * always failure-isolated: a malformed line yields an error *reply*,
 * never a dead session (see server::Server).
 */

#ifndef SDNAV_SERVER_PROTOCOL_HH
#define SDNAV_SERVER_PROTOCOL_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hh"
#include "fmea/catalog.hh"
#include "model/params.hh"
#include "topology/deployment.hh"

namespace sdnav::server
{

/** Largest accepted cluster size (bounds worst-case compile cost). */
inline constexpr std::size_t kMaxClusterNodes = 63;

/** One fully validated availability query. */
struct QuerySpec
{
    std::string catalog = "opencontrail";
    std::string topology = "large";
    std::size_t nodes = 3;
    model::SupervisorPolicy policy = model::SupervisorPolicy::Required;
    fmea::Plane plane = fmea::Plane::ControlPlane;
    model::SwParams params{};

    /**
     * Canonical compiled-model cache key. Parameters are excluded on
     * purpose: evaluation-time inputs must not fragment the cache.
     */
    std::string modelKey() const;

    /** "cp" or "dp". */
    std::string planeName() const;
};

/** A batch item: either a validated spec or its rejection reason. */
struct ParsedQuery
{
    bool ok = false;
    QuerySpec spec{};
    std::string error;
};

/** A parsed request line. */
struct Request
{
    enum class Kind { Query, Batch, Stats, Metrics, Ping, Shutdown };

    Kind kind = Kind::Query;

    /** Echoed back verbatim; null when the request had no id. */
    json::Value id{};

    /** One entry for Kind::Query, many for Kind::Batch. */
    std::vector<ParsedQuery> queries;
};

/**
 * Parse and validate one request line.
 *
 * Batch items fail individually (a bad item becomes a per-item error
 * in the reply, the rest still run); everything else — malformed
 * JSON, unknown members, a non-object document, an oversized batch —
 * throws ModelError describing the problem, which the server turns
 * into an error reply for this line only.
 *
 * @param line The request line (without the trailing newline).
 * @param maxBatch Largest accepted "queries" array.
 */
Request parseRequest(const std::string &line, std::size_t maxBatch);

/** Parse one query object (no "id" member allowed when inBatch). */
QuerySpec parseQuerySpec(const json::Value &doc, bool inBatch);

/**
 * Start a reply line in out: "{" and, when the request had an id,
 * the echoed "id" member and its comma. The caller appends the other
 * members and the closing "}"; every reply line starts here.
 */
void openReply(std::string &out, const json::Value &id);

/**
 * Build the reply line (no trailing newline) for a failed request.
 *
 * @param id Echoed request id (null for unidentifiable requests).
 * @param reason Human-readable failure description.
 */
std::string errorReplyLine(const json::Value &id,
                           const std::string &reason);

/** Resolve the built-in catalog a validated spec names. */
fmea::ControllerCatalog resolveCatalog(const QuerySpec &spec);

/** Resolve the reference topology a validated spec names. */
topology::DeploymentTopology resolveTopology(const QuerySpec &spec,
                                             std::size_t roleCount);

} // namespace sdnav::server

#endif // SDNAV_SERVER_PROTOCOL_HH
