#include "server/protocol.hh"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "common/error.hh"
#include "fmea/openContrail.hh"
#include "prob/processAvailability.hh"

namespace sdnav::server
{

namespace
{

/** Reject unknown members so typos fail loudly, not silently. */
void
requireKnownMembers(const json::Value &doc,
                    std::initializer_list<std::string_view> allowed,
                    const char *context)
{
    for (const auto &[key, value] : doc.asObject()) {
        if (std::find(allowed.begin(), allowed.end(), key) ==
            allowed.end())
            throw ModelError(std::string(context) +
                             ": unknown member '" + key + "'");
    }
}

/** A member that must be a JSON number if present. */
double
numberMember(const json::Value &doc, const char *key, double fallback)
{
    const json::Value *value = doc.find(key);
    if (!value)
        return fallback;
    if (!value->isNumber())
        throw ModelError(std::string("member '") + key +
                         "' must be a number");
    return value->asNumber();
}

/** A member that must be a JSON string if present. */
std::string
stringMember(const json::Value &doc, const char *key,
             const char *fallback)
{
    const json::Value *value = doc.find(key);
    if (!value)
        return fallback;
    if (!value->isString())
        throw ModelError(std::string("member '") + key +
                         "' must be a string");
    return value->asString();
}

model::SwParams
parseParams(const json::Value &doc)
{
    model::SwParams params;
    if (const json::Value *found = doc.find("timings")) {
        const json::Value &timings = *found;
        require(timings.isObject(),
                "member 'timings' must be an object");
        requireKnownMembers(timings,
                            {"mtbf", "restart", "manual-restart"},
                            "timings");
        prob::ProcessTimings t;
        t.mtbfHours = numberMember(timings, "mtbf", t.mtbfHours);
        t.autoRestartHours =
            numberMember(timings, "restart", t.autoRestartHours);
        t.manualRestartHours = numberMember(timings, "manual-restart",
                                            t.manualRestartHours);
        t.validate();
        params = model::SwParams::fromTimings(t);
    }
    if (const json::Value *found = doc.find("params")) {
        const json::Value &overrides = *found;
        require(overrides.isObject(),
                "member 'params' must be an object");
        requireKnownMembers(overrides, {"a", "as", "av", "ah", "ar"},
                            "params");
        params.processAvailability = numberMember(
            overrides, "a", params.processAvailability);
        params.manualProcessAvailability = numberMember(
            overrides, "as", params.manualProcessAvailability);
        params.vmAvailability =
            numberMember(overrides, "av", params.vmAvailability);
        params.hostAvailability =
            numberMember(overrides, "ah", params.hostAvailability);
        params.rackAvailability =
            numberMember(overrides, "ar", params.rackAvailability);
    }
    params.validate();
    return params;
}

} // anonymous namespace

std::string
QuerySpec::modelKey() const
{
    std::string key;
    key.reserve(96);
    key += "catalog=";
    key += catalog;
    key += ";topology=";
    key += topology;
    key += ";nodes=";
    key += std::to_string(nodes);
    key += ";policy=";
    key += policy == model::SupervisorPolicy::Required ? "required"
                                                        : "not-required";
    key += ";plane=";
    key += planeName();
    return key;
}

std::string
QuerySpec::planeName() const
{
    return plane == fmea::Plane::DataPlane ? "dp" : "cp";
}

QuerySpec
parseQuerySpec(const json::Value &doc, bool inBatch)
{
    require(doc.isObject(), "query must be a JSON object");
    if (inBatch) {
        requireKnownMembers(doc,
                            {"catalog", "topology", "nodes", "policy",
                             "plane", "timings", "params"},
                            "batch query");
    } else {
        requireKnownMembers(doc,
                            {"id", "catalog", "topology", "nodes",
                             "policy", "plane", "timings", "params"},
                            "query");
    }

    // Messages are built only on the branch that throws: a valid
    // line pays for none of them.
    QuerySpec spec;
    spec.catalog = stringMember(doc, "catalog", "opencontrail");
    if (spec.catalog != "opencontrail" && spec.catalog != "raft" &&
        spec.catalog != "fragile")
        throw ModelError("unknown catalog '" + spec.catalog +
                         "' (expected opencontrail | raft | fragile)");

    spec.topology = stringMember(doc, "topology", "large");
    if (spec.topology != "small" && spec.topology != "medium" &&
        spec.topology != "large")
        throw ModelError("unknown topology '" + spec.topology +
                         "' (expected small | medium | large)");

    double nodes =
        numberMember(doc, "nodes", static_cast<double>(spec.nodes));
    if (!(nodes == std::floor(nodes) && nodes >= 1.0 &&
          nodes <= static_cast<double>(kMaxClusterNodes)))
        throw ModelError("member 'nodes' must be an integer in [1, " +
                         std::to_string(kMaxClusterNodes) + "]");
    spec.nodes = static_cast<std::size_t>(nodes);

    std::string policy = stringMember(doc, "policy", "required");
    if (policy == "required") {
        spec.policy = model::SupervisorPolicy::Required;
    } else if (policy == "not-required") {
        spec.policy = model::SupervisorPolicy::NotRequired;
    } else {
        throw ModelError("unknown policy '" + policy +
                         "' (expected required | not-required)");
    }

    std::string plane = stringMember(doc, "plane", "cp");
    if (plane == "cp") {
        spec.plane = fmea::Plane::ControlPlane;
    } else if (plane == "dp") {
        spec.plane = fmea::Plane::DataPlane;
    } else {
        throw ModelError("unknown plane '" + plane +
                         "' (expected cp | dp)");
    }

    spec.params = parseParams(doc);
    return spec;
}

Request
parseRequest(const std::string &line, std::size_t maxBatch)
{
    json::Value doc = json::parse(line);
    require(doc.isObject(), "request must be a JSON object");

    Request request;
    if (const json::Value *id = doc.find("id"))
        request.id = *id;

    if (const json::Value *found = doc.find("cmd")) {
        requireKnownMembers(doc, {"cmd", "id"}, "command");
        const json::Value &cmd = *found;
        require(cmd.isString(), "member 'cmd' must be a string");
        const std::string &name = cmd.asString();
        if (name == "ping") {
            request.kind = Request::Kind::Ping;
        } else if (name == "stats") {
            request.kind = Request::Kind::Stats;
        } else if (name == "metrics") {
            request.kind = Request::Kind::Metrics;
        } else if (name == "shutdown") {
            request.kind = Request::Kind::Shutdown;
        } else {
            throw ModelError(
                "unknown command '" + name +
                "' (expected ping | stats | metrics | shutdown)");
        }
        return request;
    }

    if (const json::Value *found = doc.find("queries")) {
        requireKnownMembers(doc, {"queries", "id"}, "batch");
        const json::Value &items = *found;
        require(items.isArray(),
                "member 'queries' must be an array");
        require(!items.asArray().empty(),
                "batch must contain at least one query");
        if (items.asArray().size() > maxBatch)
            throw ModelError("batch of " +
                             std::to_string(items.asArray().size()) +
                             " exceeds the limit of " +
                             std::to_string(maxBatch));
        request.kind = Request::Kind::Batch;
        for (const json::Value &item : items.asArray()) {
            ParsedQuery parsed;
            try {
                parsed.spec = parseQuerySpec(item, true);
                parsed.ok = true;
            } catch (const std::exception &e) {
                parsed.error = e.what();
            }
            request.queries.push_back(std::move(parsed));
        }
        return request;
    }

    // A single query that fails validation still yields a Request so
    // the caller can echo the id in the error reply.
    request.kind = Request::Kind::Query;
    ParsedQuery parsed;
    try {
        parsed.spec = parseQuerySpec(doc, false);
        parsed.ok = true;
    } catch (const std::exception &e) {
        parsed.error = e.what();
    }
    request.queries.push_back(std::move(parsed));
    return request;
}

void
openReply(std::string &out, const json::Value &id)
{
    out += '{';
    if (id.isNull())
        return;
    out += "\"id\":";
    id.dump(out);
    out += ',';
}

std::string
errorReplyLine(const json::Value &id, const std::string &reason)
{
    std::string out;
    openReply(out, id);
    out += "\"ok\":false,\"error\":";
    json::appendString(out, reason);
    out += '}';
    return out;
}

fmea::ControllerCatalog
resolveCatalog(const QuerySpec &spec)
{
    if (spec.catalog == "raft")
        return fmea::raftStyleController();
    if (spec.catalog == "fragile")
        return fmea::fragileController();
    return fmea::openContrail3();
}

topology::DeploymentTopology
resolveTopology(const QuerySpec &spec, std::size_t roleCount)
{
    if (spec.topology == "small")
        return topology::smallTopology(roleCount, spec.nodes);
    if (spec.topology == "medium")
        return topology::mediumTopology(roleCount, spec.nodes);
    return topology::largeTopology(roleCount, spec.nodes);
}

} // namespace sdnav::server
