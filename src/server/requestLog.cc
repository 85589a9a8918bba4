#include "server/requestLog.hh"

#include "common/error.hh"
#include "common/json.hh"

namespace sdnav::server
{

void
RequestLog::open(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    out_.open(path, std::ios::out | std::ios::app);
    require(out_.is_open(),
            "cannot open request log '" + path + "' for append");
    enabled_ = true;
}

void
RequestLog::append(const RequestRecord &record)
{
    if (!enabled_)
        return;
    // Written as text by the reply writers' codec, which escapes the
    // strings (peer and key are server-generated, but outcome-adjacent
    // errors may not be).
    std::string line;
    line.reserve(384);
    auto member = [&line](const char *name) {
        line += line.empty() ? "{\"" : ",\"";
        line += name;
        line += "\":";
    };
    auto string = [&](const char *name, const std::string &value) {
        member(name);
        json::appendString(line, value);
    };
    auto number = [&](const char *name, double value) {
        member(name);
        json::appendNumber(line, value);
    };
    number("id", static_cast<double>(record.id));
    string("peer", record.peer);
    string("kind", record.kind);
    string("key", record.key);
    string("cache", record.cache);
    number("parse_ms", record.parseMs);
    number("queue_wait_ms", record.queueWaitMs);
    number("compile_ms", record.compileMs);
    number("compile_minor_faults",
           static_cast<double>(record.compileMinorFaults));
    string("variable_order", record.variableOrder);
    number("bdd_nodes", static_cast<double>(record.bddNodes));
    number("eval_nodes", static_cast<double>(record.evalNodes));
    number("eval_ms", record.evalMs);
    number("serialize_ms", record.serializeMs);
    number("reply_bytes", static_cast<double>(record.replyBytes));
    number("latency_ms", record.latencyMs);
    string("outcome", record.outcome);
    line += "}\n";

    std::lock_guard<std::mutex> lock(mutex_);
    out_ << line;
    // One flush per record: the log must survive a crashed or killed
    // server, which is exactly when it is needed.
    out_.flush();
}

} // namespace sdnav::server
