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
    // json::Value handles the string escaping (peer and key are
    // server-generated, but outcome-adjacent errors may not be).
    json::Value doc = json::Value::makeObject();
    doc.set("id", static_cast<double>(record.id));
    doc.set("peer", record.peer);
    doc.set("kind", record.kind);
    doc.set("key", record.key);
    doc.set("cache", record.cache);
    doc.set("parse_ms", record.parseMs);
    doc.set("queue_wait_ms", record.queueWaitMs);
    doc.set("compile_ms", record.compileMs);
    doc.set("compile_minor_faults",
            static_cast<double>(record.compileMinorFaults));
    doc.set("variable_order", record.variableOrder);
    doc.set("eval_ms", record.evalMs);
    doc.set("serialize_ms", record.serializeMs);
    doc.set("reply_bytes", static_cast<double>(record.replyBytes));
    doc.set("latency_ms", record.latencyMs);
    doc.set("outcome", record.outcome);
    std::string line = doc.dump();

    std::lock_guard<std::mutex> lock(mutex_);
    out_ << line << '\n';
    // One flush per record: the log must survive a crashed or killed
    // server, which is exactly when it is needed.
    out_.flush();
}

} // namespace sdnav::server
