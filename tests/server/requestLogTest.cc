/**
 * @file
 * Tests for the request log's record writer.
 */

#include "server/requestLog.hh"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

namespace
{

using namespace sdnav::server;

/** Append the records to a fresh log and read the file back. */
std::string
written(std::initializer_list<RequestRecord> records)
{
    std::string path = testing::TempDir() + "/sdnav_record_bytes_" +
                       std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());
    {
        RequestLog log;
        log.open(path);
        for (const RequestRecord &record : records)
            log.append(record);
    }
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

TEST(RequestLog, RecordsKeepTheirBytes)
{
    RequestRecord miss;
    miss.id = 4711;
    miss.peer = "127.0.0.1:52114";
    miss.kind = "query";
    miss.key = "catalog=raft;topology=large;nodes=21;policy=required;"
               "plane=cp";
    miss.cache = "miss";
    miss.parseMs = 0.0041;
    miss.queueWaitMs = 0.0;
    miss.compileMs = 31.25;
    miss.evalMs = 0.0973;
    miss.serializeMs = 1.5e-3;
    miss.compileMinorFaults = 2504;
    miss.variableOrder = "node_major";
    miss.bddNodes = 163137;
    miss.evalNodes = 111095;
    miss.replyBytes = 213;
    miss.latencyMs = 31.4159265358979;
    miss.outcome = "ok";

    // Strings that need escaping, a large id and values that take the
    // floating path.
    RequestRecord odd;
    odd.id = 123456789012345678u;
    odd.peer = "[::1]:7";
    odd.kind = "invalid";
    odd.key = "a\"b\\c\n\x01\xc3\xa9";
    odd.parseMs = 1e-7;
    odd.compileMs = 2.0 / 3.0;
    odd.evalMs = 1e300;
    odd.latencyMs = 0.1 + 0.2;
    odd.outcome = "error";

    // The bytes the tree-building writer (json::Value::dump) wrote.
    EXPECT_EQ(
        written({miss, odd, RequestRecord{}}),
        R"({"id":4711,"peer":"127.0.0.1:52114","kind":"query","key":"catalog=raft;topology=large;nodes=21;policy=required;plane=cp","cache":"miss","parse_ms":0.0041,"queue_wait_ms":0,"compile_ms":31.25,"compile_minor_faults":2504,"variable_order":"node_major","bdd_nodes":163137,"eval_nodes":111095,"eval_ms":0.0973,"serialize_ms":0.0015,"reply_bytes":213,"latency_ms":31.4159265358979,"outcome":"ok"})"
        "\n"
        R"({"id":1.2345678901234568e+17,"peer":"[::1]:7","kind":"invalid","key":"a\"b\\c\n\u0001é","cache":"","parse_ms":1e-07,"queue_wait_ms":0,"compile_ms":0.6666666666666666,"compile_minor_faults":0,"variable_order":"","bdd_nodes":0,"eval_nodes":0,"eval_ms":1e+300,"serialize_ms":0,"reply_bytes":0,"latency_ms":0.30000000000000004,"outcome":"error"})"
        "\n"
        R"({"id":0,"peer":"","kind":"","key":"","cache":"","parse_ms":0,"queue_wait_ms":0,"compile_ms":0,"compile_minor_faults":0,"variable_order":"","bdd_nodes":0,"eval_nodes":0,"eval_ms":0,"serialize_ms":0,"reply_bytes":0,"latency_ms":0,"outcome":""})"
        "\n");
}

TEST(RequestLog, ClosedLogWritesNothing)
{
    RequestLog log;
    EXPECT_FALSE(log.enabled());
    log.append(RequestRecord{});
}

} // anonymous namespace
