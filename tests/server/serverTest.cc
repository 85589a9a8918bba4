#include "server/server.hh"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "bdd/bdd.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "obs/obs.hh"
#include "server/lineClient.hh"

namespace
{

using namespace sdnav;
using namespace sdnav::server;

/** Start a server on an ephemeral port with test-friendly options. */
ServerOptions
testOptions()
{
    ServerOptions options;
    options.port = 0;
    options.workers = 2;
    return options;
}

/** A cheap query line (small topology, single node). */
std::string
cheapQuery(double id, const std::string &catalog = "opencontrail")
{
    json::Value doc = json::Value::makeObject();
    doc.set("id", id);
    doc.set("catalog", catalog);
    doc.set("topology", "small");
    doc.set("nodes", 1);
    return doc.dump();
}

json::Value
roundTrip(LineClient &client, const std::string &line)
{
    client.sendLine(line);
    return json::parse(client.recvLine());
}

TEST(Server, SingleQueryMatchesDirectModelEvaluation)
{
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());

    json::Value reply = roundTrip(
        client,
        R"({"id":1,"catalog":"opencontrail","topology":"small",)"
        R"("nodes":1,"params":{"a":0.995}})");
    ASSERT_TRUE(reply.at("ok").asBool()) << reply.dump();
    EXPECT_EQ(reply.at("id").asNumber(), 1.0);
    EXPECT_EQ(reply.at("cache").asString(), "miss");

    // Ground truth: the same model compiled and evaluated directly.
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology(catalog.roles().size(), 1);
    model::ExactPlaneModel direct(
        catalog, topo, model::SupervisorPolicy::Required,
        fmea::Plane::ControlPlane, {});
    model::SwParams params;
    params.processAvailability = 0.995;
    EXPECT_NEAR(reply.at("availability").asNumber(),
                direct.availability(params), 1e-15);

    // The second ask is a hit with the identical answer.
    json::Value again = roundTrip(
        client,
        R"({"id":2,"catalog":"opencontrail","topology":"small",)"
        R"("nodes":1,"params":{"a":0.995}})");
    EXPECT_EQ(again.at("cache").asString(), "hit");
    EXPECT_EQ(again.at("availability").asNumber(),
              reply.at("availability").asNumber());

    srv.requestStop();
    srv.wait();
}

/** Every record of a JSONL request log, in append order. */
std::vector<json::Value>
readRequestLog(const std::string &path)
{
    std::ifstream in(path);
    std::vector<json::Value> records;
    std::string line;
    while (std::getline(in, line))
        records.push_back(json::parse(line));
    return records;
}

TEST(Server, HitEqualsMissReplyAndDirectEvaluation)
{
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());

    const std::string line =
        R"({"id":1,"catalog":"opencontrail","topology":"small",)"
        R"("nodes":3,"params":{"a":0.9993,"av":0.9991}})";
    json::Value missed = roundTrip(client, line);
    ASSERT_TRUE(missed.at("ok").asBool()) << missed.dump();
    EXPECT_EQ(missed.at("cache").asString(), "miss");

    json::Value hit = roundTrip(client, line);
    ASSERT_TRUE(hit.at("ok").asBool()) << hit.dump();
    EXPECT_EQ(hit.at("cache").asString(), "hit");

    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology(catalog.roles().size(), 3);
    model::ExactPlaneModel::Options options;
    options.order = model::chooseVariableOrder(
        catalog, topo, model::SupervisorPolicy::Required,
        fmea::Plane::ControlPlane);
    model::ExactPlaneModel direct(catalog, topo,
                                  model::SupervisorPolicy::Required,
                                  fmea::Plane::ControlPlane, options);
    model::SwParams params;
    params.processAvailability = 0.9993;
    params.vmAvailability = 0.9991;
    // 0 ulp: the same frozen diagram, evaluated by the same kernel.
    EXPECT_EQ(hit.at("availability").asNumber(),
              missed.at("availability").asNumber());
    EXPECT_EQ(hit.at("availability").asNumber(),
              direct.availability(params));

    srv.requestStop();
    srv.wait();
}

TEST(Server, RepliesEqualADirectModelUnderTheChosenOrder)
{
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());

    struct Key
    {
        const char *catalog;
        int nodes;
    };
    model::SwParams params;
    params.processAvailability = 0.9993;
    params.vmAvailability = 0.9991;
    for (Key key : {Key{"opencontrail", 3}, Key{"opencontrail", 5},
                    Key{"raft", 5}, Key{"raft", 15}}) {
        json::Value doc = json::Value::makeObject();
        doc.set("id", 1);
        doc.set("catalog", key.catalog);
        doc.set("topology", "large");
        doc.set("nodes", key.nodes);
        json::Value p = json::Value::makeObject();
        p.set("a", params.processAvailability);
        p.set("av", params.vmAvailability);
        doc.set("params", std::move(p));
        json::Value reply = roundTrip(client, doc.dump());
        ASSERT_TRUE(reply.at("ok").asBool()) << reply.dump();

        auto catalog = std::string(key.catalog) == "raft"
                           ? fmea::raftStyleController()
                           : fmea::openContrail3();
        auto topo = topology::largeTopology(
            catalog.roles().size(), static_cast<std::size_t>(key.nodes));
        model::ExactPlaneModel::Options options;
        options.order = model::chooseVariableOrder(
            catalog, topo, model::SupervisorPolicy::Required,
            fmea::Plane::ControlPlane);
        model::ExactPlaneModel direct(catalog, topo,
                                      model::SupervisorPolicy::Required,
                                      fmea::Plane::ControlPlane, options);
        // 0 ulp: the same diagram, evaluated by the same kernel.
        const double availability = reply.at("availability").asNumber();
        EXPECT_EQ(availability, direct.availability(params))
            << key.catalog << " " << key.nodes;

        if (key.nodes == 3) {
            // Against the golden order's diagram: rounding only.
            model::ExactPlaneModel sif(catalog, topo,
                                       model::SupervisorPolicy::Required,
                                       fmea::Plane::ControlPlane);
            const double golden = sif.availability(params);
            EXPECT_NEAR(availability, golden, 1e-14 * golden);
        }
    }
    srv.requestStop();
    srv.wait();
}

/** Blank the wall times a budget abort reports, which vary by run. */
std::string
maskElapsed(std::string line)
{
    const char *number = "0123456789.e+-";
    const std::string text = " ms elapsed";
    for (std::size_t at = line.find(text); at != std::string::npos;
         at = line.find(text, at)) {
        std::size_t from = line.find_last_not_of(number, at - 1) + 1;
        line.replace(from, at - from, "T");
        at = from + 1 + text.size();
    }
    const std::string member = "\"elapsed_ms\":";
    for (std::size_t at = line.find(member); at != std::string::npos;
         at = line.find(member, at)) {
        at += member.size();
        line.replace(at, line.find_first_not_of(number, at) - at, "T");
    }
    return line;
}

TEST(Server, ReplyLinesKeepTheirBytes)
{
    // Request and reply lines as a tree-building server wrote them;
    // the direct writer must reproduce every byte. The lines run in
    // order on one connection, so miss/hit is part of the pin.
    const std::pair<const char *, const char *> pinned[] = {
        // A miss, then a hit, both with numeric ids.
        {R"j({"id":1,"catalog":"opencontrail","topology":"small","nodes":1,"params":{"a":0.995}})j",
         R"j({"id":1,"ok":true,"availability":0.9445013654242188,"plane":"cp","model_key":"catalog=opencontrail;topology=small;nodes=1;policy=required;plane=cp","cache":"miss"})j"},
        {R"j({"id":2,"catalog":"opencontrail","topology":"small","nodes":1,"params":{"a":0.995}})j",
         R"j({"id":2,"ok":true,"availability":0.9445013654242188,"plane":"cp","model_key":"catalog=opencontrail;topology=small;nodes=1;policy=required;plane=cp","cache":"hit"})j"},
        // A string id with characters that need escaping.
        {R"j({"id":"a\"b\\c\n\u0001é","catalog":"opencontrail","topology":"small","nodes":1,"params":{"a":0.9993,"av":0.9991}})j",
         R"j({"id":"a\"b\\c\n\u0001é","ok":true,"availability":0.989541784858595,"plane":"cp","model_key":"catalog=opencontrail;topology=small;nodes=1;policy=required;plane=cp","cache":"hit"})j"},
        // No id at all.
        {R"j({"catalog":"opencontrail","topology":"small","nodes":1,"params":{"ah":0.99999}})j",
         R"j({"ok":true,"availability":0.9979119993384507,"plane":"cp","model_key":"catalog=opencontrail;topology=small;nodes=1;policy=required;plane=cp","cache":"hit"})j"},
        {R"j({"id":2.5e-7,"catalog":"raft","topology":"small","nodes":3})j",
         R"j({"id":2.5e-07,"ok":true,"availability":0.9999895461928472,"plane":"cp","model_key":"catalog=raft;topology=small;nodes=3;policy=required;plane=cp","cache":"miss"})j"},
        // An invalid line and failed queries.
        {R"j({bad)j",
         R"j({"ok":false,"error":"JSON parse error at offset 1: expected object key string"})j"},
        {R"j({"id":3,"catalog":"nope"})j",
         R"j({"id":3,"ok":false,"error":"unknown catalog 'nope' (expected opencontrail | raft | fragile)"})j"},
        {R"j({"id":4,"catalog":"opencontrail","nodes":0})j",
         R"j({"id":4,"ok":false,"error":"member 'nodes' must be an integer in [1, 63]"})j"},
        // A batch mixing ok and error items, under a structured id.
        {R"j({"id":[1,{"k":null}],"queries":[{"catalog":"opencontrail","topology":"small","nodes":1},{"catalog":"nope"},{"catalog":"raft","topology":"medium","nodes":5,"params":{"a":0.999}},{"nodes":2.5}]})j",
         R"j({"id":[1,{"k":null}],"ok":true,"results":[{"ok":true,"availability":0.9978221863603803,"plane":"cp","model_key":"catalog=opencontrail;topology=small;nodes=1;policy=required;plane=cp","cache":"hit"},{"ok":false,"error":"unknown catalog 'nope' (expected opencontrail | raft | fragile)"},{"ok":true,"availability":0.9999898810924712,"plane":"cp","model_key":"catalog=raft;topology=medium;nodes=5;policy=required;plane=cp","cache":"miss"},{"ok":false,"error":"member 'nodes' must be an integer in [1, 63]"}]})j"},
        {R"j({"id":9,"queries":[{"catalog":"opencontrail","topology":"small","nodes":1,"params":{"a":0.9}}]})j",
         R"j({"id":9,"ok":true,"results":[{"ok":true,"availability":0.31319607133937266,"plane":"cp","model_key":"catalog=opencontrail;topology=small;nodes=1;policy=required;plane=cp","cache":"hit"}]})j"},
        {R"j({"id":10,"cmd":"ping"})j",
         R"j({"id":10,"ok":true,"pong":true})j"},
        {R"j({"cmd":"shutdownx"})j",
         R"j({"ok":false,"error":"unknown command 'shutdownx' (expected ping | stats | metrics | shutdown)"})j"},
        // Budget aborts, alone and as a batch item.
        {R"j({"id":7,"catalog":"opencontrail","topology":"large","nodes":12})j",
         R"j({"id":7,"ok":false,"error":"BDD build budget exceeded (node-cap): 20000 nodes allocated, T ms elapsed","budget_exceeded":true,"budget":"node-cap","nodes_allocated":20000,"elapsed_ms":T})j"},
        {R"j({"id":11,"queries":[{"catalog":"opencontrail","topology":"large","nodes":12},{"catalog":"opencontrail","topology":"small","nodes":1}]})j",
         R"j({"id":11,"ok":true,"results":[{"ok":false,"error":"BDD build budget exceeded (node-cap): 20000 nodes allocated, T ms elapsed","budget_exceeded":true,"budget":"node-cap","nodes_allocated":20000,"elapsed_ms":T},{"ok":true,"availability":0.9978221863603803,"plane":"cp","model_key":"catalog=opencontrail;topology=small;nodes=1;policy=required;plane=cp","cache":"hit"}]})j"},
    };
    ServerOptions options = testOptions();
    options.compileNodeCap = 20000;
    Server srv(options);
    srv.start();
    LineClient client;
    client.connect(srv.port());
    for (const auto &[request, reply] : pinned) {
        client.sendLine(request);
        EXPECT_EQ(maskElapsed(client.recvLine()), reply) << request;
    }
    srv.requestStop();
    srv.wait();
}

TEST(Server, SubnormalAvailabilityIsAnsweredAndTheSessionKeepsServing)
{
    // a = 8e-30 drives OpenContrail Large x3 to about 1.5e-315, a
    // subnormal: its reply must carry it exactly, and the connection
    // must answer its next line.
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());
    json::Value reply = roundTrip(
        client, R"({"id":8,"catalog":"opencontrail","topology":"large",)"
                R"("nodes":3,"params":{"a":8e-30}})");
    ASSERT_TRUE(reply.at("ok").asBool()) << reply.dump();

    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology(catalog.roles().size(), 3);
    model::ExactPlaneModel::Options options;
    options.order = model::chooseVariableOrder(
        catalog, topo, model::SupervisorPolicy::Required,
        fmea::Plane::ControlPlane);
    model::ExactPlaneModel direct(catalog, topo,
                                  model::SupervisorPolicy::Required,
                                  fmea::Plane::ControlPlane, options);
    model::SwParams params;
    params.processAvailability = 8e-30;
    const double expected = direct.availability(params);
    EXPECT_EQ(std::fpclassify(expected), FP_SUBNORMAL);
    EXPECT_EQ(reply.at("availability").asNumber(), expected);

    EXPECT_TRUE(
        roundTrip(client, R"({"id":9,"cmd":"ping"})").at("ok").asBool());
    // An id of the least subnormal echoes as the shortest text that
    // reads back as it.
    client.sendLine(R"({"id":5e-324,"cmd":"ping"})");
    EXPECT_EQ(client.recvLine(),
              R"({"id":4.94065645841247e-324,"ok":true,"pong":true})");
    srv.requestStop();
    srv.wait();
}

TEST(Server, ConcurrentBatchesMatchSingleAnswers)
{
    ServerOptions options = testOptions();
    options.workers = 4;
    Server srv(options);
    srv.start();

    // Eight items over three keys with distinct parameters; asking
    // each as a single query primes its key and records its answer.
    const char *catalogs[] = {"opencontrail", "raft", "fragile"};
    constexpr std::size_t kItems = 8;
    json::Value queries = json::Value::makeArray();
    std::vector<double> singles;
    {
        LineClient primer;
        primer.connect(srv.port());
        for (std::size_t i = 0; i < kItems; ++i) {
            json::Value query = json::Value::makeObject();
            query.set("catalog", catalogs[i % 3]);
            query.set("topology", "small");
            query.set("nodes", 1);
            json::Value params = json::Value::makeObject();
            params.set("a", 0.999 - 0.0001 * static_cast<double>(i));
            query.set("params", std::move(params));
            json::Value reply = roundTrip(primer, query.dump());
            ASSERT_TRUE(reply.at("ok").asBool()) << reply.dump();
            singles.push_back(reply.at("availability").asNumber());
            queries.push(std::move(query));
        }
    }
    json::Value batch = json::Value::makeObject();
    batch.set("id", 9);
    batch.set("queries", std::move(queries));
    const std::string line = batch.dump();

    // Two sessions run their batches on parallelFor at once.
    constexpr int kClients = 2;
    constexpr int kRounds = 10;
    std::vector<std::vector<json::Value>> replies(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&, c] {
            LineClient client;
            client.connect(srv.port());
            for (int r = 0; r < kRounds; ++r)
                replies[static_cast<std::size_t>(c)].push_back(
                    roundTrip(client, line));
        });
    for (std::thread &thread : threads)
        thread.join();

    for (const std::vector<json::Value> &rounds : replies) {
        ASSERT_EQ(rounds.size(), static_cast<std::size_t>(kRounds));
        for (const json::Value &reply : rounds) {
            ASSERT_TRUE(reply.at("ok").asBool()) << reply.dump();
            const json::Value::Array &results =
                reply.at("results").asArray();
            ASSERT_EQ(results.size(), kItems);
            for (std::size_t i = 0; i < kItems; ++i) {
                EXPECT_EQ(results[i].at("cache").asString(), "hit");
                // 0 ulp, in request order.
                EXPECT_EQ(results[i].at("availability").asNumber(),
                          singles[i]);
            }
        }
    }

    srv.requestStop();
    srv.wait();
}

TEST(Server, HitIsAnsweredWhileTheOnlyWorkerCompiles)
{
    std::string path = testing::TempDir() + "/sdnav_session_log_" +
                       std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());

    ServerOptions options = testOptions();
    options.workers = 1;
    options.requestLogPath = path;
    // OpenContrail Large x12 compiles for tens of seconds under any
    // order: the wall deadline ends it, and the node cap bounds its
    // memory if that comes first.
    options.compileBudgetMs = 1000.0;
    options.compileNodeCap = 3000000;
    std::string hitKey;
    {
        Server srv(options);
        srv.start();
        LineClient b;
        b.connect(srv.port());
        json::Value primed = roundTrip(b, cheapQuery(1));
        ASSERT_TRUE(primed.at("ok").asBool()) << primed.dump();
        hitKey = primed.at("model_key").asString();

        // Connection A occupies the only worker with a runaway
        // compile; the hit from B must not wait for it.
        std::atomic<int> order{0};
        int orderA = 0;
        int orderB = 0;
        json::Value replyA;
        std::thread a([&] {
            LineClient client;
            client.connect(srv.port());
            replyA = roundTrip(client,
                               R"({"id":7,"catalog":"opencontrail",)"
                               R"("topology":"large","nodes":12})");
            orderA = ++order;
        });
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        json::Value hit = roundTrip(b, cheapQuery(2));
        orderB = ++order;
        a.join();

        ASSERT_TRUE(hit.at("ok").asBool()) << hit.dump();
        EXPECT_EQ(hit.at("cache").asString(), "hit");
        EXPECT_TRUE(replyA.at("budget_exceeded").asBool())
            << replyA.dump();
        EXPECT_LT(orderB, orderA);
        srv.requestStop();
        srv.wait();
    }

    std::vector<json::Value> records = readRequestLog(path);
    ASSERT_EQ(records.size(), 3u);
    const json::Value *hitRecord = nullptr;
    for (const json::Value &record : records)
        if (record.at("key").asString() == hitKey &&
            record.at("cache").asString() == "hit")
            hitRecord = &record;
    ASSERT_NE(hitRecord, nullptr);
    EXPECT_EQ(hitRecord->at("queue_wait_ms").asNumber(), 0.0);
    EXPECT_EQ(hitRecord->at("outcome").asString(), "ok");
    std::remove(path.c_str());
}

TEST(Server, PipelinedBurstIsAnsweredInOrderAndResyncs)
{
    ServerOptions options = testOptions();
    options.maxLineBytes = 512;
    Server srv(options);
    srv.start();
    LineClient client;
    client.connect(srv.port());
    std::uint64_t oversizedBefore =
        obs::Registry::global().counter("server.oversized_lines").value();

    // 2,000 lines in one send: pings and queries, plus one line far
    // past the limit (longer than a receive chunk, so it is caught
    // mid-line) in the middle.
    constexpr int kLines = 2000;
    constexpr int kOversized = 1000;
    std::string burst;
    for (int i = 0; i < kLines; ++i) {
        if (i == kOversized)
            burst += std::string(10000, 'x');
        else if (i % 2 == 0)
            burst += R"({"cmd":"ping","id":)" + std::to_string(i) + "}";
        else
            burst += cheapQuery(i);
        burst += "\n";
    }
    // Send from another thread: the replies must be read while the
    // burst is still going out, or both socket buffers fill.
    std::thread sender([&] { client.sendRaw(burst); });
    for (int i = 0; i < kLines; ++i) {
        json::Value reply = json::parse(client.recvLine());
        if (i == kOversized) {
            EXPECT_FALSE(reply.at("ok").asBool());
            EXPECT_NE(reply.at("error").asString().find("exceeds"),
                      std::string::npos);
            continue;
        }
        ASSERT_TRUE(reply.at("ok").asBool()) << i << ": " << reply.dump();
        ASSERT_EQ(reply.at("id").asNumber(), static_cast<double>(i));
        EXPECT_EQ(reply.contains("pong"), i % 2 == 0) << i;
    }
    sender.join();
    EXPECT_EQ(obs::Registry::global()
                  .counter("server.oversized_lines")
                  .value(),
              oversizedBefore + 1);

    srv.requestStop();
    srv.wait();
}

TEST(Server, MalformedLinesErrorThatRequestOnly)
{
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());

    // Broken JSON: an error reply, not a dropped connection.
    json::Value bad = roundTrip(client, "{this is not json");
    EXPECT_FALSE(bad.at("ok").asBool());
    EXPECT_FALSE(bad.at("error").asString().empty());

    // Unknown members and bad values: ditto, with the id echoed.
    json::Value unknown =
        roundTrip(client, R"({"id":9,"nodez":3})");
    EXPECT_FALSE(unknown.at("ok").asBool());
    EXPECT_EQ(unknown.at("id").asNumber(), 9.0);

    // The same session still answers real queries afterwards.
    json::Value good = roundTrip(client, cheapQuery(10));
    EXPECT_TRUE(good.at("ok").asBool());

    srv.requestStop();
    srv.wait();
}

TEST(Server, OversizedLineIsRejectedAndTheSessionResyncs)
{
    ServerOptions options = testOptions();
    options.maxLineBytes = 512;
    Server srv(options);
    srv.start();
    LineClient client;
    client.connect(srv.port());
    std::uint64_t before =
        obs::Registry::global().counter("server.oversized_lines")
            .value();

    // Blow past the limit mid-line: the server replies with an error
    // while still reading, then discards up to the next newline.
    std::string huge(4096, 'x');
    client.sendRaw(huge);
    std::string reply = client.recvLine();
    json::Value doc = json::parse(reply);
    EXPECT_FALSE(doc.at("ok").asBool());
    EXPECT_NE(doc.at("error").asString().find("exceeds"),
              std::string::npos);

    // Finish the oversized line, then prove the stream re-syncs.
    client.sendRaw(huge + "\n");
    json::Value good = roundTrip(client, cheapQuery(1));
    EXPECT_TRUE(good.at("ok").asBool());

    // The rejection is visible to scrapers, not just this client.
    EXPECT_GE(obs::Registry::global()
                  .counter("server.oversized_lines")
                  .value(),
              before + 1);

    srv.requestStop();
    srv.wait();
}

TEST(Server, MidLineDisconnectLeavesTheServerServing)
{
    Server srv(testOptions());
    srv.start();

    {
        LineClient dropper;
        dropper.connect(srv.port());
        dropper.sendRaw(R"({"id":1,"catalog":"open)"); // no newline
        dropper.close();
    }

    // A fresh connection is unaffected.
    LineClient client;
    client.connect(srv.port());
    json::Value reply = roundTrip(client, cheapQuery(2));
    EXPECT_TRUE(reply.at("ok").asBool());

    srv.requestStop();
    srv.wait();
}

TEST(Server, ConcurrentClientsGetDeterministicAnswers)
{
    Server srv(testOptions());
    srv.start();

    // Prime all three model keys so every reply below is a hit —
    // then equal requests must produce byte-identical reply lines.
    {
        LineClient primer;
        primer.connect(srv.port());
        for (const char *catalog :
             {"opencontrail", "raft", "fragile"})
            ASSERT_TRUE(roundTrip(primer, cheapQuery(0, catalog))
                            .at("ok")
                            .asBool());
    }

    constexpr int kClients = 4;
    constexpr int kRounds = 25;
    std::vector<std::vector<std::string>> replies(kClients);
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&replies, &srv, c] {
            LineClient client;
            client.connect(srv.port());
            const char *catalogs[] = {"opencontrail", "raft",
                                      "fragile"};
            for (int i = 0; i < kRounds; ++i) {
                client.sendLine(
                    cheapQuery(i, catalogs[i % 3]));
                replies[static_cast<std::size_t>(c)].push_back(
                    client.recvLine());
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    for (int c = 1; c < kClients; ++c)
        EXPECT_EQ(replies[static_cast<std::size_t>(c)], replies[0])
            << "client " << c
            << " saw different bytes than client 0";

    srv.requestStop();
    srv.wait();
}

TEST(Server, BatchRunsPerItemAndReportsPerItemErrors)
{
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());

    json::Value reply = roundTrip(
        client,
        R"({"id":5,"queries":[)"
        R"({"catalog":"opencontrail","topology":"small","nodes":1},)"
        R"({"catalog":"bogus"},)"
        R"({"catalog":"raft","topology":"small","nodes":1}]})");
    ASSERT_TRUE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("id").asNumber(), 5.0);
    const json::Value::Array &results =
        reply.at("results").asArray();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].at("ok").asBool());
    EXPECT_FALSE(results[1].at("ok").asBool());
    EXPECT_NE(results[1].at("error").asString().find("bogus"),
              std::string::npos);
    EXPECT_TRUE(results[2].at("ok").asBool());

    srv.requestStop();
    srv.wait();
}

TEST(Server, GracefulShutdownDrainsQueuedWork)
{
    ServerOptions options = testOptions();
    options.workers = 1;
    Server srv(options);
    srv.start();

    LineClient loader;
    loader.connect(srv.port());
    json::Value batch = json::Value::makeObject();
    batch.set("id", 1);
    json::Value queries = json::Value::makeArray();
    for (int i = 0; i < 32; ++i) {
        json::Value query = json::Value::makeObject();
        query.set("catalog", "opencontrail");
        query.set("topology", "small");
        query.set("nodes", 1);
        queries.push(std::move(query));
    }
    batch.set("queries", std::move(queries));
    loader.sendLine(batch.dump());

    // Give the session time to start pushing jobs, then ask for
    // shutdown from a second connection while work is in flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    LineClient stopper;
    stopper.connect(srv.port());
    json::Value ack = roundTrip(stopper, R"({"cmd":"shutdown"})");
    EXPECT_TRUE(ack.at("ok").asBool());

    // Every queued query still completes and the full reply arrives.
    json::Value reply = json::parse(loader.recvLine());
    ASSERT_TRUE(reply.at("ok").asBool());
    const json::Value::Array &results =
        reply.at("results").asArray();
    ASSERT_EQ(results.size(), 32u);
    for (const json::Value &result : results)
        EXPECT_TRUE(result.at("ok").asBool());

    srv.wait();
    EXPECT_TRUE(srv.stopping());
}

TEST(Server, StatsCommandReportsTheDocumentedSchema)
{
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());
    ASSERT_TRUE(roundTrip(client, cheapQuery(1)).at("ok").asBool());
    ASSERT_TRUE(roundTrip(client, cheapQuery(2)).at("ok").asBool());

    json::Value reply =
        roundTrip(client, R"({"id":"s","cmd":"stats"})");
    ASSERT_TRUE(reply.at("ok").asBool());
    EXPECT_EQ(reply.at("id").asString(), "s");
    const json::Value &stats = reply.at("stats");
    for (const char *key :
         {"uptime_seconds", "git_sha", "qps", "requests",
          "slow_requests", "queries", "errors", "connections",
          "workers", "cache", "latency"})
        EXPECT_TRUE(stats.contains(key)) << "missing " << key;
    EXPECT_FALSE(stats.contains("uptime_s"));
    EXPECT_GE(stats.at("queries").asNumber(), 2.0);
    EXPECT_TRUE(stats.at("git_sha").isString());
    EXPECT_GE(stats.at("uptime_seconds").asNumber(), 0.0);

    const json::Value &cache = stats.at("cache");
    for (const char *key : {"hits", "misses", "evictions", "entries",
                            "capacity", "hit_rate", "bdd_nodes",
                            "compile_workspace_bytes"})
        EXPECT_TRUE(cache.contains(key)) << "missing cache." << key;
    EXPECT_EQ(cache.at("misses").asNumber(), 1.0);
    // The miss's workspace keeps its pages for the next one.
    EXPECT_GT(cache.at("compile_workspace_bytes").asNumber(), 0.0);
    EXPECT_EQ(cache.at("hits").asNumber(), 1.0);
    EXPECT_EQ(cache.at("hit_rate").asNumber(), 0.5);

    const json::Value &latency = stats.at("latency");
    for (const char *key : {"count", "mean_ms", "p50_ms", "p90_ms",
                            "p99_ms", "max_ms"})
        EXPECT_TRUE(latency.contains(key))
            << "missing latency." << key;

    srv.requestStop();
    srv.wait();
}

TEST(Server, MetricsCommandServesPrometheusText)
{
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());
    ASSERT_TRUE(roundTrip(client, cheapQuery(1)).at("ok").asBool());

    json::Value reply =
        roundTrip(client, R"({"id":"m","cmd":"metrics"})");
    ASSERT_TRUE(reply.at("ok").asBool()) << reply.dump();
    EXPECT_EQ(reply.at("id").asString(), "m");
    const std::string &text = reply.at("metrics").asString();
    EXPECT_NE(text.find("server_requests_total"), std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE server_compile_workspace_bytes gauge"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE"), std::string::npos);

    srv.requestStop();
    srv.wait();
}

TEST(Server, PromEndpointServesTheExpositionOverHttp)
{
    ServerOptions options = testOptions();
    options.promEnabled = true;
    options.promPort = 0; // ephemeral
    Server srv(options);
    srv.start();
    ASSERT_NE(srv.promPort(), 0);

    {
        LineClient primer;
        primer.connect(srv.port());
        ASSERT_TRUE(
            roundTrip(primer, cheapQuery(1)).at("ok").asBool());
    }

    // A raw HTTP/1.1 GET against the scrape endpoint. The server
    // closes the connection after one response, so read until EOF.
    LineClient http;
    http.connect(srv.promPort());
    http.sendRaw("GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    std::string response;
    try {
        for (int i = 0; i < 4096; ++i)
            response += http.recvLine() + "\n";
    } catch (const ModelError &) {
        // EOF: the whole response has arrived.
    }
    EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_NE(response.find("text/plain"), std::string::npos);
    EXPECT_NE(response.find("server_requests_total"),
              std::string::npos)
        << response;

    // Unknown paths 404 without killing the listener.
    LineClient miss;
    miss.connect(srv.promPort());
    miss.sendRaw("GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    std::string notFound;
    try {
        for (int i = 0; i < 64; ++i)
            notFound += miss.recvLine() + "\n";
    } catch (const ModelError &) {
    }
    EXPECT_NE(notFound.find("404"), std::string::npos);

    srv.requestStop();
    srv.wait();
}

TEST(Server, CompileBudgetTurnsRunawayCompilesIntoErrorReplies)
{
    ServerOptions options = testOptions();
    // OpenContrail Large x12 blows through this cap within
    // milliseconds; the small single-node models stay far beneath it.
    options.compileNodeCap = 20000;
    Server srv(options);
    srv.start();
    LineClient client;
    client.connect(srv.port());

    const std::string runaway =
        R"({"id":7,"catalog":"opencontrail",)"
        R"("topology":"large","nodes":12})";
    json::Value reply = roundTrip(client, runaway);
    ASSERT_FALSE(reply.at("ok").asBool()) << reply.dump();
    EXPECT_TRUE(reply.at("budget_exceeded").asBool());
    EXPECT_EQ(reply.at("budget").asString(), "node-cap");
    EXPECT_GE(reply.at("nodes_allocated").asNumber(), 1.0);
    EXPECT_FALSE(reply.contains("gc_runs"));
    EXPECT_GT(reply.at("elapsed_ms").asNumber(), 0.0);
    EXPECT_NE(reply.at("error").asString().find("node-cap"),
              std::string::npos);

    // The worker pool survives the abort: commands and affordable
    // queries keep flowing on the same connection.
    EXPECT_TRUE(
        roundTrip(client, R"({"cmd":"ping"})").at("ok").asBool());
    EXPECT_TRUE(roundTrip(client, cheapQuery(8)).at("ok").asBool());

    // Asking again errors again — promptly, off a clean cache entry —
    // rather than hanging on a poisoned in-flight future.
    json::Value again = roundTrip(client, runaway);
    EXPECT_FALSE(again.at("ok").asBool());
    EXPECT_TRUE(again.at("budget_exceeded").asBool());

    // Budget aborts count as errors and land in the abort counter.
    json::Value stats =
        roundTrip(client, R"({"cmd":"stats"})").at("stats");
    EXPECT_GE(stats.at("errors").asNumber(), 2.0);

    srv.requestStop();
    srv.wait();
}

TEST(Server, ConcurrentBudgetAbortsLeaveEveryWorkerServing)
{
    ServerOptions options = testOptions();
    options.compileNodeCap = 20000;
    Server srv(options);
    srv.start();

    constexpr int kClients = 3;
    std::vector<std::thread> threads;
    std::atomic<int> aborts{0};
    std::atomic<int> oks{0};
    for (int c = 0; c < kClients; ++c)
        threads.emplace_back([&srv, &aborts, &oks, c] {
            LineClient client;
            client.connect(srv.port());
            for (int i = 0; i < 3; ++i) {
                json::Value bad = roundTrip(
                    client,
                    R"({"id":1,"catalog":"opencontrail",)"
                    R"("topology":"large","nodes":12})");
                if (!bad.at("ok").asBool() &&
                    bad.at("budget_exceeded").asBool())
                    aborts.fetch_add(1);
                json::Value good = roundTrip(
                    client, cheapQuery(static_cast<double>(c)));
                if (good.at("ok").asBool())
                    oks.fetch_add(1);
            }
        });
    for (std::thread &thread : threads)
        thread.join();

    // Every runaway aborted, every cheap query answered: aborts are
    // per-request failures, never worker or connection casualties.
    EXPECT_EQ(aborts.load(), kClients * 3);
    EXPECT_EQ(oks.load(), kClients * 3);

    srv.requestStop();
    srv.wait();
}

TEST(Server, SlowThresholdCountsEveryRequestWhenSetToZeroish)
{
    ServerOptions options = testOptions();
    options.slowMs = 1e-6; // everything is "slow"
    Server srv(options);
    srv.start();
    LineClient client;
    client.connect(srv.port());
    ASSERT_TRUE(roundTrip(client, cheapQuery(1)).at("ok").asBool());
    ASSERT_TRUE(roundTrip(client, cheapQuery(2)).at("ok").asBool());

    json::Value stats =
        roundTrip(client, R"({"cmd":"stats"})").at("stats");
    EXPECT_GE(stats.at("slow_requests").asNumber(), 2.0);
    EXPECT_GE(srv.slowRequests(), 2u);

    srv.requestStop();
    srv.wait();
}

TEST(Server, RequestLogWritesOneRecordPerRequest)
{
    std::string path = testing::TempDir() + "/sdnav_request_log_" +
                       std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());

    ServerOptions options = testOptions();
    options.requestLogPath = path;
    {
        Server srv(options);
        srv.start();
        LineClient client;
        client.connect(srv.port());
        ASSERT_TRUE(
            roundTrip(client, cheapQuery(1)).at("ok").asBool());
        ASSERT_TRUE(roundTrip(client, cheapQuery(1)).at("ok").asBool());
        ASSERT_TRUE(
            roundTrip(client, R"({"cmd":"ping"})").at("ok").asBool());
        srv.requestStop();
        srv.wait();
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::vector<json::Value> records;
    std::string line;
    while (std::getline(in, line))
        records.push_back(json::parse(line));
    ASSERT_EQ(records.size(), 3u);

    // The two queries: miss then hit, with the model key recorded.
    for (const char *key :
         {"id", "peer", "kind", "key", "cache", "parse_ms",
          "queue_wait_ms", "compile_ms", "compile_minor_faults",
          "variable_order", "bdd_nodes", "eval_nodes", "eval_ms",
          "serialize_ms", "reply_bytes", "latency_ms", "outcome"})
        EXPECT_TRUE(records[0].contains(key)) << "missing " << key;

    // Every record times its parse and its reply writing, and its
    // stages fit inside its latency.
    for (const json::Value &record : records) {
        EXPECT_GT(record.at("parse_ms").asNumber(), 0.0);
        EXPECT_GT(record.at("serialize_ms").asNumber(), 0.0);
        double stages = 0.0;
        for (const char *stage : {"parse_ms", "queue_wait_ms", "compile_ms",
                                  "eval_ms", "serialize_ms"})
            stages += record.at(stage).asNumber();
        EXPECT_LE(stages, record.at("latency_ms").asNumber())
            << record.dump();
    }
    EXPECT_EQ(records[0].at("kind").asString(), "query");
    EXPECT_EQ(records[0].at("cache").asString(), "miss");
    EXPECT_EQ(records[0].at("outcome").asString(), "ok");
    EXPECT_GT(records[0].at("compile_ms").asNumber(), 0.0);
    // A fault count: a whole number, whatever the compile touched.
    const double faults =
        records[0].at("compile_minor_faults").asNumber();
    EXPECT_GE(faults, 0.0);
    EXPECT_EQ(faults, std::floor(faults));
    EXPECT_FALSE(records[0].at("key").asString().empty());
    EXPECT_NE(records[0].at("peer").asString().find("127.0.0.1"),
              std::string::npos);
    EXPECT_EQ(records[1].at("cache").asString(), "hit");
    EXPECT_EQ(records[1].at("compile_ms").asNumber(), 0.0);
    EXPECT_EQ(records[1].at("compile_minor_faults").asNumber(), 0.0);
    // The miss names the order its model was compiled under; the hit
    // compiled nothing.
    auto catalog = fmea::openContrail3();
    EXPECT_EQ(records[0].at("variable_order").asString(),
              model::variableOrderName(model::chooseVariableOrder(
                  catalog,
                  topology::smallTopology(catalog.roles().size(), 1),
                  model::SupervisorPolicy::Required,
                  fmea::Plane::ControlPlane)));
    EXPECT_EQ(records[1].at("variable_order").asString(), "");
    // The miss sizes its model before and after the class fold; the
    // hit compiled nothing.
    const double bddNodes = records[0].at("bdd_nodes").asNumber();
    const double evalNodes = records[0].at("eval_nodes").asNumber();
    EXPECT_GT(evalNodes, 0.0);
    EXPECT_LE(evalNodes, bddNodes);
    EXPECT_EQ(records[1].at("bdd_nodes").asNumber(), 0.0);
    EXPECT_EQ(records[1].at("eval_nodes").asNumber(), 0.0);

    // The command: no key, no cache interaction, still logged.
    EXPECT_EQ(records[2].at("kind").asString(), "cmd:ping");
    EXPECT_EQ(records[2].at("key").asString(), "");
    EXPECT_EQ(records[2].at("outcome").asString(), "ok");

    // Ids are the monotonic per-process sequence.
    EXPECT_LT(records[0].at("id").asNumber(),
              records[1].at("id").asNumber());
    EXPECT_LT(records[1].at("id").asNumber(),
              records[2].at("id").asNumber());

    std::remove(path.c_str());
}

TEST(Server, RequestLogRecordsBudgetAbortsAsSuch)
{
    std::string path = testing::TempDir() + "/sdnav_budget_log_" +
                       std::to_string(::getpid()) + ".jsonl";
    std::remove(path.c_str());

    ServerOptions options = testOptions();
    options.requestLogPath = path;
    options.compileNodeCap = 20000;
    {
        Server srv(options);
        srv.start();
        LineClient client;
        client.connect(srv.port());
        json::Value reply = roundTrip(
            client,
            R"({"id":1,"catalog":"opencontrail",)"
            R"("topology":"large","nodes":12})");
        EXPECT_FALSE(reply.at("ok").asBool());
        srv.requestStop();
        srv.wait();
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));
    json::Value record = json::parse(line);
    EXPECT_EQ(record.at("outcome").asString(), "budget_exceeded");
    EXPECT_EQ(record.at("kind").asString(), "query");
    std::remove(path.c_str());
}

TEST(Server, ShutdownCommandStopsTheServer)
{
    Server srv(testOptions());
    srv.start();
    LineClient client;
    client.connect(srv.port());
    json::Value ack = roundTrip(client, R"({"cmd":"shutdown"})");
    EXPECT_TRUE(ack.at("ok").asBool());
    EXPECT_TRUE(ack.at("stopping").asBool());
    srv.wait();
    EXPECT_TRUE(srv.stopping());
}

} // anonymous namespace
