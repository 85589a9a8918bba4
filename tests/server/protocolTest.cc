#include "server/protocol.hh"

#include <string>

#include <gtest/gtest.h>

#include "common/error.hh"

namespace
{

using namespace sdnav;
using namespace sdnav::server;

TEST(Protocol, DefaultsMatchThePaperConfiguration)
{
    Request request = parseRequest("{}", 16);
    ASSERT_EQ(request.kind, Request::Kind::Query);
    ASSERT_EQ(request.queries.size(), 1u);
    ASSERT_TRUE(request.queries[0].ok);
    const QuerySpec &spec = request.queries[0].spec;
    EXPECT_EQ(spec.catalog, "opencontrail");
    EXPECT_EQ(spec.topology, "large");
    EXPECT_EQ(spec.nodes, 3u);
    EXPECT_EQ(spec.policy, model::SupervisorPolicy::Required);
    EXPECT_EQ(spec.plane, fmea::Plane::ControlPlane);
    EXPECT_TRUE(request.id.isNull());
}

TEST(Protocol, ModelKeyIsCanonicalAndExcludesParams)
{
    Request a = parseRequest(
        R"({"catalog":"raft","nodes":5,"params":{"a":0.9}})", 16);
    Request b = parseRequest(
        R"({"nodes":5,"catalog":"raft","params":{"a":0.5}})", 16);
    ASSERT_TRUE(a.queries[0].ok);
    ASSERT_TRUE(b.queries[0].ok);
    // Same key despite different member order and different
    // parameters: params are evaluation-time, not compile-time.
    EXPECT_EQ(a.queries[0].spec.modelKey(),
              b.queries[0].spec.modelKey());
    EXPECT_EQ(a.queries[0].spec.modelKey(),
              "catalog=raft;topology=large;nodes=5;policy=required;"
              "plane=cp");
}

TEST(Protocol, UnknownMembersAreRejectedNotIgnored)
{
    Request request =
        parseRequest(R"({"id":7,"catalogue":"raft"})", 16);
    ASSERT_EQ(request.queries.size(), 1u);
    EXPECT_FALSE(request.queries[0].ok);
    EXPECT_NE(request.queries[0].error.find("catalogue"),
              std::string::npos);
    // The id still came through for the error reply.
    EXPECT_EQ(request.id.asNumber(), 7.0);
}

TEST(Protocol, ValidationFailuresKeepTheRequestId)
{
    Request request = parseRequest(
        R"({"id":"q1","nodes":2.5})", 16);
    EXPECT_FALSE(request.queries[0].ok);
    EXPECT_EQ(request.id.asString(), "q1");

    Request range = parseRequest(R"({"id":1,"nodes":64})", 16);
    EXPECT_FALSE(range.queries[0].ok);

    Request negative = parseRequest(R"({"id":1,"nodes":0})", 16);
    EXPECT_FALSE(negative.queries[0].ok);
}

TEST(Protocol, OutOfRangeParamsAreRejected)
{
    Request request =
        parseRequest(R"({"params":{"a":1.5}})", 16);
    EXPECT_FALSE(request.queries[0].ok);

    Request timings =
        parseRequest(R"({"timings":{"mtbf":-1}})", 16);
    EXPECT_FALSE(timings.queries[0].ok);
}

TEST(Protocol, TimingsDeriveAvailabilities)
{
    Request request = parseRequest(
        R"({"timings":{"mtbf":5000,"restart":0.1,)"
        R"("manual-restart":1.0}})",
        16);
    ASSERT_TRUE(request.queries[0].ok);
    const model::SwParams &params = request.queries[0].spec.params;
    EXPECT_NEAR(params.processAvailability, 5000.0 / 5000.1, 1e-12);
    EXPECT_NEAR(params.manualProcessAvailability, 5000.0 / 5001.0,
                1e-12);
}

TEST(Protocol, MalformedJsonThrows)
{
    EXPECT_THROW(parseRequest("{nope", 16), ModelError);
    EXPECT_THROW(parseRequest("[1,2,3]", 16), ModelError);
    EXPECT_THROW(parseRequest("42", 16), ModelError);
}

TEST(Protocol, LeadingZeroNumbersGetAnErrorReply)
{
    // "nodes":03 is not JSON: the line fails to parse, so the reply is
    // an error line, not a query for three nodes.
    const std::string line = R"({"id":1,"catalog":"raft","nodes":03})";
    try {
        parseRequest(line, 16);
        FAIL() << "expected ModelError for " << line;
    } catch (const ModelError &e) {
        EXPECT_EQ(errorReplyLine(json::Value{}, e.what()),
                  R"({"ok":false,"error":"JSON parse error at offset 33: )"
                  R"(leading zero in number"})");
    }
    EXPECT_EQ(parseRequest(R"({"nodes":3})", 16).queries[0].spec.nodes,
              3u);
}

TEST(Protocol, CommandsParse)
{
    EXPECT_EQ(parseRequest(R"({"cmd":"ping"})", 16).kind,
              Request::Kind::Ping);
    EXPECT_EQ(parseRequest(R"({"cmd":"stats","id":1})", 16).kind,
              Request::Kind::Stats);
    EXPECT_EQ(parseRequest(R"({"cmd":"shutdown"})", 16).kind,
              Request::Kind::Shutdown);
    EXPECT_THROW(parseRequest(R"({"cmd":"reboot"})", 16),
                 ModelError);
    // A command with query members is malformed, not half-executed.
    EXPECT_THROW(parseRequest(R"({"cmd":"ping","nodes":3})", 16),
                 ModelError);
}

TEST(Protocol, BatchFailsPerItemNotWholesale)
{
    Request request = parseRequest(
        R"({"id":3,"queries":[{"catalog":"raft"},)"
        R"({"catalog":"nope"},{"nodes":1}]})",
        16);
    ASSERT_EQ(request.kind, Request::Kind::Batch);
    ASSERT_EQ(request.queries.size(), 3u);
    EXPECT_TRUE(request.queries[0].ok);
    EXPECT_FALSE(request.queries[1].ok);
    EXPECT_TRUE(request.queries[2].ok);
    EXPECT_NE(request.queries[1].error.find("nope"),
              std::string::npos);
}

TEST(Protocol, BatchLimitsEnforced)
{
    EXPECT_THROW(parseRequest(R"({"queries":[]})", 16), ModelError);
    EXPECT_THROW(parseRequest(R"({"queries":[{},{},{}]})", 2),
                 ModelError);
    // Batch items must not carry their own id.
    Request request =
        parseRequest(R"({"queries":[{"id":9}]})", 16);
    EXPECT_FALSE(request.queries[0].ok);
}

TEST(Protocol, ErrorReplyLineEchoesId)
{
    EXPECT_EQ(errorReplyLine(json::Value(3), "bad"),
              R"({"id":3,"ok":false,"error":"bad"})");
    EXPECT_EQ(errorReplyLine(json::Value{}, "bad"),
              R"({"ok":false,"error":"bad"})");
}

} // anonymous namespace
