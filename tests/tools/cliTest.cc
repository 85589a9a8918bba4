/**
 * @file
 * End-to-end tests of the sdnav_cli binary: every subcommand is run
 * as a subprocess and its output checked for the expected content and
 * numbers. SDNAV_CLI_PATH is injected by CMake.
 */

#include <array>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/json.hh"

namespace
{

struct CommandResult
{
    int exitCode;
    std::string output;
};

CommandResult
runCli(const std::string &arguments)
{
    std::string command =
        std::string(SDNAV_CLI_PATH) + " " + arguments + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    std::string output;
    std::array<char, 4096> buffer;
    while (std::fgets(buffer.data(), buffer.size(), pipe) != nullptr)
        output += buffer.data();
    int status = pclose(pipe);
    return {WEXITSTATUS(status), output};
}

TEST(Cli, HelpListsCommands)
{
    auto result = runCli("help");
    EXPECT_EQ(result.exitCode, 0);
    for (const char *cmd : {"tables", "analyze", "rank", "outage",
                            "transient", "cutsets", "fleet",
                            "figures", "simulate", "export"}) {
        EXPECT_NE(result.output.find(cmd), std::string::npos) << cmd;
    }
}

TEST(Cli, UnknownCommandFails)
{
    auto result = runCli("frobnicate");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown command"),
              std::string::npos);
}

TEST(Cli, TablesPrintsPaperTables)
{
    auto result = runCli("tables");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("Table I."), std::string::npos);
    EXPECT_NE(result.output.find("Table II."), std::string::npos);
    EXPECT_NE(result.output.find("Table III."), std::string::npos);
    EXPECT_NE(result.output.find("config-api"), std::string::npos);
}

TEST(Cli, AnalyzeReproducesHeadlineNumber)
{
    auto result =
        runCli("analyze --topology small --policy required");
    EXPECT_EQ(result.exitCode, 0);
    // The 2S CP availability at defaults.
    EXPECT_NE(result.output.find("0.99998748"), std::string::npos);
    EXPECT_NE(result.output.find("6.58"), std::string::npos);
}

TEST(Cli, AnalyzeAcceptsParameterOverrides)
{
    auto result = runCli(
        "analyze --topology small --policy required --ar 1.0");
    EXPECT_EQ(result.exitCode, 0);
    // Removing the rack single point of failure shrinks CP downtime
    // from 6.58 to ~1.3 m/y.
    EXPECT_NE(result.output.find("1.3"), std::string::npos);
}

TEST(Cli, RankFindsVRouterWeakLinks)
{
    auto result = runCli("rank --plane dp --top 3");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("supervisor-vrouter"),
              std::string::npos);
    EXPECT_NE(result.output.find("vrouter-dpdk"), std::string::npos);
}

TEST(Cli, CutSetsFindsRackSingleton)
{
    auto result =
        runCli("cutsets --topology small --order 1 --plane cp");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("{rack0}"), std::string::npos);
}

TEST(Cli, OutageAndFleetRun)
{
    auto outage = runCli("outage --topology small --plane cp");
    EXPECT_EQ(outage.exitCode, 0);
    EXPECT_NE(outage.output.find("outages/year"), std::string::npos);

    auto fleet = runCli("fleet --topology small --sites 100");
    EXPECT_EQ(fleet.exitCode, 0);
    EXPECT_NE(fleet.output.find("100"), std::string::npos);
    EXPECT_NE(fleet.output.find("P[outage within 1y]"),
              std::string::npos);
}

TEST(Cli, TransientShowsRecovery)
{
    auto result = runCli("transient --topology small --from down");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("time to steady state"),
              std::string::npos);
}

TEST(Cli, ExportAndReimportCatalog)
{
    std::string path = testing::TempDir() + "/cli_export_test.json";
    auto exported =
        runCli("export catalog " + path + " --catalog raft");
    EXPECT_EQ(exported.exitCode, 0);
    auto analyzed = runCli("analyze --catalog-file " + path +
                           " --topology large --policy required");
    EXPECT_EQ(analyzed.exitCode, 0);
    EXPECT_NE(analyzed.output.find("Raft-style"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, ExportTopologyRoundTrips)
{
    std::string path = testing::TempDir() + "/cli_topo_test.json";
    auto exported = runCli("export topology " + path +
                           " --topology medium");
    EXPECT_EQ(exported.exitCode, 0);
    auto analyzed =
        runCli("analyze --topology-file " + path + " --policy "
               "not-required");
    EXPECT_EQ(analyzed.exitCode, 0);
    EXPECT_NE(analyzed.output.find("Medium"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Cli, BadInputsReportErrorsGracefully)
{
    auto bad_policy = runCli("analyze --policy maybe");
    EXPECT_EQ(bad_policy.exitCode, 1);
    EXPECT_NE(bad_policy.output.find("error:"), std::string::npos);

    auto bad_file = runCli("analyze --catalog-file /no/such.json");
    EXPECT_EQ(bad_file.exitCode, 1);

    // Malformed or out-of-range numeric flags are usage errors and
    // exit 2 (see MalformedNumericOptionIsAUsageErrorNamingTheFlag).
    auto bad_availability = runCli("analyze --a 1.5");
    EXPECT_EQ(bad_availability.exitCode, 2);

    auto missing_value = runCli("analyze --topology");
    EXPECT_EQ(missing_value.exitCode, 2);
}

TEST(Cli, UnknownOptionIsAUsageErrorNamingIt)
{
    // Misspelled, retired, or read by another command only: each is
    // refused before any work runs, instead of being ignored.
    const std::string trace = testing::TempDir() + "/cli_unread.json";
    std::remove(trace.c_str());
    for (const std::string &args :
         {std::string("rank --top 2 --topologyy small"),
          std::string("analyze --polcy none"),
          std::string("simulate --hours 100 --metrix m.json"),
          std::string("tables --plane dp"),
          "rank --bdd-reorder --trace " + trace}) {
        auto result = runCli(args);
        EXPECT_EQ(result.exitCode, 2) << args;
        EXPECT_NE(result.output.find("unknown option --"),
                  std::string::npos)
            << args;
        EXPECT_NE(result.output.find("usage:"), std::string::npos)
            << args;
    }
    EXPECT_NE(runCli("rank --bdd-reorder").output.find("--bdd-reorder"),
              std::string::npos);
    EXPECT_NE(runCli("analyze --polcy none").output.find("--polcy"),
              std::string::npos);
    // The trace was never armed, so nothing was written.
    FILE *written = std::fopen(trace.c_str(), "r");
    EXPECT_EQ(written, nullptr);
    if (written != nullptr)
        std::fclose(written);
}

TEST(Cli, OptionWithoutItsValueIsAUsageError)
{
    // At the end of the line, or followed by another option: the next
    // option is never taken as the value.
    for (const char *args : {"rank --nodes", "rank --nodes --top 2"}) {
        auto result = runCli(args);
        EXPECT_EQ(result.exitCode, 2) << args;
        EXPECT_NE(result.output.find("option --nodes needs a value"),
                  std::string::npos)
            << args;
    }
}

TEST(Cli, SimulateSmokeRun)
{
    auto result = runCli(
        "simulate --topology small --hours 20000 --mtbf 100 --hosts 6 "
        "--seed 3");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("Behavioral simulation"),
              std::string::npos);
    EXPECT_NE(result.output.find("CP outages"), std::string::npos);
}

TEST(Cli, SimulateReplicatedRun)
{
    const std::string base =
        "simulate --topology small --hours 5000 --mtbf 100 --hosts 6 "
        "--seed 3 --replications 4";
    auto result = runCli(base + " --threads 2");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("Replicated behavioral simulation"),
              std::string::npos);
    EXPECT_NE(result.output.find("4 x"), std::string::npos);
    EXPECT_NE(result.output.find("across SE"), std::string::npos);

    // Thread count must not change the pooled numbers.
    auto sequential = runCli(base + " --threads 1");
    EXPECT_EQ(sequential.exitCode, 0);
    EXPECT_EQ(result.output, sequential.output);
}

TEST(Cli, FiguresIdenticalAcrossThreadCounts)
{
    const std::string base = "figures --points 11";
    auto serial = runCli(base + " --threads 1");
    EXPECT_EQ(serial.exitCode, 0);
    EXPECT_NE(serial.output.find("Figure 3."), std::string::npos);
    EXPECT_NE(serial.output.find("Figure 4."), std::string::npos);
    EXPECT_NE(serial.output.find("Figure 5."), std::string::npos);
    for (const char *threads : {"2", "8"}) {
        auto parallel =
            runCli(base + " --threads " + std::string(threads));
        EXPECT_EQ(parallel.exitCode, 0);
        EXPECT_EQ(serial.output, parallel.output)
            << threads << " threads";
    }
}

TEST(Cli, FiguresExactVariantsPrinted)
{
    auto result = runCli("figures --points 5 --exact on --threads 2");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("Figure 4 (exact)."),
              std::string::npos);
    EXPECT_NE(result.output.find("Figure 5 (exact)."),
              std::string::npos);
}

TEST(Cli, MetricsFlagWritesParseableSnapshot)
{
    std::string path = testing::TempDir() + "/cli_metrics_test.json";
    // --exact on routes Figures 4/5 through the BDD engine so the
    // bdd.* counters are exercised too.
    auto result = runCli("figures --points 5 --exact on --threads 2 "
                         "--metrics " + path);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("[metrics] wrote"),
              std::string::npos);

    sdnav::json::Value doc = sdnav::json::parseFile(path);
    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(doc.at("schema_version").asNumber(), 1.0);
    EXPECT_EQ(doc.at("command").asString(), "figures");
    EXPECT_DOUBLE_EQ(doc.at("threads").asNumber(), 2.0);
    const sdnav::json::Value &metrics = doc.at("metrics");
    ASSERT_TRUE(metrics.isObject());
    EXPECT_TRUE(metrics.at("enabled").asBool());
    // The figures sweep must have recorded grid points and BDD
    // probability evaluations.
    EXPECT_GT(metrics.at("counters").at("sweep.points").asNumber(), 0.0);
    EXPECT_GT(metrics.at("counters").at("bdd.prob_evals").asNumber(),
              0.0);
    EXPECT_TRUE(metrics.contains("timers"));
    std::remove(path.c_str());
}

TEST(Cli, MetricsForSimulateCountsEvents)
{
    std::string path = testing::TempDir() + "/cli_sim_metrics.json";
    auto result = runCli(
        "simulate --topology small --hours 5000 --mtbf 100 --hosts 6 "
        "--seed 3 --metrics " + path);
    EXPECT_EQ(result.exitCode, 0);

    sdnav::json::Value doc = sdnav::json::parseFile(path);
    EXPECT_EQ(doc.at("command").asString(), "simulate");
    const sdnav::json::Value &metrics = doc.at("metrics");
    EXPECT_GT(metrics.at("counters").at("sim.events").asNumber(), 0.0);
    EXPECT_GT(metrics.at("gauges").at("sim.queue_high_water").asNumber(),
              0.0);
    std::remove(path.c_str());
}

TEST(Cli, DeterministicCountersIdenticalAcrossThreadCounts)
{
    // The determinism contract extends to the metrics layer: counters
    // fed by per-index work (grid points, probability evaluations,
    // simulated events) must fold to the same totals whatever the
    // thread count. Scheduling-dependent metrics (chunk counts,
    // timers, scratch reuse) are exempt.
    std::string path1 = testing::TempDir() + "/cli_metrics_t1.json";
    std::string path8 = testing::TempDir() + "/cli_metrics_t8.json";
    const std::string base = "figures --points 11 --exact on";
    EXPECT_EQ(
        runCli(base + " --threads 1 --metrics " + path1).exitCode, 0);
    EXPECT_EQ(
        runCli(base + " --threads 8 --metrics " + path8).exitCode, 0);

    sdnav::json::Value m1 =
        sdnav::json::parseFile(path1).at("metrics");
    sdnav::json::Value m8 =
        sdnav::json::parseFile(path8).at("metrics");
    for (const char *name : {"sweep.points", "sweep.runs",
                             "bdd.prob_evals",
                             "bdd.unique_table_misses"}) {
        EXPECT_DOUBLE_EQ(m1.at("counters").at(name).asNumber(),
                         m8.at("counters").at(name).asNumber())
            << name;
    }
    std::remove(path1.c_str());
    std::remove(path8.c_str());
}

TEST(Cli, MetricsToUnwritablePathFailsUpfrontAsUsageError)
{
    // Validated before any work runs: usage-style error, exit 2.
    auto result = runCli(
        "figures --points 5 --metrics /nonexistent-dir/m.json");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("cannot write --metrics"),
              std::string::npos);
    EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(Cli, TraceToUnwritablePathFailsUpfrontAsUsageError)
{
    auto result = runCli(
        "simulate --hours 1000 --trace /nonexistent-dir/t.json");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("cannot write --trace"),
              std::string::npos);
    EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(Cli, TraceFlagWritesValidChromeTrace)
{
    std::string path = testing::TempDir() + "/cli_trace_test.json";
    auto result = runCli(
        "simulate --topology small --hours 5000 --mtbf 100 --hosts 6 "
        "--seed 3 --trace " + path);
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("[trace] wrote"), std::string::npos);

    sdnav::json::Value doc = sdnav::json::parseFile(path);
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    const auto &events = doc.at("traceEvents").asArray();
    bool saw_sim_span = false;
    for (const sdnav::json::Value &event : events) {
        if (event.at("name").asString() == "sim.controller_run")
            saw_sim_span = true;
    }
    EXPECT_TRUE(saw_sim_span);
    EXPECT_GT(events.size(), 1u);
    std::remove(path.c_str());
}

TEST(Cli, SimulateAttributionPrintsTables)
{
    auto result = runCli(
        "simulate --topology small --hours 20000 --mtbf 100 --hosts 6 "
        "--seed 3 --attribution");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("CP downtime attribution"),
              std::string::npos);
    EXPECT_NE(result.output.find("DP downtime attribution"),
              std::string::npos);
    // The analytic cross-check column from the BDD structure
    // function, and the integrity total row.
    EXPECT_NE(result.output.find("analytic_share"),
              std::string::npos);
    EXPECT_NE(result.output.find("total"), std::string::npos);
}

TEST(Cli, SimulateAttributionIdenticalAcrossThreadCounts)
{
    const std::string base =
        "simulate --topology small --hours 5000 --mtbf 100 --hosts 6 "
        "--seed 3 --replications 4 --attribution";
    auto sequential = runCli(base + " --threads 1");
    EXPECT_EQ(sequential.exitCode, 0);
    auto parallel = runCli(base + " --threads 8");
    EXPECT_EQ(parallel.exitCode, 0);
    EXPECT_EQ(sequential.output, parallel.output);
}

TEST(Cli, SimulateWithoutHostsReportsUnmeasuredDp)
{
    auto result = runCli(
        "simulate --topology small --hours 5000 --mtbf 100 --hosts 0 "
        "--seed 3");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_NE(result.output.find("n/a"), std::string::npos);
}

TEST(Cli, MalformedNumericOptionIsAUsageErrorNamingTheFlag)
{
    // std::stod would have parsed "3x" as 3 and thrown uncaught on
    // "abc"; the checked parser exits 2 and says which flag.
    auto mtbf = runCli("simulate --mtbf abc --hours 100");
    EXPECT_EQ(mtbf.exitCode, 2);
    EXPECT_NE(mtbf.output.find("--mtbf"), std::string::npos);

    auto hours = runCli("simulate --hours 3x");
    EXPECT_EQ(hours.exitCode, 2);
    EXPECT_NE(hours.output.find("--hours"), std::string::npos);

    auto nodes = runCli("analyze --nodes 2.5");
    EXPECT_EQ(nodes.exitCode, 2);
    EXPECT_NE(nodes.output.find("--nodes"), std::string::npos);
}

TEST(Cli, WordOptionOutsideItsWordsIsAUsageError)
{
    // Each word-valued option names its words; any other value exits
    // 2 before any work runs, instead of falling back to a default
    // (rank --plane dq used to rank the control plane).
    struct Case
    {
        const char *args;
        const char *message;
    };
    const Case cases[] = {
        {"rank --plane dq", "option --plane takes cp|dp, not 'dq'"},
        {"transient --from sideways",
         "option --from takes down|up, not 'sideways'"},
        {"analyze --sensitivity yes",
         "option --sensitivity takes on, not 'yes'"},
        {"figures --points 3 --exact off",
         "option --exact takes on, not 'off'"},
        {"tables --fmea short", "option --fmea takes full, not 'short'"},
    };
    for (const Case &c : cases) {
        auto result = runCli(c.args);
        EXPECT_EQ(result.exitCode, 2) << c.args;
        EXPECT_NE(result.output.find(c.message), std::string::npos)
            << c.args << "\n" << result.output;
        EXPECT_NE(result.output.find("usage:"), std::string::npos)
            << c.args;
        EXPECT_EQ(result.output.find("Transient availability"),
                  std::string::npos)
            << c.args;
    }
    // The usage text lists the words.
    auto help = runCli("help");
    for (const char *words : {"--plane cp|dp", "--from down|up",
                              "--sensitivity on", "--exact on",
                              "--fmea full"})
        EXPECT_NE(help.output.find(words), std::string::npos) << words;
}

TEST(Cli, WordOptionsRunWithEachOfTheirWords)
{
    for (const char *args :
         {"rank --plane cp --top 1", "rank --plane dp --top 1",
          "transient --from down --topology small",
          "transient --from up --topology small",
          "tables --fmea full"}) {
        EXPECT_EQ(runCli(args).exitCode, 0) << args;
    }
    auto up = runCli("transient --from up --topology small");
    EXPECT_NE(up.output.find("from all-up"), std::string::npos);
}

TEST(Cli, OutOfRangeAvailabilityIsAUsageError)
{
    auto result = runCli("analyze --a 1.5");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--a"), std::string::npos);
    EXPECT_NE(result.output.find("out of range"), std::string::npos);

    auto negative = runCli("analyze --ah -0.2");
    EXPECT_EQ(negative.exitCode, 2);
    EXPECT_NE(negative.output.find("--ah"), std::string::npos);
}

} // anonymous namespace
