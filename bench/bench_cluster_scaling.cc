/**
 * @file
 * Extension: the paper's 2N+1 generalization ("generalization to N>1
 * is straightforward"). Sweeps the failure tolerance N (cluster size
 * 2N+1) for the Small and Large topologies, both planes, both
 * supervisor policies.
 */

#include <chrono>
#include <iostream>

#include "bench/benchCommon.hh"
#include "common/textTable.hh"
#include "common/units.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "model/swCentric.hh"
#include "prob/kofn.hh"

namespace
{

using namespace sdnav;
using namespace sdnav::model;
namespace fmea = sdnav::fmea;
namespace topology = sdnav::topology;

void
printReport()
{
    bench::section("Extension — 2N+1 cluster scaling (N = failures "
                   "tolerated)");
    auto catalog = fmea::openContrail3();
    SwParams params;

    TextTable table;
    table.header({"N", "nodes", "CP 1S m/y", "CP 2S m/y", "CP 1L m/y",
                  "CP 2L m/y", "DP 2L m/y"});
    CsvWriter csv;
    csv.header({"n_tolerated", "nodes", "cp_1s", "cp_2s", "cp_1l",
                "cp_2l", "dp_2l"});
    for (unsigned tolerated = 1; tolerated <= 4; ++tolerated) {
        std::size_t nodes = prob::clusterSize(tolerated);
        auto small = topology::smallTopology(4, nodes);
        auto large = topology::largeTopology(4, nodes);
        double cp_1s =
            SwAvailabilityModel(catalog, small,
                                SupervisorPolicy::NotRequired)
                .controlPlaneAvailability(params);
        double cp_2s =
            SwAvailabilityModel(catalog, small,
                                SupervisorPolicy::Required)
                .controlPlaneAvailability(params);
        double cp_1l =
            SwAvailabilityModel(catalog, large,
                                SupervisorPolicy::NotRequired)
                .controlPlaneAvailability(params);
        SwAvailabilityModel large_2(catalog, large,
                                    SupervisorPolicy::Required);
        double cp_2l = large_2.controlPlaneAvailability(params);
        double dp_2l = large_2.hostDataPlaneAvailability(params);
        auto dt = [](double a) {
            return formatFixed(availabilityToDowntimeMinutesPerYear(a),
                               3);
        };
        table.addRow({std::to_string(tolerated),
                      std::to_string(nodes), dt(cp_1s), dt(cp_2s),
                      dt(cp_1l), dt(cp_2l), dt(dp_2l)});
        csv.addRow(std::to_string(tolerated),
                   {static_cast<double>(nodes), cp_1s, cp_2s, cp_1l,
                    cp_2l, dp_2l});
    }
    std::cout << table.str() << "\n";
    std::cout
        << "Growing the cluster strengthens the quorum processes "
           "(Database) rapidly, but the\nSmall topology's CP floor is "
           "set by its single rack and the host DP stays pinned\nby "
           "the per-host vRouter processes — scaling the cluster does "
           "not fix single points\nof failure, the paper's central "
           "process-level insight.\n";
    bench::writeCsv(csv, "cluster_scaling.csv");

    bench::section("Exact BDD — diagram size and compile wall vs "
                   "cluster size (Large, data plane)");
    // The closed-form engine above is O(components); this charts what
    // the exact structure-function BDD costs as the cluster grows.
    // The control plane's 16 quorum blocks make its exact diagram
    // intrinsically exponential in the cluster size (see
    // bench_bdd_scaleup for the CP story), so the ladder runs the
    // data plane — whose exact model scales to 31 nodes, ten times
    // the paper's Large reference — under the node-major variable
    // order. Node counts and availabilities are deterministic and
    // golden-gated; compile wall times are printed and recorded in
    // the bench JSON "values" array, never in the CSV.
    TextTable bdd_table;
    bdd_table.header({"N", "nodes", "components", "BDD nodes",
                      "compile ms", "DP exact m/y"});
    CsvWriter bdd_csv;
    bdd_csv.header({"n_tolerated", "nodes", "components", "bdd_nodes",
                    "dp_exact"});
    using clock = std::chrono::steady_clock;
    for (unsigned tolerated : {1u, 2u, 4u, 8u, 15u}) {
        std::size_t nodes = prob::clusterSize(tolerated);
        auto topo = topology::largeTopology(4, nodes);
        ExactPlaneModel::Options order;
        order.order = ExactVariableOrder::NodeMajor;
        auto t0 = clock::now();
        ExactPlaneModel engine(catalog, topo,
                               SupervisorPolicy::Required,
                               fmea::Plane::DataPlane, order);
        double compile_ms =
            std::chrono::duration<double, std::milli>(clock::now() - t0)
                .count();
        double dp = engine.availability(params);
        bench::recordValue(
            "exact_dp_compile_ms_nodes" + std::to_string(nodes),
            compile_ms);
        bdd_table.addRow(
            {std::to_string(tolerated), std::to_string(nodes),
             std::to_string(engine.componentCount()),
             std::to_string(engine.bddNodeCount()),
             formatFixed(compile_ms, 2),
             formatFixed(availabilityToDowntimeMinutesPerYear(dp),
                         3)});
        bdd_csv.addRow(
            std::to_string(tolerated),
            {static_cast<double>(nodes),
             static_cast<double>(engine.componentCount()),
             static_cast<double>(engine.bddNodeCount()), dp});
    }
    std::cout << bdd_table.str() << "\n";
    bench::writeCsv(bdd_csv, "cluster_scaling_bdd.csv");

    bench::section("Sweep engine — serial vs parallel (cluster "
                   "scaling)");
    // Fine downtime-shift sweep over the four cluster sizes; engines
    // are built once and shared read-only across the pool.
    std::vector<SwAvailabilityModel> engines;
    for (unsigned tolerated = 1; tolerated <= 4; ++tolerated) {
        engines.emplace_back(
            catalog,
            topology::largeTopology(4, prob::clusterSize(tolerated)),
            SupervisorPolicy::Required);
    }
    constexpr std::size_t kPoints = 1001;
    bench::reportSweepTiming(
        "cluster CP, 4 sizes x 1001-point shift sweep",
        [&](const auto &sweep) {
            std::vector<double> ys(engines.size() * kPoints);
            sdnav::analysis::forEachGridPoint(
                ys.size(),
                [&](std::size_t job) {
                    std::size_t n = job / kPoints;
                    std::size_t i = job % kPoints;
                    double shift =
                        -1.0 + 2.0 * static_cast<double>(i) /
                                   static_cast<double>(kPoints - 1);
                    ys[job] = engines[n].controlPlaneAvailability(
                        params.withDowntimeShift(shift));
                },
                sweep);
            return ys;
        });
}

void
benchFiveNodeEngine(benchmark::State &state)
{
    auto catalog = sdnav::fmea::openContrail3();
    auto topo = topology::largeTopology(4, 5);
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::Required);
    SwParams params;
    for (auto _ : state) {
        double a = model.controlPlaneAvailability(params);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchFiveNodeEngine);

void
benchNineNodeEngine(benchmark::State &state)
{
    auto catalog = sdnav::fmea::openContrail3();
    auto topo = topology::largeTopology(4, 9);
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::Required);
    SwParams params;
    for (auto _ : state) {
        double a = model.controlPlaneAvailability(params);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchNineNodeEngine);

} // anonymous namespace

int
main(int argc, char **argv)
{
    return sdnav::bench::benchMain("cluster_scaling", printReport, argc, argv);
}
