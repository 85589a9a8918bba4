/**
 * @file
 * Regenerates paper Figure 4: SDN control-plane availability A_CP as
 * a function of process availability (x-axis in orders of magnitude
 * of downtime) for options 1S / 2S / 1L / 2L, with the paper's quoted
 * spot values, and times the SW-centric engine against the exact BDD
 * evaluation.
 */

#include <iostream>

#include "analysis/figures.hh"
#include "analysis/summary.hh"
#include "bdd/bdd.hh"
#include "bench/benchCommon.hh"
#include "common/units.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "model/swCentric.hh"

namespace
{

using namespace sdnav;
using namespace sdnav::model;
namespace analysis = sdnav::analysis;
namespace fmea = sdnav::fmea;
namespace topology = sdnav::topology;

void
printReport()
{
    bench::section("Figure 4 — SDN CP availability A_CP (SW-centric)");
    auto catalog = fmea::openContrail3();
    SwParams params; // A = 0.99998, A_S = 0.9998 (paper defaults).
    analysis::FigureData fig = analysis::figure4(catalog, params, 21);
    std::cout << fig.toTable(8).str() << "\n";
    bench::writeCsv(fig.toCsv(), "fig4.csv");

    std::vector<analysis::SummaryEntry> entries;
    struct Option
    {
        const char *name;
        topology::ReferenceKind kind;
        SupervisorPolicy policy;
    };
    const Option options[] = {
        {"1S (Small, supervisor not required)",
         topology::ReferenceKind::Small, SupervisorPolicy::NotRequired},
        {"2S (Small, supervisor required)",
         topology::ReferenceKind::Small, SupervisorPolicy::Required},
        {"1L (Large, supervisor not required)",
         topology::ReferenceKind::Large, SupervisorPolicy::NotRequired},
        {"2L (Large, supervisor required)",
         topology::ReferenceKind::Large, SupervisorPolicy::Required},
    };
    for (const Option &opt : options) {
        auto topo = topology::referenceTopology(opt.kind);
        SwAvailabilityModel model(catalog, topo, opt.policy);
        entries.push_back({opt.name,
                           model.controlPlaneAvailability(params)});
    }
    std::cout << analysis::availabilitySummary(
                     "Spot values at defaults (paper: 5.9 / 6.6 / 0.7 "
                     "/ 1.4 minutes/year)",
                     entries)
                     .str()
              << "\n";
    std::cout << "Cross-check against exact BDD structure function:\n";
    for (const Option &opt : options) {
        auto topo = topology::referenceTopology(opt.kind);
        double exact = exactPlaneAvailability(
            catalog, topo, opt.policy, params,
            fmea::Plane::ControlPlane);
        std::cout << "  " << analysis::summaryLine(opt.name, exact)
                  << "\n";
    }

    bench::section("Sweep engine — serial vs parallel (Figure 4)");
    // Closed-form sweep: many cheap points.
    bench::reportSweepTiming(
        "figure4 SW-centric, 2001 points", [&](const auto &sweep) {
            return analysis::figure4(catalog, params, 2001, sweep).ys;
        });
    // Exact-BDD sweep: build each option's BDD once, then re-evaluate
    // per point — the build-once/evaluate-many showcase.
    bench::reportSweepTiming(
        "figure4 exact BDD, 501 points", [&](const auto &sweep) {
            return analysis::figure4Exact(catalog, params, 501, sweep)
                .ys;
        });

    // Repeated evaluation must not change the model: availability()
    // reads an immutable frozen diagram, so the resident node count
    // stays fixed after build.
    auto topo = topology::largeTopology();
    ExactPlaneModel engine(catalog, topo, SupervisorPolicy::Required,
                           fmea::Plane::ControlPlane);
    std::size_t nodes_after_build = engine.totalBddNodes();
    bdd::ProbabilityScratch scratch;
    for (int i = 0; i < 1000; ++i) {
        double a = engine.availability(
            params.withDowntimeShift(0.002 * i - 1.0), scratch);
        benchmark::DoNotOptimize(a);
    }
    require(engine.totalBddNodes() == nodes_after_build,
            "BDD grew during repeated probability evaluation");
    std::cout << "BDD node count stable across 1000 evaluations ("
              << nodes_after_build << " nodes).\n";
}

void
benchSwEngineSmallCp(benchmark::State &state)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::Required);
    SwParams params;
    for (auto _ : state) {
        double a = model.controlPlaneAvailability(params);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchSwEngineSmallCp);

void
benchSwEngineLargeCp(benchmark::State &state)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    SwAvailabilityModel model(catalog, topo,
                              SupervisorPolicy::Required);
    SwParams params;
    for (auto _ : state) {
        double a = model.controlPlaneAvailability(params);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchSwEngineLargeCp);

void
benchExactBddSmallCp(benchmark::State &state)
{
    auto catalog = fmea::openContrail3();
    auto topo = topology::smallTopology();
    SwParams params;
    for (auto _ : state) {
        double a = exactPlaneAvailability(catalog, topo,
                                          SupervisorPolicy::Required,
                                          params,
                                          fmea::Plane::ControlPlane);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchExactBddSmallCp);

void
benchFigure4FullSweep(benchmark::State &state)
{
    auto catalog = fmea::openContrail3();
    SwParams params;
    for (auto _ : state) {
        auto fig = analysis::figure4(catalog, params, 21);
        benchmark::DoNotOptimize(fig.ys.data());
    }
}
BENCHMARK(benchFigure4FullSweep);

void
benchFigure4ExactSweepThreads(benchmark::State &state)
{
    auto catalog = fmea::openContrail3();
    SwParams params;
    analysis::SweepOptions sweep;
    sweep.threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto fig = analysis::figure4Exact(catalog, params, 201, sweep);
        benchmark::DoNotOptimize(fig.ys.data());
    }
}
BENCHMARK(benchFigure4ExactSweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void
benchExactBuildOncePerPoint(benchmark::State &state)
{
    // Per-point full reconstruction (the pre-sweep-engine baseline):
    // what build-once/evaluate-many saves.
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    SwParams params;
    for (auto _ : state) {
        double a = exactPlaneAvailability(catalog, topo,
                                          SupervisorPolicy::Required,
                                          params,
                                          fmea::Plane::ControlPlane);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchExactBuildOncePerPoint);

void
benchExactEvaluateOnly(benchmark::State &state)
{
    // Build once outside the loop; time only the re-evaluation.
    auto catalog = fmea::openContrail3();
    auto topo = topology::largeTopology();
    ExactPlaneModel engine(catalog, topo, SupervisorPolicy::Required,
                           fmea::Plane::ControlPlane);
    SwParams params;
    bdd::ProbabilityScratch scratch;
    for (auto _ : state) {
        double a = engine.availability(params, scratch);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchExactEvaluateOnly);

} // anonymous namespace

int
main(int argc, char **argv)
{
    return sdnav::bench::benchMain("fig4", printReport, argc, argv);
}
