/**
 * @file
 * Ablation: the paper's "one rack or three, but not two" conclusion.
 * Sweeps rack count (with everything else fixed) for both the
 * HW-centric exact model and the SW-centric engine, and breaks the
 * result down by rack availability. Every HW-centric value comes
 * from one ExactPlaneModel per rack count.
 */

#include <iostream>

#include "bench/benchCommon.hh"
#include "common/textTable.hh"
#include "common/units.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "model/hwCentric.hh"
#include "model/swCentric.hh"

namespace
{

using namespace sdnav;
using namespace sdnav::model;
namespace fmea = sdnav::fmea;
namespace topology = sdnav::topology;

/** One exact HW-centric model per topology. */
std::vector<ExactPlaneModel>
hwRackModels(const fmea::ControllerCatalog &hwCatalog,
             const std::vector<topology::DeploymentTopology> &topos)
{
    std::vector<ExactPlaneModel> models;
    models.reserve(topos.size());
    for (const auto &topo : topos)
        models.emplace_back(hwCatalog, topo,
                            SupervisorPolicy::NotRequired,
                            fmea::Plane::ControlPlane);
    return models;
}

void
printReport()
{
    bench::section("Ablation — rack count (\"one rack or three, but "
                   "not two\")");

    // Topologies, the HW-centric exact models and the SW-centric
    // engines are built once per rack count and evaluated at every
    // point below.
    std::vector<topology::DeploymentTopology> topos;
    for (std::size_t racks = 1; racks <= 3; ++racks)
        topos.push_back(topology::rackSweepTopology(racks));
    auto hw_catalog = hwCentricCatalog();
    std::vector<ExactPlaneModel> hw_models =
        hwRackModels(hw_catalog, topos);
    auto hw_exact = [&](std::size_t t, const HwParams &params) {
        return hw_models[t].availability(hwToSwParams(params));
    };

    TextTable hw_table;
    hw_table.header({"racks", "availability", "downtime m/y"});
    TextTable sw_table;
    sw_table.header({"racks", "CP m/y", "shared DP m/y"});
    CsvWriter csv;
    csv.header({"racks", "hw_exact", "cp_2", "dp_2"});
    auto catalog = fmea::openContrail3();
    for (std::size_t t = 0; t < topos.size(); ++t) {
        std::string racks = std::to_string(t + 1);
        double hw = hw_exact(t, HwParams{});
        hw_table.addRow(
            {racks, formatFixed(hw, 8),
             formatFixed(availabilityToDowntimeMinutesPerYear(hw),
                         2)});
        SwAvailabilityModel model(catalog, topos[t],
                                  SupervisorPolicy::Required);
        SwParams sw;
        double cp = model.controlPlaneAvailability(sw);
        double sdp = model.sharedDataPlaneAvailability(sw);
        csv.addRow(racks, {hw, cp, model.hostDataPlaneAvailability(sw)});
        sw_table.addRow(
            {racks,
             formatFixed(availabilityToDowntimeMinutesPerYear(cp), 2),
             formatFixed(availabilityToDowntimeMinutesPerYear(sdp),
                         2)});
    }
    std::cout << "HW-centric exact availability by rack count "
                 "(dedicated VMs/hosts, nodes round-robin\nacross "
                 "racks; rack count 1 = single-rack Large, 3 = paper "
                 "Large):\n\n";
    std::cout << hw_table.str() << "\n";
    std::cout << "SW-centric CP downtime (2-scenario, m/y) by rack "
                 "count:\n\n";
    std::cout << sw_table.str() << "\n";

    std::cout << "Sensitivity to rack availability (HW-centric exact, "
                 "by rack count):\n\n";
    TextTable rack_table;
    rack_table.header({"A_R", "1 rack", "2 racks", "3 racks"});
    for (double ar : {0.9999, 0.99995, 0.99999, 0.999999}) {
        std::vector<std::string> row{formatGeneral(ar, 7)};
        HwParams params;
        params.rackAvailability = ar;
        for (std::size_t t = 0; t < topos.size(); ++t)
            row.push_back(formatFixed(hw_exact(t, params), 8));
        rack_table.addRow(std::move(row));
    }
    std::cout << rack_table.str() << "\n";
    std::cout << "Two racks are consistently worse than one (the "
                 "quorum still shares rack 1, and rack 2\nadds failure "
                 "modes); three racks keep the quorum alive through "
                 "any single rack loss.\n";
    bench::writeCsv(csv, "rack_ablation.csv");

    bench::section("Sweep engine — serial vs parallel (rack "
                   "ablation)");
    // Fine A_R sweep over the three rack counts (HW-centric exact).
    // Each timed run builds its three models, as figure4Exact does,
    // then evaluates every point on them read-only.
    constexpr std::size_t kPoints = 401;
    bench::reportSweepTiming(
        "rack ablation HW exact, 3 models built + 401-point A_R sweep "
        "each",
        [&](const auto &sweep) {
            std::vector<ExactPlaneModel> models =
                hwRackModels(hw_catalog, topos);
            std::vector<double> ys(models.size() * kPoints);
            sdnav::analysis::forEachGridPoint(
                ys.size(),
                [&](std::size_t job) {
                    static thread_local bdd::ProbabilityScratch scratch;
                    std::size_t t = job / kPoints;
                    std::size_t i = job % kPoints;
                    HwParams p;
                    p.rackAvailability =
                        0.9999 +
                        (0.999999 - 0.9999) * static_cast<double>(i) /
                            static_cast<double>(kPoints - 1);
                    ys[job] = models[t].availability(hwToSwParams(p),
                                                     scratch);
                },
                sweep);
            return ys;
        });
}

void
benchRackSweep(benchmark::State &state)
{
    HwParams params;
    for (auto _ : state) {
        double sum = 0.0;
        for (std::size_t racks = 1; racks <= 3; ++racks) {
            sum += hwExactAvailability(
                topology::rackSweepTopology(racks), params);
        }
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(benchRackSweep);

} // anonymous namespace

int
main(int argc, char **argv)
{
    return sdnav::bench::benchMain("rack_ablation", printReport, argc, argv);
}
