/**
 * @file
 * BDD engine scale-up: exact structure-function compilation for
 * generalized 2N+1 clusters at ten times the paper's Large reference
 * (cluster size 31 vs 3), each compiled under the order its level
 * permutation fixes up front.
 *
 * The control-plane ladder uses the Raft-style catalog: its six
 * quorum blocks keep the exact diagram polynomial in the cluster
 * size under the node-major variable order, where OpenContrail's
 * sixteen CP blocks are intrinsically exponential (the per-block
 * counter product crosses every node group). The OpenContrail CP
 * section contrasts the two variable orders at the reference size,
 * and the importance section times every Birnbaum importance of the
 * paper's exact Large model as one gradient of the frozen diagram.
 *
 * Deterministic outputs (node counts, availabilities)
 * go to bdd_scaleup.csv and are golden-gated; wall times go to stdout
 * and the bench JSON "values" array, which the perf gate tracks but
 * never diffs strictly.
 */

#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench/benchCommon.hh"
#include "bdd/bdd.hh"
#include "common/textTable.hh"
#include "common/units.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "prob/kofn.hh"
#include "rbd/system.hh"

namespace
{

using namespace sdnav;
using namespace sdnav::model;
namespace fmea = sdnav::fmea;
namespace topology = sdnav::topology;

using clock_type = std::chrono::steady_clock;

double
elapsedMs(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(clock_type::now() -
                                                     t0)
        .count();
}

/** Failure tolerances swept: cluster sizes 3 to 31 (10x Large). */
constexpr unsigned kTolerated[] = {1, 2, 4, 8, 15};

void
printReport()
{
    bench::section("BDD scale-up — exact 2N+1 control plane to 10x "
                   "the paper's Large cluster (Raft-style catalog)");
    auto raft = fmea::raftStyleController();
    std::size_t raft_roles = raft.roles().size();
    SwParams params;

    TextTable table;
    table.header({"N", "nodes", "components", "BDD nodes",
                  "peak nodes", "compile ms", "CP exact m/y"});
    CsvWriter csv;
    csv.header({"n_tolerated", "nodes", "components", "bdd_nodes",
                "cp_exact"});
    for (unsigned tolerated : kTolerated) {
        std::size_t nodes = prob::clusterSize(tolerated);
        auto topo = topology::largeTopology(raft_roles, nodes);

        auto system = buildExactSystem(
            raft, topo, SupervisorPolicy::Required, params,
            fmea::Plane::ControlPlane);
        rbd::CompileOptions node_major;
        node_major.levels = exactVariableLevels(
            raft, topo, SupervisorPolicy::Required,
            fmea::Plane::ControlPlane, ExactVariableOrder::NodeMajor);
        auto t0 = clock_type::now();
        rbd::FrozenRbd plain = rbd::compileFrozen(system, node_major);
        double compile_ms = elapsedMs(t0);
        std::size_t peak = plain.stats.peakNodes;

        bdd::ProbabilityScratch scratch;
        double cp = plain.diagram.probability(system.availabilities(),
                                              scratch);

        bench::recordValue("compile_ms_nodes" + std::to_string(nodes),
                           compile_ms);
        bench::recordValue("peak_nodes_nodes" + std::to_string(nodes),
                           static_cast<double>(peak));
        table.addRow(
            {std::to_string(tolerated), std::to_string(nodes),
             std::to_string(system.componentCount()),
             std::to_string(plain.diagram.nodeCount()),
             std::to_string(peak), formatFixed(compile_ms, 2),
             formatFixed(availabilityToDowntimeMinutesPerYear(cp),
                         3)});
        csv.addRow(
            std::to_string(tolerated),
            {static_cast<double>(nodes),
             static_cast<double>(system.componentCount()),
             static_cast<double>(plain.diagram.nodeCount()), cp});
    }
    std::cout << table.str() << "\n";
    std::cout
        << "The exact diagram stays polynomial in the cluster size "
           "under the node-major\norder — quorum counting crosses "
           "each node group with only the per-block\ncounters as "
           "state.\n";
    bench::writeCsv(csv, "bdd_scaleup.csv");

    bench::section("Variable-order sensitivity — OpenContrail CP at "
                   "the reference cluster");
    // The paper's own catalog: sixteen CP quorum blocks, at most six
    // per role. Node-major carries every block's counter at once and
    // loses to shared-infrastructure-first by two orders of
    // magnitude; role-major fixes the racks, then carries one role's
    // counters at a time and beats both by as much again.
    auto oc = fmea::openContrail3();
    auto oc_topo = topology::largeTopology(4, 3);
    for (ExactVariableOrder order :
         {ExactVariableOrder::SharedInfrastructureFirst,
          ExactVariableOrder::NodeMajor, ExactVariableOrder::RoleMajor}) {
        ExactPlaneModel::Options opts;
        opts.order = order;
        auto t0 = clock_type::now();
        ExactPlaneModel engine(oc, oc_topo, SupervisorPolicy::Required,
                               fmea::Plane::ControlPlane, opts);
        double compile_ms = elapsedMs(t0);
        const char *label =
            order == ExactVariableOrder::SharedInfrastructureFirst
                ? "shared-infra-first"
                : (order == ExactVariableOrder::NodeMajor ? "node-major"
                                                          : "role-major");
        bench::recordValue(std::string("oc_cp_compile_ms_") + label,
                           compile_ms);
        std::cout << "order " << label << ": "
                  << engine.bddNodeCount() << " nodes, "
                  << formatFixed(compile_ms, 2) << " ms\n";
    }

    bench::section("Adjoint importance — every Birnbaum importance of "
                   "the paper's exact Large CP model in one reverse "
                   "pass");
    // The cost of rankImportance() by phase: the compile dominates;
    // the gradient is one forward and one reverse pass over the
    // reachable nodes, whatever the component count.
    auto system = buildExactSystem(oc, oc_topo,
                                   SupervisorPolicy::Required, params,
                                   fmea::Plane::ControlPlane);
    auto t0 = clock_type::now();
    bdd::BddManager manager;
    bdd::NodeRef f = system.compile(manager);
    double compile_ms = elapsedMs(t0);
    t0 = clock_type::now();
    bdd::FrozenDiagram diagram = manager.freeze(f);
    double freeze_ms = elapsedMs(t0);
    bdd::ProbabilityScratch scratch;
    std::vector<double> birnbaum;
    t0 = clock_type::now();
    diagram.gradient(system.availabilities(), scratch, birnbaum);
    double gradient_ms = elapsedMs(t0);
    bench::recordValue("importance_compile_ms", compile_ms);
    bench::recordValue("importance_freeze_ms", freeze_ms);
    bench::recordValue("importance_gradient_ms", gradient_ms);
    std::cout << birnbaum.size() << " components: compile "
              << formatFixed(compile_ms, 2) << " ms ("
              << manager.totalNodes() << " nodes), freeze "
              << formatFixed(freeze_ms, 2) << " ms ("
              << diagram.nodeCount() << " reachable), gradient "
              << formatFixed(gradient_ms, 3) << " ms\n";
}

void
benchScaleupCompile31Nodes(benchmark::State &state)
{
    auto raft = fmea::raftStyleController();
    auto topo = topology::largeTopology(raft.roles().size(), 31);
    ExactPlaneModel::Options opts;
    opts.order = ExactVariableOrder::NodeMajor;
    for (auto _ : state) {
        ExactPlaneModel engine(raft, topo, SupervisorPolicy::Required,
                               fmea::Plane::ControlPlane, opts);
        benchmark::DoNotOptimize(engine.bddNodeCount());
    }
}
BENCHMARK(benchScaleupCompile31Nodes);

void
benchScaleupEvaluation(benchmark::State &state)
{
    auto raft = fmea::raftStyleController();
    auto topo = topology::largeTopology(raft.roles().size(), 31);
    ExactPlaneModel::Options opts;
    opts.order = ExactVariableOrder::NodeMajor;
    ExactPlaneModel engine(raft, topo, SupervisorPolicy::Required,
                           fmea::Plane::ControlPlane, opts);
    SwParams params;
    bdd::ProbabilityScratch scratch;
    for (auto _ : state) {
        double a = engine.availability(params, scratch);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(benchScaleupEvaluation);

} // anonymous namespace

int
main(int argc, char **argv)
{
    return sdnav::bench::benchMain("bdd_scaleup", printReport, argc,
                                   argv);
}
