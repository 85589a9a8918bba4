/**
 * @file
 * What a compile builds and what it leaves behind, on the benchmark's
 * model keys: the sixteen keys sdnavd compiles in cold_compile, and
 * raft/Large/21, the diagram exact_sweep evaluates.
 *
 * The frozen arrays are pinned byte for byte: the way a compile
 * reaches its diagram (operand order, table growth) may change, the
 * diagram may not. The peak node counts are pinned as upper bounds,
 * so atLeast()'s bottom-level-first operand order cannot quietly
 * regress. A workspace a compile reuses changes neither.
 */

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "rbd/system.hh"
#include "support/frozenArrays.hh"
#include "support/modelKeys.hh"
#include "topology/deployment.hh"

namespace
{

using namespace sdnav;
using test::catalogFor;
using test::topologyFor;
using model::ExactComponentClass;
using model::ExactVariableOrder;
using model::SupervisorPolicy;

/** A benchmark model key, control plane, and its pinned diagram. */
struct Key
{
    const char *catalog;
    const char *topology;
    std::size_t nodes;
    SupervisorPolicy policy;
    std::uint64_t digest;
};

constexpr SupervisorPolicy kRequired = SupervisorPolicy::Required;
constexpr SupervisorPolicy kNotRequired = SupervisorPolicy::NotRequired;

/**
 * The sixteen cold_compile keys with the FNV-1a digests
 * (support/frozenArrays.hh) of their diagrams as they were frozen
 * before atLeast() took its operands bottom level first and before
 * the tables' growth rules changed.
 */
const Key kColdKeys[] = {
    {"raft", "large", 21, kRequired, 0x40c50a62f6877aa9ULL},
    {"opencontrail", "small", 3, kRequired, 0x876944819561878dULL},
    {"raft", "large", 15, kRequired, 0xdef1d1bb5adf9c9fULL},
    {"fragile", "large", 31, kRequired, 0xe6d2fb34a9e0d326ULL},
    {"raft", "large", 21, kNotRequired, 0xb4246f7f3f44ecc0ULL},
    {"opencontrail", "medium", 3, kNotRequired, 0x5293823bfcd71091ULL},
    {"raft", "large", 17, kRequired, 0x136154b65d4c2b3aULL},
    {"opencontrail", "medium", 3, kRequired, 0xa7ebcd528de428faULL},
    {"raft", "medium", 21, kRequired, 0xe15d4c2f9852261aULL},
    {"raft", "small", 15, kRequired, 0x60ad9ae02ce9bc17ULL},
    {"opencontrail", "large", 3, kNotRequired, 0x19553b01f68975bfULL},
    {"fragile", "small", 31, kRequired, 0x43483b8cc1505921ULL},
    {"raft", "large", 19, kRequired, 0x08c50576d7e46eb9ULL},
    {"opencontrail", "large", 3, kRequired, 0x9ddf5b36390d947cULL},
    {"raft", "large", 15, kNotRequired, 0x4d2b49d333c69ef8ULL},
    {"fragile", "large", 25, kRequired, 0x4e19c8f6efcb16f4ULL},
};

/**
 * Compile a key as model::ExactPlaneModel does: the order's level
 * permutation, folded over the five component classes. Without an
 * order, the one model::chooseVariableOrder() picks, as sdnavd does;
 * without a workspace, in one of the compile's own.
 */
rbd::FrozenRbd
compileKey(const Key &key, const ExactVariableOrder *order = nullptr,
           bdd::Workspace *workspace = nullptr,
           const bdd::StepBudget &budget = {})
{
    fmea::ControllerCatalog catalog = catalogFor(key.catalog);
    topology::DeploymentTopology topo =
        topologyFor(key.topology, catalog.roles().size(), key.nodes);
    const fmea::Plane plane = fmea::Plane::ControlPlane;
    std::vector<ExactComponentClass> classes;
    rbd::RbdSystem system = model::buildExactSystem(
        catalog, topo, key.policy, model::SwParams{}, plane, &classes);
    rbd::CompileOptions options;
    options.levels = model::exactVariableLevels(
        catalog, topo, key.policy, plane,
        order ? *order
              : model::chooseVariableOrder(catalog, topo, key.policy,
                                           plane));
    for (ExactComponentClass cls : classes)
        options.classes.push_back(static_cast<unsigned>(cls));
    options.workspace = workspace;
    options.budget = budget;
    return rbd::compileFrozen(system, options);
}

std::string
label(const Key &key)
{
    return std::string(key.catalog) + "/" + key.topology + "/" +
           std::to_string(key.nodes) +
           (key.policy == kRequired ? " required" : " not-required");
}

/** BddStats field by field, with the key in the failure message. */
void
expectSameStats(const bdd::BddStats &actual, const bdd::BddStats &expected,
                const std::string &what)
{
    EXPECT_EQ(actual.iteCacheHits, expected.iteCacheHits) << what;
    EXPECT_EQ(actual.iteCacheMisses, expected.iteCacheMisses) << what;
    EXPECT_EQ(actual.uniqueTableHits, expected.uniqueTableHits) << what;
    EXPECT_EQ(actual.uniqueTableMisses, expected.uniqueTableMisses)
        << what;
    EXPECT_EQ(actual.uniqueRehashes, expected.uniqueRehashes) << what;
    EXPECT_EQ(actual.iteCacheGrowths, expected.iteCacheGrowths) << what;
    EXPECT_EQ(actual.peakNodes, expected.peakNodes) << what;
    EXPECT_EQ(actual.variables, expected.variables) << what;
}

TEST(CompileWork, ColdCompileDiagramsAreByteIdentical)
{
    for (const Key &key : kColdKeys) {
        EXPECT_EQ(bdd::FrozenArrays::digest(compileKey(key).diagram),
                  key.digest)
            << label(key);
    }
}

TEST(CompileWork, ExactSweepDiagramIsByteIdentical)
{
    // exact_sweep compiles raft/Large/21 node-major whatever the
    // chooser would pick.
    const Key sweep{"raft", "large", 21, kRequired, 0x40c50a62f6877aa9ULL};
    const ExactVariableOrder order = ExactVariableOrder::NodeMajor;
    rbd::FrozenRbd compiled = compileKey(sweep, &order);
    EXPECT_EQ(compiled.diagram.nodeCount(), 111095u);
    EXPECT_EQ(bdd::FrozenArrays::digest(compiled.diagram), sweep.digest);
}

TEST(CompileWork, ReusedWorkspaceBuildsWhatAFreshOneBuilds)
{
    // The sixteen keys through one workspace, in a seeded shuffled
    // order, then again after a node-cap abort left a half-built
    // arena and tables in it: each diagram as pinned above, and each
    // build's statistics as in a workspace of its own.
    constexpr std::size_t kKeys = std::size(kColdKeys);
    std::vector<bdd::BddStats> fresh;
    for (const Key &key : kColdKeys)
        fresh.push_back(compileKey(key).stats);

    bdd::Workspace workspace;
    std::mt19937_64 rng(20190324);
    std::vector<std::size_t> order(kKeys);
    std::iota(order.begin(), order.end(), 0);
    auto compileAll = [&](const char *pass) {
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t i : order) {
            const std::string what = label(kColdKeys[i]) + ", " + pass;
            rbd::FrozenRbd compiled =
                compileKey(kColdKeys[i], nullptr, &workspace);
            EXPECT_EQ(bdd::FrozenArrays::digest(compiled.diagram),
                      kColdKeys[i].digest)
                << what;
            expectSameStats(compiled.stats, fresh[i], what);
        }
    };
    compileAll("first pass");
    const std::size_t held = workspace.bytes();
    EXPECT_GT(held, 0u);

    // raft/Large/21 peaks at 166,576 nodes; the cap stops it midway.
    bdd::StepBudget cap;
    cap.nodeCap = 80000;
    EXPECT_THROW(compileKey(kColdKeys[0], nullptr, &workspace, cap),
                 bdd::BudgetExceeded);
    compileAll("after an abort");

    // Every build fits in what the largest one mapped.
    EXPECT_EQ(workspace.bytes(), held);
}

TEST(CompileWork, PeakNodesStayWithinTheirBounds)
{
    // Taken top level first, fragile/Large/31's quorum counters peak
    // at 87,667 nodes and raft/Large/21's at 183,926.
    const Key fragile{"fragile", "large", 31, kRequired, 0};
    EXPECT_LE(compileKey(fragile).stats.peakNodes, 41792u);
    const Key raft{"raft", "large", 21, kRequired, 0};
    EXPECT_LE(compileKey(raft).stats.peakNodes, 166576u);
}

} // anonymous namespace
