/**
 * @file
 * Differential test of the compile path: rbd::compileFrozen(), whose
 * series and parallel blocks go through BddManager's balanced
 * andAll()/orAll() folds, against a reference compile that walks the
 * rbd::Block tree itself and folds every series/parallel block left
 * to right with andOp()/orOp(). ROBDDs are canonical and freeze()
 * numbers the reachable nodes structurally, so the two frozen
 * diagrams must be the same diagram: equal node counts, and equal
 * probability and gradient bits at every parameter point.
 *
 * The keys are the perfbench cold_compile key set under the orders
 * the server compiled them with before role-major existed
 * (node-major past three nodes, shared-infrastructure-first below),
 * plus OpenContrail Large x3 under node-major, each pinned to the
 * frozen node count it has had since those orders were emission
 * orders; and role-major keys, the order model::chooseVariableOrder()
 * picks for OpenContrail, pinned to their sizes too.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "prob/rng.hh"
#include "rbd/system.hh"
#include "topology/deployment.hh"

namespace
{

using namespace sdnav;
using bdd::BddManager;
using bdd::NodeRef;
using model::ExactVariableOrder;
using model::SupervisorPolicy;

struct CompileKey
{
    const char *catalog;
    const char *topology;
    std::size_t nodes;
    SupervisorPolicy policy;
    ExactVariableOrder order;

    /** Frozen node count the key is pinned to; 0 pins nothing. */
    std::size_t frozenNodes = 0;
};

/** A test-name-safe label, e.g. raft_large_21_required_NodeMajor. */
std::string
keyName(const testing::TestParamInfo<CompileKey> &info)
{
    const CompileKey &key = info.param;
    return std::string(key.catalog) + "_" + key.topology + "_" +
           std::to_string(key.nodes) +
           (key.policy == SupervisorPolicy::Required ? "_required"
                                                     : "_notRequired") +
           (key.order == ExactVariableOrder::NodeMajor
                ? "_NodeMajor"
                : (key.order == ExactVariableOrder::RoleMajor
                       ? "_RoleMajor"
                       : "_SharedInfrastructureFirst"));
}

fmea::ControllerCatalog
catalogFor(const std::string &name)
{
    if (name == "raft")
        return fmea::raftStyleController();
    if (name == "fragile")
        return fmea::fragileController();
    return fmea::openContrail3();
}

topology::DeploymentTopology
topologyFor(const std::string &name, std::size_t roles, std::size_t nodes)
{
    if (name == "small")
        return topology::smallTopology(roles, nodes);
    if (name == "medium")
        return topology::mediumTopology(roles, nodes);
    return topology::largeTopology(roles, nodes);
}

/** The reference compile: children first, then a left fold. */
NodeRef
leftFoldCompile(BddManager &m, const rbd::Block &block)
{
    if (block.kind() == rbd::Block::Kind::Component)
        return m.var(static_cast<unsigned>(block.componentId()));
    std::vector<NodeRef> refs;
    for (const rbd::Block &child : block.children())
        refs.push_back(leftFoldCompile(m, child));
    switch (block.kind()) {
      case rbd::Block::Kind::Series: {
        NodeRef acc = bdd::trueNode;
        for (NodeRef f : refs)
            acc = m.andOp(acc, f);
        return acc;
      }
      case rbd::Block::Kind::Parallel: {
        NodeRef acc = bdd::falseNode;
        for (NodeRef f : refs)
            acc = m.orOp(acc, f);
        return acc;
      }
      default:
        return m.atLeast(refs, block.required());
    }
}

void
expectSameBits(double actual, double expected, std::size_t point)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(actual),
              std::bit_cast<std::uint64_t>(expected))
        << actual << " vs " << expected << " at point " << point;
}

class BalancedFold : public testing::TestWithParam<CompileKey>
{
};

TEST_P(BalancedFold, FreezesTheLeftFoldsDiagram)
{
    const CompileKey &key = GetParam();
    fmea::ControllerCatalog catalog = catalogFor(key.catalog);
    topology::DeploymentTopology topo =
        topologyFor(key.topology, catalog.roles().size(), key.nodes);
    rbd::RbdSystem system = model::buildExactSystem(
        catalog, topo, key.policy, model::SwParams{},
        fmea::Plane::ControlPlane);
    rbd::CompileOptions options;
    options.levels = model::exactVariableLevels(
        catalog, topo, key.policy, fmea::Plane::ControlPlane, key.order);

    bdd::FrozenDiagram balanced =
        rbd::compileFrozen(system, options).diagram;
    bdd::FrozenDiagram reference;
    {
        BddManager m(options.levels);
        reference = m.freeze(leftFoldCompile(m, system.root()));
    }
    ASSERT_EQ(balanced.nodeCount(), reference.nodeCount());
    if (key.frozenNodes != 0) {
        EXPECT_EQ(balanced.nodeCount(), key.frozenNodes);
    }

    // Availabilities from 1 - 1e-1 to 1 - 1e-6, drawn per component.
    constexpr std::size_t kPoints = 32;
    prob::Rng rng(20260418);
    bdd::ProbabilityScratch scratch;
    std::vector<double> probs(system.componentCount());
    std::vector<double> grad, referenceGrad;
    for (std::size_t point = 0; point < kPoints; ++point) {
        for (double &p : probs)
            p = 1.0 - std::pow(10.0, -1.0 - 5.0 * rng.uniform());
        expectSameBits(balanced.probability(probs, scratch),
                       reference.probability(probs, scratch), point);
        balanced.gradient(probs, scratch, grad);
        reference.gradient(probs, scratch, referenceGrad);
        ASSERT_EQ(grad.size(), referenceGrad.size());
        for (std::size_t i = 0; i < grad.size(); ++i)
            expectSameBits(grad[i], referenceGrad[i], point);
    }
}

constexpr SupervisorPolicy kReq = SupervisorPolicy::Required;
constexpr SupervisorPolicy kNotReq = SupervisorPolicy::NotRequired;
constexpr ExactVariableOrder kSif =
    ExactVariableOrder::SharedInfrastructureFirst;
constexpr ExactVariableOrder kNodeMajor = ExactVariableOrder::NodeMajor;
constexpr ExactVariableOrder kRoleMajor = ExactVariableOrder::RoleMajor;

INSTANTIATE_TEST_SUITE_P(
    ColdCompileKeys, BalancedFold,
    testing::Values(
        CompileKey{"raft", "large", 21, kReq, kNodeMajor, 163137},
        CompileKey{"opencontrail", "small", 3, kReq, kSif, 16256},
        CompileKey{"raft", "large", 15, kReq, kNodeMajor, 65128},
        CompileKey{"fragile", "large", 31, kReq, kNodeMajor, 38276},
        CompileKey{"raft", "large", 21, kNotReq, kNodeMajor, 134925},
        CompileKey{"opencontrail", "medium", 3, kNotReq, kSif, 16090},
        CompileKey{"raft", "large", 17, kReq, kNodeMajor, 91379},
        CompileKey{"opencontrail", "medium", 3, kReq, kSif, 26233},
        CompileKey{"raft", "medium", 21, kReq, kNodeMajor, 136861},
        CompileKey{"raft", "small", 15, kReq, kNodeMajor, 48995},
        CompileKey{"opencontrail", "large", 3, kNotReq, kSif, 26229},
        CompileKey{"fragile", "small", 31, kReq, kNodeMajor, 32311},
        CompileKey{"raft", "large", 19, kReq, kNodeMajor, 123830},
        CompileKey{"opencontrail", "large", 3, kReq, kSif, 36372},
        CompileKey{"raft", "large", 15, kNotReq, kNodeMajor, 53816},
        CompileKey{"fragile", "large", 25, kReq, kNodeMajor, 20866},
        CompileKey{"opencontrail", "large", 3, kReq, kNodeMajor, 1805886}),
    keyName);

INSTANTIATE_TEST_SUITE_P(
    RoleMajorKeys, BalancedFold,
    testing::Values(
        CompileKey{"opencontrail", "small", 3, kReq, kRoleMajor, 374},
        CompileKey{"opencontrail", "medium", 3, kReq, kRoleMajor, 425},
        CompileKey{"opencontrail", "large", 3, kReq, kRoleMajor, 478},
        CompileKey{"opencontrail", "large", 5, kReq, kRoleMajor, 5783},
        CompileKey{"raft", "large", 5, kReq, kRoleMajor, 1313}),
    keyName);

} // anonymous namespace
