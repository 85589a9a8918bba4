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
 * The keys are the perfbench cold_compile key set, each under the
 * order sdnavd compiles it with (node-major past three nodes), plus
 * OpenContrail Large x3 under node-major too.
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
                : "_SharedInfrastructureFirst");
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
    rbd::RbdSystem system = model::buildExactSystem(
        catalog,
        topologyFor(key.topology, catalog.roles().size(), key.nodes),
        key.policy, model::SwParams{}, fmea::Plane::ControlPlane,
        nullptr, key.order);

    bdd::FrozenDiagram balanced = rbd::compileFrozen(system).diagram;
    bdd::FrozenDiagram reference;
    {
        BddManager m;
        reference = m.freeze(leftFoldCompile(m, system.root()));
    }
    ASSERT_EQ(balanced.nodeCount(), reference.nodeCount());

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

INSTANTIATE_TEST_SUITE_P(
    ColdCompileKeys, BalancedFold,
    testing::Values(
        CompileKey{"raft", "large", 21, kReq, kNodeMajor},
        CompileKey{"opencontrail", "small", 3, kReq, kSif},
        CompileKey{"raft", "large", 15, kReq, kNodeMajor},
        CompileKey{"fragile", "large", 31, kReq, kNodeMajor},
        CompileKey{"raft", "large", 21, kNotReq, kNodeMajor},
        CompileKey{"opencontrail", "medium", 3, kNotReq, kSif},
        CompileKey{"raft", "large", 17, kReq, kNodeMajor},
        CompileKey{"opencontrail", "medium", 3, kReq, kSif},
        CompileKey{"raft", "medium", 21, kReq, kNodeMajor},
        CompileKey{"raft", "small", 15, kReq, kNodeMajor},
        CompileKey{"opencontrail", "large", 3, kNotReq, kSif},
        CompileKey{"fragile", "small", 31, kReq, kNodeMajor},
        CompileKey{"raft", "large", 19, kReq, kNodeMajor},
        CompileKey{"opencontrail", "large", 3, kReq, kSif},
        CompileKey{"raft", "large", 15, kNotReq, kNodeMajor},
        CompileKey{"fragile", "large", 25, kReq, kNodeMajor},
        CompileKey{"opencontrail", "large", 3, kReq, kNodeMajor}),
    keyName);

} // anonymous namespace
