/**
 * @file
 * Class-folded frozen diagrams. model::ExactPlaneModel freezes its
 * diagram over the five component classes (bdd::BddManager::freeze
 * with a class map): a node equal to an earlier one in class and
 * folded children shares its slot. The fold must not change a bit of
 * any availability, only the number of nodes an evaluation computes,
 * and a freeze without a map must be the diagram it always was.
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
using fmea::Plane;
using model::ExactComponentClass;
using model::ExactPlaneModel;
using model::ExactVariableOrder;
using model::SupervisorPolicy;

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

/** One model's diagram, compiled once and frozen twice: without a
 *  class map and with the model's. */
struct Frozen
{
    std::vector<ExactComponentClass> classes;
    bdd::FrozenDiagram unfolded;
    bdd::FrozenDiagram folded;
};

Frozen
freezeBoth(const fmea::ControllerCatalog &catalog,
           const topology::DeploymentTopology &topo,
           SupervisorPolicy policy, Plane plane, ExactVariableOrder order)
{
    Frozen out;
    rbd::RbdSystem system = model::buildExactSystem(
        catalog, topo, policy, model::SwParams{}, plane, &out.classes);
    bdd::BddManager manager(
        model::exactVariableLevels(catalog, topo, policy, plane, order));
    bdd::NodeRef root = system.compile(manager);
    std::vector<unsigned> classes;
    for (ExactComponentClass cls : out.classes)
        classes.push_back(static_cast<unsigned>(cls));
    out.unfolded = manager.freeze(root);
    out.folded = manager.freeze(root, classes);
    return out;
}

/** Every availability 1 - 10^-u, u uniform in [1, 6). */
model::SwParams
drawParams(prob::Rng &rng)
{
    auto draw = [&rng] {
        return 1.0 - std::pow(10.0, -1.0 - 5.0 * rng.uniform());
    };
    model::SwParams params;
    params.processAvailability = draw();
    params.manualProcessAvailability = draw();
    params.vmAvailability = draw();
    params.hostAvailability = draw();
    params.rackAvailability = draw();
    return params;
}

/** The unfolded diagram's inputs: each component its class's value. */
std::vector<double>
componentProbs(const std::vector<ExactComponentClass> &classes,
               const model::SwParams &params)
{
    std::vector<double> probs;
    for (ExactComponentClass cls : classes)
        probs.push_back(model::exactClassAvailability(cls, params));
    return probs;
}

/** The folded diagram's inputs, indexed by class. */
std::vector<double>
classProbs(const model::SwParams &params)
{
    std::vector<double> probs;
    for (std::size_t c = 0; c < model::kExactClassCount; ++c)
        probs.push_back(model::exactClassAvailability(
            static_cast<ExactComponentClass>(c), params));
    return probs;
}

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

constexpr ExactVariableOrder kOrders[] = {
    ExactVariableOrder::SharedInfrastructureFirst,
    ExactVariableOrder::NodeMajor, ExactVariableOrder::RoleMajor};

TEST(ClassFold, FoldedAndUnfoldedAgreeToTheBit)
{
    // Every catalog x topology x policy x plane x order at three
    // nodes, each at seeded random parameters: the model's folded
    // diagram against the same diagram frozen per component.
    prob::Rng rng(20261019);
    bdd::ProbabilityScratch scratch;
    std::size_t folded_models = 0;
    for (const char *catalog_name : {"opencontrail", "raft", "fragile"}) {
        fmea::ControllerCatalog catalog = catalogFor(catalog_name);
        for (const char *topo_name : {"small", "medium", "large"}) {
            topology::DeploymentTopology topo =
                topologyFor(topo_name, catalog.roles().size(), 3);
            for (SupervisorPolicy policy : {SupervisorPolicy::Required,
                                            SupervisorPolicy::NotRequired}) {
                for (Plane plane : {Plane::ControlPlane, Plane::DataPlane}) {
                    for (ExactVariableOrder order : kOrders) {
                        std::string label =
                            std::string(catalog_name) + " " + topo_name +
                            " " + model::variableOrderName(order) +
                            (policy == SupervisorPolicy::Required
                                 ? " required"
                                 : " not-required") +
                            (plane == Plane::ControlPlane ? " cp" : " dp");
                        ExactPlaneModel::Options options;
                        options.order = order;
                        ExactPlaneModel model(catalog, topo, policy, plane,
                                              options);
                        Frozen frozen = freezeBoth(catalog, topo, policy,
                                                   plane, order);
                        EXPECT_EQ(model.bddNodeCount(),
                                  frozen.unfolded.nodeCount())
                            << label;
                        EXPECT_EQ(model.evalNodeCount(),
                                  frozen.folded.nodeCount())
                            << label;
                        EXPECT_LE(model.evalNodeCount(),
                                  model.bddNodeCount())
                            << label;
                        if (model.evalNodeCount() < model.bddNodeCount())
                            ++folded_models;
                        for (int point = 0; point < 4; ++point) {
                            model::SwParams params = drawParams(rng);
                            std::vector<double> probs =
                                componentProbs(frozen.classes, params);
                            EXPECT_EQ(
                                bits(model.availability(params, scratch)),
                                bits(frozen.unfolded.probability(probs,
                                                                 scratch)))
                                << label << " at point " << point;
                        }
                    }
                }
            }
        }
    }
    // The fold is not vacuous: most of these diagrams shrink.
    EXPECT_GT(folded_models, 54u);
}

TEST(ClassFold, WithoutAMapTheDiagramIsUnchanged)
{
    // Node count, probability bits and an FNV-1a hash of the gradient
    // bits at the paper's default parameters, as frozen before class
    // maps existed.
    struct Pin
    {
        const char *catalog;
        const char *topology;
        ExactVariableOrder order;
        Plane plane;
        std::size_t nodes;
        std::uint64_t probability;
        std::size_t gradientSize;
        std::uint64_t gradientHash;
    };
    const Pin pins[] = {
        {"opencontrail", "small", ExactVariableOrder::SharedInfrastructureFirst,
         Plane::ControlPlane, 16256, 0x3fefffe5bbf77f20ULL, 73,
         0x765073accd4dbc02ULL},
        {"opencontrail", "large", ExactVariableOrder::RoleMajor,
         Plane::DataPlane, 143, 0x3feffe08b36bee2aULL, 96,
         0xdeaec0bba84d78ddULL},
        {"raft", "medium", ExactVariableOrder::NodeMajor,
         Plane::ControlPlane, 3365, 0x3fefffeb00b30c1eULL, 57,
         0xbe8bfe25aef8da16ULL},
    };
    for (const Pin &pin : pins) {
        fmea::ControllerCatalog catalog = catalogFor(pin.catalog);
        std::size_t nodes = std::string(pin.catalog) == "raft" ? 5 : 3;
        topology::DeploymentTopology topo =
            topologyFor(pin.topology, catalog.roles().size(), nodes);
        rbd::RbdSystem system = model::buildExactSystem(
            catalog, topo, SupervisorPolicy::Required, model::SwParams{},
            pin.plane);
        rbd::CompileOptions options;
        options.levels = model::exactVariableLevels(
            catalog, topo, SupervisorPolicy::Required, pin.plane,
            pin.order);
        bdd::FrozenDiagram diagram =
            rbd::compileFrozen(system, options).diagram;
        EXPECT_EQ(diagram.nodeCount(), pin.nodes) << pin.catalog;
        EXPECT_EQ(diagram.bddNodeCount(), pin.nodes) << pin.catalog;

        bdd::ProbabilityScratch scratch;
        EXPECT_EQ(bits(diagram.probability(system.availabilities(),
                                           scratch)),
                  pin.probability)
            << pin.catalog;
        std::vector<double> grad;
        diagram.gradient(system.availabilities(), scratch, grad);
        ASSERT_EQ(grad.size(), pin.gradientSize) << pin.catalog;
        std::uint64_t hash = 1469598103934665603ULL;
        for (double g : grad) {
            hash ^= bits(g);
            hash *= 1099511628211ULL;
        }
        EXPECT_EQ(hash, pin.gradientHash) << pin.catalog;

        // Every variable in a class of its own is the same diagram.
        std::vector<unsigned> identity(system.componentCount());
        for (unsigned i = 0; i < identity.size(); ++i)
            identity[i] = i;
        options.classes = identity;
        bdd::FrozenDiagram own =
            rbd::compileFrozen(system, options).diagram;
        EXPECT_EQ(own.nodeCount(), pin.nodes) << pin.catalog;
        EXPECT_EQ(bits(own.probability(system.availabilities(), scratch)),
                  pin.probability)
            << pin.catalog;
        std::vector<double> own_grad;
        own.gradient(system.availabilities(), scratch, own_grad);
        ASSERT_EQ(own_grad.size(), grad.size());
        for (std::size_t i = 0; i < grad.size(); ++i)
            EXPECT_EQ(bits(own_grad[i]), bits(grad[i]))
                << pin.catalog << " variable " << i;
    }
}

TEST(ClassFold, FoldedSizesArePinned)
{
    // The exact_sweep diagram and the paper's reference deployment.
    auto raft = fmea::raftStyleController();
    ExactPlaneModel::Options node_major;
    node_major.order = ExactVariableOrder::NodeMajor;
    ExactPlaneModel sweep(raft,
                          topology::largeTopology(raft.roles().size(), 21),
                          SupervisorPolicy::Required, Plane::ControlPlane,
                          node_major);
    EXPECT_EQ(sweep.bddNodeCount(), 163137u);
    EXPECT_EQ(sweep.evalNodeCount(), 111095u);

    auto oc = fmea::openContrail3();
    ExactPlaneModel::Options role_major;
    role_major.order = ExactVariableOrder::RoleMajor;
    ExactPlaneModel reference(oc, topology::largeTopology(oc.roles().size(), 3),
                              SupervisorPolicy::Required,
                              Plane::ControlPlane, role_major);
    EXPECT_EQ(reference.bddNodeCount(), 478u);
    EXPECT_EQ(reference.evalNodeCount(), 219u);
}

TEST(ClassFold, GradientIsThePerClassSumOfBirnbaumImportances)
{
    // A folded diagram's inputs are the class availabilities, each of
    // which drives every component of its class: dA/dA_c is the sum
    // of those components' Birnbaum importances.
    struct Key
    {
        const char *catalog;
        const char *topology;
        std::size_t nodes;
        ExactVariableOrder order;
        Plane plane;
    };
    const Key keys[] = {
        {"opencontrail", "small", 3,
         ExactVariableOrder::SharedInfrastructureFirst,
         Plane::ControlPlane},
        {"opencontrail", "large", 3, ExactVariableOrder::RoleMajor,
         Plane::DataPlane},
        {"raft", "medium", 5, ExactVariableOrder::NodeMajor,
         Plane::ControlPlane},
        {"fragile", "large", 7, ExactVariableOrder::NodeMajor,
         Plane::ControlPlane},
    };
    prob::Rng rng(99);
    bdd::ProbabilityScratch scratch;
    for (const Key &key : keys) {
        fmea::ControllerCatalog catalog = catalogFor(key.catalog);
        topology::DeploymentTopology topo =
            topologyFor(key.topology, catalog.roles().size(), key.nodes);
        Frozen frozen = freezeBoth(catalog, topo, SupervisorPolicy::Required,
                                   key.plane, key.order);
        for (int point = 0; point < 8; ++point) {
            model::SwParams params = drawParams(rng);
            std::vector<double> birnbaum;
            frozen.unfolded.gradient(componentProbs(frozen.classes, params),
                                     scratch, birnbaum);
            std::vector<double> sums(model::kExactClassCount, 0.0);
            for (std::size_t i = 0; i < frozen.classes.size(); ++i)
                sums[static_cast<std::size_t>(frozen.classes[i])] +=
                    birnbaum[i];
            std::vector<double> grad;
            frozen.folded.gradient(classProbs(params), scratch, grad);
            ASSERT_EQ(grad.size(), model::kExactClassCount);
            for (std::size_t c = 0; c < grad.size(); ++c)
                EXPECT_NEAR(grad[c], sums[c], 1e-12 * std::abs(sums[c]))
                    << key.catalog << " " << key.topology << " class " << c
                    << " at point " << point;
        }
    }
}

} // anonymous namespace
