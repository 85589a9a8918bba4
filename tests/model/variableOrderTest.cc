/**
 * @file
 * Variable orders as level permutations: every order compiles the
 * same components to the same availability, and the order
 * chooseVariableOrder() picks from a model's shape stays close to the
 * smaller of node-major and role-major, measured by compiling both.
 */

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bdd/bdd.hh"
#include "fmea/openContrail.hh"
#include "model/exactModel.hh"
#include "support/modelKeys.hh"
#include "topology/deployment.hh"

namespace
{

using namespace sdnav;
using test::catalogFor;
using test::topologyFor;
using fmea::Plane;
using model::ExactPlaneModel;
using model::ExactVariableOrder;
using model::SupervisorPolicy;

constexpr ExactVariableOrder kOrders[] = {
    ExactVariableOrder::SharedInfrastructureFirst,
    ExactVariableOrder::NodeMajor, ExactVariableOrder::RoleMajor};

TEST(VariableOrder, LevelsArePermutationsOfTheComponents)
{
    for (const char *name : {"opencontrail", "raft", "fragile"}) {
        fmea::ControllerCatalog catalog = catalogFor(name);
        for (const char *topo_name : {"small", "medium", "large"}) {
            topology::DeploymentTopology topo =
                topologyFor(topo_name, catalog.roles().size(), 5);
            for (Plane plane : {Plane::ControlPlane, Plane::DataPlane}) {
                std::size_t components =
                    model::buildExactSystem(catalog, topo,
                                            SupervisorPolicy::Required,
                                            model::SwParams{}, plane)
                        .componentCount();
                for (ExactVariableOrder order : kOrders) {
                    std::vector<unsigned> levels =
                        model::exactVariableLevels(
                            catalog, topo, SupervisorPolicy::Required,
                            plane, order);
                    ASSERT_EQ(levels.size(), components);
                    std::vector<unsigned> sorted = levels;
                    std::sort(sorted.begin(), sorted.end());
                    std::vector<unsigned> identity(components);
                    std::iota(identity.begin(), identity.end(), 0u);
                    EXPECT_EQ(sorted, identity)
                        << name << " " << topo_name << " "
                        << model::variableOrderName(order);
                    if (order ==
                        ExactVariableOrder::SharedInfrastructureFirst) {
                        EXPECT_EQ(levels, identity);
                    }
                }
            }
        }
    }
}

TEST(VariableOrder, EveryOrderGivesTheSameAvailability)
{
    // Same components, same classes, different diagrams: the values
    // agree to rounding, never more loosely.
    fmea::ControllerCatalog catalog = fmea::openContrail3();
    for (const char *topo_name : {"small", "medium", "large"}) {
        topology::DeploymentTopology topo =
            topologyFor(topo_name, catalog.roles().size(), 3);
        for (Plane plane : {Plane::ControlPlane, Plane::DataPlane}) {
            ExactPlaneModel sif(catalog, topo, SupervisorPolicy::Required,
                                plane);
            for (ExactVariableOrder order : kOrders) {
                ExactPlaneModel::Options options;
                options.order = order;
                ExactPlaneModel other(catalog, topo,
                                      SupervisorPolicy::Required, plane,
                                      options);
                EXPECT_EQ(other.variableOrder(), order);
                EXPECT_EQ(other.componentCount(), sif.componentCount());
                for (double shift : {-1.0, 0.0, 1.0}) {
                    model::SwParams params =
                        model::SwParams{}.withDowntimeShift(shift);
                    double expected = sif.availability(params);
                    EXPECT_NEAR(other.availability(params), expected,
                                1e-14 * expected)
                        << topo_name << " "
                        << model::variableOrderName(order);
                }
            }
        }
    }
}

/** Frozen nodes under an order, or nullopt when the cap aborts it. */
std::optional<std::size_t>
cappedNodeCount(const fmea::ControllerCatalog &catalog,
                const topology::DeploymentTopology &topo,
                ExactVariableOrder order)
{
    constexpr std::size_t kNodeCap = 1000000;
    ExactPlaneModel::Options options;
    options.order = order;
    options.budget.nodeCap = kNodeCap;
    try {
        return ExactPlaneModel(catalog, topo, SupervisorPolicy::Required,
                               Plane::ControlPlane, options)
            .bddNodeCount();
    } catch (const bdd::BudgetExceeded &) {
        return std::nullopt;
    }
}

TEST(VariableOrder, ChosenOrderIsWithinFourTimesOfTheSmaller)
{
    // Compile every row under both candidate orders; a budget abort
    // counts as larger than any finished compile.
    std::size_t compared = 0;
    for (const char *name : {"opencontrail", "raft", "fragile"}) {
        fmea::ControllerCatalog catalog = catalogFor(name);
        for (const char *topo_name : {"small", "medium", "large"}) {
            for (std::size_t nodes : {3u, 5u, 7u, 9u}) {
                topology::DeploymentTopology topo = topologyFor(
                    topo_name, catalog.roles().size(), nodes);
                ExactVariableOrder chosen = model::chooseVariableOrder(
                    catalog, topo, SupervisorPolicy::Required,
                    Plane::ControlPlane);
                ExactVariableOrder other =
                    chosen == ExactVariableOrder::NodeMajor
                        ? ExactVariableOrder::RoleMajor
                        : ExactVariableOrder::NodeMajor;
                std::optional<std::size_t> mine =
                    cappedNodeCount(catalog, topo, chosen);
                std::optional<std::size_t> theirs =
                    cappedNodeCount(catalog, topo, other);
                std::string row = std::string(name) + " " + topo_name +
                                  " " + std::to_string(nodes) + " " +
                                  model::variableOrderName(chosen);
                if (!mine && !theirs)
                    continue;
                ++compared;
                ASSERT_TRUE(mine.has_value()) << row << " aborted";
                if (theirs) {
                    EXPECT_LE(*mine, 4 * *theirs) << row;
                }
            }
        }
    }
    EXPECT_GE(compared, 30u);
}

TEST(VariableOrder, OpenContrailIsRoleMajorAndLargeQuorumClustersNodeMajor)
{
    auto choose = [](const char *name, const char *topo_name,
                     std::size_t nodes, SupervisorPolicy policy) {
        fmea::ControllerCatalog catalog = catalogFor(name);
        return model::chooseVariableOrder(
            catalog, topologyFor(topo_name, catalog.roles().size(), nodes),
            policy, Plane::ControlPlane);
    };
    for (SupervisorPolicy policy :
         {SupervisorPolicy::Required, SupervisorPolicy::NotRequired}) {
        for (const char *topo_name : {"small", "medium", "large"}) {
            EXPECT_EQ(choose("opencontrail", topo_name, 3, policy),
                      ExactVariableOrder::RoleMajor)
                << topo_name;
            for (std::size_t nodes : {15u, 21u})
                EXPECT_EQ(choose("raft", topo_name, nodes, policy),
                          ExactVariableOrder::NodeMajor)
                    << topo_name << " " << nodes;
            for (std::size_t nodes : {3u, 25u, 31u})
                EXPECT_EQ(choose("fragile", topo_name, nodes, policy),
                          ExactVariableOrder::NodeMajor)
                    << topo_name << " " << nodes;
        }
    }
}

} // anonymous namespace
