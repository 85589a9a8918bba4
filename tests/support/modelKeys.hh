/**
 * @file
 * The built-in catalogs and reference topologies by the names model
 * keys use ("raft", "fragile", anything else OpenContrail; "small",
 * "medium", anything else Large), for tests that walk key tables.
 */

#ifndef SDNAV_TESTS_SUPPORT_MODEL_KEYS_HH
#define SDNAV_TESTS_SUPPORT_MODEL_KEYS_HH

#include <cstddef>
#include <string>

#include "fmea/openContrail.hh"
#include "topology/deployment.hh"

namespace sdnav::test
{

inline fmea::ControllerCatalog
catalogFor(const std::string &name)
{
    if (name == "raft")
        return fmea::raftStyleController();
    if (name == "fragile")
        return fmea::fragileController();
    return fmea::openContrail3();
}

inline topology::DeploymentTopology
topologyFor(const std::string &name, std::size_t roles, std::size_t nodes)
{
    if (name == "small")
        return topology::smallTopology(roles, nodes);
    if (name == "medium")
        return topology::mediumTopology(roles, nodes);
    return topology::largeTopology(roles, nodes);
}

} // namespace sdnav::test

#endif // SDNAV_TESTS_SUPPORT_MODEL_KEYS_HH
