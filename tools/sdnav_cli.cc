/**
 * @file
 * sdnav_cli — command-line front end for the availability framework.
 *
 * Subcommands:
 *   tables      print the Table I/II/III analogues for a catalog
 *   analyze     CP/DP availability for a catalog x topology x policy
 *   rank        criticality-importance weak-link ranking
 *   outage      analytic outage frequency/duration profile
 *   transient   availability curve after a cold start
 *   figures     regenerate Figures 3/4/5 (text + optional CSV)
 *   simulate    discrete-event behavioral simulation
 *   export      write a built-in catalog or topology as JSON
 *
 * Catalogs and topologies come from built-ins (--catalog opencontrail
 * | raft | fragile; --topology small | medium | large) or JSON files
 * (--catalog-file / --topology-file; see fmea/catalogIo.hh and
 * topology/topologyIo.hh for the schemas).
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/attribution.hh"
#include "analysis/figures.hh"
#include "analysis/fleet.hh"
#include "analysis/outage.hh"
#include "analysis/sensitivity.hh"
#include "analysis/summary.hh"
#include "analysis/transient.hh"
#include "common/error.hh"
#include "common/parse.hh"
#include "common/units.hh"
#include "fmea/catalogIo.hh"
#include "fmea/openContrail.hh"
#include "fmea/report.hh"
#include "model/exactModel.hh"
#include "obs/obs.hh"
#include "obs/trace.hh"
#include "rbd/cutSets.hh"
#include "model/swCentric.hh"
#include "sim/controllerSim.hh"
#include "sim/replication.hh"
#include "topology/topologyIo.hh"

namespace
{

using namespace sdnav;
namespace model = sdnav::model;

/**
 * A bad option: unknown to the command, missing its value, or with a
 * malformed value. Distinct from ModelError so main() can report it
 * as a usage failure (exit 2, naming the flag) instead of the generic
 * runtime-error path.
 */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Parsed command line: positionals plus --key value options. */
struct Args
{
    std::vector<std::string> positional;
    std::map<std::string, std::string> options;

    bool has(const std::string &key) const { return options.count(key); }

    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        auto it = options.find(key);
        return it == options.end() ? fallback : it->second;
    }

    /**
     * Strictly parsed numeric option: the whole value must be one
     * finite number inside [min, max] ("3x", "1e999", and "nan" are
     * usage errors naming the flag, not silent truncations or
     * uncaught std::stod throws).
     */
    double
    getNumber(const std::string &key, double fallback,
              double min = std::numeric_limits<double>::lowest(),
              double max = std::numeric_limits<double>::max()) const
    {
        auto it = options.find(key);
        if (it == options.end())
            return fallback;
        try {
            return parseDouble(it->second, "--" + key, min, max);
        } catch (const std::exception &e) {
            throw UsageError(e.what());
        }
    }

    /** As getNumber(), for non-negative integer options. */
    std::size_t
    getCount(const std::string &key, std::size_t fallback,
             std::size_t max =
                 std::numeric_limits<std::size_t>::max()) const
    {
        auto it = options.find(key);
        if (it == options.end())
            return fallback;
        try {
            return parseCount(it->second, "--" + key, max);
        } catch (const std::exception &e) {
            throw UsageError(e.what());
        }
    }
};

fmea::ControllerCatalog
resolveCatalog(const Args &args)
{
    if (args.has("catalog-file"))
        return fmea::loadCatalog(args.get("catalog-file", ""));
    std::string name = args.get("catalog", "opencontrail");
    if (name == "opencontrail")
        return fmea::openContrail3();
    if (name == "raft")
        return fmea::raftStyleController();
    if (name == "fragile")
        return fmea::fragileController();
    throw ModelError("unknown built-in catalog: " + name);
}

topology::DeploymentTopology
resolveTopology(const Args &args, std::size_t roleCount)
{
    if (args.has("topology-file"))
        return topology::loadTopology(args.get("topology-file", ""));
    std::string name = args.get("topology", "large");
    std::size_t nodes =
        args.getCount("nodes", 3);
    if (name == "small")
        return topology::smallTopology(roleCount, nodes);
    if (name == "medium")
        return topology::mediumTopology(roleCount, nodes);
    if (name == "large")
        return topology::largeTopology(roleCount, nodes);
    throw ModelError("unknown topology: " + name);
}

model::SupervisorPolicy
resolvePolicy(const Args &args)
{
    std::string policy = args.get("policy", "required");
    if (policy == "required")
        return model::SupervisorPolicy::Required;
    if (policy == "not-required")
        return model::SupervisorPolicy::NotRequired;
    throw ModelError("unknown policy: " + policy +
                     " (expected required | not-required)");
}

analysis::SweepOptions
resolveSweep(const Args &args)
{
    analysis::SweepOptions sweep;
    sweep.threads =
        args.getCount("threads", 0);
    return sweep;
}

model::SwParams
resolveParams(const Args &args)
{
    model::SwParams params;
    params.processAvailability =
        args.getNumber("a", params.processAvailability, 0.0, 1.0);
    params.manualProcessAvailability =
        args.getNumber("as", params.manualProcessAvailability, 0.0, 1.0);
    params.vmAvailability =
        args.getNumber("av", params.vmAvailability, 0.0, 1.0);
    params.hostAvailability =
        args.getNumber("ah", params.hostAvailability, 0.0, 1.0);
    params.rackAvailability =
        args.getNumber("ar", params.rackAvailability, 0.0, 1.0);
    params.validate();
    return params;
}

int
cmdTables(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    unsigned cluster =
        static_cast<unsigned>(args.getCount("nodes", 3));
    std::cout << fmea::nodeProcessTable(catalog, cluster).str() << "\n"
              << fmea::restartModeTable(catalog).str() << "\n"
              << fmea::quorumTypeTable(catalog).str() << "\n";
    if (args.get("fmea", "") == "full")
        std::cout << fmea::fmeaReport(catalog, cluster) << "\n";
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    auto topo = resolveTopology(args, catalog.roles().size());
    auto policy = resolvePolicy(args);
    model::SwParams params = resolveParams(args);

    model::SwAvailabilityModel m(catalog, topo, policy);
    std::vector<analysis::SummaryEntry> entries{
        {"control plane", m.controlPlaneAvailability(params)},
        {"shared data plane",
         m.sharedDataPlaneAvailability(params)},
        {"local data plane", m.localDataPlaneAvailability(params)},
        {"host data plane", m.hostDataPlaneAvailability(params)},
    };
    std::cout << analysis::availabilitySummary(
                     catalog.name() + " on " + topo.name() +
                         " (supervisor " +
                         (policy == model::SupervisorPolicy::Required
                              ? "required"
                              : "not required") +
                         ")",
                     entries)
                     .str();
    if (args.get("sensitivity", "") == "on") {
        std::cout << "\n"
                  << analysis::sensitivityTable(
                         "Control-plane sensitivity",
                         analysis::swSensitivity(
                             catalog, topo, policy, params,
                             fmea::Plane::ControlPlane,
                             resolveSweep(args)))
                         .str();
    }
    return 0;
}

int
cmdRank(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    auto topo = resolveTopology(args, catalog.roles().size());
    auto policy = resolvePolicy(args);
    model::SwParams params = resolveParams(args);
    fmea::Plane plane = args.get("plane", "cp") == "dp"
        ? fmea::Plane::DataPlane
        : fmea::Plane::ControlPlane;

    auto system =
        model::buildExactSystem(catalog, topo, policy, params, plane);
    auto ranking = system.rankImportance();
    std::size_t top =
        args.getCount("top", 10);
    TextTable table;
    table.title("Weak-link ranking (" +
                std::string(plane == fmea::Plane::DataPlane ? "DP"
                                                            : "CP") +
                ", " + topo.name() + ")");
    table.header({"rank", "component", "criticality", "birnbaum"});
    for (std::size_t i = 0; i < std::min(top, ranking.size()); ++i) {
        table.addRow({std::to_string(i + 1), ranking[i].name,
                      formatFixed(ranking[i].criticality, 5),
                      formatGeneral(ranking[i].birnbaum, 4)});
    }
    std::cout << table.str();
    return 0;
}

int
cmdOutage(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    auto topo = resolveTopology(args, catalog.roles().size());
    auto policy = resolvePolicy(args);
    model::SwParams params = resolveParams(args);
    fmea::Plane plane = args.get("plane", "cp") == "dp"
        ? fmea::Plane::DataPlane
        : fmea::Plane::ControlPlane;
    analysis::MtbfClasses classes;
    classes.processHours = args.getNumber("mtbf", 5000.0);
    classes.vmHours = args.getNumber("vm-mtbf", classes.vmHours);
    classes.hostHours = args.getNumber("host-mtbf", classes.hostHours);
    classes.rackHours = args.getNumber("rack-mtbf", classes.rackHours);

    auto system =
        model::buildExactSystem(catalog, topo, policy, params, plane);
    auto profile =
        analysis::outageProfile(system,
                                analysis::classifyMtbfs(system,
                                                        classes));
    std::cout << analysis::outageProfileTable(
                     "Outage profile (process MTBF " +
                         formatGeneral(classes.processHours, 6) +
                         " h, per-class platform MTBFs)",
                     profile)
                     .str()
              << "\n";

    auto contributions = analysis::outageContributions(
        system, analysis::classifyMtbfs(system, classes));
    TextTable table;
    table.header({"component", "outages/year initiated", "share"});
    for (std::size_t i = 0;
         i < std::min<std::size_t>(8, contributions.size()); ++i) {
        table.addRow({contributions[i].name,
                      formatGeneral(contributions[i].outagesPerYear, 4),
                      formatFixed(contributions[i].share, 4)});
    }
    std::cout << table.str();
    return 0;
}

int
cmdCutSets(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    auto topo = resolveTopology(args, catalog.roles().size());
    auto policy = resolvePolicy(args);
    model::SwParams params = resolveParams(args);
    fmea::Plane plane = args.get("plane", "cp") == "dp"
        ? fmea::Plane::DataPlane
        : fmea::Plane::ControlPlane;

    auto system =
        model::buildExactSystem(catalog, topo, policy, params, plane);
    rbd::CutSetOptions options;
    options.maxOrder =
        args.getCount("order", 2);
    auto cuts = rbd::minimalCutSets(system, options);
    std::size_t top =
        args.getCount("top", 12);

    TextTable table;
    table.title("Minimal cut sets (order <= " +
                std::to_string(options.maxOrder) + ")");
    table.header({"#", "cut set", "order", "probability"});
    for (std::size_t i = 0; i < std::min(top, cuts.size()); ++i) {
        table.addRow({std::to_string(i + 1),
                      cuts[i].describe(system),
                      std::to_string(cuts[i].order()),
                      formatGeneral(cuts[i].probability, 4)});
    }
    std::cout << table.str();
    std::cout << "total " << cuts.size()
              << " cut sets; rare-event unavailability bound "
              << formatGeneral(rbd::rareEventUnavailability(cuts), 5)
              << " (exact "
              << formatGeneral(1.0 - system.availabilityExact(), 5)
              << ")\n";
    return 0;
}

int
cmdFleet(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    auto topo = resolveTopology(args, catalog.roles().size());
    auto policy = resolvePolicy(args);
    model::SwParams params = resolveParams(args);
    fmea::Plane plane = args.get("plane", "cp") == "dp"
        ? fmea::Plane::DataPlane
        : fmea::Plane::ControlPlane;
    auto system =
        model::buildExactSystem(catalog, topo, policy, params, plane);
    analysis::MtbfClasses classes;
    classes.processHours = args.getNumber("mtbf", 5000.0);
    auto profile = analysis::outageProfile(
        system, analysis::classifyMtbfs(system, classes));
    std::size_t sites =
        args.getCount("sites", 500);
    auto fleet = analysis::fleetFromProfile(sites, profile);
    std::cout << analysis::outageProfileTable("Per-site profile",
                                              profile)
                     .str()
              << "\n"
              << analysis::fleetTable("Fleet", fleet).str();
    return 0;
}

int
cmdTransient(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    auto topo = resolveTopology(args, catalog.roles().size());
    auto policy = resolvePolicy(args);
    model::SwParams params = resolveParams(args);
    fmea::Plane plane = args.get("plane", "cp") == "dp"
        ? fmea::Plane::DataPlane
        : fmea::Plane::ControlPlane;
    double mtbf = args.getNumber("mtbf", 5000.0);
    auto initial = args.get("from", "down") == "up"
        ? analysis::InitialCondition::AllUp
        : analysis::InitialCondition::AllDown;

    auto system =
        model::buildExactSystem(catalog, topo, policy, params, plane);
    std::vector<double> times{0.0,  0.01, 0.05, 0.1, 0.25,
                              0.5,  1.0,  2.0,  5.0, 10.0};
    auto curve = analysis::systemTransient(system, mtbf, times,
                                           initial);
    std::cout << analysis::transientTable(
                     "Transient availability from all-" +
                         args.get("from", "down"),
                     times, curve)
                     .str();
    std::cout << "time to steady state (1e-9): "
              << formatGeneral(analysis::timeToSteadyState(
                                   system, mtbf, initial),
                               4)
              << " h\n";
    return 0;
}

int
cmdFigures(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    model::HwParams hw;
    model::SwParams sw = resolveParams(args);
    std::size_t points =
        args.getCount("points", 21);
    analysis::SweepOptions sweep = resolveSweep(args);
    analysis::FigureData fig3 = analysis::figure3(hw, 0.999, 1.0,
                                                  points, sweep);
    analysis::FigureData fig4 = analysis::figure4(catalog, sw, points,
                                                  sweep);
    analysis::FigureData fig5 = analysis::figure5(catalog, sw, points,
                                                  sweep);
    std::cout << fig3.toTable().str() << "\n"
              << fig4.toTable(8).str() << "\n"
              << fig5.toTable(8).str() << "\n";
    if (args.get("exact", "") == "on") {
        analysis::FigureData fig4e =
            analysis::figure4Exact(catalog, sw, points, sweep);
        analysis::FigureData fig5e =
            analysis::figure5Exact(catalog, sw, points, sweep);
        std::cout << fig4e.toTable(8).str() << "\n"
                  << fig5e.toTable(8).str() << "\n";
    }
    if (args.has("csv-dir")) {
        std::string dir = args.get("csv-dir", ".");
        fig3.toCsv().writeFile(dir + "/fig3.csv");
        fig4.toCsv().writeFile(dir + "/fig4.csv");
        fig5.toCsv().writeFile(dir + "/fig5.csv");
        std::cout << "CSV written to " << dir << "/fig{3,4,5}.csv\n";
    }
    return 0;
}

/**
 * Print the per-failure-mode downtime attribution tables for a
 * simulate run: simulated shares from the outage ledger next to the
 * analytic criticality-importance shares from the exact BDD structure
 * function, for the CP and (when measured) the per-host DP.
 */
void
printAttribution(const fmea::ControllerCatalog &catalog,
                 const topology::DeploymentTopology &topo,
                 model::SupervisorPolicy policy,
                 const sim::ControllerSimConfig &config,
                 const sim::AttributionTotals &cp,
                 const sim::AttributionTotals &dp, bool dpMeasured)
{
    model::SwParams params = sim::staticParamsFor(config);
    analysis::AttributionReport cpReport =
        analysis::attributionReport(cp);
    analysis::attachAnalyticShares(
        cpReport,
        model::buildExactSystem(catalog, topo, policy, params,
                                fmea::Plane::ControlPlane));
    std::cout << "\n"
              << analysis::attributionTable("CP downtime attribution",
                                            cpReport)
                     .str();
    if (!dpMeasured)
        return;
    analysis::AttributionReport dpReport =
        analysis::attributionReport(dp);
    analysis::attachAnalyticShares(
        dpReport,
        model::buildExactSystem(catalog, topo, policy, params,
                                fmea::Plane::DataPlane));
    std::cout << "\n"
              << analysis::attributionTable(
                     "DP downtime attribution (per monitored host)",
                     dpReport)
                     .str();
}

int
cmdSimulate(const Args &args)
{
    fmea::ControllerCatalog catalog = resolveCatalog(args);
    auto topo = resolveTopology(args, catalog.roles().size());
    auto policy = resolvePolicy(args);

    sim::ControllerSimConfig config;
    config.process.mtbfHours = args.getNumber("mtbf", 5000.0);
    config.process.autoRestartHours = args.getNumber("r", 0.1);
    config.process.manualRestartHours = args.getNumber("rs", 1.0);
    config.supervisorMtbfHours =
        args.getNumber("sup-mtbf", config.process.mtbfHours);
    config.horizonHours = args.getNumber("hours", 1e6);
    config.monitoredHosts =
        args.getCount("hosts", 24);
    config.seed =
        static_cast<std::uint64_t>(args.getCount("seed", 1));
    config.rediscoveryDelayHours =
        args.getNumber("rediscovery-min", 1.0) / 60.0;

    std::size_t replications =
        args.getCount("replications", 1);
    if (replications > 1) {
        sim::ReplicatedSimConfig rep;
        rep.replications = replications;
        rep.threads =
            args.getCount("threads", 0);
        rep.baseSeed = config.seed;
        auto result = sim::simulateControllerReplicated(
            catalog, topo, policy, config, rep);
        model::SwParams params = sim::staticParamsFor(config);
        model::SwAvailabilityModel analytic(catalog, topo, policy);

        TextTable table;
        table.title("Replicated behavioral simulation, " +
                    std::to_string(replications) + " x " +
                    formatGeneral(config.horizonHours, 4) +
                    " simulated hours");
        table.header({"plane", "analytic", "pooled", "CI95 +-",
                      "within SE", "across SE"});
        table.addRow(
            {"CP",
             formatFixed(analytic.controlPlaneAvailability(params), 6),
             formatFixed(result.cpAvailability.mean, 6),
             formatFixed(result.cpAvailability.halfWidth95(), 6),
             formatGeneral(result.cpAvailability.withinStandardError,
                           3),
             formatGeneral(result.cpAvailability.acrossStandardError,
                           3)});
        table.addRow(
            {"DP",
             formatFixed(analytic.hostDataPlaneAvailability(params),
                         6),
             result.dpMeasured
                 ? formatFixed(result.dpAvailability.mean, 6)
                 : std::string("n/a"),
             formatFixed(result.dpAvailability.halfWidth95(), 6),
             formatGeneral(result.dpAvailability.withinStandardError,
                           3),
             formatGeneral(result.dpAvailability.acrossStandardError,
                           3)});
        std::cout << table.str();
        std::cout << "CP outages: " << result.cpOutages << " (mean "
                  << formatFixed(result.cpMeanOutageHours, 2)
                  << " h, max "
                  << formatFixed(result.cpMaxOutageHours, 2)
                  << " h); rediscovery downtime share "
                  << formatGeneral(result.rediscoveryDowntimeFraction,
                                   4)
                  << "\n";
        if (args.has("attribution"))
            printAttribution(catalog, topo, policy, config,
                             result.cpAttribution,
                             result.dpAttribution, result.dpMeasured);
        return 0;
    }

    auto result = sim::simulateController(catalog, topo, policy,
                                          config);
    model::SwParams params = sim::staticParamsFor(config);
    model::SwAvailabilityModel analytic(catalog, topo, policy);

    TextTable table;
    table.title("Behavioral simulation, " +
                formatGeneral(config.horizonHours, 4) +
                " simulated hours");
    table.header({"plane", "analytic", "simulated", "CI95 +-"});
    table.addRow(
        {"CP",
         formatFixed(analytic.controlPlaneAvailability(params), 6),
         formatFixed(result.cpAvailability.mean, 6),
         formatFixed(result.cpAvailability.halfWidth95(), 6)});
    table.addRow(
        {"DP",
         formatFixed(analytic.hostDataPlaneAvailability(params), 6),
         result.dpMeasured
             ? formatFixed(result.dpAvailability.mean, 6)
             : std::string("n/a"),
         formatFixed(result.dpAvailability.halfWidth95(), 6)});
    std::cout << table.str();
    std::cout << "CP outages: " << result.cpOutages << " (mean "
              << formatFixed(result.cpMeanOutageHours, 2) << " h, max "
              << formatFixed(result.cpMaxOutageHours, 2)
              << " h); rediscovery downtime share "
              << formatGeneral(result.rediscoveryDowntimeFraction, 4)
              << "\n";
    if (args.has("attribution"))
        printAttribution(catalog, topo, policy, config,
                         result.cpAttribution, result.dpAttribution,
                         result.dpMeasured);
    return 0;
}

int
cmdExport(const Args &args)
{
    require(args.positional.size() == 2,
            "usage: sdnav_cli export <catalog|topology> <out.json>");
    const std::string &what = args.positional[0];
    const std::string &path = args.positional[1];
    if (what == "catalog") {
        fmea::saveCatalog(resolveCatalog(args), path);
    } else if (what == "topology") {
        fmea::ControllerCatalog catalog = resolveCatalog(args);
        topology::saveTopology(
            resolveTopology(args, catalog.roles().size()), path);
    } else {
        throw ModelError("unknown export kind: " + what);
    }
    std::cout << "wrote " << path << "\n";
    return 0;
}

/**
 * Write the run's metrics snapshot as JSON when --metrics FILE was
 * given. Every subcommand that exercises an instrumented subsystem
 * (simulate, figures, analyze --sensitivity, rank, ...) fills the
 * global registry as a side effect of running; this serializes
 * whatever accumulated.
 */
void
writeMetricsFile(const Args &args, const std::string &command)
{
    if (!args.has("metrics"))
        return;
    std::string path = args.get("metrics", "");
    json::Value doc = json::Value::makeObject();
    doc.set("schema_version", 1);
    doc.set("command", command);
    doc.set("threads",
            static_cast<double>(resolveSweep(args).resolvedThreads()));
    doc.set("metrics", obs::Registry::global().snapshot());
    std::ofstream out(path);
    out << doc.dump(2) << "\n";
    require(out.good(), "cannot write metrics file: " + path);
    // stderr so --metrics never perturbs stdout golden comparisons.
    std::cerr << "[metrics] wrote " << path << "\n";
}

/**
 * Write the Chrome-trace JSON when --trace FILE was given. The tracer
 * is enabled before command dispatch, so spans from BDD compilation,
 * probability evaluation, sweep chunks, and simulation replications
 * are all sitting in the per-thread ring buffers by the time the
 * command returns. Load the file in Perfetto / chrome://tracing.
 */
void
writeTraceFile(const Args &args)
{
    if (!args.has("trace"))
        return;
    std::string path = args.get("trace", "");
    obs::Tracer &tracer = obs::Tracer::global();
    obs::TraceStats stats = tracer.stats();
    tracer.writeFile(path);
    // stderr so --trace never perturbs stdout golden comparisons.
    std::cerr << "[trace] wrote " << path << " (" << stats.recorded
              << " events, " << stats.dropped << " dropped)\n";
}

/**
 * Upfront writability probe for output-path options: an unwritable
 * --metrics/--trace destination is a usage error (exit 2) caught
 * before any work runs, not a runtime failure discovered after the
 * command already spent its cycles. Probing opens in append mode so
 * it never truncates an existing file.
 */
bool
outputPathWritable(const std::string &path)
{
    std::ofstream probe(path, std::ios::app);
    return probe.good();
}

/** A command, its handler and every option it reads. */
struct Command
{
    std::string_view name;
    int (*run)(const Args &);
    /** Space-separated option names, beside kCommonOptions. */
    std::string_view options;
};

/** Options every command accepts: where the run's telemetry goes. */
constexpr std::string_view kCommonOptions = "metrics trace";

/** Options that are flags: present means "on", no value consumed. */
constexpr std::string_view kFlagOptions = "attribution";

/** Options whose value is a word, and the words each accepts. */
constexpr std::pair<std::string_view, std::string_view> kWordOptions[] = {
    {"plane", "cp dp"},
    {"from", "down up"},
    {"sensitivity", "on"},
    {"exact", "on"},
    {"fmea", "full"},
};

const Command kCommands[] = {
    {"tables", cmdTables, "catalog catalog-file nodes fmea"},
    {"analyze", cmdAnalyze,
     "catalog catalog-file topology topology-file nodes policy "
     "a as av ah ar sensitivity threads"},
    {"rank", cmdRank,
     "catalog catalog-file topology topology-file nodes policy "
     "a as av ah ar plane top"},
    {"outage", cmdOutage,
     "catalog catalog-file topology topology-file nodes policy "
     "a as av ah ar plane mtbf vm-mtbf host-mtbf rack-mtbf"},
    {"transient", cmdTransient,
     "catalog catalog-file topology topology-file nodes policy "
     "a as av ah ar plane mtbf from"},
    {"cutsets", cmdCutSets,
     "catalog catalog-file topology topology-file nodes policy "
     "a as av ah ar plane order top"},
    {"fleet", cmdFleet,
     "catalog catalog-file topology topology-file nodes policy "
     "a as av ah ar plane mtbf sites"},
    {"figures", cmdFigures,
     "catalog catalog-file a as av ah ar points threads exact csv-dir"},
    {"simulate", cmdSimulate,
     "catalog catalog-file topology topology-file nodes policy "
     "mtbf r rs sup-mtbf hours hosts seed rediscovery-min "
     "replications threads attribution"},
    {"export", cmdExport,
     "catalog catalog-file topology topology-file nodes"},
};

/** The names in a space-separated list. */
std::vector<std::string_view>
words(std::string_view list)
{
    std::vector<std::string_view> out;
    for (std::size_t start = 0; start < list.size();) {
        std::size_t end = std::min(list.find(' ', start), list.size());
        out.push_back(list.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

/** True when `word` is one of the names in `list`. */
bool
listed(std::string_view list, std::string_view word)
{
    return std::ranges::count(words(list), word) > 0;
}

void
printUsage()
{
    std::cout <<
        "usage: sdnav_cli <command> [options]\n"
        "\n"
        "commands:\n"
        "  tables      print Table I/II/III analogues for a catalog\n"
        "  analyze     CP/DP availability summary\n"
        "  rank        weak-link (criticality) ranking\n"
        "  outage      outage frequency/duration profile\n"
        "  transient   availability curve after a cold start\n"
        "  cutsets     minimal cut sets (failure combinations)\n"
        "  fleet       fleet-level outage statistics\n"
        "  figures     regenerate Figures 3/4/5\n"
        "  simulate    behavioral discrete-event simulation\n"
        "  export      write a built-in catalog/topology as JSON\n"
        "\n"
        "options:\n"
        "  --catalog opencontrail|raft|fragile   built-in catalog\n"
        "  --catalog-file FILE                   catalog JSON\n"
        "  --topology small|medium|large         reference topology\n"
        "  --topology-file FILE                  topology JSON\n"
        "  --nodes N                             cluster size (2N+1)\n"
        "  --policy required|not-required        supervisor policy\n"
        "  --plane cp|dp                         plane of interest\n"
        "  --a --as --av --ah --ar VALUE         availabilities\n"
        "  --metrics FILE                        write the runtime\n"
        "                                        metrics snapshot as\n"
        "                                        JSON (see README,\n"
        "                                        \"Metrics & bench\n"
        "                                        JSON\")\n"
        "  --trace FILE                          write a Chrome-trace\n"
        "                                        (trace_event JSON)\n"
        "                                        span timeline; load\n"
        "                                        it in Perfetto or\n"
        "                                        chrome://tracing\n"
        "  --threads T                           sweep worker threads\n"
        "                                        (0 = hardware); used\n"
        "                                        by figures and\n"
        "                                        analyze --sensitivity\n"
        "                                        on; results are bit-\n"
        "                                        identical for any T\n"
        "\n"
        "tables options:\n"
        "  --fmea full        also print the full FMEA report\n"
        "\n"
        "analyze options:\n"
        "  --sensitivity on   also print the control-plane\n"
        "                     sensitivity table\n"
        "\n"
        "rank options:\n"
        "  --top N            rows to print (default 10)\n"
        "\n"
        "transient options:\n"
        "  --from down|up     start with every component down\n"
        "                     (default) or up\n"
        "\n"
        "figures options:\n"
        "  --points N         sweep points per figure (default 21)\n"
        "  --exact on         also print the exact-BDD Figure 4/5\n"
        "                     variants (build-once, evaluate-many)\n"
        "  --csv-dir DIR      also write fig{3,4,5}.csv under DIR\n"
        "\n"
        "simulate options:\n"
        "  --replications R   independent replications (default 1);\n"
        "                     replication r is seeded from the base\n"
        "                     seed via Rng::deriveStream(r)\n"
        "  --threads T        worker threads (0 = hardware); results\n"
        "                     are bit-identical for any thread count\n"
        "  --hours H --seed S --hosts N           run shape\n"
        "  --attribution      print per-failure-mode downtime\n"
        "                     attribution tables (CP and DP, outage\n"
        "                     ledger vs analytic criticality shares)\n"
        "\n"
        "examples:\n"
        "  sdnav_cli analyze --topology small --policy required\n"
        "  sdnav_cli simulate --replications 8 --threads 4\n"
        "  sdnav_cli rank --plane dp --top 5\n"
        "  sdnav_cli export catalog my.json --catalog raft\n"
        "  sdnav_cli analyze --catalog-file my.json --topology large\n"
        "\n"
        "options each command accepts (any other is an error):\n";
    for (const Command &command : kCommands) {
        std::string line = "  " + std::string(command.name);
        line.resize(12, ' ');
        for (std::string_view list : {command.options, kCommonOptions}) {
            for (std::string_view option : words(list)) {
                if (line.size() + option.size() + 3 > 72) {
                    std::cout << line << "\n";
                    line = std::string(12, ' ');
                }
                line += " --";
                line += option;
            }
        }
        std::cout << line << "\n";
    }
}

/**
 * The command line after the command name, checked against the
 * options `command` reads. An unknown option, or one without its
 * value, throws UsageError before any work runs; a value is never
 * taken from the next option (`--nodes --trace f` lacks a value).
 */
Args
parseArgs(const Command &command, int argc, char **argv)
{
    Args args;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            args.positional.push_back(arg);
            continue;
        }
        std::string key = arg.substr(2);
        if (!listed(command.options, key) &&
            !listed(kCommonOptions, key))
            throw UsageError("unknown option " + arg + " for " +
                             std::string(command.name));
        if (listed(kFlagOptions, key)) {
            args.options[key] = "on";
            continue;
        }
        if (i + 1 >= argc ||
            std::string_view(argv[i + 1]).starts_with("--"))
            throw UsageError("option " + arg + " needs a value");
        std::string value = argv[++i];
        for (const auto &[option, accepted] : kWordOptions) {
            if (option == key && !listed(accepted, value)) {
                std::string choices(accepted);
                std::ranges::replace(choices, ' ', '|');
                throw UsageError("option " + arg + " takes " + choices +
                                 ", not '" + value + "'");
            }
        }
        args.options[key] = std::move(value);
    }
    return args;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printUsage();
        return 2;
    }
    std::string name = argv[1];
    if (name == "help" || name == "--help") {
        printUsage();
        return 0;
    }
    const Command *command = nullptr;
    for (const Command &c : kCommands) {
        if (c.name == name)
            command = &c;
    }
    if (command == nullptr) {
        std::cerr << "unknown command: " << name << "\n";
        printUsage();
        return 2;
    }
    try {
        Args args = parseArgs(*command, argc, argv);
        for (const char *key : {"metrics", "trace"}) {
            if (args.has(key) &&
                !outputPathWritable(args.get(key, ""))) {
                std::cerr << "error: cannot write --" << key
                          << " file: " << args.get(key, "") << "\n";
                printUsage();
                return 2;
            }
        }
        if (args.has("trace"))
            obs::Tracer::global().enable();
        int rc = command->run(args);
        if (rc == 0) {
            writeMetricsFile(args, name);
            writeTraceFile(args);
        }
        return rc;
    } catch (const UsageError &e) {
        std::cerr << "error: " << e.what() << "\n";
        printUsage();
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
