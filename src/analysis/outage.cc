#include "analysis/outage.hh"

#include <algorithm>
#include <limits>

#include "bdd/bdd.hh"
#include "common/error.hh"
#include "common/units.hh"

namespace sdnav::analysis
{

double
OutageProfile::outagesPerYear() const
{
    return outagesPerHour * hoursPerYear;
}

double
OutageProfile::meanOutageHours() const
{
    if (outagesPerHour <= 0.0)
        return 0.0;
    return (1.0 - availability) / outagesPerHour;
}

double
OutageProfile::meanTimeBetweenOutagesHours() const
{
    if (outagesPerHour <= 0.0)
        return std::numeric_limits<double>::infinity();
    return availability / outagesPerHour;
}

double
OutageProfile::downtimeMinutesPerYear() const
{
    return availabilityToDowntimeMinutesPerYear(availability);
}

namespace
{

/**
 * Shared worker: every Birnbaum importance from one gradient of the
 * frozen structure function, then the frequency-duration algebra.
 */
OutageProfile
profileImpl(const rbd::RbdSystem &system,
            const std::vector<double> &mtbf_hours,
            std::vector<OutageContribution> *contributions)
{
    require(mtbf_hours.size() == system.componentCount(),
            "need one MTBF per component");

    const std::vector<double> &probs = system.availabilities();
    bdd::FrozenDiagram diagram = rbd::compileFrozen(system).diagram;
    bdd::ProbabilityScratch scratch;
    OutageProfile profile;
    profile.availability = diagram.probability(probs, scratch);
    std::vector<double> birnbaum;
    diagram.gradient(probs, scratch, birnbaum);

    double nu = 0.0;
    for (rbd::ComponentId id = 0; id < system.componentCount(); ++id) {
        requirePositive(mtbf_hours[id], "mtbfHours");
        double a = probs[id];
        // Unconditional component failure frequency: the component
        // completes one up-down cycle every MTBF + MTTR hours, and
        // MTTR = MTBF (1 - a) / a, so the cycle time is MTBF / a.
        double frequency = a > 0.0 ? a / mtbf_hours[id] : 0.0;
        double rate = birnbaum[id] * frequency;
        nu += rate;
        if (contributions) {
            contributions->push_back(
                {id, system.componentName(id), rate * hoursPerYear,
                 0.0});
        }
    }
    profile.outagesPerHour = nu;
    if (contributions && nu > 0.0) {
        for (OutageContribution &c : *contributions)
            c.share = c.outagesPerYear / (nu * hoursPerYear);
        rbd::rankDescending(*contributions,
                            &OutageContribution::outagesPerYear);
    }
    return profile;
}

} // anonymous namespace

OutageProfile
outageProfile(const rbd::RbdSystem &system, double mtbfHours)
{
    std::vector<double> mtbfs(system.componentCount(), mtbfHours);
    return profileImpl(system, mtbfs, nullptr);
}

OutageProfile
outageProfile(const rbd::RbdSystem &system,
              const std::vector<double> &mtbfHours)
{
    return profileImpl(system, mtbfHours, nullptr);
}

std::vector<OutageContribution>
outageContributions(const rbd::RbdSystem &system, double mtbfHours)
{
    std::vector<double> mtbfs(system.componentCount(), mtbfHours);
    std::vector<OutageContribution> contributions;
    profileImpl(system, mtbfs, &contributions);
    return contributions;
}

std::vector<OutageContribution>
outageContributions(const rbd::RbdSystem &system,
                    const std::vector<double> &mtbfHours)
{
    std::vector<OutageContribution> contributions;
    profileImpl(system, mtbfHours, &contributions);
    return contributions;
}

TextTable
outageProfileTable(const std::string &title, const OutageProfile &profile)
{
    TextTable table;
    table.title(title);
    table.header({"availability", "downtime m/y", "outages/year",
                  "mean outage (h)", "MTBO (h)"});
    table.addRow({formatFixed(profile.availability, 8),
                  formatFixed(profile.downtimeMinutesPerYear(), 2),
                  formatFixed(profile.outagesPerYear(), 4),
                  formatFixed(profile.meanOutageHours(), 3),
                  formatGeneral(profile.meanTimeBetweenOutagesHours(),
                                6)});
    return table;
}

std::vector<double>
classifyMtbfs(const rbd::RbdSystem &system, const MtbfClasses &classes)
{
    std::vector<double> mtbfs;
    mtbfs.reserve(system.componentCount());
    for (rbd::ComponentId id = 0; id < system.componentCount(); ++id) {
        const std::string &name = system.componentName(id);
        double mtbf = classes.processHours;
        if (name.rfind("rack", 0) == 0)
            mtbf = classes.rackHours;
        else if (name.rfind("host", 0) == 0)
            mtbf = classes.hostHours;
        else if (name.rfind("vm", 0) == 0)
            mtbf = classes.vmHours;
        mtbfs.push_back(mtbf);
    }
    return mtbfs;
}

} // namespace sdnav::analysis
