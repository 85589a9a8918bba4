#include "analysis/transient.hh"

#include <cmath>

#include "bdd/bdd.hh"
#include "common/error.hh"

namespace sdnav::analysis
{

double
componentTransient(double availability, double mtbfHours, double tHours,
                   InitialCondition initial)
{
    requireProbability(availability, "availability");
    requirePositive(mtbfHours, "mtbfHours");
    requireNonNegative(tHours, "tHours");
    if (availability >= 1.0) {
        // Never fails; from down it also never repairs (MTTR = 0
        // means instant), treat as up immediately.
        return 1.0;
    }
    // Combined rate lambda + mu = 1 / (MTBF (1 - A)).
    double combined = 1.0 / (mtbfHours * (1.0 - availability));
    double decay = std::exp(-combined * tHours);
    if (initial == InitialCondition::AllUp)
        return availability + (1.0 - availability) * decay;
    return availability * (1.0 - decay);
}

namespace
{

/** Every component's point availability at time t, into probs. */
void
componentTransients(const rbd::RbdSystem &system, double mtbfHours,
                    double t, InitialCondition initial,
                    std::vector<double> &probs)
{
    probs.resize(system.componentCount());
    for (rbd::ComponentId id = 0; id < probs.size(); ++id) {
        probs[id] = componentTransient(system.componentAvailability(id),
                                       mtbfHours, t, initial);
    }
}

} // anonymous namespace

std::vector<double>
systemTransient(const rbd::RbdSystem &system, double mtbfHours,
                const std::vector<double> &timesHours,
                InitialCondition initial)
{
    bdd::FrozenDiagram diagram = rbd::compileFrozen(system).diagram;
    bdd::ProbabilityScratch scratch;
    std::vector<double> probs;
    std::vector<double> result;
    result.reserve(timesHours.size());
    for (double t : timesHours) {
        componentTransients(system, mtbfHours, t, initial, probs);
        result.push_back(diagram.probability(probs, scratch));
    }
    return result;
}

double
timeToSteadyState(const rbd::RbdSystem &system, double mtbfHours,
                  InitialCondition initial, double tolerance)
{
    requirePositive(tolerance, "tolerance");
    // One compile serves the steady state and every probe below.
    bdd::FrozenDiagram diagram = rbd::compileFrozen(system).diagram;
    bdd::ProbabilityScratch scratch;
    std::vector<double> probs;
    double steady = diagram.probability(system.availabilities(), scratch);
    auto deviation = [&](double t) {
        componentTransients(system, mtbfHours, t, initial, probs);
        return std::fabs(diagram.probability(probs, scratch) - steady);
    };
    if (deviation(0.0) <= tolerance)
        return 0.0;
    // Geometric scan for an upper bracket. Component relaxation
    // times are MTBF (1 - A) hours, so this converges quickly.
    double hi = 1e-3;
    while (deviation(hi) > tolerance) {
        hi *= 2.0;
        require(hi < 1e12, "system does not reach steady state");
    }
    double lo = hi / 2.0;
    for (int i = 0; i < 60; ++i) {
        double mid = 0.5 * (lo + hi);
        if (deviation(mid) > tolerance)
            lo = mid;
        else
            hi = mid;
    }
    return hi;
}

TextTable
transientTable(const std::string &title,
               const std::vector<double> &timesHours,
               const std::vector<double> &availability)
{
    require(timesHours.size() == availability.size(),
            "times and availabilities must align");
    TextTable table;
    table.title(title);
    table.header({"t (hours)", "A_sys(t)"});
    for (std::size_t i = 0; i < timesHours.size(); ++i) {
        table.addRow({formatGeneral(timesHours[i], 6),
                      formatFixed(availability[i], 8)});
    }
    return table;
}

} // namespace sdnav::analysis
