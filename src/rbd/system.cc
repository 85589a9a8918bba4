#include "rbd/system.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/error.hh"
#include "obs/trace.hh"

namespace sdnav::rbd
{

double
MonteCarloResult::ci95Low() const
{
    return std::max(0.0, estimate - 1.96 * standardError);
}

double
MonteCarloResult::ci95High() const
{
    return std::min(1.0, estimate + 1.96 * standardError);
}

bool
MonteCarloResult::brackets(double value) const
{
    return value >= ci95Low() && value <= ci95High();
}

ComponentId
RbdSystem::addComponent(std::string name, double availability)
{
    requireProbability(availability, "availability");
    names_.push_back(std::move(name));
    availabilities_.push_back(availability);
    return availabilities_.size() - 1;
}

void
RbdSystem::setRoot(Block root)
{
    std::vector<ComponentId> refs;
    root.collectComponents(refs);
    for (ComponentId id : refs) {
        require(id < availabilities_.size(),
                "structure tree references unknown component");
    }
    root_ = std::move(root);
}

const Block &
RbdSystem::root() const
{
    require(root_.has_value(), "RbdSystem has no structure tree");
    return *root_;
}

void
RbdSystem::checkComponent(ComponentId id) const
{
    require(id < availabilities_.size(), "unknown component id");
}

const std::string &
RbdSystem::componentName(ComponentId id) const
{
    checkComponent(id);
    return names_[id];
}

double
RbdSystem::componentAvailability(ComponentId id) const
{
    checkComponent(id);
    return availabilities_[id];
}

void
RbdSystem::setComponentAvailability(ComponentId id, double availability)
{
    checkComponent(id);
    requireProbability(availability, "availability");
    availabilities_[id] = availability;
}

bool
RbdSystem::hasSharedComponents() const
{
    std::vector<ComponentId> refs;
    root().collectComponents(refs);
    std::unordered_set<ComponentId> seen;
    for (ComponentId id : refs) {
        if (!seen.insert(id).second)
            return true;
    }
    return false;
}

double
RbdSystem::formulaFor(const Block &block) const
{
    switch (block.kind()) {
      case Block::Kind::Component:
        return availabilities_[block.componentId()];
      case Block::Kind::Series: {
        double product = 1.0;
        for (const Block &child : block.children())
            product *= formulaFor(child);
        return product;
      }
      case Block::Kind::Parallel: {
        double down = 1.0;
        for (const Block &child : block.children())
            down *= 1.0 - formulaFor(child);
        return 1.0 - down;
      }
      case Block::Kind::KOfN: {
        const auto &children = block.children();
        unsigned m = block.required();
        if (m == 0)
            return 1.0;
        if (m > children.size())
            return 0.0;
        // Poisson-binomial tail by dynamic programming: up[j] is the
        // probability exactly j of the children processed so far are
        // up, with counts above m collapsed into bucket m.
        std::vector<double> up(m + 1, 0.0);
        up[0] = 1.0;
        for (const Block &child : children) {
            double a = formulaFor(child);
            for (unsigned j = m; j >= 1; --j)
                up[j] = up[j] * (1.0 - a) + up[j - 1] * a +
                        (j == m ? up[j] * a : 0.0);
            up[0] *= (1.0 - a);
        }
        return up[m];
      }
    }
    return 0.0; // Unreachable.
}

double
RbdSystem::availabilityFormula() const
{
    require(!hasSharedComponents(),
            "availabilityFormula() requires tree-independent structure; "
            "use availabilityExact() for shared components");
    return formulaFor(root());
}

bdd::NodeRef
RbdSystem::compileBlock(bdd::BddManager &manager, const Block &block) const
{
    switch (block.kind()) {
      case Block::Kind::Component:
        return manager.var(static_cast<unsigned>(block.componentId()));
      case Block::Kind::Series: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(block.children().size());
        for (const Block &child : block.children())
            refs.push_back(compileBlock(manager, child));
        return manager.andAll(refs);
      }
      case Block::Kind::Parallel: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(block.children().size());
        for (const Block &child : block.children())
            refs.push_back(compileBlock(manager, child));
        return manager.orAll(refs);
      }
      case Block::Kind::KOfN: {
        std::vector<bdd::NodeRef> refs;
        refs.reserve(block.children().size());
        for (const Block &child : block.children())
            refs.push_back(compileBlock(manager, child));
        return manager.atLeast(refs, block.required());
      }
    }
    return bdd::falseNode; // Unreachable.
}

bdd::NodeRef
RbdSystem::compile(bdd::BddManager &manager) const
{
    // The apply phase: every ite/andAll/orAll building the structure
    // function happens under this span.
    obs::TraceSpan trace_span("bdd.apply",
                              static_cast<std::uint64_t>(
                                  availabilities_.size()));
    return compileBlock(manager, root());
}

double
RbdSystem::availabilityExact() const
{
    bdd::ProbabilityScratch scratch;
    return compileFrozen(*this).diagram.probability(availabilities_,
                                                    scratch);
}

MonteCarloResult
RbdSystem::availabilityMonteCarlo(std::size_t samples,
                                  prob::Rng &rng) const
{
    require(samples > 0, "Monte Carlo needs at least one sample");
    const Block &tree = root();
    std::vector<bool> state(availabilities_.size());
    std::size_t up_count = 0;
    for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t i = 0; i < availabilities_.size(); ++i)
            state[i] = rng.uniform() < availabilities_[i];
        if (tree.evaluate(state))
            ++up_count;
    }
    MonteCarloResult result;
    result.samples = samples;
    result.estimate =
        static_cast<double>(up_count) / static_cast<double>(samples);
    result.standardError =
        std::sqrt(result.estimate * (1.0 - result.estimate) /
                  static_cast<double>(samples));
    return result;
}

FrozenRbd
compileFrozen(const RbdSystem &system, const CompileOptions &options)
{
    bdd::BddManager manager(options.levels);
    // Arm the budget before the build so its clock covers the whole
    // compile.
    if (options.budget.limited())
        manager.setStepBudget(options.budget);
    bdd::NodeRef root;
    {
        obs::TraceSpan trace_span("bdd.compile");
        root = system.compile(manager);
        const bdd::BddStats stats = manager.stats();
        trace_span.arg("peak_nodes", stats.peakNodes);
        trace_span.arg("ite_misses", stats.iteCacheMisses);
    }
    manager.clearStepBudget();
    // The build phase is over: the cache/table stats are final, and
    // the computed cache is dead weight.
    manager.recordMetrics();
    manager.releaseIteCache();
    return {manager.freeze(root, options.classes), manager.stats()};
}

namespace
{

/**
 * Every component's Birnbaum importance, into birnbaum, from one
 * compile; returns the system unavailability.
 */
double
birnbaumAndUnavailability(const RbdSystem &system,
                          const CompileOptions &options,
                          std::vector<double> &birnbaum)
{
    bdd::FrozenDiagram diagram = compileFrozen(system, options).diagram;
    bdd::ProbabilityScratch scratch;
    diagram.gradient(system.availabilities(), scratch, birnbaum);
    return 1.0 - diagram.probability(system.availabilities(), scratch);
}

/** Criticality importance from a Birnbaum importance. */
double
criticality(double birnbaum, double availability,
            double system_unavailability)
{
    return system_unavailability > 0.0
        ? birnbaum * (1.0 - availability) / system_unavailability
        : 0.0;
}

} // anonymous namespace

double
RbdSystem::birnbaumImportance(ComponentId id) const
{
    checkComponent(id);
    std::vector<double> birnbaum;
    birnbaumAndUnavailability(*this, {}, birnbaum);
    return birnbaum[id];
}

double
RbdSystem::criticalityImportance(ComponentId id) const
{
    checkComponent(id);
    std::vector<double> birnbaum;
    double system_unavailability =
        birnbaumAndUnavailability(*this, {}, birnbaum);
    return criticality(birnbaum[id], availabilities_[id],
                       system_unavailability);
}

std::vector<ImportanceEntry>
RbdSystem::rankImportance() const
{
    std::vector<double> birnbaum;
    double system_unavailability =
        birnbaumAndUnavailability(*this, {}, birnbaum);

    std::vector<ImportanceEntry> entries;
    entries.reserve(availabilities_.size());
    for (ComponentId id = 0; id < availabilities_.size(); ++id) {
        entries.push_back({id, names_[id], birnbaum[id],
                           criticality(birnbaum[id], availabilities_[id],
                                       system_unavailability)});
    }
    rankDescending(entries, &ImportanceEntry::criticality);
    return entries;
}

} // namespace sdnav::rbd
