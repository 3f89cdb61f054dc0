#include "runtime/fault_injector.hpp"

#include "common/check.hpp"
#include "obs/telemetry.hpp"

namespace dcft {

FaultInjector::FaultInjector(const FaultClass& faults, double per_step_p,
                             std::size_t max_faults,
                             std::size_t step_table_budget)
    : faults_(&faults),
      table_(faults.space_ptr(), faults.actions(), step_table_budget),
      per_step_p_(per_step_p),
      max_faults_(max_faults) {}

void FaultInjector::schedule(std::size_t step, std::size_t fault_action) {
    DCFT_EXPECTS(fault_action < faults_->actions().size(),
                 "scheduled fault action out of range");
    scripted_.emplace_back(step, fault_action);
}

std::optional<StateIndex> FaultInjector::maybe_inject(const StateSpace& space,
                                                      StateIndex s,
                                                      std::size_t step,
                                                      Rng& rng) {
    if (injected_ >= max_faults_) return std::nullopt;

    for (const auto& [at, action] : scripted_) {
        if (at != step) continue;
        const Action& fac = faults_->actions()[action];
        if (!fac.enabled(space, s)) continue;
        std::vector<StateIndex> succ;
        fac.successors(space, s, succ);
        ++injected_;
        obs::count("sim/faults_injected");
        obs::count("sim/faults_injected/scripted");
        return succ[rng.below(succ.size())];
    }

    if (per_step_p_ <= 0 || !rng.chance(per_step_p_)) return std::nullopt;

    // Pick uniformly among enabled fault actions, then among that action's
    // successors (demonic nondeterminism resolved randomly).
    const StepTable::Row row = table_.row(s);
    if (row.enabled.empty()) return std::nullopt;
    const auto succ = row.successors(rng.below(row.enabled.size()));
    ++injected_;
    obs::count("sim/faults_injected");
    obs::count("sim/faults_injected/random");
    return succ[rng.below(succ.size())];
}

}  // namespace dcft
