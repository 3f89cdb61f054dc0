// Fault injection for simulation runs.
//
// Mirrors the paper's fault model (Section 2.3): faults are actions that
// perturb the state, interleaved with program execution, occurring
// finitely often (Assumption 2 — enforced here by `max_faults`). Faults
// can fire probabilistically per step, or at scripted steps for
// reproducible worst-case scenarios.
//
// Random injection reads the enabled fault actions and their successors
// from a step table (runtime/step_table.hpp) that survives reset(), so an
// injector reused across the runs of an estimate builds each state's row
// once.
#pragma once

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "gc/program.hpp"
#include "runtime/step_table.hpp"

namespace dcft {

/// Injects fault actions into a simulation run.
class FaultInjector {
public:
    /// Probabilistic injection: each step, with probability `per_step_p`,
    /// one enabled fault action fires (uniformly chosen); at most
    /// `max_faults` faults fire in a run. `step_table_budget` exists for
    /// tests that force step-table clears.
    FaultInjector(const FaultClass& faults, double per_step_p,
                  std::size_t max_faults,
                  std::size_t step_table_budget = StepTable::kBudgetBytes);

    /// Additionally force the fault action with index `fault_action` to
    /// fire at simulation step `step` (if enabled there).
    void schedule(std::size_t step, std::size_t fault_action);

    /// Called by the simulator before each program step. Returns the
    /// post-fault state if a fault fires, nullopt otherwise.
    std::optional<StateIndex> maybe_inject(const StateSpace& space,
                                           StateIndex s, std::size_t step,
                                           Rng& rng);

    std::size_t faults_injected() const { return injected_; }
    /// Restores the fault budget for a new run; keeps the step table.
    void reset() { injected_ = 0; }

    const StepTable& step_table() const { return table_; }

private:
    const FaultClass* faults_;
    StepTable table_;
    double per_step_p_;
    std::size_t max_faults_;
    std::size_t injected_ = 0;
    std::vector<std::pair<std::size_t, std::size_t>> scripted_;  // (step, action)
};

}  // namespace dcft
