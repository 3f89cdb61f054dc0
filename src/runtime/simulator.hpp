// The discrete-step execution engine (the paper's SIEFAST sketch, Section
// 7): runs a guarded-command program under a scheduler, optionally
// injecting faults, notifying monitors, and recording traces.
//
// The program's actions are compiled once per Simulator, and each visited
// state's enabled actions and successors are read from a step table
// (runtime/step_table.hpp) that outlives runs: a Simulator reused across
// the seeds of an estimate (reseed through rng()) computes each row once.
#pragma once

#include <optional>
#include <vector>

#include "gc/program.hpp"
#include "runtime/fault_injector.hpp"
#include "runtime/monitor.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/step_table.hpp"

namespace dcft {

/// One executed step of a run.
struct TraceStep {
    StateIndex to;
    /// Index of the executed program action, or npos for a fault step.
    std::size_t action;
    static constexpr std::size_t kFaultStep = ~std::size_t{0};
    bool is_fault() const { return action == kFaultStep; }
};

struct RunOptions {
    std::size_t max_steps = 100000;
    bool record_trace = false;
    /// If set, the run stops as soon as this predicate holds.
    std::optional<Predicate> stop_when;
};

struct RunResult {
    StateIndex initial = 0;
    StateIndex final_state = 0;
    std::size_t steps = 0;           ///< program + fault steps executed
    std::size_t program_steps = 0;
    std::size_t fault_steps = 0;
    bool deadlocked = false;         ///< ended in a p-maximal state
    bool stopped_early = false;      ///< stop_when fired
    std::vector<TraceStep> trace;    ///< only if record_trace
};

/// Executes programs step by step. Not thread-safe; one Simulator per
/// thread. Monitors and the injector are borrowed (caller keeps ownership
/// and must keep them alive during run()).
class Simulator {
public:
    /// `step_table_budget` exists for tests that force step-table clears.
    Simulator(const Program& program, Scheduler& scheduler,
              std::uint64_t seed = 1,
              std::size_t step_table_budget = StepTable::kBudgetBytes);

    /// Registers an observer (borrowed).
    void add_monitor(Monitor* monitor);

    /// Detaches every monitor.
    void clear_monitors() { monitors_.clear(); }

    /// Attaches a fault injector (borrowed); nullptr detaches.
    void set_fault_injector(FaultInjector* injector);

    /// Runs from `initial` until deadlock, stop_when, or max_steps.
    RunResult run(StateIndex initial, const RunOptions& options = {});

    Rng& rng() { return rng_; }

    const StepTable& step_table() const { return table_; }

private:
    const Program* program_;
    StepTable table_;
    Scheduler* scheduler_;
    Rng rng_;
    std::vector<Monitor*> monitors_;
    FaultInjector* injector_ = nullptr;
};

}  // namespace dcft
