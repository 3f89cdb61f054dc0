#include "runtime/simulator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/telemetry.hpp"

namespace dcft {

Simulator::Simulator(const Program& program, Scheduler& scheduler,
                     std::uint64_t seed, std::size_t step_table_budget)
    : program_(&program),
      table_(program.space_ptr(), program.actions(), step_table_budget),
      scheduler_(&scheduler),
      rng_(seed) {}

void Simulator::add_monitor(Monitor* monitor) {
    DCFT_EXPECTS(monitor != nullptr, "add_monitor(nullptr)");
    monitors_.push_back(monitor);
}

void Simulator::set_fault_injector(FaultInjector* injector) {
    injector_ = injector;
}

RunResult Simulator::run(StateIndex initial, const RunOptions& options) {
    const StateSpace& space = program_->space();
    DCFT_EXPECTS(initial < space.num_states(), "initial state out of range");

    // Telemetry is sampled once per run; monitor hook time is accumulated
    // locally and flushed at the end, so the per-step path never touches
    // the registry. With telemetry off the only cost is one bool.
    const bool telemetry = obs::enabled();
    const obs::Span run_span("sim/run");
    std::uint64_t monitor_ns = 0;
    std::uint64_t monitor_calls = 0;
    const auto notify_step = [&](StateIndex from, StateIndex to, bool fault,
                                 std::size_t step) {
        if (telemetry && !monitors_.empty()) {
            const std::uint64_t t0 = obs::now_ns();
            for (Monitor* m : monitors_)
                m->on_step(space, from, to, fault, step);
            monitor_ns += obs::now_ns() - t0;
            monitor_calls += monitors_.size();
        } else {
            for (Monitor* m : monitors_)
                m->on_step(space, from, to, fault, step);
        }
    };

    scheduler_->reset();
    if (injector_ != nullptr) injector_->reset();

    // Step-table activity of this run, flushed with the sim/* counters.
    const auto table_totals = [&] {
        std::pair<std::uint64_t, std::uint64_t> t{table_.rows_built(),
                                                  table_.clears()};
        if (injector_ != nullptr) {
            t.first += injector_->step_table().rows_built();
            t.second += injector_->step_table().clears();
        }
        return t;
    };
    const auto [rows_before, clears_before] = table_totals();

    RunResult result;
    result.initial = initial;
    StateIndex s = initial;
    for (Monitor* m : monitors_) m->on_start(space, s);

    while (result.steps < options.max_steps) {
        if (options.stop_when && options.stop_when->eval(space, s)) {
            result.stopped_early = true;
            break;
        }

        // Fault steps interleave with program steps; the injector bounds
        // their number (Assumption 2).
        if (injector_ != nullptr) {
            if (auto t = injector_->maybe_inject(space, s, result.steps,
                                                 rng_)) {
                notify_step(s, *t, /*fault=*/true, result.steps);
                if (options.record_trace)
                    result.trace.push_back(
                        TraceStep{*t, TraceStep::kFaultStep});
                s = *t;
                ++result.steps;
                ++result.fault_steps;
                continue;
            }
        }

        // The row holds what a guard scan and effect run at s would give:
        // enabled indices in action order, successors in statement order.
        const StepTable::Row row = table_.row(s);
        if (row.enabled.empty()) {
            result.deadlocked = true;
            break;
        }
        const std::size_t a = scheduler_->pick(row.enabled, rng_);
        const auto k = static_cast<std::size_t>(
            std::lower_bound(row.enabled.begin(), row.enabled.end(), a) -
            row.enabled.begin());
        DCFT_ASSERT(k < row.enabled.size() && row.enabled[k] == a,
                    "scheduler picked a disabled action");
        const auto succ = row.successors(k);
        const StateIndex t = succ[rng_.below(succ.size())];
        notify_step(s, t, /*fault=*/false, result.steps);
        if (options.record_trace) result.trace.push_back(TraceStep{t, a});
        s = t;
        ++result.steps;
        ++result.program_steps;
    }

    result.final_state = s;
    for (Monitor* m : monitors_) m->on_finish(space, s, result.steps);

    if (telemetry) {
        auto& reg = obs::Registry::global();
        reg.counter("sim/runs").add(1);
        reg.counter("sim/steps").add(result.steps);
        reg.counter("sim/program_steps").add(result.program_steps);
        reg.counter("sim/fault_steps").add(result.fault_steps);
        if (result.deadlocked) reg.counter("sim/deadlocks").add(1);
        if (result.stopped_early) reg.counter("sim/stopped_early").add(1);
        if (monitor_calls > 0)
            reg.timer("sim/run/monitor_hooks").add(monitor_ns, monitor_calls);
        const auto [rows_after, clears_after] = table_totals();
        if (rows_after > rows_before)
            reg.counter("sim/step_table/rows").add(rows_after - rows_before);
        if (clears_after > clears_before)
            reg.counter("sim/step_table/clears")
                .add(clears_after - clears_before);
    }
    return result;
}

}  // namespace dcft
