// Differential tests of the Monte Carlo step table: Simulator runs (program
// rows) and FaultInjector random injections (fault rows) read successors
// from tables that outlive runs, and must reproduce a plain interpreted
// stepping loop bit for bit — every RunResult field and every trace step —
// whatever the scheduler, fault script, fault cap, stop condition, reuse
// pattern or table clears.
#include "runtime/step_table.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "common/check.hpp"
#include "obs/telemetry.hpp"
#include "runtime/experiment.hpp"
#include "runtime/simulator.hpp"

namespace dcft {
namespace {

/// The fault configuration shared by the reference loop and FaultInjector.
struct FaultPlan {
    const FaultClass* faults = nullptr;
    double p = 0.0;
    std::size_t max_faults = 0;
    std::vector<std::pair<std::size_t, std::size_t>> scripted;  // (step, a)
};

/// Interpreted stepping loop: Action::enabled / Action::successors at
/// every step, with the simulator's RNG draw order (scripted fault, fault
/// chance, fault action, fault successor; then scheduler pick, program
/// successor).
RunResult reference_run(const Program& program, Scheduler& scheduler,
                        std::uint64_t seed, StateIndex initial,
                        const RunOptions& options, const FaultPlan* plan) {
    const StateSpace& space = program.space();
    Rng rng(seed);
    scheduler.reset();
    std::size_t injected = 0;
    RunResult r;
    r.initial = initial;
    StateIndex s = initial;
    std::vector<std::size_t> enabled;
    std::vector<StateIndex> succ;
    const auto draw = [&](const Action& action) {
        succ.clear();
        action.successors(space, s, succ);
        return succ[rng.below(succ.size())];
    };
    while (r.steps < options.max_steps) {
        if (options.stop_when && options.stop_when->eval(space, s)) {
            r.stopped_early = true;
            break;
        }
        if (plan != nullptr && injected < plan->max_faults) {
            const auto faults = plan->faults->actions();
            std::optional<StateIndex> t;
            for (const auto& [at, a] : plan->scripted)
                if (at == r.steps && faults[a].enabled(space, s)) {
                    t = draw(faults[a]);
                    break;
                }
            if (!t && plan->p > 0 && rng.chance(plan->p)) {
                enabled.clear();
                for (std::size_t a = 0; a < faults.size(); ++a)
                    if (faults[a].enabled(space, s)) enabled.push_back(a);
                if (!enabled.empty())
                    t = draw(faults[enabled[rng.below(enabled.size())]]);
            }
            if (t) {
                ++injected;
                if (options.record_trace)
                    r.trace.push_back(TraceStep{*t, TraceStep::kFaultStep});
                s = *t;
                ++r.steps;
                ++r.fault_steps;
                continue;
            }
        }
        enabled.clear();
        for (std::size_t a = 0; a < program.actions().size(); ++a)
            if (program.actions()[a].enabled(space, s)) enabled.push_back(a);
        if (enabled.empty()) {
            r.deadlocked = true;
            break;
        }
        const std::size_t a = scheduler.pick(enabled, rng);
        const StateIndex t = draw(program.actions()[a]);
        if (options.record_trace) r.trace.push_back(TraceStep{t, a});
        s = t;
        ++r.steps;
        ++r.program_steps;
    }
    r.final_state = s;
    return r;
}

std::unique_ptr<FaultInjector> make_injector(
    const FaultPlan& plan,
    std::size_t budget = StepTable::kBudgetBytes) {
    auto injector = std::make_unique<FaultInjector>(
        *plan.faults, plan.p, plan.max_faults, budget);
    for (const auto& [step, a] : plan.scripted) injector->schedule(step, a);
    return injector;
}

void expect_same(const RunResult& want, const RunResult& got,
                 const std::string& where) {
    SCOPED_TRACE(where);
    EXPECT_EQ(want.initial, got.initial);
    EXPECT_EQ(want.final_state, got.final_state);
    EXPECT_EQ(want.steps, got.steps);
    EXPECT_EQ(want.program_steps, got.program_steps);
    EXPECT_EQ(want.fault_steps, got.fault_steps);
    EXPECT_EQ(want.deadlocked, got.deadlocked);
    EXPECT_EQ(want.stopped_early, got.stopped_early);
    ASSERT_EQ(want.trace.size(), got.trace.size());
    for (std::size_t i = 0; i < want.trace.size(); ++i) {
        EXPECT_EQ(want.trace[i].to, got.trace[i].to) << "step " << i;
        EXPECT_EQ(want.trace[i].action, got.trace[i].action) << "step " << i;
    }
}

/// The four schedulers, freshly built (WeightedScheduler weights vary by
/// action; AdversarialScheduler starves actions 0 and 1).
std::vector<std::unique_ptr<Scheduler>> all_schedulers() {
    std::vector<std::unique_ptr<Scheduler>> out;
    out.push_back(std::make_unique<RandomScheduler>());
    out.push_back(std::make_unique<RoundRobinScheduler>());
    out.push_back(std::make_unique<WeightedScheduler>(
        std::vector<double>{3.0, 0.5, 1.0, 2.0, 0.25}));
    out.push_back(std::make_unique<AdversarialScheduler>(
        std::vector<std::size_t>{0, 1}));
    return out;
}

/// Catalog systems small enough for hundreds of runs per test.
const std::vector<std::pair<std::string, int>>& small_systems() {
    static const std::vector<std::pair<std::string, int>> systems = {
        {"memory", 0},    {"byzantine", 3}, {"token-ring", 4},
        {"barrier", 0},   {"abp", 0},       {"reset", 3}};
    return systems;
}

TEST(StepTableDifferentialTest, MatchesInterpretedLoop) {
    for (const auto& [name, size] : small_systems()) {
        const apps::SystemInstance sys = apps::load_system(name, size);
        const std::size_t last_fault = sys.faults->actions().size() - 1;
        struct Case {
            std::string name;
            std::optional<FaultPlan> plan;
            bool stop_outside_invariant = false;
        };
        const FaultClass* f = sys.faults.get();
        const std::size_t all = ~std::size_t{0};
        const std::vector<Case> cases = {
            {"random", FaultPlan{f, 0.2, all, {}}},
            {"random, stop outside S", FaultPlan{f, 0.2, all, {}}, true},
            {"random+scripted, cap 2",
             FaultPlan{f, 0.1, 2, {{3, 0}, {9, last_fault}}}},
            {"scripted", FaultPlan{f, 0.0, 5, {{1, last_fault}, {4, 0}}}},
            {"no faults", std::nullopt}};
        for (const auto& [plan_name, plan, stop] : cases) {
            RunOptions options;
            options.max_steps = 300;
            options.record_trace = true;
            if (stop) options.stop_when = !sys.invariant;
            for (const auto& [variant, program] : sys.variants) {
                for (auto& scheduler : all_schedulers()) {
                    const std::string where =
                        name + "/" + variant + " " + plan_name + " " +
                        scheduler->name();
                    Simulator sim(program, *scheduler);
                    std::unique_ptr<FaultInjector> injector;
                    if (plan) {
                        injector = make_injector(*plan);
                        sim.set_fault_injector(injector.get());
                    }
                    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                        sim.rng() = Rng(seed);
                        const RunResult got = sim.run(sys.initial, options);
                        const RunResult want = reference_run(
                            program, *scheduler, seed, sys.initial, options,
                            plan ? &*plan : nullptr);
                        expect_same(want, got,
                                    where + " seed " + std::to_string(seed));
                    }
                }
            }
        }
    }
}

TEST(StepTableDifferentialTest, StopWhenFiresOnTableRuns) {
    // Runs from the initial state stop at the first state outside the
    // invariant; some must actually stop, or the check above is vacuous.
    const apps::SystemInstance sys = apps::load_system("token-ring", 4);
    const Program& program = sys.variants.begin()->second;
    RandomScheduler scheduler;
    Simulator sim(program, scheduler);
    FaultInjector injector(*sys.faults, 0.2, ~std::size_t{0});
    sim.set_fault_injector(&injector);
    RunOptions options;
    options.max_steps = 300;
    options.stop_when = !sys.invariant;
    std::size_t stopped = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        sim.rng() = Rng(seed);
        if (sim.run(sys.initial, options).stopped_early) ++stopped;
    }
    EXPECT_GT(stopped, 0u);
}

TEST(StepTableDifferentialTest, ReusedSimulatorEqualsFreshOnes) {
    const apps::SystemInstance sys = apps::load_system("barrier", 0);
    const FaultPlan plan{sys.faults.get(), 0.15, ~std::size_t{0}, {{5, 0}}};
    RunOptions options;
    options.max_steps = 400;
    options.record_trace = true;
    for (const auto& [variant, program] : sys.variants) {
        for (auto& scheduler : all_schedulers()) {
            Simulator reused(program, *scheduler);
            const auto reused_injector = make_injector(plan);
            reused.set_fault_injector(reused_injector.get());
            for (std::uint64_t seed = 1; seed <= 20; ++seed) {
                reused.rng() = Rng(seed);
                const RunResult got = reused.run(sys.initial, options);
                Simulator fresh(program, *scheduler, seed);
                const auto fresh_injector = make_injector(plan);
                fresh.set_fault_injector(fresh_injector.get());
                expect_same(fresh.run(sys.initial, options), got,
                            variant + " " + scheduler->name() + " seed " +
                                std::to_string(seed));
            }
            // Reuse pays off: later runs hit rows built by earlier ones.
            EXPECT_LT(reused.step_table().rows_built(), 20u * 400u);
        }
    }
}

TEST(StepTableDifferentialTest, ClearsDoNotChangeRuns) {
    // A 1-byte budget clears both tables before every row built after the
    // first, so every miss rebuilds from an empty table.
    const apps::SystemInstance sys = apps::load_system("token-ring", 4);
    const FaultPlan plan{sys.faults.get(), 0.2, ~std::size_t{0}, {}};
    RunOptions options;
    options.max_steps = 300;
    options.record_trace = true;
    for (const auto& [variant, program] : sys.variants) {
        RandomScheduler a_sched, b_sched;
        Simulator roomy(program, a_sched);
        Simulator tiny(program, b_sched, 1, /*step_table_budget=*/1);
        const auto roomy_injector = make_injector(plan);
        const auto tiny_injector = make_injector(plan, 1);
        roomy.set_fault_injector(roomy_injector.get());
        tiny.set_fault_injector(tiny_injector.get());
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            roomy.rng() = Rng(seed);
            tiny.rng() = Rng(seed);
            expect_same(roomy.run(sys.initial, options),
                        tiny.run(sys.initial, options),
                        variant + " seed " + std::to_string(seed));
        }
        EXPECT_EQ(roomy.step_table().clears(), 0u);
        EXPECT_EQ(roomy_injector->step_table().clears(), 0u);
        EXPECT_GT(tiny.step_table().clears(), 0u);
        EXPECT_GT(tiny_injector->step_table().clears(), 0u);
        // Each clear is followed by one row; none survives to be reused.
        EXPECT_EQ(tiny.step_table().clears() + 1,
                  tiny.step_table().rows_built());
        EXPECT_LE(roomy.step_table().rows_built(),
                  tiny.step_table().rows_built());
    }
}

TEST(StepTableDifferentialTest, ExperimentBitIdenticalAcrossThreads) {
    const apps::SystemInstance sys = apps::load_system("barrier", 0);
    for (const auto& [variant, program] : sys.variants) {
        Experiment ex;
        ex.program = &program;
        ex.initial = sys.initial;
        ex.runs = 37;
        ex.base_seed = 11;
        ex.options.max_steps = 200;
        ex.faults = sys.faults.get();
        ex.fault_probability = 0.1;
        ex.max_faults = ~std::size_t{0};
        ex.safety = sys.spec.safety();
        ex.corrector = sys.invariant;
        ex.make_scheduler = [] {
            return std::make_unique<AdversarialScheduler>(
                std::vector<std::size_t>{0});
        };
        ex.threads = 1;
        const BatchResult base = run_experiment(ex);
        for (const unsigned threads : {2u, 8u}) {
            ex.threads = threads;
            const BatchResult r = run_experiment(ex);
            SCOPED_TRACE(variant + " threads " + std::to_string(threads));
            EXPECT_EQ(base.deadlocked, r.deadlocked);
            EXPECT_EQ(base.violated_runs, r.violated_runs);
            EXPECT_EQ(base.steps.samples(), r.steps.samples());
            EXPECT_EQ(base.fault_steps.samples(), r.fault_steps.samples());
            EXPECT_EQ(base.correction_latency.samples(),
                      r.correction_latency.samples());
            EXPECT_EQ(base.availability.samples(), r.availability.samples());
            EXPECT_EQ(base.time_to_violation.samples(),
                      r.time_to_violation.samples());
            EXPECT_EQ(base.faults_absorbed.samples(),
                      r.faults_absorbed.samples());
        }
    }
}

std::uint64_t counter_value(const std::string& path) {
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == path) return c.value;
    return 0;
}

TEST(StepTableTelemetryTest, RowsAndClearsCountedPerRun) {
    // The catalog-standard estimate of byzantine 3's masking variant:
    // 200 runs over one Simulator and one FaultInjector.
    const apps::SystemInstance sys = apps::load_system("byzantine", 3);
    obs::set_enabled(true);
    obs::Registry::global().reset();
    const ToleranceEstimate est =
        estimate_tolerance(sys.variants.at("masking"), *sys.faults, sys.spec,
                           sys.invariant, sys.initial, {});
    const std::uint64_t rows = counter_value("sim/step_table/rows");
    const std::uint64_t clears = counter_value("sim/step_table/clears");
    const std::uint64_t steps = counter_value("sim/steps");
    obs::set_enabled(false);
    EXPECT_EQ(est.batch.runs, 200u);
    EXPECT_EQ(steps, 37008u);
    EXPECT_EQ(rows, 178u);
    EXPECT_EQ(clears, 0u);
}

TEST(StepTableTelemetryTest, ClearsReachTheRegistry) {
    const apps::SystemInstance sys = apps::load_system("token-ring", 4);
    const Program& program = sys.variants.begin()->second;
    RandomScheduler scheduler;
    Simulator sim(program, scheduler, 3, /*step_table_budget=*/1);
    RunOptions options;
    options.max_steps = 200;
    obs::set_enabled(true);
    obs::Registry::global().reset();
    sim.run(sys.initial, options);
    const std::uint64_t rows = counter_value("sim/step_table/rows");
    const std::uint64_t clears = counter_value("sim/step_table/clears");
    obs::set_enabled(false);
    EXPECT_EQ(rows, sim.step_table().rows_built());
    EXPECT_EQ(clears, sim.step_table().clears());
    EXPECT_GT(clears, 0u);
}

}  // namespace
}  // namespace dcft
