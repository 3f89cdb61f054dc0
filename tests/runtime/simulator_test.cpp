#include "runtime/simulator.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "apps/memory_access.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> counter_space() {
    return make_space({Variable{"v", 10, {}}});
}

Program incrementer(std::shared_ptr<const StateSpace> sp, Value limit) {
    Program p(sp, "inc");
    p.add_action(Action::assign(
        *sp, "inc",
        Predicate("v<lim",
                  [limit](const StateSpace& space, StateIndex s) {
                      return space.get(s, 0) < limit;
                  }),
        "v",
        [](const StateSpace& space, StateIndex s) {
            return space.get(s, 0) + 1;
        }));
    return p;
}

TEST(SimulatorTest, RunsToDeadlock) {
    auto sp = counter_space();
    const Program p = incrementer(sp, 5);
    RoundRobinScheduler sched;
    Simulator sim(p, sched);
    const RunResult r = sim.run(0);
    EXPECT_TRUE(r.deadlocked);
    EXPECT_EQ(r.final_state, 5u);
    EXPECT_EQ(r.program_steps, 5u);
    EXPECT_EQ(r.fault_steps, 0u);
}

TEST(SimulatorTest, MaxStepsBoundsTheRun) {
    auto sp = counter_space();
    Program p(sp, "spin");
    p.add_action(Action::skip("loop", Predicate::top()));
    RandomScheduler sched;
    Simulator sim(p, sched);
    RunOptions opts;
    opts.max_steps = 17;
    const RunResult r = sim.run(0, opts);
    EXPECT_FALSE(r.deadlocked);
    EXPECT_EQ(r.steps, 17u);
}

TEST(SimulatorTest, StopWhenPredicateHaltsEarly) {
    auto sp = counter_space();
    const Program p = incrementer(sp, 9);
    RoundRobinScheduler sched;
    Simulator sim(p, sched);
    RunOptions opts;
    opts.stop_when = Predicate::var_eq(*sp, "v", 3);
    const RunResult r = sim.run(0, opts);
    EXPECT_TRUE(r.stopped_early);
    EXPECT_EQ(r.final_state, 3u);
    EXPECT_EQ(r.program_steps, 3u);
}

TEST(SimulatorTest, TraceRecordsEveryStep) {
    auto sp = counter_space();
    const Program p = incrementer(sp, 3);
    RoundRobinScheduler sched;
    Simulator sim(p, sched);
    RunOptions opts;
    opts.record_trace = true;
    const RunResult r = sim.run(0, opts);
    ASSERT_EQ(r.trace.size(), 3u);
    EXPECT_EQ(r.trace[0].to, 1u);
    EXPECT_EQ(r.trace[2].to, 3u);
    for (const auto& step : r.trace) EXPECT_FALSE(step.is_fault());
}

TEST(SimulatorTest, FaultInjectionInterleaves) {
    auto sp = counter_space();
    const Program p = incrementer(sp, 5);
    FaultClass f(sp, "F");
    f.add_action(Action::assign_const(
        *sp, "reset", Predicate::var_eq(*sp, "v", 2), "v", 0));
    RoundRobinScheduler sched;
    Simulator sim(p, sched);
    FaultInjector inj(f, 1.0, 2);  // fires whenever enabled, twice
    sim.set_fault_injector(&inj);
    RunOptions opts;
    opts.record_trace = true;
    const RunResult r = sim.run(0, opts);
    EXPECT_TRUE(r.deadlocked);
    EXPECT_EQ(r.final_state, 5u);
    EXPECT_EQ(r.fault_steps, 2u);
    // 0..2 (2 steps? no: 0->1->2), reset, 0->1->2, reset, 0->..->5.
    EXPECT_EQ(r.program_steps, 2u + 2u + 5u);
    std::size_t faults_in_trace = 0;
    for (const auto& step : r.trace)
        if (step.is_fault()) ++faults_in_trace;
    EXPECT_EQ(faults_in_trace, 2u);
}

TEST(SimulatorTest, MonitorsObserveRun) {
    auto sp = counter_space();
    const Program p = incrementer(sp, 4);
    RoundRobinScheduler sched;
    Simulator sim(p, sched);
    CorrectorMonitor mon(Predicate::var_eq(*sp, "v", 4));
    sim.add_monitor(&mon);
    sim.run(0);
    EXPECT_EQ(mon.disruptions(), 1u);  // starts broken
    EXPECT_FALSE(mon.unrecovered_at_end());
    EXPECT_EQ(mon.correction_latency().count(), 1u);
}

TEST(SimulatorTest, DeterministicGivenSeed) {
    auto sys = apps::make_memory_access();
    RandomScheduler sched;
    FaultInjector inj(sys.page_fault, 0.2, 3);

    auto run_once = [&](std::uint64_t seed) {
        Simulator sim(sys.nonmasking, sched, seed);
        sim.set_fault_injector(&inj);
        RunOptions opts;
        opts.max_steps = 50;
        opts.record_trace = true;
        return sim.run(sys.initial_state(), opts);
    };
    const RunResult a = run_once(123);
    const RunResult b = run_once(123);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].to, b.trace[i].to);
        EXPECT_EQ(a.trace[i].action, b.trace[i].action);
    }
}

TEST(SimulatorTest, InvalidInitialStateThrows) {
    auto sp = counter_space();
    const Program p = incrementer(sp, 4);
    RoundRobinScheduler sched;
    Simulator sim(p, sched);
    EXPECT_THROW(sim.run(sp->num_states()), ContractError);
}

TEST(SimulatorTest, NondeterministicEffectsResolvedRandomly) {
    auto sp = counter_space();
    Program p(sp, "fork");
    p.add_action(Action::nondet(
        "fork", Predicate::var_eq(*sp, "v", 0),
        [](const StateSpace& space, StateIndex s,
           std::vector<StateIndex>& out) {
            out.push_back(space.set(s, 0, 1));
            out.push_back(space.set(s, 0, 2));
        }));
    RandomScheduler sched;
    bool saw1 = false, saw2 = false;
    for (std::uint64_t seed = 0; seed < 32; ++seed) {
        Simulator sim(p, sched, seed);
        const RunResult r = sim.run(0);
        if (r.final_state == 1) saw1 = true;
        if (r.final_state == 2) saw2 = true;
    }
    EXPECT_TRUE(saw1);
    EXPECT_TRUE(saw2);
}

TEST(SimulatorTest, EnabledActionWithoutSuccessorIsNamed) {
    // stick-x is enabled everywhere but has no successor at x == 0: the run
    // must fail on a ContractError naming the action, not on Rng::below.
    auto sp = make_space({Variable{"x", 2, {}}});
    Program p(sp, "stick");
    p.add_action(Action::set_any(*sp, "stick-x", Predicate::top(), {0}, 0));
    RandomScheduler sched;
    Simulator sim(p, sched);
    try {
        sim.run(0);
        FAIL() << "expected a ContractError";
    } catch (const ContractError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "enabled action 'stick-x' produced no successor"),
                  std::string::npos)
            << e.what();
    }
}

}  // namespace
}  // namespace dcft
