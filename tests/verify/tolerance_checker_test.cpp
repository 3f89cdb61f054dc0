// The three tolerance grades on a minimal counter system, including the
// grade hierarchy (masking implies the other two) and Theorem 5.2's
// composition direction.
#include "verify/tolerance_checker.hpp"

#include <gtest/gtest.h>

#include "apps/catalog.hpp"
#include "obs/telemetry.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/masking_distance.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> counter_space() {
    return make_space({Variable{"v", 5, {}}});
}

Predicate at(const StateSpace& sp, Value v) {
    return Predicate::var_eq(sp, "v", v);
}

/// p: v < 3 --> v := v+1. Goal state: 3. Forbidden state: 4.
Program goal_program(std::shared_ptr<const StateSpace> sp) {
    Program p(sp, "climb");
    p.add_action(Action::assign(
        *sp, "inc",
        Predicate("v<3",
                  [](const StateSpace& space, StateIndex s) {
                      return space.get(s, 0) < 3;
                  }),
        "v",
        [](const StateSpace& space, StateIndex s) {
            return space.get(s, 0) + 1;
        }));
    return p;
}

ProblemSpec goal_spec(const StateSpace& sp) {
    LivenessSpec live;
    live.add_eventually(at(sp, 3));
    return ProblemSpec("reach3-avoid4", SafetySpec::never(at(sp, 4)),
                       std::move(live));
}

Predicate invariant(const StateSpace&) {
    return Predicate("v<=3", [](const StateSpace&, StateIndex s) {
        return s <= 3;
    });
}

TEST(ToleranceTest, BenignFaultGivesMasking) {
    auto sp = counter_space();
    const Program p = goal_program(sp);
    FaultClass f(sp, "setback");
    f.add_action(Action::assign_const(*sp, "setback", at(*sp, 1), "v", 0));

    const ToleranceReport fs = check_failsafe(p, f, goal_spec(*sp),
                                              invariant(*sp));
    EXPECT_TRUE(fs.ok()) << fs.reason();
    const ToleranceReport nm = check_nonmasking(p, f, goal_spec(*sp),
                                                invariant(*sp));
    EXPECT_TRUE(nm.ok()) << nm.reason();
    const ToleranceReport mk = check_masking(p, f, goal_spec(*sp),
                                             invariant(*sp));
    EXPECT_TRUE(mk.ok()) << mk.reason();
    EXPECT_EQ(mk.invariant_size, 4u);
    EXPECT_EQ(mk.span_size, 4u);  // the setback stays within v <= 3
}

TEST(ToleranceTest, FaultUndoingTheGoalStillMasking) {
    // Assumption 2 (finitely many faults) is what makes this masking: the
    // fault knocks the program off its goal, but after faults stop the
    // goal is re-reached, and safety never breaks meanwhile.
    auto sp = counter_space();
    const Program p = goal_program(sp);
    FaultClass f(sp, "knockback");
    f.add_action(Action::assign_const(*sp, "knock", at(*sp, 3), "v", 0));
    const ToleranceReport mk = check_masking(p, f, goal_spec(*sp),
                                             invariant(*sp));
    EXPECT_TRUE(mk.ok()) << mk.reason();
}

TEST(ToleranceTest, FaultIntoForbiddenStateBreaksEverything) {
    auto sp = counter_space();
    const Program p = goal_program(sp);
    FaultClass f(sp, "overshoot");
    f.add_action(Action::assign_const(*sp, "jump4", at(*sp, 0), "v", 4));

    EXPECT_FALSE(check_failsafe(p, f, goal_spec(*sp), invariant(*sp)).ok());
    // v == 4 is also a deadlock outside the invariant: nonmasking fails.
    EXPECT_FALSE(
        check_nonmasking(p, f, goal_spec(*sp), invariant(*sp)).ok());
    EXPECT_FALSE(check_masking(p, f, goal_spec(*sp), invariant(*sp)).ok());
    // The span grew to include the forbidden state.
    const ToleranceReport r = check_masking(p, f, goal_spec(*sp),
                                            invariant(*sp));
    EXPECT_EQ(r.span_size, 5u);
}

TEST(ToleranceTest, FailsafeWithoutNonmasking) {
    // A fault that strands the program in a safe dead end: safety is kept
    // (fail-safe holds) but recovery never happens (nonmasking fails).
    auto sp = counter_space();
    Program p(sp, "climb-from-0");
    p.add_action(Action::assign(
        *sp, "inc",
        Predicate("v<3&&v>=1",
                  [](const StateSpace& space, StateIndex s) {
                      const Value v = space.get(s, 0);
                      return v >= 1 && v < 3;
                  }),
        "v",
        [](const StateSpace& space, StateIndex s) {
            return space.get(s, 0) + 1;
        }));
    FaultClass f(sp, "stall");
    f.add_action(Action::assign_const(*sp, "stall", at(*sp, 1), "v", 0));
    // Invariant: 1 <= v <= 3 (program alone climbs 1 -> 3).
    const Predicate inv("1<=v<=3", [](const StateSpace&, StateIndex s) {
        return s >= 1 && s <= 3;
    });
    EXPECT_TRUE(check_failsafe(p, f, goal_spec(*sp), inv).ok());
    EXPECT_FALSE(check_nonmasking(p, f, goal_spec(*sp), inv).ok());
    EXPECT_FALSE(check_masking(p, f, goal_spec(*sp), inv).ok());
}

TEST(ToleranceTest, NonmaskingWithoutFailsafe) {
    // The fault detours through the forbidden state but the program
    // recovers: nonmasking holds, fail-safe does not.
    auto sp = counter_space();
    Program p = goal_program(sp);
    p.add_action(Action::assign_const(*sp, "repair", at(*sp, 4), "v", 2));
    FaultClass f(sp, "corrupt");
    f.add_action(Action::assign_const(*sp, "jump4", at(*sp, 0), "v", 4));
    EXPECT_FALSE(check_failsafe(p, f, goal_spec(*sp), invariant(*sp)).ok());
    EXPECT_TRUE(
        check_nonmasking(p, f, goal_spec(*sp), invariant(*sp)).ok());
    EXPECT_FALSE(check_masking(p, f, goal_spec(*sp), invariant(*sp)).ok());
}

TEST(ToleranceTest, Theorem52CompositionOnThisFamily) {
    // Theorem 5.2: safety from the span + convergence to the invariant +
    // SPEC from the invariant imply masking. Spot-check the implication
    // "fail-safe && nonmasking => masking" across this test family's
    // fault classes.
    auto sp = counter_space();
    const Program p = goal_program(sp);
    const ProblemSpec spec = goal_spec(*sp);
    const Predicate inv = invariant(*sp);

    const std::vector<std::pair<std::string, Action>> faults{
        {"setback", Action::assign_const(*sp, "f1", at(*sp, 1), "v", 0)},
        {"knock", Action::assign_const(*sp, "f2", at(*sp, 3), "v", 0)},
        {"jump4", Action::assign_const(*sp, "f3", at(*sp, 0), "v", 4)},
        {"jitter", Action::assign_const(*sp, "f4", at(*sp, 2), "v", 1)},
    };
    for (const auto& [name, action] : faults) {
        FaultClass f(sp, name);
        f.add_action(action);
        const bool fs = check_failsafe(p, f, spec, inv).ok();
        const bool nm = check_nonmasking(p, f, spec, inv).ok();
        const bool mk = check_masking(p, f, spec, inv).ok();
        if (fs && nm) {
            EXPECT_TRUE(mk) << "Theorem 5.2 violated for " << name;
        }
        // Masking is the strictest grade.
        if (mk) {
            EXPECT_TRUE(fs) << name;
            EXPECT_TRUE(nm) << name;
        }
    }
}

TEST(ToleranceTest, IntolerantBaseFailsInAbsenceCheck) {
    auto sp = counter_space();
    Program p(sp, "bad");
    p.add_action(Action::assign_const(*sp, "leap", at(*sp, 0), "v", 4));
    FaultClass f(sp, "F");
    const ToleranceReport r =
        check_masking(p, f, goal_spec(*sp), Predicate::top());
    EXPECT_FALSE(r.in_absence.ok);
}

std::uint64_t counter(std::string_view path) {
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == path) return c.value;
    return 0;
}

TEST(ToleranceTest, GridFillsTheInvariantOnceAndSkipsSpanClosure) {
    // A `dcft verify` grid plus the masking distance: the invariant is
    // materialized once for all four calls, by word algebra alone (no
    // state evaluated one by one), and the only closure obligations
    // discharged are the in-absence ones (the fault span is closed by
    // construction).
    const apps::SystemInstance sys = apps::load_system("token-ring", 5);
    ExplorationCache::global().clear();
    obs::set_enabled(true);
    obs::Registry::global().reset();
    std::uint64_t grades = 0;
    for (const auto& [variant, program] : sys.variants) {
        for (const Tolerance grade :
             {Tolerance::FailSafe, Tolerance::Nonmasking, Tolerance::Masking}) {
            check_tolerance(program, *sys.faults, sys.spec, sys.invariant,
                            grade);
            ++grades;
        }
        masking_distance(program, *sys.faults, sys.spec, sys.invariant);
    }
    const std::uint64_t fills = counter("verify/predicate_eval/word_fills");
    const std::uint64_t whole_scans =
        counter("verify/predicate_eval/bulk_scans");
    const std::uint64_t scanned =
        counter("verify/predicate_eval/states_scanned");
    const std::uint64_t closures = counter("verify/obligations/closure");
    obs::set_enabled(false);
    ExplorationCache::global().clear();
    EXPECT_EQ(fills, 1u);
    EXPECT_EQ(whole_scans, 0u);
    EXPECT_EQ(scanned, 0u);
    EXPECT_EQ(closures, grades);
}

}  // namespace
}  // namespace dcft
