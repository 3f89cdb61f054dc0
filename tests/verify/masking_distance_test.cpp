// Masking-distance game tests (verify/masking_distance.hpp): the distance
// ladder on a hand-built threshold system (0 = program-only violation,
// 1 = breaks on the first fault, k = absorbs k-1 faults, inf = masking),
// the differential identity against the explicit tolerance checker
// (distance inf iff check_failsafe's in-presence obligation holds), and
// bit-identical results across exploration thread counts.
#include "verify/masking_distance.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "apps/memory_access.hpp"
#include "obs/progress.hpp"
#include "verify/closure.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft {
namespace {

/// Scoped environment override restoring the previous value on exit.
class EnvVarGuard {
public:
    EnvVarGuard(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvVarGuard() {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

private:
    std::string name_;
    bool had_ = false;
    std::string old_;
};

std::shared_ptr<const StateSpace> counter_space() {
    return make_space({Variable{"v", 5, {}}});
}

Predicate v_below(const StateSpace&, Value limit) {
    return Predicate("v<" + std::to_string(limit),
                     [limit](const StateSpace& space, StateIndex s) {
                         return space.get(s, 0) < limit;
                     });
}

/// Threshold system: faults push v up by one while v < fault_cap, the
/// program repairs v down by one while v > 0. Safety forbids v == 4.
/// From the invariant v == 0 the adversary needs exactly four consecutive
/// faults to reach v == 4 (the repair action never helps it), so the
/// masking distance is 4 when fault_cap == 4 and infinite when the cap
/// keeps v below the forbidden value.
struct ThresholdSystem {
    std::shared_ptr<const StateSpace> space = counter_space();
    Program program{space, "repair"};
    FaultClass faults{space, "hit"};
    ProblemSpec spec;
    Predicate invariant;

    explicit ThresholdSystem(Value fault_cap)
        : invariant(Predicate::var_eq(*space, "v", 0)) {
        program.add_action(Action::assign(
            *space, "repair",
            Predicate("v>0",
                      [](const StateSpace& sp, StateIndex s) {
                          return sp.get(s, 0) > 0;
                      }),
            "v",
            [](const StateSpace& sp, StateIndex s) {
                return sp.get(s, 0) - 1;
            }));
        faults.add_action(Action::assign(
            *space, "hit", v_below(*space, fault_cap), "v",
            [](const StateSpace& sp, StateIndex s) {
                return sp.get(s, 0) + 1;
            }));
        spec = ProblemSpec("avoid4",
                           SafetySpec::never(Predicate::var_eq(*space, "v", 4)),
                           LivenessSpec());
    }
};

TEST(MaskingDistanceTest, ProgramOnlyViolationIsDistanceZero) {
    // The "program" itself climbs into the forbidden state: the violation
    // needs no refuter move at all, so d = 0 — exactly the case where
    // check_failsafe already fails in the *absence* of faults.
    auto sp = counter_space();
    Program p(sp, "climb");
    p.add_action(Action::assign(
        *sp, "climb", v_below(*sp, 4), "v",
        [](const StateSpace& space, StateIndex s) {
            return space.get(s, 0) + 1;
        }));
    FaultClass f(sp, "noop-fault");
    f.add_action(Action::assign_const(
        *sp, "reset", Predicate::var_eq(*sp, "v", 1), "v", 0));
    const ProblemSpec spec("avoid4",
                           SafetySpec::never(Predicate::var_eq(*sp, "v", 4)),
                           LivenessSpec());
    const Predicate inv = Predicate::var_eq(*sp, "v", 0);

    const MaskingDistanceResult r = masking_distance(p, f, spec, inv);
    EXPECT_FALSE(r.masking);
    EXPECT_EQ(r.distance, 0u);
    EXPECT_EQ(r.witness_faults(), 0u);
    ASSERT_FALSE(r.witness.empty());
    const ToleranceReport fs = check_failsafe(p, f, spec, inv);
    EXPECT_FALSE(fs.in_absence.ok);
}

TEST(MaskingDistanceTest, BreakOnFirstFaultIsDistanceOne) {
    // The fault jumps straight into the forbidden state: the violating
    // transition is itself a fault edge, which counts its own increment —
    // d = 1, and the witness ends with that fault step.
    auto sp = counter_space();
    Program p(sp, "idle");
    p.add_action(Action::assign(
        *sp, "repair",
        Predicate("v>0",
                  [](const StateSpace& space, StateIndex s) {
                      return space.get(s, 0) > 0;
                  }),
        "v",
        [](const StateSpace& space, StateIndex s) {
            return space.get(s, 0) - 1;
        }));
    FaultClass f(sp, "smash");
    f.add_action(Action::assign_const(
        *sp, "smash", v_below(*sp, 4), "v", 4));
    const ProblemSpec spec("avoid4",
                           SafetySpec::never(Predicate::var_eq(*sp, "v", 4)),
                           LivenessSpec());
    const Predicate inv = Predicate::var_eq(*sp, "v", 0);

    const MaskingDistanceResult r = masking_distance(p, f, spec, inv);
    EXPECT_FALSE(r.masking);
    EXPECT_EQ(r.distance, 1u);
    EXPECT_EQ(r.witness_faults(), 1u);
    ASSERT_GE(r.witness.size(), 2u);
    EXPECT_TRUE(r.witness.back().fault);
    EXPECT_EQ(r.witness.back().action, "smash");
}

TEST(MaskingDistanceTest, AbsorbsThreeFaultsBreaksOnFourth) {
    const ThresholdSystem sys(/*fault_cap=*/4);
    const MaskingDistanceResult r = masking_distance(
        sys.program, sys.faults, sys.spec, sys.invariant);
    EXPECT_FALSE(r.masking);
    EXPECT_EQ(r.distance, 4u);
    EXPECT_EQ(r.witness_faults(), 4u);
    // Layer 0 is the fault-free subgame; v reaches 4 in layer 4.
    EXPECT_EQ(r.game_layers, 5u);
    EXPECT_EQ(r.game_nodes, 5u);  // v = 0..4
}

TEST(MaskingDistanceTest, CappedFaultsAreMaskedForever) {
    // With the fault capped below the forbidden value no computation of
    // p [] F ever violates safety: distance infinite, no witness — and the
    // explicit checker's in-presence safety obligation agrees.
    const ThresholdSystem sys(/*fault_cap=*/3);
    const MaskingDistanceResult r = masking_distance(
        sys.program, sys.faults, sys.spec, sys.invariant);
    EXPECT_TRUE(r.masking);
    EXPECT_TRUE(r.witness.empty());
    EXPECT_EQ(r.game_nodes, 4u);  // v = 0..3
    const ToleranceReport fs = check_failsafe(sys.program, sys.faults,
                                              sys.spec, sys.invariant);
    EXPECT_TRUE(fs.in_presence.ok) << fs.in_presence.reason;
}

TEST(MaskingDistanceTest, AgreesWithExplicitCheckerOnMemory) {
    // Differential identity on a paper system, all four variants:
    // d == inf  iff  check_failsafe's in-presence obligation holds (same
    // safety property, quantified over the same fault span), and
    // check_masking ok implies d == inf (masking adds liveness on top).
    auto sys = apps::make_memory_access();
    const std::vector<std::pair<std::string, const Program*>> variants = {
        {"intolerant", &sys.intolerant},
        {"failsafe", &sys.failsafe},
        {"nonmasking", &sys.nonmasking},
        {"masking", &sys.masking}};
    for (const auto& [name, program] : variants) {
        const MaskingDistanceResult r =
            masking_distance(*program, sys.page_fault, sys.spec, sys.S);
        const ToleranceReport fs =
            check_failsafe(*program, sys.page_fault, sys.spec, sys.S);
        EXPECT_EQ(r.masking, fs.in_presence.ok)
            << name << ": game says "
            << (r.masking ? "masking" : "distance " +
                                            std::to_string(r.distance))
            << " but failsafe in_presence says " << fs.in_presence.reason;
        const ToleranceReport mk =
            check_masking(*program, sys.page_fault, sys.spec, sys.S);
        if (mk.ok()) EXPECT_TRUE(r.masking) << name;
        if (!r.masking) {
            EXPECT_EQ(r.witness_faults(), r.distance) << name;
            EXPECT_FALSE(r.witness.empty()) << name;
        }
    }
}

TEST(MaskingDistanceTest, BitIdenticalAcrossExplorationThreads) {
    // The game runs on the recorded CSR edges, which are thread-invariant;
    // the solver itself is serial and canonical. Distance, game counters,
    // reason string, and the full witness must match across 1/2/8-thread
    // explorations of the same system.
    const ThresholdSystem sys(/*fault_cap=*/4);
    MaskingDistanceResult base;
    bool first = true;
    for (const char* threads : {"1", "2", "8"}) {
        const EnvVarGuard tg("DCFT_VERIFIER_THREADS", threads);
        ExplorationCache::global().clear();
        const MaskingDistanceResult r = masking_distance(
            sys.program, sys.faults, sys.spec, sys.invariant);
        if (first) {
            base = r;
            first = false;
            continue;
        }
        EXPECT_EQ(base.masking, r.masking);
        EXPECT_EQ(base.distance, r.distance);
        EXPECT_EQ(base.game_nodes, r.game_nodes);
        EXPECT_EQ(base.game_layers, r.game_layers);
        EXPECT_EQ(base.reason, r.reason) << "threads=" << threads;
        ASSERT_EQ(base.witness.size(), r.witness.size());
        for (std::size_t i = 0; i < base.witness.size(); ++i) {
            EXPECT_EQ(base.witness[i].state, r.witness[i].state);
            EXPECT_EQ(base.witness[i].state_repr, r.witness[i].state_repr);
            EXPECT_EQ(base.witness[i].action, r.witness[i].action);
            EXPECT_EQ(base.witness[i].fault, r.witness[i].fault);
        }
    }
    ExplorationCache::global().clear();
}

TEST(MaskingDistanceTest, HeartbeatPublishesSettledGameNodes) {
    // A 2^17 + 5 node chain: the program walks v up from 0, the fault only
    // resets it, so every node is settled by the verifier's half-moves.
    // The game publishes every 64 Ki settled nodes; the closure checks
    // name their phase. A long interval enables publishing without a
    // sampler line.
    obs::set_progress_interval(3600.0);
    constexpr Value kLength = (Value{1} << 17) + 5;
    auto sp = make_space({Variable{"v", kLength, {}}});
    Program p(sp, "walk");
    p.add_action(Action::assign_add_mod(*sp, "step",
                                        Predicate::var_ne(*sp, 0, kLength - 1),
                                        0, 0, 1, kLength));
    FaultClass f(sp, "reset");
    f.add_action(Action::assign_const(
        *sp, "reset", Predicate::var_eq(*sp, 0, kLength - 1), "v", 0));
    const Predicate inv = Predicate::var_eq(*sp, 0, 0);
    const MaskingDistanceResult r = masking_distance(
        p, f, ProblemSpec("any", SafetySpec::never(Predicate::bottom()),
                          LivenessSpec()),
        inv);
    EXPECT_TRUE(r.masking);
    EXPECT_EQ(r.game_nodes, static_cast<std::uint64_t>(kLength));
    obs::ProgressItems at = obs::progress_items_snapshot();
    ASSERT_NE(at.what, nullptr);
    EXPECT_STREQ(at.what, "game");
    EXPECT_EQ(at.done, 2u * 65536u);
    EXPECT_EQ(at.total, static_cast<std::uint64_t>(kLength));

    EXPECT_TRUE(check_closed(p, Predicate::top()).ok);
    EXPECT_STREQ(obs::progress_items_snapshot().what, "closure");
    obs::set_progress_interval(0.0);
}

}  // namespace
}  // namespace dcft
