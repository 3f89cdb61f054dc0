// Termination detection (the DFG probe ring) as a verified *detector*:
// 'done detects all-passive'. Safeness is DFG soundness; Progress is its
// eventual-detection property; both decided by the model checker.
#include "apps/termination_detection.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "gc/composition.hpp"
#include "verify/closure.hpp"
#include "verify/component_checker.hpp"
#include "verify/fairness.hpp"
#include "verify/invariant.hpp"
#include "verify/refinement.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::make_termination_detection;
using apps::TerminationDetectionSystem;

TEST(TerminationDetectionTest, DetectorClaimHolds) {
    for (int n : {2, 3, 4}) {
        auto sys = make_termination_detection(n);
        const Predicate inv =
            reachable_invariant(sys.system, sys.initial);
        const DetectorClaim claim{sys.done, sys.all_passive, inv};
        EXPECT_TRUE(check_detector(sys.system, claim).ok) << "n=" << n;
    }
}

TEST(TerminationDetectionTest, DetectionPredicateIsClosed) {
    // All-passive is stable: only an active process can activate another.
    auto sys = make_termination_detection(3);
    EXPECT_TRUE(check_closed(sys.system, sys.all_passive).ok);
}

TEST(TerminationDetectionTest, SoundnessNeverLies) {
    // Explicitly: in every reachable state, done implies all-passive.
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    EXPECT_TRUE(implies_everywhere(
        *sys.space, (inv && sys.done).renamed("reach&&done"),
        sys.all_passive));
}

TEST(TerminationDetectionTest, EventualDetection) {
    // Once the computation terminates, the probe eventually declares it:
    // all-passive ~~> done, from every reachable state.
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    const TransitionSystem ts(sys.system, nullptr, inv);
    EXPECT_TRUE(check_leads_to(ts, sys.all_passive, sys.done, false).ok);
}

TEST(TerminationDetectionTest, ProbeNeedsAtMostTwoRounds) {
    // Bounded-latency sanity: from any reachable all-passive state, the
    // witness path to `done` exists within 2 full probe rounds.
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    // Statically: count probe steps needed — handled by the liveness
    // check above; here check the specific canonical run.
    const StateIndex start = sys.initial_state({false, false, false});
    const TransitionSystem ts(sys.system, nullptr,
                              Predicate("s0",
                                        [start](const StateSpace&,
                                                StateIndex s) {
                                            return s == start;
                                        }));
    bool found_done = false;
    for (NodeId node = 0; node < ts.num_nodes(); ++node) {
        if (sys.done.eval(*sys.space, ts.state_of(node))) {
            found_done = true;
            // retry + n passes + judge, twice, is a generous bound.
            EXPECT_LE(ts.witness_path(node).size(),
                      2u * (static_cast<std::size_t>(sys.n) + 2) + 1);
        }
    }
    EXPECT_TRUE(found_done);
}

TEST(TerminationDetectionTest, SpuriousActivationBreaksSafeness) {
    // If the environment can re-activate a passive process, the claim is
    // not even fail-safe F-tolerant: a fault right after `done` leaves a
    // lying witness. This is the (documented) diffusing-computation
    // contract.
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    const DetectorClaim claim{sys.done, sys.all_passive, inv};
    const Predicate span = reachable_invariant(
        with_faults(sys.system, sys.spurious_activation), sys.initial);
    EXPECT_FALSE(check_tolerant_detector(sys.system,
                                         sys.spurious_activation, claim,
                                         Tolerance::FailSafe, span)
                     .ok);
}

TEST(TerminationDetectionTest, DeadlocksOnlyAfterDetection) {
    auto sys = make_termination_detection(3);
    const Predicate inv = reachable_invariant(sys.system, sys.initial);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (!inv.eval(*sys.space, s)) continue;
        if (sys.system.is_terminal(s)) {
            EXPECT_TRUE(sys.done.eval(*sys.space, s))
                << sys.space->format(s);
        }
    }
}

TEST(TerminationDetectionTest, InitialStateShape) {
    auto sys = make_termination_detection(3);
    const StateIndex s = sys.initial_state({true, false, true});
    EXPECT_EQ(sys.space->get(s, sys.active_var[0]), 1);
    EXPECT_EQ(sys.space->get(s, sys.active_var[1]), 0);
    EXPECT_EQ(sys.space->get(s, sys.token_var), 0);
    EXPECT_EQ(sys.space->get(s, sys.done_var), 0);
    EXPECT_TRUE(sys.initial.eval(*sys.space, s));
    EXPECT_THROW(sys.initial_state({true}), ContractError);
}


TEST(TerminationDetectionTest, StructuredActionsMatchTheOpaqueLambdas) {
    // The lambdas the structured forms replaced, copied here as oracles.
    const int n = 3;
    auto sys = make_termination_detection(n);
    const auto space = sys.space;
    const std::vector<VarId> active = sys.active_var, colour = sys.colour_var;
    const VarId token = sys.token_var, tcolour = sys.tcolour_var;
    const VarId done = sys.done_var;
    constexpr Value kWhite = 0, kBlack = 1;
    for (int i = 0; i < n; ++i) {
        const VarId ai = active[static_cast<std::size_t>(i)];
        const VarId ci = colour[static_cast<std::size_t>(i)];
        const std::string is = std::to_string(i);
        const Predicate is_active(
            "active." + is, [ai](const StateSpace& sp, StateIndex s) {
                return sp.get(s, ai) == 1;
            });
        test::expect_same_action(
            space, sys.system.action_named("passify." + is),
            Action::assign_const(*space, "passify." + is, is_active,
                                 "active." + is, 0));
        std::vector<int> others;
        for (int j = 0; j < n; ++j)
            if (j != i) others.push_back(j);
        test::expect_same_action(
            space, sys.system.action_named("activate." + is),
            Action::nondet(
                "activate." + is, is_active,
                [active, ci, others](const StateSpace& sp, StateIndex s,
                                     std::vector<StateIndex>& out) {
                    for (int j : others) {
                        StateIndex t = sp.set(
                            s, active[static_cast<std::size_t>(j)], 1);
                        out.push_back(sp.set(t, ci, kBlack));
                    }
                }));
        if (i == 0) continue;
        test::expect_same_action(
            space, sys.system.action_named("pass." + is),
            Action("pass." + is,
                   Predicate("token@" + is + "&&passive",
                             [token, ai, i](const StateSpace& sp,
                                            StateIndex s) {
                                 return sp.get(s, token) == i &&
                                        sp.get(s, ai) == 0;
                             }),
                   [token, tcolour, ci, i](const StateSpace& sp,
                                           StateIndex s) {
                       StateIndex t = sp.set(s, token, i - 1);
                       if (sp.get(s, ci) == kBlack)
                           t = sp.set(t, tcolour, kBlack);
                       return sp.set(t, ci, kWhite);
                   }));
    }
    const VarId a0 = active[0], c0 = colour[0];
    const Predicate at_initiator(
        "token@0&&passive", [token, a0](const StateSpace& sp, StateIndex s) {
            return sp.get(s, token) == 0 && sp.get(s, a0) == 0;
        });
    const Predicate probe_white(
        "probe-white", [tcolour, c0](const StateSpace& sp, StateIndex s) {
            return sp.get(s, tcolour) == kWhite && sp.get(s, c0) == kWhite;
        });
    const Predicate not_done("!done",
                             [done](const StateSpace& sp, StateIndex s) {
                                 return sp.get(s, done) == 0;
                             });
    test::expect_same_action(
        space, sys.system.action_named("judge.0"),
        Action::assign_const(*space, "judge.0",
                             at_initiator && probe_white && not_done, "done",
                             1));
    test::expect_same_action(
        space, sys.system.action_named("retry.0"),
        Action("retry.0", at_initiator && !probe_white,
               [token, tcolour, c0, n](const StateSpace& sp, StateIndex s) {
                   StateIndex t = sp.set(s, token, n - 1);
                   t = sp.set(t, tcolour, kWhite);
                   return sp.set(t, c0, kWhite);
               }));
    ASSERT_EQ(sys.spurious_activation.actions().size(), 1u);
    test::expect_same_action(
        space, sys.spurious_activation.actions()[0],
        Action::nondet(
            "spuriously-activate",
            Predicate("some-passive",
                      [active](const StateSpace& sp, StateIndex s) {
                          for (VarId a : active)
                              if (sp.get(s, a) == 0) return true;
                          return false;
                      }),
            [active](const StateSpace& sp, StateIndex s,
                     std::vector<StateIndex>& out) {
                for (VarId a : active)
                    if (sp.get(s, a) == 0) out.push_back(sp.set(s, a, 1));
            }));
}

TEST(TerminationMigrationTest, SpecPredicatesMatchTheOpaqueLambdas) {
    const auto sys = make_termination_detection(6);  // catalog size
    const std::vector<VarId> active = sys.active_var, colour = sys.colour_var;
    const VarId token = sys.token_var, tcolour = sys.tcolour_var,
                done = sys.done_var;
    constexpr Value kBlack = 1;
    test::expect_same_guard(
        sys.space, sys.all_passive,
        Predicate("all-passive", [active](const StateSpace& sp, StateIndex s) {
            for (VarId a : active)
                if (sp.get(s, a) == 1) return false;
            return true;
        }));
    test::expect_same_guard(
        sys.space, sys.initial,
        Predicate("initial", [=](const StateSpace& sp, StateIndex s) {
            if (sp.get(s, token) != 0) return false;
            if (sp.get(s, tcolour) != kBlack) return false;
            if (sp.get(s, done) != 0) return false;
            for (VarId c : colour)
                if (sp.get(s, c) != kBlack) return false;
            return true;
        }));
    EXPECT_EQ(sys.all_passive.name(), "all-passive");
    EXPECT_EQ(sys.initial.name(), "initial");
}

}  // namespace
}  // namespace dcft
