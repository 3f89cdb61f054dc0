// Section 6.2: Byzantine agreement decomposed into IB + DB + CB, with the
// 3f+1 threshold recovered as a verification outcome.
#include "apps/byzantine.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "verify/component_checker.hpp"
#include "verify/reachability.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::ByzantineSystem;
using apps::make_byzantine;

/// The invariant we verify from: all states reachable by the given program
/// in the absence of faults, from the canonical initial states.
Predicate reachable_invariant(const ByzantineSystem& sys,
                              const Program& program) {
    const Predicate init(
        "init", [&sys](const StateSpace& sp, StateIndex s) {
            if (sp.get(s, sys.b_g) != 0) return false;
            for (std::size_t i = 0; i < sys.d.size(); ++i) {
                if (sp.get(s, sys.b[i]) != 0) return false;
                if (sp.get(s, sys.d[i]) != 2) return false;    // bot
                if (sp.get(s, sys.out[i]) != 2) return false;  // bot
            }
            return true;  // d.g free: both initial decisions included
        });
    auto reach = std::make_shared<StateSet>(
        reachable_states(program, nullptr, init));
    return predicate_of(std::move(reach), "reach(" + program.name() + ")");
}

class ByzantineTest : public ::testing::Test {
protected:
    ByzantineSystem sys = make_byzantine(4, 1);
};

TEST_F(ByzantineTest, IntolerantRefinesSpecWithoutByzantineProcesses) {
    const Predicate inv = reachable_invariant(sys, sys.intolerant);
    EXPECT_TRUE(refines_spec(sys.intolerant, sys.spec, inv).ok);
}

TEST_F(ByzantineTest, IntolerantViolatesSafetyUnderByzantineGeneral) {
    const Predicate inv = reachable_invariant(sys, sys.intolerant);
    EXPECT_FALSE(check_failsafe(sys.intolerant, sys.byzantine_fault,
                                sys.spec, inv)
                     .ok());
}

TEST_F(ByzantineTest, DetectorGatedVersionIsFailsafeTolerant) {
    const Predicate inv = reachable_invariant(sys, sys.failsafe);
    const ToleranceReport r = check_failsafe(
        sys.failsafe, sys.byzantine_fault, sys.spec, inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(ByzantineTest, FailsafeVersionIsNotMasking) {
    // A Byzantine general that equivocates can block one process forever —
    // fail-safe, but liveness is lost without the corrector.
    const Predicate inv = reachable_invariant(sys, sys.failsafe);
    EXPECT_FALSE(check_masking(sys.failsafe, sys.byzantine_fault, sys.spec,
                               inv)
                     .ok());
}

TEST_F(ByzantineTest, FullConstructionIsMaskingTolerant) {
    const Predicate inv = reachable_invariant(sys, sys.masking);
    const ToleranceReport r =
        check_masking(sys.masking, sys.byzantine_fault, sys.spec, inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(ByzantineTest, MaskingVersionIsAlsoFailsafe) {
    const Predicate inv = reachable_invariant(sys, sys.masking);
    EXPECT_TRUE(check_failsafe(sys.masking, sys.byzantine_fault, sys.spec,
                               inv)
                    .ok());
}

TEST_F(ByzantineTest, DbWitnessIsADetectorOfCorrectDecision) {
    // 'W.j detects (d.j = corrdecn)' in the masking program, from its
    // fault-free invariant.
    const Predicate inv = reachable_invariant(sys, sys.masking);
    for (int j = 1; j < sys.num_processes; ++j) {
        const DetectorClaim claim{sys.witness(j), sys.detection(j), inv};
        EXPECT_TRUE(check_detector(sys.masking, claim).ok) << "process " << j;
    }
}

TEST_F(ByzantineTest, ThreeProcessesCannotMaskOneByzantine) {
    // n = 3, f = 1 < the 3f+1 threshold: the construction must fail.
    ByzantineSystem small = make_byzantine(3, 1);
    const Predicate inv = reachable_invariant(small, small.masking);
    EXPECT_FALSE(check_masking(small.masking, small.byzantine_fault,
                               small.spec, inv)
                     .ok());
}

TEST_F(ByzantineTest, NoFaultBudgetMeansTrivialTolerance) {
    ByzantineSystem calm = make_byzantine(4, 0);
    const Predicate inv = reachable_invariant(calm, calm.masking);
    EXPECT_TRUE(check_masking(calm.masking, calm.byzantine_fault, calm.spec,
                              inv)
                    .ok());
}

TEST_F(ByzantineTest, FiveProcessesTolerateOneByzantine) {
    // n = 5 > 3f+1 also works (more slack than the tight bound).
    ByzantineSystem five = make_byzantine(5, 1);
    const Predicate inv = reachable_invariant(five, five.masking);
    const ToleranceReport r = check_masking(
        five.masking, five.byzantine_fault, five.spec, inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(ByzantineTest, InitialStateShape) {
    const StateIndex s0 = sys.initial_state(1);
    EXPECT_EQ(sys.space->get(s0, sys.d_g), 1);
    EXPECT_EQ(sys.space->get(s0, sys.b_g), 0);
    for (std::size_t i = 0; i < sys.d.size(); ++i) {
        EXPECT_EQ(sys.space->get(s0, sys.d[i]), 2);
        EXPECT_EQ(sys.space->get(s0, sys.out[i]), 2);
        EXPECT_EQ(sys.space->get(s0, sys.b[i]), 0);
    }
    EXPECT_THROW(sys.initial_state(2), ContractError);
}

TEST_F(ByzantineTest, WitnessRequiresAllDecisionsPresent) {
    StateIndex s = sys.initial_state(1);
    EXPECT_FALSE(sys.witness(1).eval(*sys.space, s));
    for (std::size_t i = 0; i < sys.d.size(); ++i)
        s = sys.space->set(s, sys.d[i], 1);
    EXPECT_TRUE(sys.witness(1).eval(*sys.space, s));
    s = sys.space->set(s, sys.d[0], 0);  // minority now
    EXPECT_FALSE(sys.witness(1).eval(*sys.space, s));
    EXPECT_TRUE(sys.witness(2).eval(*sys.space, s));
}


/// The majority rule the structured Byzantine forms replaced, copied here
/// as the oracle: strict majority among the d values (bot abstains),
/// defaulting to 0 on a tie or when no value has a majority.
Value oracle_majority(const StateSpace& sp, StateIndex s,
                      const std::vector<VarId>& d) {
    int votes[2] = {0, 0};
    for (VarId v : d) {
        const Value val = sp.get(s, v);
        if (val == 0 || val == 1) ++votes[val];
    }
    const int threshold = static_cast<int>(d.size()) / 2;
    if (votes[0] > threshold) return 0;
    if (votes[1] > threshold) return 1;
    return 0;
}

TEST(ByzantineMigrationTest, StructuredActionsMatchTheOpaqueLambdas) {
    // n = 3 has two voters (ties default to 0), n = 4 three; f = 2 moves
    // the fault budget.
    for (const auto& [n, f] : {std::pair{3, 1}, std::pair{4, 2}}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " f=" + std::to_string(f));
        auto sys = make_byzantine(n, f);
        const auto space = sys.space;
        const std::vector<VarId> dvars = sys.d;
        for (int j = 1; j < n; ++j) {
            const VarId dj = dvars[static_cast<std::size_t>(j - 1)];
            const VarId oj = sys.out[static_cast<std::size_t>(j - 1)];
            const VarId bj = sys.b[static_cast<std::size_t>(j - 1)];
            const std::string js = std::to_string(j);
            const Predicate w(
                "W." + js, [dvars, dj](const StateSpace& sp, StateIndex s) {
                    for (VarId v : dvars)
                        if (sp.get(s, v) == 2) return false;
                    return sp.get(s, dj) == oracle_majority(sp, s, dvars);
                });
            test::expect_same_guard(space, sys.witness(j), w);
            const Predicate hon =
                Predicate::var_eq(*space, bj, 0).renamed("!b." + js);
            const Action ib2 = Action::assign_var(
                *space, "IB2." + js,
                hon && Predicate::var_ne(*space, dj, 2) &&
                    Predicate::var_eq(*space, oj, 2),
                oj, dj);
            test::expect_same_action(
                space, sys.failsafe.action_named("(W." + js + " /\\ IB2." + js + ")"),
                ib2.restricted(w));
            const Predicate cb_guard(
                "cb-guard." + js,
                [dvars, dj](const StateSpace& sp, StateIndex s) {
                    for (VarId v : dvars)
                        if (sp.get(s, v) == 2) return false;
                    return sp.get(s, dj) != oracle_majority(sp, s, dvars);
                });
            test::expect_same_action(
                space, sys.masking.action_named("CB1." + js),
                Action::assign(*space, "CB1." + js, hon && cb_guard,
                               "d." + js,
                               [dvars](const StateSpace& sp, StateIndex s) {
                                   return oracle_majority(sp, s, dvars);
                               }));
        }
        std::vector<VarId> all_b = sys.b;
        all_b.push_back(sys.b_g);
        const Predicate under_budget(
            "byz-count<" + std::to_string(f),
            [all_b, f](const StateSpace& sp, StateIndex s) {
                int count = 0;
                for (VarId v : all_b) count += static_cast<int>(sp.get(s, v));
                return count < f;
            });
        const auto faults = sys.byzantine_fault.actions();
        ASSERT_EQ(faults.size(), static_cast<std::size_t>(n));
        test::expect_same_action(
            space, faults[0],
            Action::assign_const(
                *space, "BYZ-flip.g",
                under_budget && Predicate::var_eq(*space, sys.b_g, 0), "b.g",
                1));
        for (int j = 1; j < n; ++j)
            test::expect_same_action(
                space, faults[static_cast<std::size_t>(j)],
                Action::assign_const(
                    *space, "BYZ-flip." + std::to_string(j),
                    under_budget &&
                        Predicate::var_eq(
                            *space, sys.b[static_cast<std::size_t>(j - 1)], 0),
                    "b." + std::to_string(j), 1));
    }
}

TEST(ByzantineMigrationTest, SpecPredicatesMatchTheOpaqueLambdas) {
    // The spec predicates at catalog size (n = 6); the detection
    // predicates X.j at n = 5 (and n = 4, which has an even number of
    // voters, so ties occur).
    {
        const auto sys = make_byzantine(6, 1);
        std::vector<VarId> all_b = sys.b;
        all_b.push_back(sys.b_g);
        test::expect_same_guard(
            sys.space, sys.no_byzantine,
            Predicate("no-byzantine",
                      [all_b](const StateSpace& sp, StateIndex s) {
                          for (VarId v : all_b)
                              if (sp.get(s, v) != 0) return false;
                          return true;
                      }));
        const std::vector<VarId> outv = sys.out, bv = sys.b;
        test::expect_same_guard(
            sys.space, sys.all_honest_output,
            Predicate("all-honest-output",
                      [outv, bv](const StateSpace& sp, StateIndex s) {
                          for (std::size_t i = 0; i < outv.size(); ++i)
                              if (sp.get(s, bv[i]) == 0 &&
                                  sp.get(s, outv[i]) == 2)
                                  return false;
                          return true;
                      }));
        EXPECT_EQ(sys.no_byzantine.name(), "no-byzantine");
        EXPECT_EQ(sys.all_honest_output.name(), "all-honest-output");
    }
    for (const int n : {4, 5}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        const auto sys = make_byzantine(n, 1);
        const std::vector<VarId> dvars = sys.d;
        const VarId dg = sys.d_g, bg = sys.b_g;
        for (int j = 1; j < n; ++j) {
            const VarId dj = dvars[static_cast<std::size_t>(j - 1)];
            const Predicate want(
                "X." + std::to_string(j) + "(d.j==corrdecn)",
                [dvars, dj, dg, bg](const StateSpace& sp, StateIndex s) {
                    const Value corr = sp.get(s, bg) == 0
                                           ? sp.get(s, dg)
                                           : oracle_majority(sp, s, dvars);
                    return sp.get(s, dj) == corr;
                });
            EXPECT_EQ(sys.detection(j).name(), want.name());
            test::expect_same_guard(sys.space, sys.detection(j), want);
        }
    }
}

}  // namespace
}  // namespace dcft
