// Section 6.1: triple modular redundancy decomposed into IR + DR + CR.
#include "apps/tmr.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "verify/component_checker.hpp"
#include "verify/encapsulation.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::make_tmr;
using apps::TmrSystem;

class TmrTest : public ::testing::Test {
protected:
    TmrSystem sys = make_tmr(2);
};

TEST_F(TmrTest, IntolerantRefinesSpecInAbsenceOfFaults) {
    EXPECT_TRUE(refines_spec(sys.intolerant, sys.spec, sys.invariant).ok);
}

TEST_F(TmrTest, IntolerantViolatesSafetyUnderCorruption) {
    EXPECT_FALSE(check_failsafe(sys.intolerant, sys.corrupt_one_input,
                                sys.spec, sys.invariant)
                     .ok());
}

// --- DR ; IR: fail-safe (Theorem 3.6 instance, Section 6.1). ---

TEST_F(TmrTest, TheoremHypothesis_DrIrRefinesIr) {
    EXPECT_TRUE(
        refines_program(sys.failsafe, sys.intolerant, sys.invariant).ok);
}

TEST_F(TmrTest, TheoremHypothesis_DrIrEncapsulatesIr) {
    EXPECT_TRUE(check_encapsulates(sys.failsafe, sys.intolerant).ok);
}

TEST_F(TmrTest, DrIrIsFailsafeTolerant) {
    const ToleranceReport r = check_failsafe(
        sys.failsafe, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(TmrTest, DrIrDeadlocksWhenXCorrupted) {
    // "Program DR;IR deadlocks when the value of x gets corrupted" — that
    // is exactly why it is not masking.
    EXPECT_FALSE(check_masking(sys.failsafe, sys.corrupt_one_input, sys.spec,
                               sys.invariant)
                     .ok());
    // Concretely: x != y == z and out unassigned leaves no enabled action.
    StateIndex s = sys.initial_state(0);
    s = sys.space->set(s, sys.x_var, 1);  // corrupt x
    EXPECT_TRUE(sys.failsafe.is_terminal(s));
    EXPECT_FALSE(sys.masking.is_terminal(s));
}

TEST_F(TmrTest, DrWitnessDetectsXUncorrupted) {
    // 'Z_DR detects X_DR' in DR;IR from the invariant: the witness
    // (x=y \/ x=z) correctly witnesses "x equals an uncorrupted input".
    const DetectorClaim claim{sys.dr_witness, sys.x_uncorrupted,
                              sys.invariant};
    EXPECT_TRUE(check_detector(sys.failsafe, claim).ok);
}

TEST_F(TmrTest, DrIsAFailsafeTolerantDetector) {
    const DetectorClaim claim{sys.dr_witness, sys.x_uncorrupted,
                              sys.invariant};
    // Span: the states reachable under faults — at most one corruption.
    const ToleranceReport fs = check_failsafe(
        sys.failsafe, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(check_tolerant_detector(sys.failsafe, sys.corrupt_one_input,
                                        claim, Tolerance::FailSafe,
                                        fs.fault_span)
                    .ok);
}

// --- DR ; IR || CR: masking (Section 6.1's main construction). ---

TEST_F(TmrTest, MaskingTmrIsMaskingTolerant) {
    const ToleranceReport r = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(TmrTest, MaskingTmrIsAlsoFailsafe) {
    EXPECT_TRUE(check_failsafe(sys.masking, sys.corrupt_one_input, sys.spec,
                               sys.invariant)
                    .ok());
}

TEST_F(TmrTest, CrIsACorrectorOfOutputCorrectness) {
    // CR's correction predicate and witness predicate are both
    // out = uncorrupted value; within the masking composition it corrects
    // the output from every span state.
    const ToleranceReport mk = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    const CorrectorClaim claim{sys.output_correct, sys.output_correct,
                               mk.fault_span};
    EXPECT_TRUE(check_corrector(sys.masking, claim).ok);
}

TEST_F(TmrTest, MaskedOutputIsAlwaysTheMajorityValue) {
    // Enumerate the whole span: every terminal state has out = majority.
    const ToleranceReport mk = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (!mk.fault_span.eval(*sys.space, s)) continue;
        if (sys.masking.is_terminal(s)) {
            EXPECT_TRUE(sys.output_correct.eval(*sys.space, s))
                << sys.space->format(s);
        }
    }
}

TEST_F(TmrTest, LargerValueDomains) {
    for (Value domain : {3, 4}) {
        auto sys2 = make_tmr(domain);
        const ToleranceReport r = check_masking(
            sys2.masking, sys2.corrupt_one_input, sys2.spec, sys2.invariant);
        EXPECT_TRUE(r.ok()) << "domain=" << domain << ": " << r.reason();
    }
}

TEST_F(TmrTest, SpanIsAtMostOneCorruption) {
    const ToleranceReport mk = check_masking(
        sys.masking, sys.corrupt_one_input, sys.spec, sys.invariant);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (!mk.fault_span.eval(*sys.space, s)) continue;
        // At least two of the three inputs agree in every span state.
        const Value x = sys.space->get(s, sys.x_var);
        const Value y = sys.space->get(s, sys.y_var);
        const Value z = sys.space->get(s, sys.z_var);
        EXPECT_TRUE(x == y || y == z || x == z) << sys.space->format(s);
    }
}


TEST(TmrMigrationTest, StructuredActionsMatchTheOpaqueLambdas) {
    // The lambdas the structured forms replaced, copied here as oracles.
    const Value domain = 3;
    auto sys = make_tmr(domain);
    const auto space = sys.space;
    const VarId x = sys.x_var, y = sys.y_var, z = sys.z_var;
    auto var_equal = [](VarId a, VarId b, std::string name) {
        return Predicate(std::move(name),
                         [a, b](const StateSpace& sp, StateIndex s) {
                             return sp.get(s, a) == sp.get(s, b);
                         });
    };
    const Predicate out_bot = sys.output_unassigned;
    test::expect_same_guard(
        space, sys.dr_witness,
        var_equal(x, y, "x==y") || var_equal(x, z, "x==z"));
    const Predicate all_agree =
        var_equal(x, y, "x==y") && var_equal(y, z, "y==z");
    test::expect_same_guard(space, sys.all_inputs_agree, all_agree);
    auto copy_of = [](VarId v) {
        return [v](const StateSpace& sp, StateIndex s) { return sp.get(s, v); };
    };
    test::expect_same_action(
        space, sys.intolerant.action_named("IR1"),
        Action::assign(*space, "IR1", out_bot, "out", copy_of(x)));
    test::expect_same_action(
        space, sys.corrector.action_named("CR1"),
        Action::assign(
            *space, "CR1",
            out_bot && (var_equal(y, z, "y==z") || var_equal(y, x, "y==x")),
            "out", copy_of(y)));
    test::expect_same_action(
        space, sys.corrector.action_named("CR2"),
        Action::assign(
            *space, "CR2",
            out_bot && (var_equal(z, x, "z==x") || var_equal(z, y, "z==y")),
            "out", copy_of(z)));
    ASSERT_EQ(sys.corrupt_one_input.actions().size(), 1u);
    test::expect_same_action(
        space, sys.corrupt_one_input.actions()[0],
        Action::nondet("corrupt-input", all_agree,
                       [x, y, z, domain](const StateSpace& sp, StateIndex s,
                                         std::vector<StateIndex>& outv) {
                           for (VarId input : {x, y, z}) {
                               const Value cur = sp.get(s, input);
                               for (Value c = 0; c < domain; ++c)
                                   if (c != cur)
                                       outv.push_back(sp.set(s, input, c));
                           }
                       }));
}

TEST(TmrMigrationTest, SpecPredicatesMatchTheOpaqueLambdas) {
    // Catalog size (domain 4); the oracle is the majority rule the
    // structured predicates replaced.
    const TmrSystem sys = make_tmr(4);
    const VarId x = sys.x_var, y = sys.y_var, z = sys.z_var,
                out = sys.out_var;
    auto majority = [](const StateSpace& sp, StateIndex s, VarId a, VarId b,
                       VarId c) -> std::optional<Value> {
        const Value va = sp.get(s, a), vb = sp.get(s, b), vc = sp.get(s, c);
        if (va == vb || va == vc) return va;
        if (vb == vc) return vb;
        return std::nullopt;
    };
    test::expect_same_guard(
        sys.space, sys.x_uncorrupted,
        Predicate("X_DR(x==uncor)", [=](const StateSpace& sp, StateIndex s) {
            const auto maj = majority(sp, s, x, y, z);
            return maj.has_value() && sp.get(s, x) == *maj;
        }));
    test::expect_same_guard(
        sys.space, sys.output_correct,
        Predicate("out==uncor", [=](const StateSpace& sp, StateIndex s) {
            const auto maj = majority(sp, s, x, y, z);
            return maj.has_value() && sp.get(s, out) == *maj;
        }));
    EXPECT_EQ(sys.x_uncorrupted.name(), "X_DR(x==uncor)");
    EXPECT_EQ(sys.output_correct.name(), "out==uncor");
}

}  // namespace
}  // namespace dcft
