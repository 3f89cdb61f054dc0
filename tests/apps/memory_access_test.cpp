// The paper's running example, Figures 1-3 (Sections 3.3, 4.3, 5.1):
// every claim made about p, pf, pn, pm is verified mechanically, plus the
// negative results that delimit them.
#include "apps/memory_access.hpp"

#include <gtest/gtest.h>

#include "verify/component_checker.hpp"
#include "verify/encapsulation.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::MemoryAccessSystem;
using apps::make_memory_access;

class MemoryAccessTest : public ::testing::Test {
protected:
    MemoryAccessSystem sys = make_memory_access();
};

// --- The intolerant program p. ---

TEST_F(MemoryAccessTest, IntolerantRefinesSpecInAbsenceOfFaults) {
    EXPECT_TRUE(refines_spec(sys.intolerant, sys.spec, sys.S).ok);
}

TEST_F(MemoryAccessTest, IntolerantIsNotFailsafeTolerant) {
    // Once the page fault removes <addr, val>, the unguarded read returns
    // an arbitrary value: safety breaks.
    const ToleranceReport r = check_failsafe(sys.intolerant, sys.page_fault,
                                             sys.spec, sys.S);
    EXPECT_FALSE(r.ok());
}

// --- Figure 1: pf is fail-safe tolerant (Theorem 3.6 instance). ---

TEST_F(MemoryAccessTest, TheoremHypothesis_PfRefinesP) {
    EXPECT_TRUE(refines_program(sys.failsafe, sys.intolerant, sys.S).ok);
}

TEST_F(MemoryAccessTest, TheoremHypothesis_PfEncapsulatesP) {
    EXPECT_TRUE(check_encapsulates(sys.failsafe, sys.intolerant).ok);
}

TEST_F(MemoryAccessTest, PfIsFailsafePageFaultTolerant) {
    const ToleranceReport r =
        check_failsafe(sys.failsafe, sys.page_fault, sys.spec, sys.S);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(MemoryAccessTest, PfContainsAFailsafeTolerantDetector) {
    // "pf is a fail-safe 'page fault'-tolerant detector of a detection
    // predicate of p": witness Z1, detection predicate X1, context S,
    // fault span U1 (Section 3.3).
    const DetectorClaim claim{sys.Z1, sys.X1, sys.S};
    EXPECT_TRUE(check_tolerant_detector(sys.failsafe, sys.page_fault, claim,
                                        Tolerance::FailSafe, sys.U1)
                    .ok);
}

TEST_F(MemoryAccessTest, PfIsNotNonmaskingTolerant) {
    // pf deadlocks after a page fault — it never recovers the memory.
    EXPECT_FALSE(
        check_nonmasking(sys.failsafe, sys.page_fault, sys.spec, sys.S)
            .ok());
}

TEST_F(MemoryAccessTest, PfIsNotMaskingTolerant) {
    EXPECT_FALSE(
        check_masking(sys.failsafe, sys.page_fault, sys.spec, sys.S).ok());
}

TEST_F(MemoryAccessTest, UnrestrictedPageFaultBreaksPf) {
    // If the fault may strike *after* detection (between Z1 := true and
    // the gated read), pf is no longer fail-safe — the justification for
    // reading the paper's "initially removed" as a guard on the fault.
    const ToleranceReport r = check_failsafe(
        sys.failsafe, sys.unrestricted_page_fault, sys.spec, sys.S);
    EXPECT_FALSE(r.ok());
}

// --- Figure 2: pn is nonmasking tolerant (Theorem 4.3 instance). ---

TEST_F(MemoryAccessTest, TheoremHypothesis_PnRefinesP) {
    EXPECT_TRUE(refines_program(sys.nonmasking, sys.intolerant, sys.S).ok);
}

TEST_F(MemoryAccessTest, PnIsNonmaskingPageFaultTolerant) {
    const ToleranceReport r =
        check_nonmasking(sys.nonmasking, sys.page_fault, sys.spec, sys.S);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(MemoryAccessTest, PnSurvivesEvenUnrestrictedPageFaults) {
    const ToleranceReport r = check_nonmasking(
        sys.nonmasking, sys.unrestricted_page_fault, sys.spec, sys.S);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(MemoryAccessTest, PnContainsANonmaskingTolerantCorrector) {
    // "pn is a nonmasking 'page fault'-tolerant corrector of an invariant
    // of p": correction and witness predicate are both X1 (Section 4.3).
    const CorrectorClaim claim{sys.X1, sys.X1, sys.S};
    EXPECT_TRUE(check_tolerant_corrector(sys.nonmasking, sys.page_fault,
                                         claim, Tolerance::Nonmasking,
                                         sys.U1)
                    .ok);
}

TEST_F(MemoryAccessTest, PnIsNotFailsafeTolerant) {
    // During recovery pn's read may return an arbitrary value: the safety
    // specification is violated in the presence of faults.
    EXPECT_FALSE(
        check_failsafe(sys.nonmasking, sys.page_fault, sys.spec, sys.S)
            .ok());
}

// --- Figure 3: pm is masking tolerant (Theorem 5.5 instance). ---

TEST_F(MemoryAccessTest, TheoremHypothesis_PmEncapsulatesPn) {
    EXPECT_TRUE(check_encapsulates(sys.masking, sys.nonmasking).ok);
}

TEST_F(MemoryAccessTest, PmIsMaskingPageFaultTolerant) {
    const ToleranceReport r =
        check_masking(sys.masking, sys.page_fault, sys.spec, sys.S);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST_F(MemoryAccessTest, PmIsAlsoFailsafeAndNonmasking) {
    // Masking is the strictest grade.
    EXPECT_TRUE(
        check_failsafe(sys.masking, sys.page_fault, sys.spec, sys.S).ok());
    EXPECT_TRUE(
        check_nonmasking(sys.masking, sys.page_fault, sys.spec, sys.S)
            .ok());
}

TEST_F(MemoryAccessTest, PmContainsAMaskingTolerantDetector) {
    const DetectorClaim claim{sys.Z1, sys.X1, sys.S};
    EXPECT_TRUE(check_tolerant_detector(sys.masking, sys.page_fault, claim,
                                        Tolerance::Masking, sys.U1)
                    .ok);
}

TEST_F(MemoryAccessTest, PmContainsAMaskingTolerantCorrector) {
    // Theorem 5.5: pm is a *masking tolerant* corrector — it refines the
    // (unweakened) corrects specification from the span T = U1 under
    // program steps alone...
    const CorrectorClaim claim{sys.X1, sys.X1, sys.U1};
    EXPECT_TRUE(check_corrector(sys.masking, claim).ok);
    // ...but only a *nonmasking F-tolerant* corrector: the page fault
    // itself falsifies X1, violating the corrector's Convergence closure
    // on the fault step (the asymmetry Theorem 5.5 calls out).
    EXPECT_TRUE(check_tolerant_corrector(sys.masking, sys.page_fault, claim,
                                         Tolerance::Nonmasking, sys.U1)
                    .ok);
    EXPECT_FALSE(check_tolerant_corrector(sys.masking, sys.page_fault,
                                          claim, Tolerance::Masking, sys.U1)
                     .ok);
}

// --- Structural facts about the model. ---

TEST_F(MemoryAccessTest, U1IsTheFaultSpanShape) {
    // The canonical span of pm from S is contained in U1 (Section 5.1
    // takes T := U1).
    const ToleranceReport r =
        check_masking(sys.masking, sys.page_fault, sys.spec, sys.S);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (r.fault_span.eval(*sys.space, s)) {
            EXPECT_TRUE(sys.U1.eval(*sys.space, s)) << sys.space->format(s);
        }
    }
}

TEST_F(MemoryAccessTest, PredicateAlgebra) {
    EXPECT_TRUE(implies_everywhere(*sys.space, sys.S, sys.U1));
    EXPECT_TRUE(implies_everywhere(*sys.space, sys.S, sys.X1));
    EXPECT_FALSE(implies_everywhere(*sys.space, sys.U1, sys.X1));
    EXPECT_TRUE(sys.X1.eval(*sys.space, sys.initial_state()));
    EXPECT_FALSE(sys.Z1.eval(*sys.space, sys.initial_state()));
}

TEST_F(MemoryAccessTest, DifferentDomainsAndValues) {
    for (Value domain : {2, 4, 5}) {
        for (Value v = 0; v < domain; v += domain - 1) {
            auto sys2 = make_memory_access(domain, v);
            EXPECT_TRUE(check_masking(sys2.masking, sys2.page_fault,
                                      sys2.spec, sys2.S)
                            .ok())
                << "domain=" << domain << " v=" << v;
        }
    }
}

TEST(MemoryAccessMigrationTest, InvariantFillsByWordAlgebra) {
    // U1 = z1 => present was an opaque implication; it is now the
    // structured !z1 || present, so S fills without a per-state scan.
    const MemoryAccessSystem sys = make_memory_access(6, 1);  // catalog
    const VarId present = sys.present_var, z1 = sys.z1_var;
    test::expect_same_guard(
        sys.space, sys.U1,
        Predicate("U1", [=](const StateSpace& sp, StateIndex s) {
            return sp.get(s, z1) != 1 || sp.get(s, present) == 1;
        }));
    test::expect_same_guard(
        sys.space, sys.S,
        Predicate("S", [=](const StateSpace& sp, StateIndex s) {
            return (sp.get(s, z1) != 1 || sp.get(s, present) == 1) &&
                   sp.get(s, present) == 1;
        }));
    EXPECT_EQ(sys.U1.name(), "U1(z1=>present)");
    EXPECT_EQ(sys.S.name(), "S(U1&&X1)");
}

}  // namespace
}  // namespace dcft
