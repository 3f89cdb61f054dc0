// Dijkstra's K-state token ring: the paper's PVS case study (Section 7)
// and the canonical corrector (Remark, Section 4.1).
#include "apps/token_ring.hpp"

#include <gtest/gtest.h>

#include "verify/component_checker.hpp"
#include "verify/fairness.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::make_token_ring;
using apps::TokenRingSystem;

TEST(TokenRingTest, LegitimateStatesHaveExactlyOnePrivilege) {
    auto sys = make_token_ring(4, 4);
    EXPECT_TRUE(sys.legitimate.eval(*sys.space, sys.initial_state()));
    // All-equal states: only the bottom process is privileged.
    StateIndex bad = sys.initial_state();
    bad = sys.space->set(bad, sys.x[1], 2);
    bad = sys.space->set(bad, sys.x[3], 1);
    EXPECT_FALSE(sys.legitimate.eval(*sys.space, bad));
}

TEST(TokenRingTest, RefinesMutualExclusionFromLegitimateStates) {
    auto sys = make_token_ring(4, 4);
    EXPECT_TRUE(refines_spec(sys.ring, sys.spec, sys.legitimate).ok);
}

TEST(TokenRingTest, RingIsItsOwnCorrector) {
    // 'S corrects S' in the ring from true — the Arora-Gouda
    // closure-and-convergence shape (Z = X = legitimate).
    auto sys = make_token_ring(4, 4);
    const CorrectorClaim claim{sys.legitimate, sys.legitimate,
                               Predicate::top()};
    EXPECT_TRUE(check_corrector(sys.ring, claim).ok);
}

TEST(TokenRingTest, SelfStabilizesWhenKAtLeastN) {
    for (int n = 3; n <= 5; ++n) {
        auto sys = make_token_ring(n, n);
        EXPECT_TRUE(
            converges(sys.ring, nullptr, Predicate::top(), sys.legitimate)
                .ok)
            << "n=" << n;
    }
}

TEST(TokenRingTest, KOneLessThanNStillStabilizes) {
    // The classical sharpening: K >= n-1 suffices for the unidirectional
    // K-state ring (n >= 3).
    for (int n = 4; n <= 5; ++n) {
        auto sys = make_token_ring(n, n - 1);
        EXPECT_TRUE(
            converges(sys.ring, nullptr, Predicate::top(), sys.legitimate)
                .ok)
            << "n=" << n;
    }
}

TEST(TokenRingTest, TooSmallKFailsToStabilize) {
    // K = n-2 admits a fair execution that never reaches a legitimate
    // state: the checker finds it.
    auto sys = make_token_ring(5, 3);
    EXPECT_FALSE(
        converges(sys.ring, nullptr, Predicate::top(), sys.legitimate).ok);
}

TEST(TokenRingTest, NonmaskingTolerantToCounterCorruption) {
    auto sys = make_token_ring(4, 4);
    const ToleranceReport r = check_nonmasking(
        sys.ring, sys.corrupt_any, sys.spec, sys.legitimate);
    EXPECT_TRUE(r.ok()) << r.reason();
    // The span is the whole space: faults corrupt counters arbitrarily.
    EXPECT_EQ(r.span_size, sys.space->num_states());
}

TEST(TokenRingTest, NotMaskingTolerant) {
    // During stabilization several processes can be privileged at once —
    // the safety of SPEC_token is violated, so tolerance is only
    // nonmasking. (This is the paper's point about nonmasking tolerance.)
    auto sys = make_token_ring(4, 4);
    EXPECT_FALSE(
        check_masking(sys.ring, sys.corrupt_any, sys.spec, sys.legitimate)
            .ok());
    EXPECT_FALSE(
        check_failsafe(sys.ring, sys.corrupt_any, sys.spec, sys.legitimate)
            .ok());
}

TEST(TokenRingTest, TokenCirculatesFairly) {
    auto sys = make_token_ring(4, 4);
    // From legitimate states, each process is privileged again and again:
    // privilege.i ~~> privilege.((i+1) mod n).
    const TransitionSystem ts(sys.ring, nullptr, sys.legitimate);
    for (int i = 0; i < sys.n; ++i) {
        EXPECT_TRUE(check_leads_to(ts, sys.privilege(i),
                                   sys.privilege((i + 1) % sys.n), false)
                        .ok)
            << i;
    }
}

TEST(TokenRingTest, PrivilegePredicatesPartitionLegitimateStates) {
    auto sys = make_token_ring(4, 5);
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        if (!sys.legitimate.eval(*sys.space, s)) continue;
        int count = 0;
        for (int i = 0; i < sys.n; ++i)
            if (sys.privilege(i).eval(*sys.space, s)) ++count;
        EXPECT_EQ(count, 1);
    }
}

TEST(TokenRingTest, TwoProcessRing) {
    auto sys = make_token_ring(2, 3);
    EXPECT_TRUE(
        converges(sys.ring, nullptr, Predicate::top(), sys.legitimate).ok);
}

TEST(TokenRingMigrationTest, SpecPredicatesMatchTheOpaqueLambdas) {
    // Catalog size: n = K = 6. The lambdas are the ones the counting atom
    // and the vars_eq/vars_ne guards replaced.
    const auto sys = make_token_ring(6, 6);
    const std::vector<VarId> x = sys.x;
    auto privileged = [x](const StateSpace& sp, StateIndex s, int i) {
        const std::size_t u = static_cast<std::size_t>(i);
        if (i == 0) return sp.get(s, x[0]) == sp.get(s, x.back());
        return sp.get(s, x[u]) != sp.get(s, x[u - 1]);
    };
    auto privileges = [x, privileged](const StateSpace& sp, StateIndex s) {
        int count = 0;
        for (int i = 0; i < static_cast<int>(x.size()); ++i)
            count += privileged(sp, s, i) ? 1 : 0;
        return count;
    };
    test::expect_same_guard(
        sys.space, sys.legitimate,
        Predicate("one-privilege", [privileges](const StateSpace& sp,
                                                StateIndex s) {
            return privileges(sp, s) == 1;
        }));
    EXPECT_EQ(sys.legitimate.name(), "one-privilege");
    const Predicate bad = sys.spec.safety().bad_states();
    EXPECT_EQ(bad.name(), "not-one-privilege");
    test::expect_same_guard(
        sys.space, bad,
        Predicate("not-one-privilege", [privileges](const StateSpace& sp,
                                                    StateIndex s) {
            return privileges(sp, s) != 1;
        }));
    const auto& leads = sys.spec.liveness().obligations();
    ASSERT_EQ(leads.size(), x.size());
    for (int i = 0; i < static_cast<int>(x.size()); ++i) {
        const Predicate want(
            "privilege." + std::to_string(i),
            [privileged, i](const StateSpace& sp, StateIndex s) {
                return privileged(sp, s, i);
            });
        EXPECT_EQ(sys.privilege(i).name(), want.name());
        test::expect_same_guard(sys.space, sys.privilege(i), want);
        test::expect_same_guard(sys.space,
                                leads[static_cast<std::size_t>(i)].to, want);
    }
}

}  // namespace
}  // namespace dcft
