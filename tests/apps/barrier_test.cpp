// Barrier synchronization with a hierarchical witness tree: the
// "hierarchical construction of detectors" the paper's companion method
// provides, with the trusting-vs-rechecking ablation adjudicated by the
// checker.
#include "apps/barrier.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "verify/component_checker.hpp"
#include "verify/fairness.hpp"
#include "verify/invariant.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::BarrierSystem;
using apps::make_barrier;

Predicate start_state(const BarrierSystem& sys) {
    const StateIndex init = sys.initial_state();
    return Predicate("init", [init](const StateSpace&, StateIndex s) {
        return s == init;
    });
}

TEST(BarrierTest, BothDesignsCorrectWithoutFaults) {
    for (int n : {2, 4}) {
        auto sys = make_barrier(n);
        for (const Program* p : {&sys.trusting, &sys.rechecking}) {
            const Predicate inv = reachable_invariant(*p, start_state(sys));
            EXPECT_TRUE(refines_spec(*p, sys.spec, inv).ok)
                << p->name() << " n=" << n;
        }
    }
}

TEST(BarrierTest, RootWitnessIsAHierarchicalDetector) {
    auto sys = make_barrier(4);
    const Predicate inv =
        reachable_invariant(sys.rechecking, start_state(sys));
    const DetectorClaim claim{sys.root_witness, sys.all_arrived, inv};
    EXPECT_TRUE(check_detector(sys.rechecking, claim).ok);
}

TEST(BarrierTest, WitnessesAreTruthfulInFaultFreeRuns) {
    auto sys = make_barrier(4);
    const Predicate inv =
        reachable_invariant(sys.trusting, start_state(sys));
    EXPECT_TRUE(implies_everywhere(*sys.space, inv,
                                   sys.witnesses_truthful));
}

TEST(BarrierTest, TrustingDesignIsNotFailsafeToWitnessCorruption) {
    auto sys = make_barrier(4);
    const Predicate inv =
        reachable_invariant(sys.trusting, start_state(sys));
    const ToleranceReport r = check_failsafe(
        sys.trusting, sys.corrupt_witness, sys.spec, inv);
    EXPECT_FALSE(r.ok());
    // The failure is a premature release, not some setup artifact.
    EXPECT_NE(r.reason().find("safety violated"), std::string::npos);
}

TEST(BarrierTest, RecheckingDesignIsMaskingToWitnessCorruption) {
    auto sys = make_barrier(4);
    const Predicate inv =
        reachable_invariant(sys.rechecking, start_state(sys));
    const ToleranceReport r = check_masking(
        sys.rechecking, sys.corrupt_witness, sys.spec, inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST(BarrierTest, ReleaseClearsEverything) {
    auto sys = make_barrier(4);
    StateIndex s = sys.initial_state();
    for (VarId a : sys.arrived) s = sys.space->set(s, a, 1);
    for (int k = 1; k < sys.n; ++k)
        s = sys.space->set(s, sys.w[static_cast<std::size_t>(k)], 1);
    const Action& release = sys.rechecking.action_named("release");
    ASSERT_TRUE(release.enabled(*sys.space, s));
    const StateIndex t = release.apply(*sys.space, s);
    EXPECT_EQ(sys.space->get(t, sys.round_var), 1);
    for (VarId a : sys.arrived) EXPECT_EQ(sys.space->get(t, a), 0);
    for (int k = 1; k < sys.n; ++k)
        EXPECT_EQ(
            sys.space->get(t, sys.w[static_cast<std::size_t>(k)]), 0);
}

TEST(BarrierTest, RoundsKeepAlternating) {
    auto sys = make_barrier(2);
    const Predicate inv =
        reachable_invariant(sys.rechecking, start_state(sys));
    const TransitionSystem ts(sys.rechecking, nullptr, inv);
    EXPECT_TRUE(check_leads_to(ts, Predicate::var_eq(*sys.space, "round", 0),
                               Predicate::var_eq(*sys.space, "round", 1),
                               false)
                    .ok);
    EXPECT_TRUE(check_leads_to(ts, Predicate::var_eq(*sys.space, "round", 1),
                               Predicate::var_eq(*sys.space, "round", 0),
                               false)
                    .ok);
}

TEST(BarrierTest, RejectsNonPowerOfTwo) {
    EXPECT_THROW(make_barrier(3), ContractError);
    EXPECT_THROW(make_barrier(0), ContractError);
}

TEST(BarrierTest, EightWorkers) {
    auto sys = make_barrier(8);
    const Predicate inv =
        reachable_invariant(sys.rechecking, start_state(sys));
    EXPECT_TRUE(refines_spec(sys.rechecking, sys.spec, inv).ok);
}


TEST(BarrierTest, StructuredActionsMatchTheOpaqueLambdas) {
    // The lambdas the structured forms replaced, copied here as oracles.
    auto sys = make_barrier(4);
    const auto space = sys.space;
    const int n = 4;
    const std::vector<VarId> arrived = sys.arrived, w = sys.w;
    const VarId round = sys.round_var;
    auto child_value = [n, arrived, w](const StateSpace& sp, StateIndex s,
                                       int node) -> Value {
        if (node >= n)
            return sp.get(s, arrived[static_cast<std::size_t>(node - n)]);
        return sp.get(s, w[static_cast<std::size_t>(node)]);
    };
    for (int k = 1; k < n; ++k) {
        const std::string ks = std::to_string(k);
        const Predicate children_true(
            "children-true." + ks,
            [child_value, k](const StateSpace& sp, StateIndex s) {
                return child_value(sp, s, 2 * k) == 1 &&
                       child_value(sp, s, 2 * k + 1) == 1;
            });
        test::expect_same_action(
            space, sys.trusting.action_named("watch." + ks),
            Action::assign_const(
                *space, "watch." + ks,
                children_true && Predicate::var_eq(*space, "w." + ks, 0),
                "w." + ks, 1));
    }
    const Predicate all_arrived(
        "all-arrived", [arrived](const StateSpace& sp, StateIndex s) {
            for (VarId a : arrived)
                if (sp.get(s, a) == 0) return false;
            return true;
        });
    test::expect_same_guard(space, sys.all_arrived, all_arrived);
    auto release_effect = [arrived, w, round, n](const StateSpace& sp,
                                                 StateIndex s) {
        StateIndex t = sp.set(s, round, 1 - sp.get(s, round));
        for (VarId a : arrived) t = sp.set(t, a, 0);
        for (int k = 1; k < n; ++k)
            t = sp.set(t, w[static_cast<std::size_t>(k)], 0);
        return t;
    };
    test::expect_same_action(space, sys.trusting.action_named("release"),
                             Action("release", sys.root_witness,
                                    release_effect));
    test::expect_same_action(
        space, sys.rechecking.action_named("release"),
        Action("release", sys.root_witness && all_arrived, release_effect));
}

TEST(BarrierMigrationTest, TruthfulMatchesTheOpaqueLambda) {
    const BarrierSystem sys = make_barrier(8);  // catalog size
    const int n = sys.n;
    const std::vector<VarId> arrived = sys.arrived, w = sys.w;
    auto child_var = [n, arrived, w](int node) -> VarId {
        if (node >= n) return arrived[static_cast<std::size_t>(node - n)];
        return w[static_cast<std::size_t>(node)];
    };
    test::expect_same_guard(
        sys.space, sys.witnesses_truthful,
        Predicate("witnesses-truthful",
                  [child_var, w, n](const StateSpace& sp, StateIndex s) {
                      for (int k = n - 1; k >= 1; --k) {
                          if (sp.get(s, w[static_cast<std::size_t>(k)]) == 1 &&
                              (sp.get(s, child_var(2 * k)) == 0 ||
                               sp.get(s, child_var(2 * k + 1)) == 0))
                              return false;
                      }
                      return true;
                  }));
    EXPECT_EQ(sys.witnesses_truthful.name(), "witnesses-truthful");
}

}  // namespace
}  // namespace dcft
