// Distributed reset: a wave corrector with a completion detector whose
// detection predicate is deliberately not closed (Remark, Section 3.1).
#include "apps/distributed_reset.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "verify/closure.hpp"
#include "verify/component_checker.hpp"
#include "verify/fairness.hpp"
#include "verify/invariant.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::DistributedResetSystem;
using apps::make_distributed_reset;

const std::vector<int> kTree{0, 0, 0, 1};

Predicate start_state(const DistributedResetSystem& sys) {
    const StateIndex init = sys.initial_state();
    return Predicate("init", [init](const StateSpace&, StateIndex s) {
        return s == init;
    });
}

TEST(DistributedResetTest, RefinesItsSpecInAbsenceOfFaults) {
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    EXPECT_TRUE(refines_spec(sys.system, sys.spec, inv).ok);
}

TEST(DistributedResetTest, CompletionWitnessIsADetector) {
    // 'wc detects all-sessions-equal' — with a non-closed detection
    // predicate: the next wave falsifies X, and Stability's escape clause
    // (Z next-holds or X has been falsified) is what makes this legal.
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    const DetectorClaim claim{sys.witness, sys.all_equal, inv};
    EXPECT_TRUE(check_detector(sys.system, claim).ok);
}

TEST(DistributedResetTest, DetectionPredicateIsNotClosed) {
    // The point of the Remark: starting a wave falsifies all-equal.
    auto sys = make_distributed_reset(kTree);
    EXPECT_FALSE(check_closed(sys.system, sys.all_equal).ok);
}

TEST(DistributedResetTest, EveryRequestLeadsToACompletedWave) {
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    const TransitionSystem ts(sys.system, nullptr, inv);
    EXPECT_TRUE(check_leads_to(ts,
                               Predicate::var_eq(*sys.space, "req", 1),
                               sys.witness, false)
                    .ok);
}

TEST(DistributedResetTest, NonmaskingToSessionCorruption) {
    // After corruption the wave machinery re-converges to a truthful
    // witness; safety may be violated meanwhile (the witness can lie
    // transiently), so this is nonmasking, not masking.
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    EXPECT_TRUE(
        check_nonmasking(sys.system, sys.corrupt_sessions, sys.spec, inv)
            .ok());
    EXPECT_FALSE(
        check_failsafe(sys.system, sys.corrupt_sessions, sys.spec, inv)
            .ok());
}

TEST(DistributedResetTest, AdoptionConvergesToAgreement) {
    auto sys = make_distributed_reset(kTree);
    // From any state (even corrupted), sessions converge to agreement
    // i.o.: true ~~> all-equal.
    EXPECT_TRUE(converges(sys.system, nullptr, Predicate::top(),
                          sys.all_equal)
                    .ok);
}

TEST(DistributedResetTest, NoPrematureWaveInFaultFreeRuns) {
    auto sys = make_distributed_reset(kTree);
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    // Every reachable start of a wave (sn.0 change) departs from a
    // completed (all-equal) state: re-checked directly on the graph.
    const TransitionSystem ts(sys.system, nullptr, inv);
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        const StateIndex s = ts.state_of(n);
        for (const auto& e : ts.program_edges(n)) {
            const StateIndex t = ts.state_of(e.to);
            if (sys.space->get(s, sys.sn[0]) !=
                sys.space->get(t, sys.sn[0])) {
                EXPECT_TRUE(sys.all_equal.eval(*sys.space, s))
                    << sys.space->format(s);
            }
        }
    }
}

TEST(DistributedResetTest, DeeperTreeStillWorks) {
    auto sys = make_distributed_reset({0, 0, 1, 2});  // a chain
    const Predicate inv = reachable_invariant(sys.system, start_state(sys));
    EXPECT_TRUE(refines_spec(sys.system, sys.spec, inv).ok);
    EXPECT_TRUE(
        check_nonmasking(sys.system, sys.corrupt_sessions, sys.spec, inv)
            .ok());
}

TEST(DistributedResetTest, RejectsMalformedTrees) {
    EXPECT_THROW(make_distributed_reset({0, 2, 1}), ContractError);
    EXPECT_THROW(make_distributed_reset({1, 0}), ContractError);
}


TEST(DistributedResetTest, StructuredActionsMatchTheOpaqueLambdas) {
    // The lambdas the structured forms replaced, copied here as oracles.
    auto sys = make_distributed_reset({0, 0, 1, 1});
    const auto space = sys.space;
    const std::vector<VarId> sn = sys.sn;
    const VarId wc = sys.wc_var, req = sys.req_var;
    const Predicate all_equal("all-sessions-equal",
                              [sn](const StateSpace& sp, StateIndex s) {
                                  const Value root = sp.get(s, sn[0]);
                                  for (VarId v : sn)
                                      if (sp.get(s, v) != root) return false;
                                  return true;
                              });
    test::expect_same_guard(space, sys.all_equal, all_equal);
    const Predicate wc_set = Predicate::var_eq(*space, wc, 1);
    const Predicate req_set = Predicate::var_eq(*space, req, 1);
    test::expect_same_action(
        space, sys.system.action_named("start.0"),
        Action("start.0", req_set && wc_set,
               [sn, wc, req](const StateSpace& sp, StateIndex s) {
                   StateIndex t = sp.set(s, sn[0], (sp.get(s, sn[0]) + 1) % 3);
                   t = sp.set(t, wc, 0);
                   return sp.set(t, req, 0);
               }));
    for (std::size_t i = 1; i < sn.size(); ++i) {
        const VarId si = sn[i];
        const VarId sp_var = sn[static_cast<std::size_t>(sys.parent[i])];
        const std::string is = std::to_string(i);
        test::expect_same_action(
            space, sys.system.action_named("adopt." + is),
            Action::assign(*space, "adopt." + is,
                           Predicate("stale." + is,
                                     [si, sp_var](const StateSpace& sp,
                                                  StateIndex s) {
                                         return sp.get(s, si) !=
                                                sp.get(s, sp_var);
                                     }),
                           "sn." + is,
                           [sp_var](const StateSpace& sp, StateIndex s) {
                               return sp.get(s, sp_var);
                           }));
    }
    test::expect_same_action(
        space, sys.system.action_named("complete.0"),
        Action::assign_const(*space, "complete.0", all_equal && !wc_set, "wc",
                             1));
}

}  // namespace
}  // namespace dcft
