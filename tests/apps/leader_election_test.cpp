// Self-stabilizing leader election on a rooted tree — the corrector
// hierarchy: an aggregation corrector feeding a broadcast corrector.
#include "apps/leader_election.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "verify/action_kernel.hpp"
#include "verify/component_checker.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::LeaderElectionSystem;
using apps::make_leader_election;

// A 4-node tree: 0 is the root, children 1 and 2; 3 under 1.
const std::vector<int> kTree{0, 0, 0, 1};

TEST(LeaderElectionTest, TrueLeaderIsMaxId) {
    auto sys = make_leader_election(kTree, {2, 0, 3, 1});
    EXPECT_EQ(sys.true_leader, 3);
    auto identity = make_leader_election(kTree);
    EXPECT_EQ(identity.true_leader, 3);
}

TEST(LeaderElectionTest, LegitimateStateIsTerminalAndCorrect) {
    auto sys = make_leader_election(kTree, {2, 0, 3, 1});
    const StateIndex s = sys.legitimate_state();
    EXPECT_TRUE(sys.legitimate.eval(*sys.space, s));
    EXPECT_TRUE(sys.program.is_terminal(s));
    // agg of node 1 covers subtree {1,3}: max(0,1) = 1.
    EXPECT_EQ(sys.space->get(s, sys.agg[1]), 1);
    // agg of the root covers everything.
    EXPECT_EQ(sys.space->get(s, sys.agg[0]), 3);
}

TEST(LeaderElectionTest, ConvergesFromAnyState) {
    auto sys = make_leader_election(kTree, {2, 0, 3, 1});
    EXPECT_TRUE(
        converges(sys.program, nullptr, Predicate::top(), sys.legitimate)
            .ok);
}

TEST(LeaderElectionTest, NonmaskingTolerantToStateCorruption) {
    auto sys = make_leader_election(kTree);
    const ToleranceReport r = check_nonmasking(
        sys.program, sys.corrupt_any, sys.spec, sys.legitimate);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST(LeaderElectionTest, AggregationCorrectorUnderliesBroadcast) {
    // The hierarchy: 'aggregation-correct corrects itself' from anywhere,
    // and given aggregation, 'leader-agreed' is corrected too.
    auto sys = make_leader_election(kTree, {2, 0, 3, 1});
    const CorrectorClaim agg_claim{sys.aggregation_correct,
                                   sys.aggregation_correct,
                                   Predicate::top()};
    EXPECT_TRUE(check_corrector(sys.program, agg_claim).ok);
    const CorrectorClaim ldr_claim{sys.legitimate, sys.legitimate,
                                   sys.aggregation_correct};
    EXPECT_TRUE(check_corrector(sys.program, ldr_claim).ok);
}

TEST(LeaderElectionTest, ChainTopology) {
    auto sys = make_leader_election({0, 0, 1}, {1, 2, 0});
    EXPECT_EQ(sys.true_leader, 2);
    EXPECT_TRUE(
        converges(sys.program, nullptr, Predicate::top(), sys.legitimate)
            .ok);
}

TEST(LeaderElectionTest, BadTreeRejected) {
    EXPECT_THROW(make_leader_election({0, 2, 1}), ContractError);
    EXPECT_THROW(make_leader_election({1, 0}), ContractError);
}

TEST(LeaderElectionTest, CorruptFaultMatchesTheOpaqueLambda) {
    // The catalog's election 3 (every node a child of the root). The
    // fault is a structured corrupt_any; the oracle is the opaque
    // Action::nondet lambda it replaced, copied here verbatim.
    auto sys = make_leader_election({0, 0, 0});
    const int n = 3;
    std::vector<VarId> all = sys.agg;
    all.insert(all.end(), sys.ldr.begin(), sys.ldr.end());
    const Action oracle = Action::nondet(
        "corrupt", Predicate::top(),
        [all, n](const StateSpace& sp, StateIndex s,
                 std::vector<StateIndex>& out) {
            for (VarId v : all) {
                const Value cur = sp.get(s, v);
                for (Value c = 0; c < n; ++c)
                    if (c != cur) out.push_back(sp.set(s, v, c));
            }
        });
    ASSERT_EQ(sys.corrupt_any.actions().size(), 1u);
    const Action& fault = sys.corrupt_any.actions()[0];
    EXPECT_EQ(fault.effect_form().kind, Action::EffectForm::Kind::kCorruptAny);
    const CompiledAction compiled(compile_space(sys.space), fault);
    std::vector<StateIndex> want, got, got_compiled;
    for (StateIndex s = 0; s < sys.space->num_states(); ++s) {
        want.clear();
        got.clear();
        got_compiled.clear();
        oracle.successors(*sys.space, s, want);
        fault.successors(*sys.space, s, got);
        compiled.successors(s, got_compiled);
        ASSERT_EQ(got, want) << "state " << s;
        ASSERT_EQ(got_compiled, want) << "state " << s;
    }
}


TEST(LeaderElectionTest, StructuredActionsMatchTheOpaqueLambdas) {
    // The lambdas the structured forms replaced, copied here as oracles.
    // Ids are permuted so the own-id constant is not the node index.
    const std::vector<int> parent{0, 0, 1, 1};
    auto sys = make_leader_election(parent, {2, 0, 3, 1});
    const auto space = sys.space;
    const std::vector<VarId> agg = sys.agg, ldr = sys.ldr;
    for (std::size_t i = 0; i < parent.size(); ++i) {
        std::vector<int> kids;
        for (std::size_t c = 1; c < parent.size(); ++c)
            if (static_cast<std::size_t>(parent[c]) == i)
                kids.push_back(static_cast<int>(c));
        const VarId ai = agg[i];
        const Value own = sys.id[i];
        auto target = [agg, kids, own](const StateSpace& sp, StateIndex s) {
            Value best = own;
            for (int c : kids)
                best = std::max(best,
                                sp.get(s, agg[static_cast<std::size_t>(c)]));
            return best;
        };
        const std::string is = std::to_string(i);
        test::expect_same_action(
            space, sys.program.action_named("agg." + is),
            Action::assign(*space, "agg." + is,
                           Predicate("agg-stale." + is,
                                     [ai, target](const StateSpace& sp,
                                                  StateIndex s) {
                                         return sp.get(s, ai) !=
                                                target(sp, s);
                                     }),
                           "agg." + is, target));
        const VarId li = ldr[i];
        const VarId src = i == 0 ? agg[0]
                                 : ldr[static_cast<std::size_t>(parent[i])];
        test::expect_same_action(
            space, sys.program.action_named("ldr." + is),
            Action::assign(*space, "ldr." + is,
                           Predicate("ldr-stale." + is,
                                     [li, src](const StateSpace& sp,
                                               StateIndex s) {
                                         return sp.get(s, li) !=
                                                sp.get(s, src);
                                     }),
                           "ldr." + is,
                           [src](const StateSpace& sp, StateIndex s) {
                               return sp.get(s, src);
                           }));
    }
}

TEST(LeaderElectionMigrationTest, SpecPredicatesMatchTheOpaqueLambdas) {
    // Catalog size: the 4-node heap-shaped tree with identity ids.
    const auto sys = make_leader_election({0, 0, 0, 1});
    const std::vector<VarId> agg = sys.agg, ldr = sys.ldr;
    // Subtree maxima of the identity ids, by one reverse sweep.
    std::vector<Value> maxima = {0, 1, 2, 3};
    for (std::size_t i = 3; i >= 1; --i) {
        const auto p = static_cast<std::size_t>(sys.parent[i]);
        maxima[p] = std::max(maxima[p], maxima[i]);
    }
    const Value leader = sys.true_leader;
    EXPECT_EQ(leader, 3);
    test::expect_same_guard(
        sys.space, sys.aggregation_correct,
        Predicate("aggregation-correct",
                  [agg, maxima](const StateSpace& sp, StateIndex s) {
                      for (std::size_t i = 0; i < agg.size(); ++i)
                          if (sp.get(s, agg[i]) != maxima[i]) return false;
                      return true;
                  }));
    test::expect_same_guard(
        sys.space, sys.leader_agreed,
        Predicate("leader-agreed",
                  [ldr, leader](const StateSpace& sp, StateIndex s) {
                      for (VarId v : ldr)
                          if (sp.get(s, v) != leader) return false;
                      return true;
                  }));
    EXPECT_EQ(sys.aggregation_correct.name(), "aggregation-correct");
    EXPECT_EQ(sys.leader_agreed.name(), "leader-agreed");
    EXPECT_EQ(sys.legitimate.name(), "election-legitimate");
}

TEST(LeaderElectionMigrationTest, LegitimateFillsInThreeBitsets) {
    // Election 6 has 6^12 states (a 272 MB bitset). Its invariant's fill
    // keeps three block-long temporaries per worker (the block, the
    // running conjunction and one operand) beside the result, which
    // eval_bits' RAM check counts before allocating anything.
    std::vector<int> parent(6, 0);
    for (int i = 1; i < 6; ++i) parent[static_cast<std::size_t>(i)] = (i - 1) / 2;
    const auto sys = make_leader_election(parent);
    EXPECT_EQ(sys.space->num_states(), 2176782336u);
    EXPECT_EQ(fill_peak_bitsets(sys.legitimate), 3u);
    EXPECT_EQ(fill_temp_bytes(sys.space->num_states(), sys.legitimate, 4),
              4u * 3u * 4096u);
}

}  // namespace
}  // namespace dcft
