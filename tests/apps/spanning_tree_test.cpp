// Self-stabilizing BFS tree maintenance — a corrector hierarchy instance
// from the paper's application list (Sections 1, 7).
#include "apps/spanning_tree.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

#include "verify/action_kernel.hpp"
#include "verify/component_checker.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::cycle_graph;
using apps::make_spanning_tree;
using apps::path_graph;
using apps::star_graph;

TEST(SpanningTreeTest, GraphConstructors) {
    const auto path = path_graph(4);
    EXPECT_EQ(path[0].size(), 1u);
    EXPECT_EQ(path[1].size(), 2u);
    const auto cycle = cycle_graph(4);
    EXPECT_EQ(cycle[0].size(), 2u);
    const auto star = star_graph(5);
    EXPECT_EQ(star[0].size(), 4u);
    EXPECT_EQ(star[3].size(), 1u);
}

TEST(SpanningTreeTest, LegitimateStateHasTrueDistances) {
    auto sys = make_spanning_tree(path_graph(4));
    EXPECT_EQ(sys.true_distances, (std::vector<Value>{0, 1, 2, 3}));
    EXPECT_TRUE(sys.legitimate.eval(*sys.space, sys.legitimate_state()));
    EXPECT_TRUE(sys.program.is_terminal(sys.legitimate_state()));
}

TEST(SpanningTreeTest, ConvergesFromAnyStateOnPaths) {
    auto sys = make_spanning_tree(path_graph(4));
    EXPECT_TRUE(
        converges(sys.program, nullptr, Predicate::top(), sys.legitimate)
            .ok);
}

TEST(SpanningTreeTest, ConvergesOnCyclesAndStars) {
    for (auto graph : {cycle_graph(4), star_graph(5)}) {
        auto sys = make_spanning_tree(graph);
        EXPECT_TRUE(converges(sys.program, nullptr, Predicate::top(),
                              sys.legitimate)
                        .ok);
    }
}

TEST(SpanningTreeTest, NonmaskingTolerantToDistanceCorruption) {
    auto sys = make_spanning_tree(path_graph(4));
    const ToleranceReport r = check_nonmasking(
        sys.program, sys.corrupt_any, sys.spec, sys.legitimate);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST(SpanningTreeTest, ProgramIsACorrectorOfItsLegitimacy) {
    auto sys = make_spanning_tree(path_graph(4));
    const CorrectorClaim claim{sys.legitimate, sys.legitimate,
                               Predicate::top()};
    EXPECT_TRUE(check_corrector(sys.program, claim).ok);
}

TEST(SpanningTreeTest, LocalConsistencyIsTheDetectionPredicate) {
    // The conjunction of the per-node local-consistency predicates is
    // exactly legitimacy — the hierarchical-detector decomposition.
    auto sys = make_spanning_tree(path_graph(4));
    Predicate all_consistent = sys.locally_consistent(0);
    for (int i = 1; i < 4; ++i)
        all_consistent = all_consistent && sys.locally_consistent(i);
    EXPECT_TRUE(equivalent(*sys.space, all_consistent, sys.legitimate));
}

TEST(SpanningTreeTest, NotMaskingUnderCorruption) {
    // Corruption immediately falsifies cl(legitimate) on the fault step.
    auto sys = make_spanning_tree(path_graph(3));
    EXPECT_FALSE(check_masking(sys.program, sys.corrupt_any, sys.spec,
                               sys.legitimate)
                     .ok());
}

TEST(SpanningTreeTest, DisconnectedGraphRejected) {
    apps::Graph g(3);  // no edges at all
    EXPECT_THROW(make_spanning_tree(g), ContractError);
}

TEST(SpanningTreeTest, CorruptFaultMatchesTheOpaqueLambda) {
    // The catalog's spanning-tree 4 (a path). The fault is a structured
    // corrupt_any; the oracle is the opaque Action::nondet lambda it
    // replaced, copied here verbatim.
    auto sys = make_spanning_tree(path_graph(4));
    const int n = 4;
    const std::vector<VarId> dist = sys.dist;
    const Action oracle = Action::nondet(
        "corrupt", Predicate::top(),
        [dist, n](const StateSpace& sp, StateIndex s,
                  std::vector<StateIndex>& out) {
            for (VarId v : dist) {
                const Value cur = sp.get(s, v);
                for (Value c = 0; c <= n; ++c)
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


TEST(SpanningTreeTest, StructuredActionsMatchTheOpaqueLambdas) {
    // The lambdas the structured forms replaced, copied here as oracles:
    // target = min(cap, 1 + min(neighbours)).
    for (const apps::Graph& graph :
         {path_graph(4), cycle_graph(4), star_graph(4)}) {
        auto sys = make_spanning_tree(graph);
        const auto space = sys.space;
        const std::vector<VarId> dist = sys.dist;
        const Value cap = static_cast<Value>(graph.size());
        const VarId d0 = dist[0];
        test::expect_same_action(
            space, sys.program.action_named("fix.0"),
            Action::assign_const(
                *space, "fix.0",
                Predicate("dist.0!=0",
                          [d0](const StateSpace& sp, StateIndex s) {
                              return sp.get(s, d0) != 0;
                          }),
                "dist.0", 0));
        test::expect_same_guard(
            space, sys.locally_consistent(0),
            Predicate("consistent.0", [d0](const StateSpace& sp,
                                           StateIndex s) {
                return sp.get(s, d0) == 0;
            }));
        for (std::size_t i = 1; i < graph.size(); ++i) {
            const auto neighbours = graph[i];
            const VarId di = dist[i];
            auto target = [dist, neighbours, cap](const StateSpace& sp,
                                                  StateIndex s) {
                Value best = cap;
                for (int j : neighbours)
                    best = std::min(
                        best, sp.get(s, dist[static_cast<std::size_t>(j)]));
                return std::min<Value>(best + 1, cap);
            };
            const std::string is = std::to_string(i);
            test::expect_same_action(
                space, sys.program.action_named("fix." + is),
                Action::assign(*space, "fix." + is,
                               Predicate("inconsistent." + is,
                                         [di, target](const StateSpace& sp,
                                                      StateIndex s) {
                                             return sp.get(s, di) !=
                                                    target(sp, s);
                                         }),
                               "dist." + is, target));
            test::expect_same_guard(
                space, sys.locally_consistent(static_cast<int>(i)),
                Predicate("consistent." + is,
                          [di, target](const StateSpace& sp, StateIndex s) {
                              return sp.get(s, di) == target(sp, s);
                          }));
        }
    }
}

TEST(SpanningTreeMigrationTest, LegitimateMatchesTheOpaqueLambda) {
    const auto sys = make_spanning_tree(path_graph(6));  // catalog size
    const std::vector<VarId> dist = sys.dist;
    const std::vector<Value> truth = sys.true_distances;
    test::expect_same_guard(
        sys.space, sys.legitimate,
        Predicate("distances-correct",
                  [dist, truth](const StateSpace& sp, StateIndex s) {
                      for (std::size_t i = 0; i < dist.size(); ++i)
                          if (sp.get(s, dist[i]) != truth[i]) return false;
                      return true;
                  }));
    EXPECT_EQ(sys.legitimate.name(), "distances-correct");
}

}  // namespace
}  // namespace dcft
