// The program attractor that decides most convergence queries before any
// SCC work: against a naive Jacobi fixpoint on random systems, at full
// explicit-stack depth on a 2^20-node chain, on cross edges into earlier
// DFS trees, and together with the fair-SCC pass on its residue. Also the
// liveness heartbeat and the complete-exploration contract.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "obs/progress.hpp"
#include "verify/fairness.hpp"
#include "verify/reference.hpp"

namespace dcft {
namespace {

using Adjacency = std::vector<std::vector<Value>>;

/// One variable v over adj.size() values and one action "step" taking v to
/// each value of adj[v] (disabled where adj[v] is empty).
Program graph_program(const Adjacency& adj) {
    auto space =
        make_space({Variable{"v", static_cast<Value>(adj.size()), {}}});
    Program p(space, "graph");
    auto rows = std::make_shared<Adjacency>(adj);
    p.add_action(Action::nondet(
        "step",
        Predicate("has_step",
                  [rows](const StateSpace&, StateIndex s) {
                      return !(*rows)[s].empty();
                  }),
        [rows](const StateSpace& sp, StateIndex s,
               std::vector<StateIndex>& out) {
            for (Value t : (*rows)[s]) out.push_back(sp.set(s, 0, t));
        }));
    return p;
}

/// Node marks of the states listed in `states`.
std::vector<char> marks_of(const TransitionSystem& ts,
                           std::initializer_list<Value> states) {
    std::vector<char> out(ts.num_nodes(), 0);
    for (Value s : states) out[ts.node_of(static_cast<StateIndex>(s))] = 1;
    return out;
}

/// The attractor as the least fixpoint of its defining equation, by
/// Jacobi iteration from the empty set.
std::vector<char> jacobi_attractor(const TransitionSystem& ts,
                                   const std::vector<char>& target) {
    std::vector<char> attr(ts.num_nodes(), 0);
    for (bool changed = true; changed;) {
        changed = false;
        std::vector<char> next = attr;
        for (NodeId v = 0; v < ts.num_nodes(); ++v) {
            if (target[v] || attr[v] || ts.terminal(v)) continue;
            const auto edges = ts.program_edges(v);
            if (std::all_of(edges.begin(), edges.end(), [&](const auto& e) {
                    return target[e.to] || attr[e.to];
                })) {
                next[v] = 1;
                changed = true;
            }
        }
        attr = std::move(next);
    }
    return attr;
}

constexpr Value kStates = 9;

TEST(AttractorTest, MatchesJacobiFixpointOnRandomSystems) {
    int permuted = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        Adjacency adj(kStates);
        for (auto& row : adj) {
            const std::size_t k = rng.below(4);  // 0..3 successors
            for (std::size_t i = 0; i < k; ++i)
                row.push_back(static_cast<Value>(rng.below(kStates)));
        }
        auto init_set = std::make_shared<std::vector<char>>(kStates);
        for (auto& b : *init_set) b = rng.chance(0.4) ? 1 : 0;
        (*init_set)[rng.below(kStates)] = 1;
        auto target_set = std::make_shared<std::vector<char>>(kStates);
        for (auto& b : *target_set) b = rng.chance(0.25) ? 1 : 0;
        const Predicate init("init", [init_set](const StateSpace&,
                                                StateIndex s) {
            return (*init_set)[s] != 0;
        });
        const Predicate goal("goal", [target_set](const StateSpace&,
                                                  StateIndex s) {
            return (*target_set)[s] != 0;
        });

        const Program p = graph_program(adj);
        const TransitionSystem ts(p, nullptr, init);
        std::vector<char> target(ts.num_nodes());
        for (NodeId v = 0; v < ts.num_nodes(); ++v) {
            target[v] = (*target_set)[ts.state_of(v)];
            if (ts.state_of(v) != v) ++permuted;
        }

        const auto attr = program_attractor(ts, target);
        EXPECT_EQ(attr, jacobi_attractor(ts, target)) << "seed " << seed;
        // No attractor node avoids the target, and the verdict matches the
        // Tarjan-only reference engine.
        const auto avoid = fair_avoidance_set(ts, target);
        for (NodeId v = 0; v < ts.num_nodes(); ++v)
            EXPECT_FALSE(attr[v] && avoid[v]) << "seed " << seed;
        const reference::RefTransitionSystem ref(p, nullptr, init);
        EXPECT_EQ(check_reaches(ts, goal, false).ok,
                  reference::ref_check_reaches(ref, goal, false).ok)
            << "seed " << seed;
    }
    EXPECT_GT(permuted, 0);  // some systems number nodes out of state order
}

/// x over 2^20 values with one action x := x + step (mod 2^20), disabled
/// at `stop` (or never, when stop is outside the domain).
struct Chain {
    static constexpr Value kLength = Value{1} << 20;
    std::shared_ptr<const StateSpace> space =
        make_space({Variable{"x", kLength, {}}});
    Program program{space, "chain"};

    Chain(Value step, Value stop) {
        const Predicate guard =
            stop < kLength ? Predicate::var_ne(*space, VarId{0}, stop)
                           : Predicate::top();
        program.add_action(Action::assign_add_mod(*space, "move", guard, 0,
                                                  0, step, kLength));
    }
};

TEST(AttractorTest, ChainWithIdsAlongTheEdgesRunsAtFullDepth) {
    // Node i = state i and edges i -> i + 1: the first root descends
    // through every node before the target stops it.
    const Chain chain(1, Chain::kLength - 1);
    const TransitionSystem ts(chain.program, nullptr, Predicate::top());
    ASSERT_EQ(ts.num_nodes(), Chain::kLength);
    ASSERT_EQ(ts.state_of(5), 5u);
    std::vector<char> target(ts.num_nodes(), 0);
    target[Chain::kLength - 1] = 1;
    const auto attr = program_attractor(ts, target);
    EXPECT_EQ(std::count(attr.begin(), attr.end(), 1),
              static_cast<std::ptrdiff_t>(Chain::kLength - 1));
    EXPECT_EQ(attr[Chain::kLength - 1], 0);
}

TEST(AttractorTest, ChainWithIdsAgainstTheEdgesSettlesRootByRoot) {
    // Edges i -> i - 1 with target 0: every root finds its only successor
    // already settled.
    const Chain chain(Chain::kLength - 1, 0);
    const TransitionSystem ts(chain.program, nullptr, Predicate::top());
    ASSERT_EQ(ts.num_nodes(), Chain::kLength);
    std::vector<char> target(ts.num_nodes(), 0);
    target[0] = 1;
    const auto attr = program_attractor(ts, target);
    EXPECT_EQ(std::count(attr.begin(), attr.end(), 1),
              static_cast<std::ptrdiff_t>(Chain::kLength - 1));
}

TEST(AttractorTest, CycleAtFullDepthIsResidueAndAvoids) {
    // The chain closed into one 2^20-node cycle with no target: the
    // deepest node finds the root on the stack, the whole stack is
    // residue, and the fair-SCC pass finds one feasible component.
    const Chain chain(1, Chain::kLength);
    const TransitionSystem ts(chain.program, nullptr, Predicate::top());
    const std::vector<char> target(ts.num_nodes(), 0);
    const auto attr = program_attractor(ts, target);
    EXPECT_EQ(std::count(attr.begin(), attr.end(), 1), 0);
    const auto avoid = fair_avoidance_set(ts, target);
    EXPECT_EQ(std::count(avoid.begin(), avoid.end(), 1),
              static_cast<std::ptrdiff_t>(Chain::kLength));
}

TEST(AttractorTest, CrossEdgesIntoEarlierTrees) {
    // Roots go in node order (init = top, so node = state):
    //   tree 0: 0 -> 1 -> 0 is a cycle, so 0 and 1 are residue;
    //   tree 2: 2 -> {3, 1}, the cross edge into 1 makes 2 residue;
    //   tree 4: 4 -> 3 settles 4 in the attractor;
    //   tree 5: 5 -> {4, 3}, the cross edge into 4 keeps 5 in it.
    const Adjacency adj = {{1}, {0}, {3, 1}, {}, {3}, {4, 3}};
    const Program p = graph_program(adj);
    const TransitionSystem ts(p, nullptr, Predicate::top());
    const auto target = marks_of(ts, {3});
    EXPECT_EQ(program_attractor(ts, target), marks_of(ts, {4, 5}));
    // The cycle hosts a fair run ("step" has internal edges), and 2 can
    // enter it.
    EXPECT_EQ(fair_avoidance_set(ts, target), marks_of(ts, {0, 1, 2}));

    // The same with the residue seeded by a terminal node instead.
    const Adjacency dead = {{}, {0, 2}, {}, {1}};
    const Program q = graph_program(dead);
    const TransitionSystem tq(q, nullptr, Predicate::top());
    const auto goal = marks_of(tq, {2});
    EXPECT_EQ(program_attractor(tq, goal), marks_of(tq, {}));
    EXPECT_EQ(fair_avoidance_set(tq, goal), marks_of(tq, {0, 1, 3}));
}

TEST(AttractorTest, ResidueCycleWithAForcedExitIsCleared) {
    // 0 <-> 1 via "spin"; "exit" is enabled at both and always leaves for
    // 2. The attractor must leave the cycle in the residue (a scheduler
    // may spin forever), but weak fairness forces "exit", so the residue
    // pass finds no avoiding run.
    auto space = make_space({Variable{"v", 3, {}}});
    Program p(space, "spin_exit");
    const Predicate below2("v<2", [](const StateSpace& sp, StateIndex s) {
        return sp.get(s, 0) < 2;
    });
    p.add_action(Action::assign(
        *space, "spin", below2, "v",
        [](const StateSpace& sp, StateIndex s) { return 1 - sp.get(s, 0); }));
    p.add_action(Action::assign_const(*space, "exit", below2, "v", 2));
    const TransitionSystem ts(p, nullptr, Predicate::top());
    const auto target = marks_of(ts, {2});
    EXPECT_EQ(program_attractor(ts, target), marks_of(ts, {}));
    EXPECT_EQ(fair_avoidance_set(ts, target), marks_of(ts, {}));
    EXPECT_TRUE(
        check_reaches(ts, Predicate::var_eq(*space, "v", 2), false).ok);
}

TEST(AttractorTest, HeartbeatPublishesSettledNodes) {
    // A long interval enables publishing without a sampler line.
    obs::set_progress_interval(3600.0);
    const Chain chain(1, Chain::kLength - 1);
    const TransitionSystem ts(chain.program, nullptr, Predicate::top());
    std::vector<char> target(ts.num_nodes(), 0);
    target[Chain::kLength - 1] = 1;
    program_attractor(ts, target);
    const obs::ProgressItems at = obs::progress_items_snapshot();
    ASSERT_NE(at.what, nullptr);
    EXPECT_STREQ(at.what, "liveness");
    // Published every 64 Ki settled nodes, out of the 2^20 - 1 open ones.
    EXPECT_EQ(at.done, 15u * 65536u);
    EXPECT_EQ(at.total, Chain::kLength - 1);

    // A residue names the fair-SCC pass.
    const Adjacency adj = {{1}, {0}, {}};
    const Program p = graph_program(adj);
    const TransitionSystem small(p, nullptr, Predicate::top());
    fair_avoidance_set(small, marks_of(small, {2}));
    EXPECT_STREQ(obs::progress_items_snapshot().what, "liveness/fair_scc");
    obs::set_progress_interval(0.0);
}

}  // namespace
}  // namespace dcft
