// An independent brute-force oracle for the fair-avoidance engine.
//
// fairness.cpp decides "does a fair computation avoiding the target
// exist?" by SCC analysis with action-starvation pruning. On tiny systems
// we can decide the same question by definition: enumerate EVERY subset
// of target-free nodes, test whether it could be the infinity-set of a
// fair run (strongly connected; every action enabled at all its states
// has an internal edge), and take the backward closure. The two answers
// must agree exactly, on every randomly generated system.
#include <gtest/gtest.h>

#include <deque>

#include "common/rng.hpp"
#include "verify/fairness.hpp"

namespace dcft {
namespace {

constexpr Value kStates = 9;  // 2^9 subsets to enumerate — cheap

struct System {
    std::shared_ptr<const StateSpace> space;
    Program program;
    std::vector<char> target;  // over raw state indices == node ids
};

/// Random single-variable system; every state is in the transition system
/// (init = true), so NodeId == StateIndex.
System random_system(std::uint64_t seed) {
    Rng rng(seed);
    auto space = make_space({Variable{"v", kStates, {}}});
    Program p(space, "random");
    const std::size_t num_actions = 1 + rng.below(4);
    for (std::size_t a = 0; a < num_actions; ++a) {
        // Random guard set and a random (possibly nondeterministic) move.
        auto guard_set = std::make_shared<std::vector<char>>(kStates);
        for (auto& g : *guard_set) g = rng.chance(0.5) ? 1 : 0;
        const Value t1 = static_cast<Value>(rng.below(kStates));
        const Value t2 = static_cast<Value>(rng.below(kStates));
        const bool relative = rng.chance(0.5);
        p.add_action(Action::nondet(
            "ac" + std::to_string(a),
            Predicate("g",
                      [guard_set](const StateSpace&, StateIndex s) {
                          return (*guard_set)[s] != 0;
                      }),
            [t1, t2, relative](const StateSpace& sp, StateIndex s,
                               std::vector<StateIndex>& out) {
                if (relative)  // shift by one (a cycle-maker)
                    out.push_back(
                        sp.set(s, 0, (sp.get(s, 0) + 1) % kStates));
                else
                    out.push_back(sp.set(s, 0, t1));
                if (t2 != t1) out.push_back(sp.set(s, 0, t2));
            }));
    }
    std::vector<char> target(kStates);
    for (auto& t : target) t = rng.chance(0.3) ? 1 : 0;
    return System{space, std::move(p), std::move(target)};
}

/// A random structured guard over x, y: one or two var_eq/var_ne/vars_eq/
/// vars_ne atoms, possibly combined and negated. Guards like these lower to
/// bytecode with no kCall op, so fair_avoidance_set probes them compiled.
Predicate structured_guard(const StateSpace& sp, Rng& rng) {
    auto atom = [&]() {
        const VarId v = static_cast<VarId>(rng.below(2));
        const Value c = static_cast<Value>(rng.below(3));
        switch (rng.below(4)) {
            case 0: return Predicate::var_eq(sp, v, c);
            case 1: return Predicate::var_ne(sp, v, c);
            case 2: return Predicate::vars_eq(sp, 0, 1);
            default: return Predicate::vars_ne(sp, 0, 1);
        }
    };
    Predicate g = atom();
    if (rng.chance(0.5)) g = rng.chance(0.5) ? (g && atom()) : (g || atom());
    if (rng.chance(0.2)) g = !g;
    return g;
}

/// Random two-variable (3 x 3) system with structured guards. Even seeds
/// build a DAG of forward moves (every SCC a singleton) plus skip actions
/// that put self-loops on some of those singletons; odd seeds mix in
/// cyclic moves, so multi-node SCCs meet the compiled enabledness probe.
System structured_system(std::uint64_t seed) {
    Rng rng(seed);
    auto space = make_space({Variable{"x", 3, {}}, Variable{"y", 3, {}}});
    Program p(space, "structured");
    const bool dag = seed % 2 == 0;
    const std::size_t num_actions = 2 + rng.below(4);
    for (std::size_t a = 0; a < num_actions; ++a) {
        const std::string name = "ac" + std::to_string(a);
        Predicate guard = structured_guard(*space, rng);
        const VarId v = static_cast<VarId>(rng.below(2));
        switch (rng.below(3)) {
            case 0:
                p.add_action(Action::skip(name, std::move(guard)));
                break;
            case 1:
                if (dag) {
                    // One state-index step forward, acyclic except for a
                    // self-loop on the last state.
                    p.add_action(Action::nondet(
                        name, std::move(guard),
                        [](const StateSpace& sp, StateIndex s,
                           std::vector<StateIndex>& out) {
                            out.push_back(std::min(s + 1, sp.num_states() - 1));
                        }));
                } else {
                    p.add_action(Action::assign_add_mod(
                        *space, name, std::move(guard), v, v, 1, 3));
                }
                break;
            default:
                if (dag) {
                    // Jump to the last state, the sink of the DAG.
                    p.add_action(Action::nondet(
                        name, std::move(guard),
                        [](const StateSpace& sp, StateIndex,
                           std::vector<StateIndex>& out) {
                            out.push_back(sp.num_states() - 1);
                        }));
                } else {
                    p.add_action(Action::assign_const(
                        *space, name, std::move(guard),
                        space->variable(v).name,
                        static_cast<Value>(rng.below(3))));
                }
                break;
        }
    }
    std::vector<char> target(space->num_states());
    for (auto& t : target) t = rng.chance(0.25) ? 1 : 0;
    return System{space, std::move(p), std::move(target)};
}

/// Brute-force avoidance set, straight from the definition.
std::vector<char> oracle(const TransitionSystem& ts,
                         const std::vector<char>& target) {
    const std::size_t n = ts.num_nodes();
    std::vector<char> avoid(n, 0);

    // Finite maximal runs: terminal target-free nodes.
    for (NodeId v = 0; v < n; ++v)
        if (!target[v] && ts.terminal(v)) avoid[v] = 1;

    // Infinite runs: every candidate infinity-set.
    for (std::uint32_t mask = 1; mask < (1u << n); ++mask) {
        // Members must all be target-free.
        bool ok = true;
        std::vector<NodeId> members;
        for (NodeId v = 0; v < n; ++v) {
            if (!(mask & (1u << v))) continue;
            if (target[v]) {
                ok = false;
                break;
            }
            members.push_back(v);
        }
        if (!ok) continue;
        // Internal edges per node; the set must have at least one edge.
        auto internal = [&](NodeId from, NodeId to) {
            for (const auto& e : ts.program_edges(from))
                if (e.to == to && (mask & (1u << to))) return true;
            return false;
        };
        // Strong connectivity inside the set (trivially true for size 1
        // with a self-loop; size 1 without self-loop cannot host a run).
        if (members.size() == 1) {
            if (!internal(members[0], members[0])) continue;
        } else {
            bool connected = true;
            for (NodeId src : members) {
                std::vector<char> seen(n, 0);
                std::deque<NodeId> queue{src};
                seen[src] = 1;
                while (!queue.empty()) {
                    const NodeId u = queue.front();
                    queue.pop_front();
                    for (const auto& e : ts.program_edges(u)) {
                        if ((mask & (1u << e.to)) && !seen[e.to]) {
                            seen[e.to] = 1;
                            queue.push_back(e.to);
                        }
                    }
                }
                for (NodeId dst : members)
                    if (!seen[dst]) connected = false;
            }
            if (!connected) continue;
        }
        // Weak fairness: every action enabled at ALL member states must
        // have an edge staying inside the set.
        bool fair = true;
        for (std::uint32_t a = 0;
             a < ts.num_program_actions() && fair; ++a) {
            bool enabled_everywhere = true;
            for (NodeId v : members)
                if (!ts.enabled(v, a)) enabled_everywhere = false;
            if (!enabled_everywhere) continue;
            bool has_internal = false;
            for (NodeId v : members)
                for (const auto& e : ts.program_edges(v))
                    if (e.action == a && (mask & (1u << e.to)))
                        has_internal = true;
            if (!has_internal) fair = false;
        }
        if (!fair) continue;
        for (NodeId v : members) avoid[v] = 1;
    }

    // Backward closure within the target-free region.
    bool changed = true;
    while (changed) {
        changed = false;
        for (NodeId v = 0; v < n; ++v) {
            if (target[v] || avoid[v]) continue;
            for (const auto& e : ts.program_edges(v)) {
                if (!target[e.to] && avoid[e.to]) {
                    avoid[v] = 1;
                    changed = true;
                    break;
                }
            }
        }
    }
    return avoid;
}

/// fair_avoidance_set against the brute-force oracle on one system.
void expect_engine_matches_oracle(const System& sys) {
    const TransitionSystem ts(sys.program, nullptr, Predicate::top());
    ASSERT_EQ(ts.num_nodes(), sys.target.size());
    // NodeId ordering equals state order because every state is initial.
    std::vector<char> target(ts.num_nodes());
    for (NodeId v = 0; v < ts.num_nodes(); ++v)
        target[v] = sys.target[ts.state_of(v)];

    const auto fast = fair_avoidance_set(ts, target);
    const auto slow = oracle(ts, target);
    for (NodeId v = 0; v < ts.num_nodes(); ++v)
        EXPECT_EQ(static_cast<bool>(fast[v]), static_cast<bool>(slow[v]))
            << "node " << v << " state "
            << ts.space().format(ts.state_of(v));
}

class FairnessOracleTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FairnessOracleTest, SccEngineMatchesBruteForce) {
    expect_engine_matches_oracle(random_system(GetParam()));
}

TEST_P(FairnessOracleTest, CompiledGuardProbeMatchesBruteForce) {
    expect_engine_matches_oracle(structured_system(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FairnessOracleTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace dcft
