#include "verify/masking_distance.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/state_set.hpp"

namespace dcft {
namespace {

constexpr NodeId kUnvisited = TransitionSystem::kNoNode;

/// Min-fault BFS tree: how each node was first reached at its minimal
/// fault layer. Distinct from the exploration's own parent_ array, which
/// minimizes *steps*, not fault steps.
struct GameTree {
    std::vector<std::uint32_t> dist;   ///< fault layer of each node
    std::vector<NodeId> parent;        ///< parent[n] == n at the roots
    std::vector<std::uint32_t> action; ///< acting action index at n
    std::vector<std::uint8_t> fault;   ///< the acting action was a fault
    std::uint64_t layers = 0;
    std::uint64_t visited = 0;
};

/// A safety violation reachable with `faults` fault steps: node `node`'s
/// own state (edge_action == kNoStep) or its step to `edge_to`.
struct Violation {
    static constexpr std::uint32_t kNoStep = ~std::uint32_t{0};
    std::uint32_t faults = kUnvisited;
    NodeId node = TransitionSystem::kNoNode;
    std::uint32_t edge_action = kNoStep;
    StateIndex edge_to = 0;
    bool edge_fault = false;

    /// Candidates are ranked by (fault count, canonical position): the
    /// order of the canonical scan that keeps the first least count. On
    /// graphs whose node ids are canonical positions, that is the rank.
    std::uint64_t rank() const {
        return std::uint64_t{faults} << 32 | node;
    }
};

/// The game tree and the best violation.
struct GameSolution {
    GameTree tree;
    Violation best;
};

/// Layered 0-1 BFS: close layer k under the stored program edges
/// (verifier moves, weight 0), then expand regenerated fault rows
/// (refuter moves, weight 1) to seed layer k+1. Serial and in canonical
/// node-id/edge order, so the tree is independent of how the graph was
/// explored.
///
/// The same pass finds the best violation, so every fault row is
/// regenerated at most once. Each node's candidate, in scan order: its
/// state or first violating program step (k faults), else its first
/// violating fault step (k + 1). The best is the least (count, canonical
/// position) — the canonical scan's answer. Where node ids are canonical
/// positions the pass ranks by (count, node id) directly. Otherwise it
/// keeps every node tied at the least count, and the canonical replay
/// (first_canonical) picks among them afterwards. A node's row is
/// regenerated only while it can still discover a node or beat the best:
/// fault steps of a transition-free spec never violate it, and once every
/// node is in the tree they discover nothing.
GameSolution solve_game(const TransitionSystem& ts, const SafetySpec& safety) {
    const std::size_t n_nodes = ts.num_nodes();
    const StateSpace& space = ts.space();
    const bool check_steps = !safety.state_only();
    GameSolution sol;
    GameTree& tree = sol.tree;
    Violation& best = sol.best;
    tree.dist.assign(n_nodes, kUnvisited);
    tree.parent.assign(n_nodes, kUnvisited);
    tree.action.assign(n_nodes, 0);
    tree.fault.assign(n_nodes, 0);
    const bool by_id = ts.canonical_ids();
    BitVec tied(by_id ? 0 : n_nodes);  // nodes at the least count so far
    const auto beats = [&](std::uint32_t faults, NodeId n) {
        return by_id ? Violation{faults, n}.rank() < best.rank()
                     : faults <= best.faults;
    };
    const auto record = [&](const Violation& v) {
        if (!by_id) {
            if (v.faults < best.faults) tied.clear_all();
            tied.set(v.node);
        }
        best = v;
    };

    std::vector<NodeId> seeds = ts.initial_nodes();
    for (const NodeId r : seeds) {
        tree.dist[r] = 0;
        tree.parent[r] = r;
    }
    std::uint32_t layer = 0;
    std::uint64_t settled = 0;  // nodes placed in the game tree so far
    std::vector<NodeId> queue;
    std::vector<TransitionSystem::Edge> edges;
    std::vector<TransitionSystem::FaultStep> steps;
    while (!seeds.empty()) {
        // Verifier half-moves: program closure of the layer.
        queue = std::move(seeds);
        seeds.clear();
        std::size_t head = 0;
        while (head < queue.size()) {
            const NodeId u = queue[head++];
            // Heartbeat: one relaxed load per 64 Ki settled nodes when off.
            if ((++settled & 0xFFFF) == 0 && obs::progress_enabled())
                obs::progress_items("game", settled, n_nodes);
            for (const auto& e : ts.program_edges(u)) {
                if (tree.dist[e.to] != kUnvisited) continue;
                tree.dist[e.to] = layer;
                tree.parent[e.to] = u;
                tree.action[e.to] = e.action;
                tree.fault[e.to] = 0;
                queue.push_back(e.to);
            }
        }
        tree.visited += queue.size();
        // Refuter half-moves: one fault each, seeding the next layer, plus
        // the violation checks of the layer's nodes.
        for (const NodeId n : queue) {
            const StateIndex s = ts.state_of(n);
            bool hit = false;
            if (beats(layer, n)) {
                if (!safety.state_allowed(space, s)) {
                    record({layer, n});
                    hit = true;
                }
                for (const auto& e : ts.program_edges(n)) {
                    if (hit || !check_steps) break;
                    const StateIndex t = ts.state_of(e.to);
                    if (!safety.transition_allowed(space, s, t)) {
                        record({layer, n, e.action, t, false});
                        hit = true;
                    }
                }
            }
            // Prune before regenerating the row: it is needed only to
            // reach nodes outside the tree or to beat the best.
            bool check = check_steps && !hit && beats(layer + 1, n);
            if (tree.visited + seeds.size() < n_nodes) {
                ts.fault_edges(n, edges);
                for (const auto& [a, to] : edges) {
                    if (check && !safety.transition_allowed(
                                     space, s, ts.state_of(to))) {
                        record({layer + 1, n, a, ts.state_of(to), true});
                        check = false;
                    }
                    if (tree.dist[to] != kUnvisited) continue;
                    tree.dist[to] = layer + 1;
                    tree.parent[to] = n;
                    tree.action[to] = a;
                    tree.fault[to] = 1;
                    seeds.push_back(to);
                }
            } else if (check) {
                ts.fault_steps(n, steps);
                for (const auto& [a, t] : steps) {
                    if (!safety.transition_allowed(space, s, t)) {
                        record({layer + 1, n, a, t, true});
                        break;
                    }
                }
            }
        }
        ++layer;
    }
    tree.layers = layer;
    DCFT_ASSERT(tree.visited == n_nodes,
                "masking_distance: node outside the game");
    if (!by_id && best.faults != kUnvisited) {
        // The canonically first tied node, and its candidate again: its
        // own state or program step at its layer, else its fault step.
        const NodeId w = ts.first_canonical(
            [&](NodeId v) { return tied.test(v); });
        const StateIndex s = ts.state_of(w);
        const std::uint32_t k = tree.dist[w];
        Violation v{best.faults, w};
        bool found = k == best.faults && !safety.state_allowed(space, s);
        for (const auto& e : ts.program_edges(w)) {
            if (found || k != best.faults || !check_steps) break;
            const StateIndex t = ts.state_of(e.to);
            if (!safety.transition_allowed(space, s, t)) {
                v = {k, w, e.action, t, false};
                found = true;
            }
        }
        if (!found) {
            ts.fault_steps(w, steps);
            for (const auto& [a, t] : steps) {
                if (!safety.transition_allowed(space, s, t)) {
                    v = {k + 1, w, a, t, true};
                    found = true;
                    break;
                }
            }
        }
        DCFT_ASSERT(found && v.faults == best.faults,
                    "masking_distance: tied node without its violation");
        best = v;
    }
    return sol;
}

/// The min-fault path to `n` as a replayable trace (root first).
std::vector<WitnessStep> game_trace(const TransitionSystem& ts,
                                    const GameTree& tree, NodeId n) {
    std::vector<NodeId> chain;
    for (NodeId cur = n;;) {
        chain.push_back(cur);
        if (tree.parent[cur] == cur) break;
        cur = tree.parent[cur];
    }
    std::vector<WitnessStep> out;
    out.reserve(chain.size());
    for (std::size_t i = chain.size(); i-- > 0;) {
        const NodeId v = chain[i];
        WitnessStep step;
        step.state = ts.state_of(v);
        step.state_repr = ts.space().format(step.state);
        if (i + 1 < chain.size()) {
            step.fault = tree.fault[v] != 0;
            step.action = step.fault
                              ? ts.fault_action_name(tree.action[v])
                              : ts.program().action(tree.action[v]).name();
        }
        out.push_back(std::move(step));
    }
    return out;
}

}  // namespace

std::uint64_t MaskingDistanceResult::witness_faults() const {
    std::uint64_t faults = 0;
    for (const WitnessStep& step : witness)
        if (step.fault) ++faults;
    return faults;
}

MaskingDistanceResult masking_distance_on(const TransitionSystem& ts,
                                          const SafetySpec& safety) {
    const obs::Span span("verify/masking_distance");
    obs::count("verify/masking_distance_queries");
    const StateSpace& space = ts.space();
    const GameSolution sol = solve_game(ts, safety);
    const GameTree& tree = sol.tree;
    const Violation& best_v = sol.best;
    const std::uint32_t best = best_v.faults;
    const NodeId best_node = best_v.node;

    MaskingDistanceResult result;
    result.game_nodes = tree.visited;
    result.game_layers = tree.layers;

    if (best == kUnvisited) {
        result.masking = true;
        result.reason = "masking: safety of " + safety.name() +
                        " holds over the whole fault span (distance = inf)";
        return result;
    }

    result.masking = false;
    result.distance = best;
    result.witness = game_trace(ts, tree, best_node);
    std::string what;
    if (best_v.edge_action == Violation::kNoStep) {
        what = "state " + space.format(ts.state_of(best_node)) +
               " is excluded by " + safety.name();
    } else {
        WitnessStep step;
        step.state = best_v.edge_to;
        step.state_repr = space.format(step.state);
        step.fault = best_v.edge_fault;
        step.action = best_v.edge_fault
                          ? ts.fault_action_name(best_v.edge_action)
                          : ts.program().action(best_v.edge_action).name();
        what = "transition " + space.format(ts.state_of(best_node)) +
               " -> " + step.state_repr + " (action '" + step.action +
               "') is excluded by " + safety.name();
        result.witness.push_back(std::move(step));
    }
    result.reason = "masking distance " + std::to_string(best) + ": " +
                    what + " after " + std::to_string(best) +
                    " fault step" + (best == 1 ? "" : "s");
    DCFT_ASSERT(result.witness_faults() == result.distance,
                "masking_distance: witness fault count != distance");
    return result;
}

MaskingDistanceResult masking_distance(const Program& p, const FaultClass& f,
                                       const ProblemSpec& spec,
                                       const Predicate& invariant) {
    // Materialize the invariant exactly as check_tolerance does, so the
    // p [] F graph key matches and a preceding verify grid makes this a
    // pure cache hit.
    auto inv_states = std::make_shared<StateSet>(
        materialize_parallel(p.space(), invariant));
    const Predicate inv = predicate_of(inv_states, invariant.name());
    const auto ts = ExplorationCache::global().get_or_build(p, &f, inv);
    return masking_distance_on(*ts, spec.safety());
}

}  // namespace dcft
