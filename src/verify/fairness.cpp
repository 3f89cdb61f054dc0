#include "verify/fairness.hpp"

#include <algorithm>
#include <deque>
#include <memory>
#include <span>

#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "verify/action_kernel.hpp"

namespace dcft {
namespace {

/// Iterative Tarjan SCC over the sub-graph of program edges whose endpoints
/// both satisfy `in_h`. Returns component ids (dense, otherwise arbitrary);
/// nodes outside H get component id UINT32_MAX.
struct SccResult {
    std::vector<std::uint32_t> comp;
    std::uint32_t num_comps = 0;
};

constexpr std::uint32_t kNoComp = ~std::uint32_t{0};

SccResult tarjan_scc(const TransitionSystem& ts, const std::vector<char>& in_h) {
    const std::size_t n = ts.num_nodes();
    SccResult result;
    result.comp.assign(n, kNoComp);

    std::vector<std::uint32_t> index(n, kNoComp), low(n, 0);
    std::vector<char> on_stack(n, 0);
    std::vector<NodeId> stack;
    std::uint32_t next_index = 0;

    struct Frame {
        NodeId node;
        std::size_t edge;
    };
    std::vector<Frame> call;

    for (NodeId root = 0; root < n; ++root) {
        if (!in_h[root] || index[root] != kNoComp) continue;
        call.push_back(Frame{root, 0});
        index[root] = low[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = 1;
        while (!call.empty()) {
            Frame& f = call.back();
            const auto& edges = ts.program_edges(f.node);
            bool descended = false;
            while (f.edge < edges.size()) {
                const NodeId w = edges[f.edge].to;
                ++f.edge;
                if (!in_h[w]) continue;
                if (index[w] == kNoComp) {
                    call.push_back(Frame{w, 0});
                    index[w] = low[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = 1;
                    descended = true;
                    break;
                }
                if (on_stack[w]) low[f.node] = std::min(low[f.node], index[w]);
            }
            if (descended) continue;
            // f.node finished.
            const NodeId v = f.node;
            call.pop_back();
            if (!call.empty())
                low[call.back().node] = std::min(low[call.back().node], low[v]);
            if (low[v] == index[v]) {
                const std::uint32_t c = result.num_comps++;
                for (;;) {
                    const NodeId w = stack.back();
                    stack.pop_back();
                    on_stack[w] = 0;
                    result.comp[w] = c;
                    if (w == v) break;
                }
            }
        }
    }
    return result;
}

}  // namespace

std::vector<char> eval_on_nodes(const TransitionSystem& ts,
                                const Predicate& p) {
    std::vector<char> out(ts.num_nodes());
    // Set-backed predicates answer with a bit probe per node. So does a
    // structured predicate on a graph covering at least an eighth of the
    // space: eval_bits fills it by word algebra once for every query of
    // the run, and its bitset is no larger than these per-node flags.
    const StateIndex n_states = ts.space().num_states();
    if (const auto& bits = p.backing_bits();
        bits != nullptr && bits->size_bits() == n_states) {
        for (NodeId n = 0; n < ts.num_nodes(); ++n)
            out[n] = bits->test(ts.state_of(n)) ? 1 : 0;
        return out;
    }
    if (p.node_kind() != Predicate::NodeKind::kOpaque &&
        static_cast<StateIndex>(ts.num_nodes()) * 8 >= n_states) {
        const BitVec bits = eval_bits(ts.space(), p);
        for (NodeId n = 0; n < ts.num_nodes(); ++n)
            out[n] = bits.test(ts.state_of(n)) ? 1 : 0;
        return out;
    }
    for (NodeId n = 0; n < ts.num_nodes(); ++n)
        out[n] = p.eval(ts.space(), ts.state_of(n)) ? 1 : 0;
    return out;
}

std::vector<char> program_attractor(const TransitionSystem& ts,
                                    const std::vector<char>& target) {
    const obs::Span span("verify/liveness/attractor");
    const std::size_t n = ts.num_nodes();
    enum : char { kOpen, kOnStack, kTarget, kAttractor, kResidue };
    std::vector<char> status(n);
    std::uint64_t open = 0;
    for (std::size_t i = 0; i < n; ++i) {
        status[i] = target[i] ? kTarget : kOpen;
        open += target[i] ? 0 : 1;
    }

    // Iterative DFS over the forward program CSR, settling each node in
    // post-order: it joins the attractor when it is non-terminal and every
    // successor is in target or already in the attractor. A terminal node,
    // or one with a successor on the stack (a cycle inside !target) or in
    // the residue, is not in the attractor — and then neither is any node
    // below it on the stack, since each has the next one as a successor,
    // so the whole stack settles in the residue at once. Every status is
    // final when set, so one pass is exact. The successors a collapsed
    // stack never scanned are reached from later roots.
    struct Frame {
        NodeId node;
        std::uint32_t edge;
    };
    std::vector<Frame> stack;
    std::uint64_t settled = 0, attracted = 0;
    const auto settle = [&](NodeId v, char s) {
        status[v] = s;
        if ((++settled & 0xFFFF) == 0 && obs::progress_enabled())
            obs::progress_items("liveness", settled, open);
    };
    for (NodeId root = 0; root < n; ++root) {
        if (status[root] != kOpen) continue;
        status[root] = kOnStack;
        stack.push_back(Frame{root, 0});
        while (!stack.empty()) {
            Frame& f = stack.back();
            const auto edges = ts.program_edges(f.node);
            bool residue = edges.empty();
            bool descended = false;
            while (!residue && f.edge < edges.size()) {
                const NodeId w = edges[f.edge++].to;
                const char s = status[w];
                if (s == kOpen) {
                    status[w] = kOnStack;
                    stack.push_back(Frame{w, 0});
                    descended = true;
                    break;
                }
                residue = s == kOnStack || s == kResidue;
            }
            if (descended) continue;
            if (residue) {
                for (const Frame& g : stack) settle(g.node, kResidue);
                stack.clear();
            } else {
                settle(f.node, kAttractor);
                ++attracted;
                stack.pop_back();
            }
        }
    }
    obs::count("verify/liveness/attractor_nodes", attracted);
    obs::count("verify/liveness/residue_nodes", open - attracted);

    for (char& s : status) s = s == kAttractor ? 1 : 0;
    return status;
}

std::vector<char> fair_avoidance_set(const TransitionSystem& ts,
                                     const std::vector<char>& target) {
    const std::size_t n = ts.num_nodes();

    // Attractor nodes reach target on every program-only run, so only the
    // residue H = !target \ attractor can avoid it. No attractor node lies
    // on a cycle of !target or reaches H, so the SCCs that host avoiding
    // runs and the backward closure below stay inside H.
    std::vector<char> in_h = program_attractor(ts, target);
    bool any_residue = false;
    for (std::size_t i = 0; i < n; ++i) {
        in_h[i] = target[i] || in_h[i] ? 0 : 1;
        any_residue |= in_h[i] != 0;
    }
    if (!any_residue) return in_h;  // all zero: nothing avoids target
    obs::progress_phase("liveness/fair_scc");

    std::vector<char> avoid(n, 0);
    std::deque<NodeId> frontier;

    // Finite maximal computations: terminal nodes (all of them are in H).
    for (NodeId v = 0; v < n; ++v) {
        if (in_h[v] && ts.terminal(v)) {
            avoid[v] = 1;
            frontier.push_back(v);
        }
    }

    // Infinite fair computations confined to H: feasible SCCs.
    const SccResult scc = tarjan_scc(ts, in_h);
    if (scc.num_comps > 0) {
        // Bucket the members of every component into one CSR array by
        // counting sort: component c owns order[start[c], start[c + 1]),
        // in ascending node order.
        std::vector<std::uint32_t> start(scc.num_comps + 1, 0);
        for (NodeId v = 0; v < n; ++v)
            if (scc.comp[v] != kNoComp) ++start[scc.comp[v] + 1];
        for (std::uint32_t c = 0; c < scc.num_comps; ++c)
            start[c + 1] += start[c];
        std::vector<NodeId> order(start.back());
        {
            std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
            for (NodeId v = 0; v < n; ++v)
                if (scc.comp[v] != kNoComp) order[next[scc.comp[v]]++] = v;
        }

        // Guards are probed through the compiled kernel (bytecode, with
        // kCall for opaque subtrees), compiled only if some component
        // needs a probe.
        std::unique_ptr<CompiledActionSet> guards;
        const std::size_t num_actions = ts.num_program_actions();
        std::vector<char> has_internal(num_actions);
        for (std::uint32_t c = 0; c < scc.num_comps; ++c) {
            const std::span<const NodeId> nodes(order.data() + start[c],
                                                start[c + 1] - start[c]);
            // A singleton without a self-loop hosts no infinite run.
            if (nodes.size() == 1) {
                const auto edges = ts.program_edges(nodes[0]);
                if (std::none_of(edges.begin(), edges.end(),
                                 [&](const auto& e) {
                                     return e.to == nodes[0];
                                 }))
                    continue;
            }
            // Internal edges per action.
            std::fill(has_internal.begin(), has_internal.end(), 0);
            for (NodeId v : nodes) {
                for (const auto& e : ts.program_edges(v)) {
                    if (in_h[e.to] && scc.comp[e.to] == c)
                        has_internal[e.action] = 1;
                }
            }
            bool feasible = true;
            for (std::uint32_t a = 0; a < num_actions && feasible; ++a) {
                if (has_internal[a]) continue;
                if (guards == nullptr)
                    guards = std::make_unique<CompiledActionSet>(
                        ts.program().space_ptr(), ts.program().actions());
                const CompiledAction& guard = (*guards)[a];
                if (std::all_of(nodes.begin(), nodes.end(), [&](NodeId v) {
                        return guard.enabled(ts.state_of(v));
                    }))
                    feasible = false;
            }
            if (feasible) {
                for (NodeId v : nodes) {
                    if (!avoid[v]) {
                        avoid[v] = 1;
                        frontier.push_back(v);
                    }
                }
            }
        }
    }

    // Backward closure within H over program edges: a node that can reach
    // an avoidance node without touching target also avoids. Only touch
    // the (lazily built) predecessor cache when there is anything to close
    // over — in passing checks the avoidance seed is empty and the cache
    // is never materialized.
    if (!frontier.empty()) {
        const auto& preds = ts.predecessors(/*include_faults=*/false);
        while (!frontier.empty()) {
            const NodeId v = frontier.front();
            frontier.pop_front();
            for (NodeId u : preds[v]) {
                if (in_h[u] && !avoid[u]) {
                    avoid[u] = 1;
                    frontier.push_back(u);
                }
            }
        }
    }
    return avoid;
}

CheckResult check_leads_to(const TransitionSystem& ts, const Predicate& p,
                           const Predicate& q, bool include_fault_edges) {
    const obs::Span span("verify/liveness");
    obs::count("verify/obligations/liveness");
    const std::vector<char> target = eval_on_nodes(ts, q);
    std::vector<char> bad = fair_avoidance_set(ts, target);

    if (include_fault_edges) {
        // A violating computation may also use finitely many fault steps
        // inside !q before its program-only suffix; extend backwards over
        // program + fault edges within !q. Skipped entirely (no predecessor
        // cache build) when there is nothing to extend.
        std::deque<NodeId> frontier;
        for (NodeId v = 0; v < ts.num_nodes(); ++v)
            if (bad[v]) frontier.push_back(v);
        if (!frontier.empty()) {
            const auto& preds = ts.predecessors(/*include_faults=*/true);
            while (!frontier.empty()) {
                const NodeId v = frontier.front();
                frontier.pop_front();
                for (NodeId u : preds[v]) {
                    if (!target[u] && !bad[u]) {
                        bad[u] = 1;
                        frontier.push_back(u);
                    }
                }
            }
        }
    }

    // The canonical first violating node (replayed on identity graphs
    // only when there is one).
    const NodeId v = ts.first_canonical([&](NodeId u) {
        return !target[u] && bad[u] && p.eval(ts.space(), ts.state_of(u));
    });
    if (v != TransitionSystem::kNoNode) {
        return CheckResult::failure(
            "leads-to violated: " + p.name() + " ~~> " + q.name() +
                " fails from state " + ts.space().format(ts.state_of(v)) +
                (ts.terminal(v) ? " (maximal/terminal state)"
                                : " (fair computation avoids target)") +
                "; reached via: " + ts.format_witness(v),
            ts.witness_trace(v));
    }
    return CheckResult::success();
}

CheckResult check_reaches(const TransitionSystem& ts, const Predicate& target,
                          bool include_fault_edges) {
    return check_leads_to(ts, Predicate::top(), target, include_fault_edges);
}

}  // namespace dcft
