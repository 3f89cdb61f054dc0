#include "verify/reference.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"

namespace dcft::reference {

namespace {

/// Action::successors with the guard interpreted (Predicate::interpret),
/// not run as bytecode: the oracle stays independent of gc/guard_code.
void successors_of(const Action& a, const StateSpace& space, StateIndex s,
                   std::vector<StateIndex>& out) {
    if (a.guard().interpret(space, s)) a.apply_effect(space, s, out);
}

}  // namespace

// ---------------------------------------------------------------------------
// RefTransitionSystem: the seed's FIFO exploration, verbatim in structure.
// ---------------------------------------------------------------------------

RefTransitionSystem::RefTransitionSystem(const Program& program,
                                         const FaultClass* faults,
                                         const Predicate& init)
    : space_(program.space_ptr()), program_(program) {
    // Seed with every state satisfying init (exhaustive per-state scan).
    std::deque<NodeId> frontier;
    const StateIndex n_states = space_->num_states();
    for (StateIndex s = 0; s < n_states; ++s) {
        if (!init.interpret(*space_, s)) continue;
        const NodeId id = static_cast<NodeId>(states_.size());
        states_.push_back(s);
        node_of_.emplace(s, id);
        initial_.push_back(id);
        parent_.push_back(id);  // roots are their own parent
        frontier.push_back(id);
    }
    prog_edges_.resize(states_.size());
    fault_rows_.resize(states_.size());

    std::vector<StateIndex> succ;
    NodeId current = 0;
    auto intern = [&](StateIndex t) -> NodeId {
        auto [it, inserted] =
            node_of_.emplace(t, static_cast<NodeId>(states_.size()));
        if (inserted) {
            states_.push_back(t);
            prog_edges_.emplace_back();
            fault_rows_.emplace_back();
            parent_.push_back(current);
            frontier.push_back(it->second);
        }
        return it->second;
    };

    while (!frontier.empty()) {
        const NodeId n = frontier.front();
        frontier.pop_front();
        current = n;
        const StateIndex s = states_[n];
        for (std::uint32_t a = 0; a < program_.num_actions(); ++a) {
            succ.clear();
            successors_of(program_.action(a), *space_, s, succ);
            for (StateIndex t : succ) {
                const NodeId to = intern(t);
                prog_edges_[n].push_back(RefEdge{a, to});
            }
        }
        if (faults != nullptr) {
            std::uint32_t a = 0;
            for (const auto& fac : faults->actions()) {
                succ.clear();
                successors_of(fac, *space_, s, succ);
                for (StateIndex t : succ) {
                    const NodeId to = intern(t);
                    fault_rows_[n].push_back(RefEdge{a, to});
                }
                ++a;
            }
        }
    }
}

std::size_t RefTransitionSystem::num_program_edges() const {
    std::size_t total = 0;
    for (const auto& edges : prog_edges_) total += edges.size();
    return total;
}

bool RefTransitionSystem::enabled(NodeId n, std::uint32_t a) const {
    DCFT_EXPECTS(a < program_.num_actions(), "action index out of range");
    return program_.action(a).guard().interpret(*space_, states_[n]);
}

const std::vector<std::vector<NodeId>>& RefTransitionSystem::predecessors(
    bool include_faults) const {
    auto& cache = include_faults ? preds_all_ : preds_prog_;
    if (!cache.has_value()) {
        cache.emplace(states_.size());
        for (NodeId n = 0; n < states_.size(); ++n) {
            for (const RefEdge& e : prog_edges_[n]) (*cache)[e.to].push_back(n);
            if (include_faults)
                for (const RefEdge& e : fault_rows_[n])
                    (*cache)[e.to].push_back(n);
        }
    }
    return *cache;
}

std::vector<StateIndex> RefTransitionSystem::witness_path(NodeId n) const {
    DCFT_EXPECTS(n < states_.size(), "witness_path: node out of range");
    std::vector<StateIndex> path;
    NodeId cur = n;
    for (;;) {
        path.push_back(states_[cur]);
        if (parent_[cur] == cur) break;
        cur = parent_[cur];
    }
    std::reverse(path.begin(), path.end());
    return path;
}

std::string RefTransitionSystem::format_witness(NodeId n) const {
    constexpr std::size_t kMaxShown = 6;
    const std::vector<StateIndex> path = witness_path(n);
    std::string out;
    const std::size_t start =
        path.size() > kMaxShown ? path.size() - kMaxShown : 0;
    if (start > 0) out += "... -> ";
    for (std::size_t i = start; i < path.size(); ++i) {
        if (i > start) out += " -> ";
        out += space_->format(path[i]);
    }
    return out;
}

// ---------------------------------------------------------------------------
// Seed closure / preservation / reachability.
// ---------------------------------------------------------------------------

namespace {

CheckResult ref_check_preserved_by(const StateSpace& space,
                                   std::span<const Action> actions,
                                   const Predicate& s, const char* what) {
    std::vector<StateIndex> succ;
    for (StateIndex st = 0; st < space.num_states(); ++st) {
        if (!s.interpret(space, st)) continue;
        for (const auto& ac : actions) {
            succ.clear();
            successors_of(ac, space, st, succ);
            for (StateIndex t : succ) {
                if (!s.interpret(space, t)) {
                    return CheckResult::failure(
                        std::string(what) + ": predicate " + s.name() +
                        " not preserved by action '" + ac.name() +
                        "' from " + space.format(st) + " to " +
                        space.format(t));
                }
            }
        }
    }
    return CheckResult::success();
}

}  // namespace

CheckResult ref_check_closed(const Program& p, const Predicate& s) {
    return ref_check_preserved_by(p.space(), p.actions(), s,
                                  ("closed in " + p.name()).c_str());
}

CheckResult ref_check_preserved(const FaultClass& f, const Predicate& s) {
    return ref_check_preserved_by(f.space(), f.actions(), s,
                                  ("preserved by " + f.name()).c_str());
}

StateSet ref_reachable_states(const Program& p, const FaultClass* f,
                              const Predicate& from) {
    const StateSpace& space = p.space();
    StateSet seen(space.num_states());
    std::deque<StateIndex> frontier;
    for (StateIndex s = 0; s < space.num_states(); ++s) {
        if (from.interpret(space, s) && seen.insert(s)) frontier.push_back(s);
    }
    std::vector<StateIndex> succ;
    while (!frontier.empty()) {
        const StateIndex s = frontier.front();
        frontier.pop_front();
        succ.clear();
        for (const Action& a : p.actions()) successors_of(a, space, s, succ);
        if (f != nullptr)
            for (const Action& a : f->actions())
                successors_of(a, space, s, succ);
        for (StateIndex t : succ)
            if (seen.insert(t)) frontier.push_back(t);
    }
    return seen;
}

// ---------------------------------------------------------------------------
// Seed fairness (leads-to) over the vector-of-vectors graph.
// ---------------------------------------------------------------------------

namespace {

struct SccResult {
    std::vector<std::uint32_t> comp;
    std::uint32_t num_comps = 0;
};

constexpr std::uint32_t kNoComp = ~std::uint32_t{0};

SccResult ref_tarjan_scc(const RefTransitionSystem& ts,
                         const std::vector<char>& in_h) {
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

std::vector<char> ref_eval_on_nodes(const RefTransitionSystem& ts,
                                    const Predicate& p) {
    std::vector<char> out(ts.num_nodes());
    for (NodeId n = 0; n < ts.num_nodes(); ++n)
        out[n] = p.interpret(ts.space(), ts.state_of(n)) ? 1 : 0;
    return out;
}

std::vector<char> ref_fair_avoidance_set(const RefTransitionSystem& ts,
                                         const std::vector<char>& target) {
    const std::size_t n = ts.num_nodes();
    std::vector<char> in_h(n);
    for (std::size_t i = 0; i < n; ++i) in_h[i] = target[i] ? 0 : 1;

    std::vector<char> avoid(n, 0);
    std::deque<NodeId> frontier;

    for (NodeId v = 0; v < n; ++v) {
        if (in_h[v] && ts.terminal(v)) {
            avoid[v] = 1;
            frontier.push_back(v);
        }
    }

    const SccResult scc = ref_tarjan_scc(ts, in_h);
    if (scc.num_comps > 0) {
        std::vector<std::vector<NodeId>> members(scc.num_comps);
        for (NodeId v = 0; v < n; ++v)
            if (scc.comp[v] != kNoComp) members[scc.comp[v]].push_back(v);

        const std::size_t num_actions = ts.program().num_actions();
        std::vector<char> has_internal(num_actions);
        for (std::uint32_t c = 0; c < scc.num_comps; ++c) {
            const auto& nodes = members[c];
            std::fill(has_internal.begin(), has_internal.end(), 0);
            bool any_internal = false;
            for (NodeId v : nodes) {
                for (const auto& e : ts.program_edges(v)) {
                    if (in_h[e.to] && scc.comp[e.to] == c) {
                        has_internal[e.action] = 1;
                        any_internal = true;
                    }
                }
            }
            if (!any_internal) continue;
            bool feasible = true;
            for (std::uint32_t a = 0; a < num_actions && feasible; ++a) {
                if (has_internal[a]) continue;
                bool enabled_everywhere = true;
                for (NodeId v : nodes) {
                    if (!ts.enabled(v, a)) {
                        enabled_everywhere = false;
                        break;
                    }
                }
                if (enabled_everywhere) feasible = false;
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
    return avoid;
}

}  // namespace

CheckResult ref_check_leads_to(const RefTransitionSystem& ts,
                               const Predicate& p, const Predicate& q,
                               bool include_fault_edges) {
    const std::vector<char> target = ref_eval_on_nodes(ts, q);
    std::vector<char> bad = ref_fair_avoidance_set(ts, target);

    if (include_fault_edges) {
        const auto& preds = ts.predecessors(/*include_faults=*/true);
        std::deque<NodeId> frontier;
        for (NodeId v = 0; v < ts.num_nodes(); ++v)
            if (bad[v]) frontier.push_back(v);
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

    for (NodeId v = 0; v < ts.num_nodes(); ++v) {
        if (!target[v] && bad[v] && p.interpret(ts.space(), ts.state_of(v))) {
            return CheckResult::failure(
                "leads-to violated: " + p.name() + " ~~> " + q.name() +
                " fails from state " + ts.space().format(ts.state_of(v)) +
                (ts.terminal(v) ? " (maximal/terminal state)"
                                : " (fair computation avoids target)") +
                "; reached via: " + ts.format_witness(v));
        }
    }
    return CheckResult::success();
}

CheckResult ref_check_reaches(const RefTransitionSystem& ts,
                              const Predicate& target,
                              bool include_fault_edges) {
    return ref_check_leads_to(ts, Predicate::top(), target,
                              include_fault_edges);
}

// ---------------------------------------------------------------------------
// Seed refinement + tolerance pipeline.
// ---------------------------------------------------------------------------

namespace {

CheckResult ref_check_safety_on(const RefTransitionSystem& ts,
                                const SafetySpec& spec,
                                bool include_fault_edges) {
    const StateSpace& space = ts.space();
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        const StateIndex s = ts.state_of(n);
        if (!spec.state_allowed(space, s)) {
            return CheckResult::failure(
                "safety violated: state " + space.format(s) +
                " is excluded by " + spec.name() + "; witness: " +
                ts.format_witness(n));
        }
        for (const auto& e : ts.program_edges(n)) {
            const StateIndex t = ts.state_of(e.to);
            if (!spec.transition_allowed(space, s, t)) {
                return CheckResult::failure(
                    "safety violated: transition " + space.format(s) + " -> " +
                    space.format(t) + " (action '" +
                    ts.program().action(e.action).name() +
                    "') is excluded by " + spec.name() + "; witness: " +
                    ts.format_witness(n));
            }
        }
        if (include_fault_edges) {
            for (const auto& e : ts.fault_edges(n)) {
                const StateIndex t = ts.state_of(e.to);
                if (!spec.transition_allowed(space, s, t)) {
                    return CheckResult::failure(
                        "safety violated by fault step: " + space.format(s) +
                        " -> " + space.format(t) + " is excluded by " +
                        spec.name());
                }
            }
        }
    }
    return CheckResult::success();
}

CheckResult ref_refines_weakened(const Program& p, const FaultClass* f,
                                 const ProblemSpec& spec, Tolerance grade,
                                 const Predicate& from, const Predicate& via) {
    switch (grade) {
        case Tolerance::Masking:
            return ref_refines_spec(p, spec, from, f);
        case Tolerance::FailSafe:
            return ref_refines_spec(p, spec.failsafe_weakening(), from, f);
        case Tolerance::Nonmasking: {
            if (CheckResult r = ref_converges(p, f, from, via); !r)
                return CheckResult::failure(
                    "nonmasking: computations do not converge to " +
                    via.name() + ": " + r.reason);
            return ref_refines_spec(p, spec, via, nullptr);
        }
    }
    return CheckResult::failure("unknown tolerance grade");
}

}  // namespace

CheckResult ref_refines_spec(const Program& p, const ProblemSpec& spec,
                             const Predicate& from, const FaultClass* faults) {
    if (CheckResult r = ref_check_closed(p, from); !r) return r;
    if (faults != nullptr) {
        if (CheckResult r = ref_check_preserved(*faults, from); !r) return r;
    }
    const RefTransitionSystem ts(p, faults, from);
    const bool with_faults = faults != nullptr;
    if (CheckResult r = ref_check_safety_on(ts, spec.safety(), with_faults);
        !r)
        return r;
    for (const auto& ob : spec.liveness().obligations()) {
        if (CheckResult r = ref_check_leads_to(ts, ob.from, ob.to,
                                               with_faults);
            !r)
            return r;
    }
    return CheckResult::success();
}

CheckResult ref_converges(const Program& p, const FaultClass* f,
                          const Predicate& from, const Predicate& to) {
    const RefTransitionSystem ts(p, f, from);
    return ref_check_reaches(ts, to, f != nullptr);
}

ToleranceReport ref_check_tolerance(const Program& p, const FaultClass& f,
                                    const ProblemSpec& spec,
                                    const Predicate& invariant,
                                    Tolerance grade) {
    const StateSpace& space = p.space();
    ToleranceReport report;

    // Seed count_satisfying: one std::function call per state.
    StateIndex inv_size = 0;
    for (StateIndex s = 0; s < space.num_states(); ++s)
        if (invariant.interpret(space, s)) ++inv_size;
    report.invariant_size = inv_size;

    report.in_absence = ref_refines_spec(p, spec, invariant);

    // Seed fault span: separate reachability sweep; the span predicate is a
    // closure probing the set (one function call per membership question).
    auto span_states = std::make_shared<StateSet>(
        ref_reachable_states(p, &f, invariant));
    report.span_size = span_states->count();
    Predicate span_pred(
        "span(" + p.name() + "," + f.name() + "," + invariant.name() + ")",
        [set = span_states](const StateSpace&, StateIndex s) {
            return set->contains(s);
        });
    report.fault_span = span_pred;

    report.in_presence = ref_refines_weakened(p, &f, spec, grade, span_pred,
                                              invariant);
    return report;
}

}  // namespace dcft::reference
