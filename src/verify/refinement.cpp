#include "verify/refinement.hpp"

#include "common/bitvec.hpp"
#include "common/check.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "verify/action_kernel.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/fairness.hpp"

namespace dcft {
namespace {

/// witness_trace(n) extended by one final step (the violating transition
/// itself, which need not be a BFS tree edge).
std::vector<WitnessStep> trace_plus_step(const TransitionSystem& ts,
                                         NodeId from, StateIndex to,
                                         std::string action, bool fault) {
    std::vector<WitnessStep> trace = ts.witness_trace(from);
    WitnessStep step;
    step.state = to;
    step.state_repr = ts.space().format(to);
    step.action = std::move(action);
    step.fault = fault;
    trace.push_back(std::move(step));
    return trace;
}

/// Closure of `from` under the program (and preservation under the fault
/// class, if any), checked against the *recorded* edges of ts instead of a
/// fresh successor enumeration. Nodes are swept in id order; when ts was
/// explored from `from` the nodes satisfying it are exactly the roots, in
/// ascending state order — the same order check_closed visits, so the first
/// reported violation (and its message) is identical.
CheckResult check_closure_on(const TransitionSystem& ts,
                             const BitVec& from_bits, const Predicate& from,
                             const FaultClass* faults) {
    const obs::Span span("verify/closure");
    obs::count("verify/obligations/closure");
    if (obs::progress_enabled()) obs::progress_phase("closure");
    const StateSpace& space = ts.space();
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        const StateIndex s = ts.state_of(n);
        if (!from_bits.test(s)) continue;
        for (const auto& e : ts.program_edges(n)) {
            const StateIndex t = ts.state_of(e.to);
            if (!from_bits.test(t)) {
                const std::string action =
                    ts.program().action(e.action).name();
                return CheckResult::failure(
                    "closed in " + ts.program().name() + ": predicate " +
                        from.name() + " not preserved by action '" + action +
                        "' from " + space.format(s) + " to " +
                        space.format(t),
                    trace_plus_step(ts, n, t, action, /*fault=*/false));
            }
        }
    }
    if (faults != nullptr) {
        // Fault rows are regenerated per node, with targets as states, so
        // no node lookup is needed.
        std::vector<TransitionSystem::FaultStep> row;
        for (NodeId n = 0; n < ts.num_nodes(); ++n) {
            const StateIndex s = ts.state_of(n);
            if (!from_bits.test(s)) continue;
            ts.fault_steps(n, row);
            for (const auto& [a, t] : row) {
                if (!from_bits.test(t)) {
                    const std::string action = faults->actions()[a].name();
                    return CheckResult::failure(
                        "preserved by " + faults->name() + ": predicate " +
                            from.name() + " not preserved by action '" +
                            action + "' from " + space.format(s) + " to " +
                            space.format(t),
                        trace_plus_step(ts, n, t, action, /*fault=*/true));
                }
            }
        }
    }
    return CheckResult::success();
}

CheckResult check_safety_on(const TransitionSystem& ts, const SafetySpec& spec,
                            bool include_fault_edges) {
    const obs::Span span("verify/safety");
    obs::count("verify/obligations/safety");
    const StateSpace& space = ts.space();
    // A transition-free spec allows every step: only states can violate it.
    const bool state_only = spec.state_only();
    const bool faults = include_fault_edges && !state_only &&
                        ts.num_fault_actions() > 0;
    std::vector<TransitionSystem::FaultStep> row;
    // The first violation in canonical order: the node's state, then its
    // program edges in CSR order, then its regenerated fault row. The
    // nodes are scanned order-free first (first_canonical), so the
    // canonical order is replayed only on a failing check.
    const auto violates = [&](NodeId n) {
        const StateIndex s = ts.state_of(n);
        if (!spec.state_allowed(space, s)) return true;
        if (state_only) return false;
        for (const auto& e : ts.program_edges(n))
            if (!spec.transition_allowed(space, s, ts.state_of(e.to)))
                return true;
        if (!faults) return false;
        ts.fault_steps(n, row);
        for (const auto& [a, t] : row)
            if (!spec.transition_allowed(space, s, t)) return true;
        return false;
    };
    const NodeId n = ts.first_canonical(violates);
    if (n == TransitionSystem::kNoNode) return CheckResult::success();
    const StateIndex s = ts.state_of(n);
    if (!spec.state_allowed(space, s)) {
        return CheckResult::failure(
            "safety violated: state " + space.format(s) +
                " is excluded by " + spec.name() + "; witness: " +
                ts.format_witness(n),
            ts.witness_trace(n));
    }
    for (const auto& e : ts.program_edges(n)) {
        const StateIndex t = ts.state_of(e.to);
        if (!spec.transition_allowed(space, s, t)) {
            const std::string action = ts.program().action(e.action).name();
            return CheckResult::failure(
                "safety violated: transition " + space.format(s) + " -> " +
                    space.format(t) + " (action '" + action +
                    "') is excluded by " + spec.name() + "; witness: " +
                    ts.format_witness(n),
                trace_plus_step(ts, n, t, action, /*fault=*/false));
        }
    }
    if (faults) ts.fault_steps(n, row);
    for (const auto& [a, t] : row) {
        if (!spec.transition_allowed(space, s, t)) {
            return CheckResult::failure(
                "safety violated by fault step: " + space.format(s) + " -> " +
                    space.format(t) + " is excluded by " + spec.name(),
                trace_plus_step(ts, n, t, ts.fault_action_name(a),
                                /*fault=*/true));
        }
    }
    DCFT_ASSERT(false, "check_safety_on: violating node without violation");
    return CheckResult::success();
}

}  // namespace

CheckResult refines_spec(const Program& p, const ProblemSpec& spec,
                         const Predicate& from, const RefinesOptions& opts) {
    // One exploration serves the closure check *and* the safety/liveness
    // obligations: the recorded edges of the roots are exactly the successor
    // sets check_closed would enumerate. The exploration itself is shared
    // through the process-wide cache, so repeated queries over the same
    // (program, faults, init) triple replay recorded edges instead of
    // re-exploring.
    const auto ts =
        ExplorationCache::global().get_or_build(p, opts.faults, from);
    return refines_spec_on(*ts, opts.faults, spec, from);
}

CheckResult refines_spec_on(const TransitionSystem& ts,
                            const FaultClass* faults, const ProblemSpec& spec,
                            const Predicate& from) {
    const obs::Span span("verify/refines_spec");
    const BitVec from_bits = eval_bits(ts.space(), from);
    if (CheckResult r = check_closure_on(ts, from_bits, from, faults); !r) {
        obs::count("verify/obligations/failed");
        return r;
    }
    return check_spec_on(ts, faults, spec);
}

CheckResult check_spec_on(const TransitionSystem& ts, const FaultClass* faults,
                          const ProblemSpec& spec) {
    const bool with_faults = faults != nullptr;
    if (CheckResult r = check_safety_on(ts, spec.safety(), with_faults); !r) {
        obs::count("verify/obligations/failed");
        return r;
    }
    for (const auto& ob : spec.liveness().obligations()) {
        if (CheckResult r = check_leads_to(ts, ob.from, ob.to, with_faults);
            !r) {
            obs::count("verify/obligations/failed");
            return r;
        }
    }
    return CheckResult::success();
}

CheckResult refines_program(const Program& p_prime, const Program& p,
                            const Predicate& from) {
    const StateSpace& space = p_prime.space();
    const VarSet& pvars = p.vars();
    const auto ts_ptr =
        ExplorationCache::global().get_or_build(p_prime, nullptr, from);
    const TransitionSystem& ts = *ts_ptr;
    // Closure of `from` in p' on the graph just built: its roots are the
    // from-states in ascending order, so the first escaping edge is the
    // one a whole-space check_closed would report.
    if (CheckResult r = check_closure_on(ts, eval_bits(space, from), from,
                                         nullptr);
        !r)
        return r;
    // Compile the base program's actions once: the matching loop below
    // enumerates their successors for every non-stuttering step of p'.
    const CompiledActionSet base_compiled(p.space_ptr(), p.actions());
    std::vector<StateIndex> base_succ;
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        const StateIndex s = ts.state_of(n);
        const StateIndex sp = space.project(s, pvars);
        for (const auto& e : ts.program_edges(n)) {
            const StateIndex t = ts.state_of(e.to);
            const StateIndex tp = space.project(t, pvars);
            if (tp == sp) continue;  // stutter on p's variables
            bool matched = false;
            for (std::size_t ai = 0; ai < p.actions().size(); ++ai) {
                base_succ.clear();
                const CompiledAction& ka = base_compiled[ai];
                if (ka.enabled(s)) ka.successors(s, base_succ);
                for (StateIndex u : base_succ) {
                    if (space.project(u, pvars) == tp) {
                        matched = true;
                        break;
                    }
                }
                if (matched) break;
            }
            if (!matched) {
                return CheckResult::failure(
                    "refinement violated: step " + space.format(s) + " -> " +
                    space.format(t) + " of " + p_prime.name() + " (action '" +
                    ts.program().action(e.action).name() +
                    "') does not project onto a step of " + p.name());
            }
        }
    }
    return CheckResult::success();
}

CheckResult converges(const Program& p, const FaultClass* f,
                      const Predicate& from, const Predicate& to) {
    const auto ts = ExplorationCache::global().get_or_build(p, f, from);
    return check_reaches(*ts, to, f != nullptr);
}

CheckResult refines_weakened(const Program& p, const FaultClass* f,
                             const ProblemSpec& spec, Tolerance grade,
                             const Predicate& from, const Predicate& via) {
    switch (grade) {
        case Tolerance::Masking:
            return refines_spec(p, spec, from, RefinesOptions{f});
        case Tolerance::FailSafe:
            return refines_spec(p, spec.failsafe_weakening(), from,
                                RefinesOptions{f});
        case Tolerance::Nonmasking: {
            if (CheckResult r = converges(p, f, from, via); !r)
                return CheckResult::failure(
                    "nonmasking: computations do not converge to " +
                        via.name() + ": " + r.reason,
                    std::move(r.witness));
            return refines_spec(p, spec, via, RefinesOptions{});
        }
    }
    return CheckResult::failure("unknown tolerance grade");
}

}  // namespace dcft
