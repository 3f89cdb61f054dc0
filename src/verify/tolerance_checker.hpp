// Fault-tolerance verdicts (Section 2.4): p is masking / nonmasking /
// fail-safe F-tolerant to SPEC from S iff p refines SPEC from S and p [] F
// refines the corresponding tolerance specification of SPEC from some
// F-span T of S. The checker uses the canonical (smallest) fault span.
//
// Grade conditions in the presence of F, from T:
//   fail-safe  — every computation of p [] F from T satisfies the safety
//                part of SPEC (states, program steps, and fault steps);
//   nonmasking — every computation of p [] F from T converges to S; since
//                p refines SPEC from S, the computation has a suffix in
//                SPEC, which is exactly (true)*SPEC;
//   masking    — safety of SPEC from T as above, plus every liveness
//                obligation of SPEC holds on computations of p [] F from T
//                (fault steps taken finitely often, per Assumption 2).
//
// Theorem 5.2's composition result — fail-safe + convergence implies
// masking — is *checked as a theorem* in the test suite against this
// direct implementation of the definitions.
#pragma once

#include <memory>

#include "spec/problem_spec.hpp"
#include "verify/check_result.hpp"
#include "verify/fault_span.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

/// Full report for one tolerance query.
struct ToleranceReport {
    /// 'p refines SPEC from S' (the absence-of-faults obligation).
    CheckResult in_absence;
    /// The grade-specific obligation from the canonical fault span.
    CheckResult in_presence;
    /// The canonical fault span T used for `in_presence`.
    Predicate fault_span;
    /// |T| (number of states), for diagnostics and benches.
    StateIndex span_size = 0;
    /// |S| (number of invariant states).
    StateIndex invariant_size = 0;
    /// The p [] F graph explored from the invariant (its node set is T).
    std::shared_ptr<const TransitionSystem> span_graph;
    /// Canonical BFS path from the invariant to the deepest (last
    /// discovered) fault-span state (replayable, with action provenance),
    /// computed on request: on an identity graph it replays the whole
    /// canonical order. Run reports export this as the exploration witness
    /// of passing queries; failing queries export the counterexample trace
    /// on in_absence/in_presence instead. Empty without a span graph.
    std::vector<WitnessStep> deepest_trace() const;
    /// How each predicate the query materialized got its state set (one
    /// record per predicate name, the first eval_bits call's; run
    /// reports export these as the query's "materialize" entries).
    std::vector<MaterializeRecord> materialized;

    bool ok() const { return in_absence.ok && in_presence.ok; }
    /// The counterexample trace of the first failing obligation (empty
    /// when ok()).
    const std::vector<WitnessStep>& counterexample() const {
        return in_absence.ok ? in_presence.witness : in_absence.witness;
    }
    std::string reason() const {
        if (!in_absence.ok) return in_absence.reason;
        return in_presence.reason;
    }
};

/// Is p grade-F-tolerant to spec from invariant?
ToleranceReport check_tolerance(const Program& p, const FaultClass& f,
                                const ProblemSpec& spec,
                                const Predicate& invariant, Tolerance grade);

/// Convenience wrappers.
ToleranceReport check_failsafe(const Program& p, const FaultClass& f,
                               const ProblemSpec& spec,
                               const Predicate& invariant);
ToleranceReport check_nonmasking(const Program& p, const FaultClass& f,
                                 const ProblemSpec& spec,
                                 const Predicate& invariant);
ToleranceReport check_masking(const Program& p, const FaultClass& f,
                              const ProblemSpec& spec,
                              const Predicate& invariant);

}  // namespace dcft
