// Refinement checks (Section 2.2.1 of the paper).
//
//   refines_spec(p, SPEC, from)      — 'p refines SPEC from S': S closed in
//     p, and every computation of p from S is in SPEC (safety over every
//     visited state/transition; liveness under p-fairness/p-maximality).
//     With a fault class, checks 'p [] F refines SPEC from T' under
//     Assumption 2 (finitely many fault occurrences).
//
//   refines_program(p', p, from)     — 'p' refines p from S' up to
//     stuttering: S closed in p', and every step of p' from S either leaves
//     the variables of p unchanged or projects onto a step of p. (The
//     paper's examples — pf refining p while setting the witness Z1 — are
//     refinements of exactly this kind.)
//
//   converges(p, f, from, to)        — 'p [] F refines (true)*(p | to)
//     from `from`': every computation eventually reaches `to`.
#pragma once

#include "spec/problem_spec.hpp"
#include "verify/check_result.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

struct RefinesOptions {
    /// When set, checks 'p [] F refines ... from `from`'.
    const FaultClass* faults = nullptr;
};

/// 'p refines SPEC from `from`' (or 'p [] F refines SPEC from `from`').
CheckResult refines_spec(const Program& p, const ProblemSpec& spec,
                         const Predicate& from, const RefinesOptions& opts = {});

/// refines_spec evaluated on a pre-built transition system, so one
/// exploration can carry several obligations (see check_tolerance).
///
/// `ts` must have been built over the same program with the same fault
/// class (`faults` selects whether fault edges participate), and every
/// state satisfying `from` must be a node of `ts` — e.g. `ts` was explored
/// from `from` itself, or `from` denotes a subset of ts.state_bits().
/// Closure of `from` is checked on the recorded program edges and the
/// regenerated fault rows; the successor sets are identical to what a
/// fresh enumeration would produce, so verdicts (and, when `ts` was
/// explored from `from`, messages) match refines_spec.
CheckResult refines_spec_on(const TransitionSystem& ts,
                            const FaultClass* faults, const ProblemSpec& spec,
                            const Predicate& from);

/// The safety and liveness half of refines_spec_on, over every node of
/// `ts` and without the closure check. For a complete system this is
/// refines_spec_on from its node set, whose closure under the recorded
/// edges holds by construction — e.g. the canonical fault span, which is
/// the node set of the p [] F exploration.
CheckResult check_spec_on(const TransitionSystem& ts, const FaultClass* faults,
                          const ProblemSpec& spec);

/// 'p_prime refines p from `from`' up to stuttering on the variables of p.
CheckResult refines_program(const Program& p_prime, const Program& p,
                            const Predicate& from);

/// 'p [] F refines (true)*(p | to) from `from`': every computation (with
/// finitely many fault steps if f != nullptr) eventually reaches `to`.
CheckResult converges(const Program& p, const FaultClass* f,
                      const Predicate& from, const Predicate& to);

/// The grade-weakened refinement used for tolerant components and
/// tolerance checking:
///   masking    — refines_spec of SPEC itself;
///   fail-safe  — refines_spec of the safety part only;
///   nonmasking — (true)*SPEC via a recovery predicate `via`: the
///                computation converges to `via`, `via` is closed in p, and
///                p (program-only) refines SPEC from `via`.
CheckResult refines_weakened(const Program& p, const FaultClass* f,
                             const ProblemSpec& spec, Tolerance grade,
                             const Predicate& from, const Predicate& via);

}  // namespace dcft
