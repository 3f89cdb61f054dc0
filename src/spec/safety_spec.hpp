// Safety specifications (Section 2.2 of the paper).
//
// The paper's problem specifications are suffix closed and fusion closed
// (Assumption 1). A key consequence — the content of Lemma 3.2 — is that a
// suffix-closed, fusion-closed *safety* specification is transition-local:
// whether a prefix "maintains" the specification depends only on its last
// state (and last transition), not on how that state was reached. We
// therefore represent a safety specification by two predicates:
//
//   bad_state(s)       — s can appear in no sequence of the specification;
//   bad_transition(s,t)— the step s -> t appears in no sequence.
//
// A sequence is in the specification iff it has no bad state and no bad
// transition. `maintains` of a prefix is then a fold over its steps, which
// is exactly the algebra Lemmas 3.1/3.2/5.1 prove; the test suite checks
// those lemmas against this representation on randomized instances.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gc/predicate.hpp"

namespace dcft {

/// A suffix-closed, fusion-closed safety specification.
class SafetySpec {
public:
    using TransitionFn =
        std::function<bool(const StateSpace&, StateIndex, StateIndex)>;

    /// The trivially true safety specification (all sequences).
    SafetySpec();

    /// From a bad-state predicate and a bad-transition relation (either may
    /// be omitted; a null TransitionFn means "no transition is bad").
    SafetySpec(std::string name, Predicate bad_state, TransitionFn bad_transition);

    /// "Never P": sequences containing no state satisfying P.
    static SafetySpec never(const Predicate& p);

    /// The paper's generalized pair ({S},{R}): if S holds at s_j then R
    /// holds at s_{j+1}. As a safety spec: transition s->t is bad iff
    /// S(s) and not R(t).
    static SafetySpec pair(const Predicate& s, const Predicate& r);

    /// The paper's closure cl(S): once S holds it holds forever.
    /// Equivalent to pair(S, S).
    static SafetySpec closure(const Predicate& s);

    /// Conjunction (intersection of the sequence sets).
    static SafetySpec conjunction(std::vector<SafetySpec> parts,
                                  std::string name = "");

    const std::string& name() const;

    bool state_allowed(const StateSpace& space, StateIndex s) const;
    bool transition_allowed(const StateSpace& space, StateIndex from,
                            StateIndex to) const;

    /// Whether the finite sequence `states` is a prefix of some sequence in
    /// the specification — the paper's `maintains`. By transition-locality
    /// this holds iff every state and every step is allowed.
    bool maintains(const StateSpace& space,
                   std::span<const StateIndex> states) const;

    /// Whether the specification is transition-free: no bad-transition
    /// relation anywhere (recursively through conjunctions). For such
    /// specs a computation violates safety iff it *reaches* a state
    /// satisfying bad_states() — a reachability fact, independent of the
    /// path taken, so the safety scan skips every edge. never() specs and
    /// their conjunctions qualify;
    /// pair()/closure() specs do not.
    bool state_only() const;

    /// Disjunction of every bad-state predicate (recursively through
    /// conjunctions); Predicate::bottom() when there is none. For
    /// state_only() specifications this is the exact violation set.
    Predicate bad_states() const;

private:
    struct Impl;
    std::shared_ptr<const Impl> impl_;
};

}  // namespace dcft
