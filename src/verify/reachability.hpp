// Forward reachability over programs and fault classes.
#pragma once

#include "gc/program.hpp"
#include "verify/check_result.hpp"
#include "verify/state_set.hpp"

namespace dcft {

/// The set of states reachable from states satisfying `from` via actions of
/// `p` and, if non-null, of `f`. This is the smallest set containing `from`
/// that is closed in p and preserved by every action of f — for `from` = an
/// invariant S, it is the canonical F-span of p from S (Section 2.3).
///
/// `n_threads` bounds the exploration workers (0 = process default); the
/// computed set is identical for every thread count.
StateSet reachable_states(const Program& p, const FaultClass* f,
                          const Predicate& from, unsigned n_threads = 0);

/// Reachability obligation: fails iff some state satisfying `bad` is
/// reachable from `from` under p (and, if non-null, f). The verdict is a
/// scan of the complete graph of (p [, f], from), shared through the
/// process-wide ExplorationCache; a violation reports the canonical first
/// bad node (TransitionSystem::first_bad_node) with a replayable witness.
CheckResult check_unreachable(const Program& p, const FaultClass* f,
                              const Predicate& from, const Predicate& bad,
                              unsigned n_threads = 0);

}  // namespace dcft
