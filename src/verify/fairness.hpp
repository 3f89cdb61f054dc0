// Deciding liveness under the paper's computation model (Section 2.1/2.3):
// computations are p-fair (every continuously enabled program action is
// eventually executed), p-maximal (finite computations end in states where
// no program action is enabled), and contain finitely many fault steps.
//
// The core query is leads-to: P ~~> Q. A violation is a computation that
// reaches a P-state and stays in !Q forever. Because faults are finite,
// such a computation decomposes into a finite prefix inside !Q (program and
// fault steps) followed by a fair, maximal, program-only run inside !Q.
// fair_avoidance_set computes the start states of such program-only runs
// exactly, by SCC analysis:
//
//   A fair infinite program-only run confined to !Q exists from n iff n can
//   reach (inside !Q) an SCC C of the !Q-restricted program graph such that
//   every program action enabled at *all* states of C has a transition that
//   stays inside C. (If an action is enabled everywhere in C but always
//   exits C, any run confined to any subset of C starves it — weak fairness
//   rules the run out; the condition is also sufficient, by constructing a
//   run that tours C and fires each such action infinitely often.)
//   Finite maximal runs are the terminal !Q states.
//
// Most of !Q never needs that analysis: the program attractor of Q (the
// nodes from which every maximal program-only run reaches Q, fair or not)
// is decided first by one forward post-order DFS, and the SCC analysis
// runs only on the residue !Q \ attractor. Passing convergence queries
// usually leave no residue at all.
#pragma once

#include "verify/check_result.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

/// The program attractor of `target`: for each node of ts, true iff the
/// node is outside `target`, non-terminal, and each of its program
/// successors is in `target` or in the attractor (least fixpoint). Every
/// maximal program-only computation from an attractor node reaches
/// `target` within finitely many steps, whatever the scheduler does.
/// `target` is indexed by NodeId.
std::vector<char> program_attractor(const TransitionSystem& ts,
                                    const std::vector<char>& target);

/// For each node of ts: true iff some fair maximal *program-only*
/// computation starting there never visits a node satisfying `target`.
/// `target` is indexed by NodeId.
std::vector<char> fair_avoidance_set(const TransitionSystem& ts,
                                     const std::vector<char>& target);

/// Evaluates a predicate at every node of ts.
std::vector<char> eval_on_nodes(const TransitionSystem& ts,
                                const Predicate& p);

/// Checks P ~~> Q over all computations captured by ts (fault edges are
/// taken finitely often when `include_fault_edges`; they are always exempt
/// from fairness). Considers every node of ts as potentially visited.
CheckResult check_leads_to(const TransitionSystem& ts, const Predicate& p,
                           const Predicate& q, bool include_fault_edges);

/// Checks that every computation from the nodes of ts eventually reaches
/// `target` (true ~~> target).
CheckResult check_reaches(const TransitionSystem& ts, const Predicate& target,
                          bool include_fault_edges);

}  // namespace dcft
