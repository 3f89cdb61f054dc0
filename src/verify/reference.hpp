// Reference (seed-era) verifier implementations, retained on purpose.
//
// When the verifier core moved to CSR storage, a direct-mapped interner,
// level-synchronous parallel exploration and bulk predicate evaluation
// (see DESIGN.md, "Performance architecture"), the original sequential
// implementations were kept here, verbatim in structure, for two jobs:
//
//   1. *Differential oracle.* The property tests assert that the optimized
//      TransitionSystem reproduces the reference exploration bit-for-bit —
//      node numbering, edge sets, BFS parents, witness paths — on
//      randomized programs, for every thread count; and that the optimized
//      verdict pipeline agrees with the reference pipeline.
//   2. *Benchmark baseline.* bench_verifier reports speedups of the
//      optimized paths against these functions, so the numbers in
//      BENCH_verifier.json measure real end-to-end wins rather than
//      vibes.
//
// Everything here is deliberately naive: FIFO-queue BFS with a hash-map
// interner and vector-of-vectors adjacency, per-state std::function
// predicate evaluation, and a verdict pipeline that re-enumerates
// successors for each obligation. Do not "optimize" this file — its value
// is that it stays the simple spec-like implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "spec/problem_spec.hpp"
#include "verify/check_result.hpp"
#include "verify/state_set.hpp"
#include "verify/tolerance_checker.hpp"
#include "verify/transition_system.hpp"

namespace dcft::reference {

struct RefEdge {
    std::uint32_t action;
    NodeId to;

    friend bool operator==(const RefEdge&, const RefEdge&) = default;
};

/// The seed's explicit transition system: sequential FIFO-queue
/// exploration, std::unordered_map interner, one std::vector of edges per
/// node, per-state init evaluation, and a lazily built vector-of-vectors
/// predecessor cache.
class RefTransitionSystem {
public:
    RefTransitionSystem(const Program& program, const FaultClass* faults,
                        const Predicate& init);

    const StateSpace& space() const { return *space_; }
    const Program& program() const { return program_; }

    std::size_t num_nodes() const { return states_.size(); }
    StateIndex state_of(NodeId n) const { return states_[n]; }
    const std::vector<StateIndex>& states() const { return states_; }
    const std::vector<NodeId>& parents() const { return parent_; }
    const std::vector<NodeId>& initial_nodes() const { return initial_; }

    const std::vector<RefEdge>& program_edges(NodeId n) const {
        return prog_edges_[n];
    }
    const std::vector<RefEdge>& fault_edges(NodeId n) const {
        return fault_rows_[n];
    }
    std::size_t num_program_edges() const;

    bool enabled(NodeId n, std::uint32_t a) const;
    bool terminal(NodeId n) const { return prog_edges_[n].empty(); }

    /// Lazily built on first call, exactly like the seed (no once_flag —
    /// the reference is single-threaded by construction).
    const std::vector<std::vector<NodeId>>& predecessors(
        bool include_faults) const;

    std::vector<StateIndex> witness_path(NodeId n) const;
    std::string format_witness(NodeId n) const;

private:
    std::shared_ptr<const StateSpace> space_;
    Program program_;
    std::vector<StateIndex> states_;
    std::vector<NodeId> initial_;
    std::vector<NodeId> parent_;
    std::vector<std::vector<RefEdge>> prog_edges_;
    std::vector<std::vector<RefEdge>> fault_rows_;
    std::unordered_map<StateIndex, NodeId> node_of_;
    mutable std::optional<std::vector<std::vector<NodeId>>> preds_prog_;
    mutable std::optional<std::vector<std::vector<NodeId>>> preds_all_;
};

/// Seed closure / fault-preservation checks: exhaustive per-state
/// predicate evaluation, fresh successor enumeration.
CheckResult ref_check_closed(const Program& p, const Predicate& s);
CheckResult ref_check_preserved(const FaultClass& f, const Predicate& s);

/// Seed reachability: FIFO queue over point insertions.
StateSet ref_reachable_states(const Program& p, const FaultClass* f,
                              const Predicate& from);

/// Seed leads-to under p-fairness/p-maximality (Tarjan SCC + avoidance
/// closure) with per-node std::function predicate evaluation.
CheckResult ref_check_leads_to(const RefTransitionSystem& ts,
                               const Predicate& p, const Predicate& q,
                               bool include_fault_edges);
CheckResult ref_check_reaches(const RefTransitionSystem& ts,
                              const Predicate& target,
                              bool include_fault_edges);

/// Seed refinement pipeline: closure sweep, then a fresh exploration, then
/// safety and liveness on it.
CheckResult ref_refines_spec(const Program& p, const ProblemSpec& spec,
                             const Predicate& from,
                             const FaultClass* faults = nullptr);
CheckResult ref_converges(const Program& p, const FaultClass* f,
                          const Predicate& from, const Predicate& to);

/// Seed tolerance verdict: separate invariant count, absence check, fault
/// span reachability, and presence check — each re-enumerating successors.
ToleranceReport ref_check_tolerance(const Program& p, const FaultClass& f,
                                    const ProblemSpec& spec,
                                    const Predicate& invariant,
                                    Tolerance grade);

}  // namespace dcft::reference
