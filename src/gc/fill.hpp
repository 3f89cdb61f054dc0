// Whole-space predicate materialization by word algebra.
//
// The paper uses a state predicate and the set of states it characterizes
// interchangeably (Section 2.1). The verifier needs the set form of
// invariants, seeds and guards as a bit vector over the packed state
// indices. This is the one routine that builds it, for eval_bits (state
// predicates) and for the action kernel's guard bitsets alike: structured
// predicates fill by word-level algebra over a CompiledSpace — periodic
// range fills for var-vs-const leaves, per-value level sets for the terms
// of comparison atoms, the level recurrence for counting atoms, and/or/not
// as word operations — and only opaque subtrees fall back to a per-state
// scan of Predicate::eval. The space is filled in blocks of 2^15 states,
// chunked across the verifier threads; every temporary is one block long.
#pragma once

#include <cstdint>

#include "common/bitvec.hpp"
#include "gc/compiled.hpp"
#include "gc/predicate.hpp"

namespace dcft {

/// What one fill did.
struct FillStats {
    /// Subtrees evaluated per state (kOpaque leaves — the kCall ops of the
    /// guard bytecode — and comparison atoms whose terms are too wide for
    /// level sets). 0 means the fill was word algebra throughout.
    std::uint64_t kcall_ops = 0;
    /// States those per-state scans evaluated (|space| per scanned subtree).
    std::uint64_t states_scanned = 0;
    /// The predicate itself is opaque: the fill was one per-state scan.
    bool root_scanned = false;
};

/// Fills `out` (sized to the space, overwritten) with the states
/// satisfying p. Word algebra wherever p's structure allows, opaque
/// subtrees scanned per state; the blocks are chunked across up to
/// n_threads workers (0 = default_verifier_threads(); the result is the
/// same for every count). The padding bits above |space| stay clear. The
/// result equals Predicate::eval at every state.
FillStats fill_guard_bits(const CompiledSpace& cs, const Predicate& p,
                          BitVec& out, unsigned n_threads = 1);

/// The most block-long bit vectors the fill of p holds at once, the
/// block's output included: value-set levels of comparison terms,
/// counting-atom levels and per-connective temporaries.
std::uint64_t fill_peak_bitsets(const Predicate& p);

/// The bytes of temporaries fill_guard_bits(p) holds at its peak over a
/// space of n_states states at n_threads workers (fill_peak_bitsets
/// blocks per worker), beside its output. eval_bits adds this to its
/// bitsets to refuse a fill the host cannot hold before allocating.
std::uint64_t fill_temp_bytes(std::uint64_t n_states, const Predicate& p,
                              unsigned n_threads);

}  // namespace dcft
