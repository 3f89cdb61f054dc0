// Block-compiled batch exploration kernels.
//
// The per-state interpret loop of PR 3 pays, for every (state, action):
// a guard-bitset probe, a virtual-free but branchy successors() switch, a
// scratch std::vector round-trip, and one magic-multiply decode per digit
// read. BatchKernel specializes a CompiledProgram once per exploration
// into flat per-action records and then amortizes all of that over
// *blocks* of states:
//
//   * guard words are loaded once per 64-state block (one L1 load per
//     action per 64 states instead of one bit probe per state) and folded
//     into a per-state action mask walked with ctz — emission order stays
//     actions-in-declaration-order per state, the CSR contract;
//   * over contiguous ascending state runs (the identity-interner tier:
//     init covers the space, node id == state index) an *odometer* keeps
//     every variable digit incrementally — amortized O(1) per state, no
//     divides, no magic multiplies — and successors become pure
//     stride-delta adds (sweep());
//   * successor records are written straight into the caller's buffers —
//     the parallel merge's ChunkBuf records or the pre-sized CSR slices —
//     never through a per-state std::vector<StateIndex>;
//   * per-action successor counts are exact for every structured effect
//     kind, so count_edges() sizes CSR slices precisely from guard-bitset
//     popcounts and the sweep writes with bump pointers, no reallocation.
//
// A program is batchable when every action (program and fault) has a
// fully compiled guard (whole-space bitset available), an effect form the
// kernel lowers (anything but kGeneric, kSetAny and kParallel), the space
// is on the CompiledSpace
// fast path, and each action set fits a 64-bit mask. Everything else
// falls back to the scalar per-state path, which remains bit-for-bit
// identical. DCFT_NO_BATCH=1 forces the scalar path — the differential
// oracle for this layer (verify/reference remains the ground truth below
// both).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "verify/action_kernel.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

/// True iff DCFT_NO_BATCH is set truthy: explorations must stay on the
/// scalar per-state path. Re-read per call so tests can flip it per scope.
bool batch_disabled();

/// Static batch-compilation coverage of one compiled program — what the
/// report surfaces per program so kernel coverage is observable.
struct BatchCoverage {
    std::size_t actions = 0;            ///< program + fault actions
    std::size_t fully_compiled = 0;     ///< guards without kCall fallbacks
    std::size_t structured_effects = 0; ///< effects with a non-generic form
    std::size_t batchable_actions = 0;  ///< both of the above
    std::size_t kcall_ops = 0;          ///< total kCall fallback ops
    bool batchable = false;  ///< whole program eligible for the batch path
};

/// Coverage of `cp` without building any guard bitsets (cheap; used by
/// `dcft verify --report` and the telemetry flush).
BatchCoverage batch_coverage(const CompiledProgram& cp);

class BatchKernel {
public:
    using Edge = TransitionSystem::Edge;
    using Rec = std::pair<std::uint32_t, StateIndex>;
    using Counts = std::pair<std::uint32_t, std::uint32_t>;

    /// Specializes `cp` against the guard bitsets the exploration already
    /// collected (nullptr entries = guard not fully compiled). The spans
    /// must outlive the kernel; bitsets must already be built.
    BatchKernel(const CompiledProgram& cp,
                std::span<const BitVec* const> prog_gbits,
                std::span<const BitVec* const> fault_gbits);

    /// As above over explicit action sets. An empty `prog` gives the
    /// fault-only kernel of fault-row regeneration (expand_faults).
    BatchKernel(const CompiledSpace& cs, std::span<const CompiledAction> prog,
                std::span<const BitVec* const> prog_gbits,
                std::span<const CompiledAction> faults,
                std::span<const BitVec* const> fault_gbits);

    /// Whether sweep()/count_edges()/expand_frontier() may be used.
    bool batchable() const { return batchable_; }

    /// Exact (program, fault) edge counts emitted by states [begin, end).
    /// `begin` must be 64-aligned. Pure popcount over guard-bitset words.
    std::pair<std::uint64_t, std::uint64_t> count_edges(StateIndex begin,
                                                       StateIndex end) const;

    /// Output slice of one sweep segment: absolute CSR arrays plus the
    /// running edge cursor at `begin` (from count_edges prefix sums).
    struct SweepSlice {
        Edge* prog_edges;               ///< absolute edge array base
        std::uint64_t* prog_offsets;    ///< absolute offsets array base
        std::uint64_t prog_cursor;      ///< edges emitted before `begin`
    };

    /// Fused guard+successor sweep over the contiguous identity run
    /// [begin, end): for every state s (node id == s) writes its program
    /// edges at the bump cursor and offsets[s+1]. Fault edges are not
    /// stored (count_edges counts them). `begin` must be 64-aligned.
    /// Requires batchable(). Single writer per slice; disjoint slices may
    /// run concurrently.
    void sweep(StateIndex begin, StateIndex end, SweepSlice slice) const;

    /// Scalar-free expansion of an arbitrary frontier slice: appends the
    /// (action, target) records and per-state (n_prog, n_fault) counts in
    /// exactly the ChunkBuf layout (program records of a state first,
    /// then fault records). Returns (program, fault) record totals. With
    /// `marks`, corrupt-any fault successors are handled line by line: a
    /// covered line is counted in `marks` and stages no record.
    /// Requires batchable().
    std::pair<std::uint64_t, std::uint64_t> expand_frontier(
        const StateIndex* states, std::size_t n, std::vector<Rec>& recs,
        std::vector<Counts>& counts, LineMarks* marks = nullptr) const;

    /// Appends the fault records of one state — the fault half of
    /// expand_frontier, without the program guards. Requires batchable().
    void expand_faults(StateIndex s, std::vector<Rec>& recs) const;

private:
    /// One action lowered to flat batch form. Strides are signed so the
    /// delta arithmetic matches CompiledSpace::set_digit bit-for-bit.
    ///
    /// Every single-successor kind is lowered to one unified table form
    ///     target(s) = s + (tab[d[src]] - d[var]) * stride
    /// (kSkip: stride 0; kAssignConst: constant tab; kAssignVar: identity
    /// tab over var2; kAssignAddMod: tab[x] = (x + value) % modulus
    /// precomputed with C++ semantics). The sweep inner loop then pays one
    /// tiny-table load per edge — no modulo, no per-kind dispatch.
    struct Spec {
        Action::EffectForm::Kind kind;
        VarId var = 0;
        VarId var2 = 0;
        std::int64_t stride = 0;   ///< stride(var)
        Value value = 0;           ///< const / addend
        Value modulus = 0;         ///< kAssignAddMod
        VarId src = 0;             ///< tab index variable (det kinds)
        std::vector<Value> tab;    ///< new-value table over dom(src)
        std::vector<Value> choices;
        struct CorruptVar {
            VarId v;
            std::int64_t stride;
            Value dom;
        };
        std::vector<CorruptVar> corrupt;
        std::uint32_t max_succ = 0;  ///< exact successors per enabled state
        const std::uint64_t* gw = nullptr;  ///< guard bitset words
    };

    static bool lower(const CompiledAction& ka, const CompiledSpace& cs,
                      const BitVec* gbits, Spec& out);

    /// Appends the successors of action k (index a) at a scattered state
    /// s, leaving out the kCorruptAny lines `marks` covers; returns how
    /// many it appended.
    std::uint32_t emit_at(const Spec& k, std::uint32_t a, StateIndex s,
                          std::vector<Rec>& recs,
                          LineMarks* marks = nullptr) const;
    /// Guard mask of `specs` at state s (bit a = action a enabled).
    static std::uint64_t mask_at(const std::vector<Spec>& specs,
                                 StateIndex s);

    const CompiledSpace& cs_;
    std::vector<Spec> prog_;
    std::vector<Spec> fault_;
    std::vector<Value> doms_;  ///< per-variable domain (odometer radices)
    bool batchable_ = false;
};

}  // namespace dcft
