// The identity sweep: a block-compiled kernel for explorations whose
// initial set covers the whole space.
//
// There node id == state index and the one BFS level is every state in
// ascending order, so nothing needs interning and every output position
// is known in advance. BatchKernel specializes a CompiledProgram once per
// such exploration into flat per-action records and amortizes the
// per-state costs over 64-state blocks:
//
//   * guard words are loaded once per 64-state block (one L1 load per
//     action per 64 states instead of one bit probe per state) and folded
//     into a per-state action mask walked with ctz — emission order stays
//     actions-in-declaration-order per state, the CSR contract;
//   * an *odometer* keeps every variable digit incrementally — amortized
//     O(1) per state, no divides, no magic multiplies — and successors
//     become pure stride-delta adds (sweep());
//   * per-action successor counts are exact for every lowered effect
//     kind, so count_edges() sizes CSR slices precisely from guard-bitset
//     popcounts (fault edges are only counted: every target is already a
//     node) and the sweep writes with bump pointers, no reallocation.
//
// A program is batchable when every action (program and fault) has a
// fully compiled guard (whole-space bitset available), an effect form the
// kernel lowers (anything but kGeneric, kSetAny and kParallel), the space
// is on the CompiledSpace fast path, and each action set fits a 64-bit
// mask. Every other exploration (a partial initial set, or a program the
// sweep does not lower) expands state by state through
// CompiledActionSet::expand; verify/reference is the oracle of both.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "verify/action_kernel.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

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

    /// Specializes `cp` against the guard bitsets the exploration already
    /// collected (nullptr entries = guard not fully compiled). The spans
    /// must outlive the kernel; bitsets must already be built.
    BatchKernel(const CompiledProgram& cp,
                std::span<const BitVec* const> prog_gbits,
                std::span<const BitVec* const> fault_gbits);

    /// Whether sweep()/count_edges() may be used.
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
        std::int64_t stride = 0;   ///< stride(var)
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

    const CompiledSpace& cs_;
    std::vector<Spec> prog_;
    std::vector<Spec> fault_;
    std::vector<Value> doms_;  ///< per-variable domain (odometer radices)
    bool batchable_ = false;
};

}  // namespace dcft
