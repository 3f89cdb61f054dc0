// Differential tests for the batch exploration layer (verify/batch_kernel)
// and the out-of-core spill mode.
//
// The batch kernel promises the same contract the CSR explorer does: the
// graph it produces — node numbering, edge order, witness paths — is
// bit-for-bit identical to the scalar per-state loop (DCFT_NO_BATCH=1),
// and an out-of-core build (ExploreOptions::spill) is bit-for-bit
// identical to an in-core one, for every thread count. These tests pin
// that contract on workloads chosen to hit the awkward block geometry:
// frontiers that are not a multiple of the 64-state guard word (tail
// blocks), frontiers that are an exact multiple (no tail), multi-level
// BFS where every level ends in a partial block, and rings large enough
// that the spill path seals and releases multiple CSR segments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "apps/token_ring.hpp"
#include "verify/transition_system.hpp"

namespace dcft {
namespace {

/// Sets an environment variable for the current scope and restores the
/// previous value (or unsets) on destruction. The explorer re-reads its
/// DCFT_* switches on every build, so scoping a guard around one
/// construction is enough to pin that build's configuration.
class EnvGuard {
public:
    EnvGuard(const char* name, const char* value) : name_(name) {
        if (const char* prev = std::getenv(name)) {
            had_prev_ = true;
            prev_ = prev;
        }
        ::setenv(name, value, 1);
    }
    ~EnvGuard() {
        if (had_prev_)
            ::setenv(name_, prev_.c_str(), 1);
        else
            ::unsetenv(name_);
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

private:
    const char* name_;
    bool had_prev_ = false;
    std::string prev_;
};

/// Asserts two transition systems are bit-for-bit identical: numbering,
/// roots, edge lists (order included), witness paths, predecessor rows.
/// `witness_stride` samples the per-node path/predecessor checks on large
/// graphs; the structural comparison is always exhaustive.
void expect_identical(const TransitionSystem& a, const TransitionSystem& b,
                      NodeId witness_stride = 1) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    ASSERT_EQ(a.initial_nodes(), b.initial_nodes());
    ASSERT_EQ(a.num_program_edges(), b.num_program_edges());
    ASSERT_EQ(a.num_fault_edges(), b.num_fault_edges());
    const auto& pa = a.predecessors(/*include_faults=*/true);
    const auto& pb = b.predecessors(/*include_faults=*/true);
    ASSERT_EQ(pa.num_items(), pb.num_items());
    std::vector<TransitionSystem::Edge> fault_a, fault_b;
    for (NodeId n = 0; n < a.num_nodes(); ++n) {
        ASSERT_EQ(a.state_of(n), b.state_of(n)) << "node " << n;
        const auto prog_a = a.program_edges(n);
        const auto prog_b = b.program_edges(n);
        ASSERT_EQ(prog_a.size(), prog_b.size()) << "node " << n;
        ASSERT_TRUE(std::equal(prog_a.begin(), prog_a.end(), prog_b.begin()))
            << "program edges of node " << n;
        a.fault_edges(n, fault_a);
        b.fault_edges(n, fault_b);
        ASSERT_EQ(fault_a, fault_b) << "fault edges of node " << n;
        if (n % witness_stride == 0) {
            ASSERT_EQ(a.witness_path(n), b.witness_path(n)) << "node " << n;
            const auto preds_a = pa[n];
            const auto preds_b = pb[n];
            ASSERT_TRUE(
                std::equal(preds_a.begin(), preds_a.end(), preds_b.begin(),
                           preds_b.end()))
                << "predecessors of node " << n;
        }
    }
}

// ---------------------------------------------------------------------------
// Batched vs scalar (DCFT_NO_BATCH=1) differentials
// ---------------------------------------------------------------------------

// 3^5 = 243 states: 243 % 64 = 51, so the identity sweep ends in a
// partial guard word, and 243 % 16 = 3 leaves a sub-SIMD tail. The batch
// and scalar builds must agree bit-for-bit, with and without faults.
TEST(BatchVsScalarTest, TailBlockIdentitySweep) {
    auto sys = apps::make_token_ring(5, 3);
    for (const bool with_faults : {false, true}) {
        FaultClass* faults = with_faults ? &sys.corrupt_any : nullptr;
        const TransitionSystem batched(sys.ring, faults, Predicate::top(),
                                       /*n_threads=*/1);
        EnvGuard no_batch("DCFT_NO_BATCH", "1");
        const TransitionSystem scalar(sys.ring, faults, Predicate::top(), 1);
        expect_identical(batched, scalar);
    }
}

// 4^4 = 256 states = exactly four 64-state guard words: no tail block at
// all, so the full-word popcount/prefix path carries every state.
TEST(BatchVsScalarTest, ExactBlockMultipleIdentitySweep) {
    auto sys = apps::make_token_ring(4, 4);
    const TransitionSystem batched(sys.ring, &sys.corrupt_any,
                                   Predicate::top(), 1);
    EnvGuard no_batch("DCFT_NO_BATCH", "1");
    const TransitionSystem scalar(sys.ring, &sys.corrupt_any,
                                  Predicate::top(), 1);
    expect_identical(batched, scalar);
}

// Multi-level BFS from a single root: every level has a different size
// (almost all % 64 != 0), exercising the batched expand_frontier path and
// its per-level tail blocks rather than the one-level identity sweep.
TEST(BatchVsScalarTest, FrontierExpansionFromSingleRoot) {
    auto sys = apps::make_token_ring(5, 3);
    const StateIndex root = sys.initial_state();
    const Predicate init("root", [root](const StateSpace&, StateIndex s) {
        return s == root;
    });
    const TransitionSystem batched(sys.ring, &sys.corrupt_any, init, 1);
    EnvGuard no_batch("DCFT_NO_BATCH", "1");
    const TransitionSystem scalar(sys.ring, &sys.corrupt_any, init, 1);
    expect_identical(batched, scalar);
}

// ---------------------------------------------------------------------------
// Out-of-core (spill) vs in-core differentials
// ---------------------------------------------------------------------------

// The spilled build must reproduce the in-core graph bit-for-bit at every
// thread count, including thread counts that engage the parallel
// two-pass merge (DCFT_PARALLEL_WORK_MIN=1 forces it far below the
// production work threshold). Reading edges and predecessors back after
// the build is the "reload" half: sealed levels were advised out of RSS
// and must page back in from the spill file intact.
TEST(SpillIdentityTest, SpillAndReloadAcrossThreadCounts) {
    auto sys = apps::make_token_ring(6, 6);  // 46656 states
    const TransitionSystem in_core(sys.ring, &sys.corrupt_any,
                                   Predicate::top(), 1);
    // Under an ambient DCFT_SPILL=1 (the spill ablation run) the baseline
    // build spills too; the identity check below still holds.
    if (std::getenv("DCFT_SPILL") == nullptr) EXPECT_FALSE(in_core.spilled());
    EnvGuard force_parallel("DCFT_PARALLEL_WORK_MIN", "1");
    for (const unsigned threads : {1u, 2u, 8u}) {
        ExploreOptions opts;
        opts.n_threads = threads;
        opts.spill = true;
        const TransitionSystem spilled(sys.ring, &sys.corrupt_any,
                                       Predicate::top(), opts);
        EXPECT_TRUE(spilled.spilled()) << threads << " threads";
        EXPECT_GT(spilled.spill_bytes(), 0u) << threads << " threads";
        expect_identical(in_core, spilled, /*witness_stride=*/17);
    }
}

// Same contract on a multi-level frontier exploration (non-identity
// interner, per-level sealing) instead of the one-level identity sweep.
TEST(SpillIdentityTest, SpillFrontierExplorationMatchesInCore) {
    auto sys = apps::make_token_ring(5, 4);  // 1024 reachable via faults
    const StateIndex root = sys.initial_state();
    const Predicate init("root", [root](const StateSpace&, StateIndex s) {
        return s == root;
    });
    const TransitionSystem in_core(sys.ring, &sys.corrupt_any, init, 1);
    for (const unsigned threads : {1u, 2u}) {
        ExploreOptions opts;
        opts.n_threads = threads;
        opts.spill = true;
        const TransitionSystem spilled(sys.ring, &sys.corrupt_any, init,
                                       opts);
        EXPECT_TRUE(spilled.spilled());
        expect_identical(in_core, spilled);
    }
}

// ≥280k-state ring (5^8 = 390625): the out-of-core build seals and
// releases multiple sweep segments and its CSR must still be bit-identical
// to the in-core graph, serial and parallel.
TEST(SpillIdentityTest, LargeRingOutOfCoreBitIdentical) {
    auto sys = apps::make_token_ring(8, 5);
    const TransitionSystem in_core(sys.ring, nullptr, Predicate::top(), 1);
    ASSERT_EQ(in_core.num_nodes(), 390625u);
    EnvGuard force_parallel("DCFT_PARALLEL_WORK_MIN", "1");
    for (const unsigned threads : {1u, 2u}) {
        ExploreOptions opts;
        opts.n_threads = threads;
        opts.spill = true;
        const TransitionSystem spilled(sys.ring, nullptr, Predicate::top(),
                                       opts);
        EXPECT_TRUE(spilled.spilled());
        EXPECT_GT(spilled.spill_bytes(), 0u);
        expect_identical(in_core, spilled, /*witness_stride=*/9973);
    }
}

}  // namespace
}  // namespace dcft
