// Differential tests for the identity sweep (verify/batch_kernel), the
// per-state frontier expander, and the out-of-core spill mode.
//
// The sweep and the expander promise the contract the CSR explorer does:
// the graph they produce — node numbering, edge order, fault rows,
// witness paths — is bit-for-bit the reference exploration
// (verify/reference), and an out-of-core build (ExploreOptions::spill) is
// bit-for-bit identical to an in-core one, for every thread count. These
// tests pin that contract on workloads chosen to hit the awkward block
// geometry: spaces that are not a multiple of the 64-state guard word
// (tail blocks), spaces that are an exact multiple (no tail), multi-level
// BFS where every level ends in a partial block, and rings large enough
// that the spill path seals and releases multiple CSR segments.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "apps/token_ring.hpp"
#include "obs/telemetry.hpp"
#include "fuzz/oracle.hpp"
#include "verify/reference.hpp"
#include "verify/transition_system.hpp"
#include "partial_span.hpp"

namespace dcft {
namespace {

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

/// Asserts `ts` is the reference exploration: numbering, roots, parents,
/// program edges (order included), regenerated fault rows, witness paths
/// and predecessor rows.
void expect_reference(const TransitionSystem& ts,
                      const reference::RefTransitionSystem& ref) {
    ASSERT_EQ(ts.num_nodes(), ref.num_nodes());
    ASSERT_EQ(ts.initial_nodes(), ref.initial_nodes());
    ASSERT_EQ(ts.num_program_edges(), ref.num_program_edges());
    const auto& preds = ts.predecessors(/*include_faults=*/true);
    const auto& rpreds = ref.predecessors(/*include_faults=*/true);
    const auto same = [](const TransitionSystem::Edge& x,
                         const reference::RefEdge& y) {
        return x.action == y.action && x.to == y.to;
    };
    std::vector<TransitionSystem::Edge> fault;
    std::uint64_t fault_edges = 0;
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        ASSERT_EQ(ts.state_of(n), ref.state_of(n)) << "node " << n;
        // Identity graphs keep no parent array; those compared here start
        // from the whole space, where every node is its own root.
        ASSERT_EQ(ts.identity_interner() ? n : ts.raw_parent()[n],
                  ref.parents()[n])
            << "node " << n;
        const auto prog = ts.program_edges(n);
        const auto& rprog = ref.program_edges(n);
        ASSERT_TRUE(std::equal(prog.begin(), prog.end(), rprog.begin(),
                               rprog.end(), same))
            << "program edges of node " << n;
        ts.fault_edges(n, fault);
        const auto& rfault = ref.fault_edges(n);
        ASSERT_TRUE(std::equal(fault.begin(), fault.end(), rfault.begin(),
                               rfault.end(), same))
            << "fault edges of node " << n;
        fault_edges += rfault.size();
        ASSERT_EQ(ts.witness_path(n), ref.witness_path(n)) << "node " << n;
        const auto row = preds[n];
        ASSERT_TRUE(std::equal(row.begin(), row.end(), rpreds[n].begin(),
                               rpreds[n].end()))
            << "predecessors of node " << n;
    }
    EXPECT_EQ(ts.num_fault_edges(), fault_edges);
}

/// Value of the counter at `path` (0 when never recorded).
std::uint64_t counter_value(const std::string& path) {
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == path) return c.value;
    return 0;
}

/// States the identity sweep covered in the last exploration.
std::uint64_t swept_states() {
    return counter_value("verify/explore/sweep_states");
}

/// Explores `program` (with `faults` when non-null) from `init` at 1 and
/// 4 threads and checks each build against the reference. Returns the
/// states the identity sweep covered, which must not depend on the thread
/// count.
std::uint64_t check_reference(const Program& program,
                              const FaultClass* faults,
                              const Predicate& init) {
    const reference::RefTransitionSystem ref(program, faults, init);
    obs::set_enabled(true);
    std::vector<std::uint64_t> swept;
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        obs::Registry::global().reset();
        const TransitionSystem ts(program, faults, init, threads);
        swept.push_back(swept_states());
        expect_reference(ts, ref);
    }
    obs::set_enabled(false);
    EXPECT_EQ(swept[0], swept[1]);
    return swept[0];
}

// ---------------------------------------------------------------------------
// Identity sweep and frontier expansion vs the reference
// ---------------------------------------------------------------------------

// 3^5 = 243 states: 243 % 64 = 51, so the identity sweep ends in a
// partial guard word, and 243 % 16 = 3 leaves a sub-SIMD tail. The sweep
// must reproduce the reference, with and without faults.
TEST(IdentitySweepTest, TailBlockMatchesReference) {
    auto sys = apps::make_token_ring(5, 3);
    for (const bool with_faults : {false, true}) {
        SCOPED_TRACE(with_faults ? "with faults" : "program only");
        EXPECT_EQ(check_reference(sys.ring,
                                  with_faults ? &sys.corrupt_any : nullptr,
                                  Predicate::top()),
                  243u);
    }
}

// 4^4 = 256 states = exactly four 64-state guard words: no tail block at
// all, so the full-word popcount/prefix path carries every state.
TEST(IdentitySweepTest, ExactBlockMultipleMatchesReference) {
    auto sys = apps::make_token_ring(4, 4);
    EXPECT_EQ(check_reference(sys.ring, &sys.corrupt_any, Predicate::top()),
              256u);
}

// 6^8 = 1,679,616 states x 8 actions: the one identity level reaches the
// 2^23 work floor, so at 4 threads the sweep runs as two passes over one
// chunk per worker, in core and spilled. Both must be the 1-thread build
// bit for bit, and the level counts as chunked at every thread count.
TEST(IdentitySweepTest, ChunkedSweepAboveWorkFloorMatchesSerial) {
    auto sys = apps::make_token_ring(8, 6);
    obs::set_enabled(true);
    obs::Registry::global().reset();
    const TransitionSystem serial(sys.ring, nullptr, Predicate::top(), 1);
    ASSERT_EQ(serial.num_nodes(), 1'679'616u);
    EXPECT_EQ(counter_value("verify/explore/levels_below_threshold"), 0u);
    for (const bool spill : {false, true}) {
        SCOPED_TRACE(spill ? "spilled" : "in core");
        obs::Registry::global().reset();
        ExploreOptions opts;
        opts.n_threads = 4;
        opts.spill = spill;
        const TransitionSystem chunked(sys.ring, nullptr, Predicate::top(),
                                       opts);
        std::uint64_t chunk_calls = 0;
        for (const auto& t : obs::Registry::global().timers())
            if (t.path == "verify/explore/sweep/chunk") chunk_calls = t.calls;
        EXPECT_EQ(chunk_calls, 4u);
        EXPECT_EQ(counter_value("verify/explore/levels_below_threshold"), 0u);
        // The raw arrays are the whole graph (program-only, so no fault
        // rows); comparing them skips the predecessor CSRs of 10M edges.
        EXPECT_TRUE(std::ranges::equal(chunked.raw_states(),
                                       serial.raw_states()));
        EXPECT_TRUE(std::ranges::equal(chunked.raw_parent(),
                                       serial.raw_parent()));
        EXPECT_TRUE(std::ranges::equal(chunked.raw_prog_offsets(),
                                       serial.raw_prog_offsets()));
        EXPECT_TRUE(std::ranges::equal(chunked.raw_prog_edges(),
                                       serial.raw_prog_edges()));
    }
    obs::set_enabled(false);
}

// Multi-level BFS from a single root: every level has a different size
// (almost all % 64 != 0), so the serial levels' 64-state staging blocks
// end in a partial block, and no sweep runs (every counter but the last
// corruptible: the ring's own corrupt-any would make the span full).
TEST(FrontierExpansionTest, SingleRootMatchesReference) {
    auto sys = apps::make_token_ring(5, 3);
    const StateIndex root = sys.initial_state();
    const Predicate init("root", [root](const StateSpace&, StateIndex s) {
        return s == root;
    });
    const FaultClass partial = test::corrupt_all_but_last(sys);
    EXPECT_EQ(check_reference(sys.ring, &partial, init), 0u);
}

// The same root under the ring's own corrupt-any: a full fault span, so
// one identity sweep covers all 243 states, and the graph is the
// reference's by state — canonical order, rows and witness paths through
// the replay — at 1 and 4 threads.
TEST(IdentitySweepTest, FullSpanFromOneRootMatchesReferenceByState) {
    auto sys = apps::make_token_ring(5, 3);
    const StateIndex root = sys.initial_state();
    const Predicate init("root", [root](const StateSpace&, StateIndex s) {
        return s == root;
    });
    const reference::RefTransitionSystem ref(sys.ring, &sys.corrupt_any,
                                             init);
    obs::set_enabled(true);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        obs::Registry::global().reset();
        const TransitionSystem ts(sys.ring, &sys.corrupt_any, init, threads);
        EXPECT_EQ(swept_states(), 243u);
        ASSERT_EQ(ts.initial_nodes(), std::vector<NodeId>{NodeId(root)});
        EXPECT_EQ(fuzz::first_identity_difference(ref, ts), std::nullopt);
    }
    obs::set_enabled(false);
}

// ---------------------------------------------------------------------------
// Out-of-core (spill) vs in-core differentials
// ---------------------------------------------------------------------------

// The spilled build must reproduce the in-core graph bit-for-bit at every
// thread count. Reading edges and predecessors back after the build is the
// "reload" half: sealed levels were advised out of RSS and must page back
// in from the spill file intact.
TEST(SpillIdentityTest, SpillAndReloadAcrossThreadCounts) {
    auto sys = apps::make_token_ring(6, 6);  // 46656 states
    const TransitionSystem in_core(sys.ring, &sys.corrupt_any,
                                   Predicate::top(), 1);
    // Under an ambient DCFT_SPILL=1 (the spill ablation run) the baseline
    // build spills too; the identity check below still holds.
    if (std::getenv("DCFT_SPILL") == nullptr) EXPECT_FALSE(in_core.spilled());
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
    const FaultClass partial = test::corrupt_all_but_last(sys);
    const TransitionSystem in_core(sys.ring, &partial, init, 1);
    ASSERT_FALSE(in_core.identity_interner());
    for (const unsigned threads : {1u, 2u}) {
        ExploreOptions opts;
        opts.n_threads = threads;
        opts.spill = true;
        const TransitionSystem spilled(sys.ring, &partial, init, opts);
        EXPECT_TRUE(spilled.spilled());
        expect_identical(in_core, spilled);
    }
}

// ≥280k-state ring (5^8 = 390625): the out-of-core build's CSR must still
// be bit-identical to the in-core graph at 1 and 2 threads.
TEST(SpillIdentityTest, LargeRingOutOfCoreBitIdentical) {
    auto sys = apps::make_token_ring(8, 5);
    const TransitionSystem in_core(sys.ring, nullptr, Predicate::top(), 1);
    ASSERT_EQ(in_core.num_nodes(), 390625u);
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
