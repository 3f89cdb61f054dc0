// Large-instance exploration engine tests (DESIGN.md §7, "Large-instance
// exploration"): sparse-vs-direct interner graph identity, and
// first_bad_node witnesses and the verdicts built on them (check_unreachable,
// fail-safe tolerance, refines_spec) agreeing across thread counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "apps/token_ring.hpp"
#include "obs/telemetry.hpp"
#include "spec/safety_spec.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/reachability.hpp"
#include "verify/reference.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "verify/transition_system.hpp"
#include "partial_span.hpp"

namespace dcft {
namespace {

/// Scoped environment override restoring the previous value on exit.
class EnvVarGuard {
public:
    EnvVarGuard(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) {
            had_ = true;
            old_ = old;
        }
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvVarGuard() {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }
    EnvVarGuard(const EnvVarGuard&) = delete;
    EnvVarGuard& operator=(const EnvVarGuard&) = delete;

private:
    std::string name_;
    bool had_ = false;
    std::string old_;
};

/// Full structural equality: numbering, roots, edges, witnesses.
void expect_identical(const TransitionSystem& a, const TransitionSystem& b) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    ASSERT_EQ(a.initial_nodes(), b.initial_nodes());
    ASSERT_EQ(a.num_program_edges(), b.num_program_edges());
    ASSERT_EQ(a.num_fault_edges(), b.num_fault_edges());
    std::vector<TransitionSystem::Edge> fa, fb;
    for (NodeId n = 0; n < a.num_nodes(); ++n) {
        ASSERT_EQ(a.state_of(n), b.state_of(n)) << "node " << n;
        const auto pa = a.program_edges(n);
        const auto pb = b.program_edges(n);
        ASSERT_EQ(pa.size(), pb.size()) << "node " << n;
        for (std::size_t i = 0; i < pa.size(); ++i) {
            ASSERT_EQ(pa[i].action, pb[i].action) << "node " << n;
            ASSERT_EQ(pa[i].to, pb[i].to) << "node " << n;
        }
        a.fault_edges(n, fa);
        b.fault_edges(n, fb);
        ASSERT_EQ(fa, fb) << "node " << n;
    }
    // Witness paths (BFS parents) agree on a spread of nodes.
    const NodeId last = static_cast<NodeId>(a.num_nodes() - 1);
    for (const NodeId n : {NodeId{0}, last / 3, last / 2, last}) {
        ASSERT_EQ(a.witness_path(n), b.witness_path(n)) << "node " << n;
    }
}

// ---------------------------------------------------------------------------
// Sparse interner vs direct map: bit-identical graphs on a >= 10^5-state
// system (token ring n=7, K=6: 279936 states, explored from the legitimate
// set with every counter but the last corruptible, so the interner — not
// the identity sweep of a full fault span — is used).
// ---------------------------------------------------------------------------

/// Value of a telemetry counter (0 when never recorded).
std::uint64_t counter_value(const std::string& path) {
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == path) return c.value;
    return 0;
}

TEST(SparseInternerTest, SparseAndDirectMappedGraphsAreIdentical) {
    const auto sys = apps::make_token_ring(7, 6);
    ASSERT_GE(sys.space->num_states(), 100000u);
    const FaultClass partial = test::corrupt_all_but_last(sys);
    obs::set_enabled(true);
    obs::Registry::global().reset();

    const EnvVarGuard unforced("DCFT_DIRECT_MAP_MAX", nullptr);
    const TransitionSystem direct(sys.ring, &partial, sys.legitimate,
                                  /*n_threads=*/2);
    EXPECT_EQ(counter_value("verify/interner/direct"), 1u);

    // Force the sparse table at every size.
    const EnvVarGuard force("DCFT_DIRECT_MAP_MAX", "1024");
    for (const unsigned threads : {1u, 2u, 8u}) {
        obs::Registry::global().reset();
        const TransitionSystem sparse(sys.ring, &partial, sys.legitimate,
                                      threads);
        EXPECT_EQ(counter_value("verify/interner/sparse"), 1u);
        expect_identical(direct, sparse);
        // Reverse lookups agree tier-to-tier.
        for (const NodeId n :
             {NodeId{0}, NodeId{17}, static_cast<NodeId>(sparse.num_nodes() - 1)}) {
            const StateIndex s = sparse.state_of(n);
            ASSERT_TRUE(sparse.has_state(s));
            ASSERT_EQ(sparse.node_of(s), n);
            ASSERT_EQ(direct.node_of(s), n);
        }
    }
    obs::set_enabled(false);
}

// ---------------------------------------------------------------------------
// First violations: first_bad_node is the canonically least violating node,
// the same node with the same witness at every thread count, and the
// verdicts built on it report exactly that node.
// ---------------------------------------------------------------------------

TEST(FirstBadNodeTest, SameNodeAndWitnessAtEveryThreadCount) {
    const auto sys = apps::make_token_ring(5, 5);  // 3125 states
    const Predicate bad = sys.spec.safety().bad_states();
    const TransitionSystem serial(sys.ring, &sys.corrupt_any, sys.legitimate,
                                  /*n_threads=*/1);
    const NodeId expect = serial.first_bad_node(bad);
    ASSERT_NE(expect, TransitionSystem::kNoNode);

    for (const unsigned threads : {2u, 8u}) {
        const TransitionSystem ts(sys.ring, &sys.corrupt_any, sys.legitimate,
                                  threads);
        ASSERT_EQ(ts.first_bad_node(bad), expect);
        ASSERT_EQ(ts.witness_path(expect), serial.witness_path(expect));
        ASSERT_EQ(ts.format_witness(expect), serial.format_witness(expect));
    }

    // The ring's corrupt-any spans the whole space: an identity graph,
    // whose first bad node (found by the canonical replay) is the
    // reference BFS's first bad node, with the same witness.
    ASSERT_TRUE(serial.identity_interner());
    const reference::RefTransitionSystem ref(sys.ring, &sys.corrupt_any,
                                             sys.legitimate);
    NodeId ref_first = 0;
    while (!bad.eval(*sys.space, ref.state_of(ref_first))) ++ref_first;
    EXPECT_EQ(serial.state_of(expect), ref.state_of(ref_first));
    EXPECT_EQ(serial.witness_path(expect), ref.witness_path(ref_first));
    EXPECT_EQ(serial.format_witness(expect), ref.format_witness(ref_first));

    const Predicate never("never-bad",
                          [](const StateSpace&, StateIndex) { return false; });
    ASSERT_EQ(serial.first_bad_node(never), TransitionSystem::kNoNode);
}

TEST(FirstBadNodeTest, CheckUnreachableReportsTheFirstBadNode) {
    const auto sys = apps::make_token_ring(5, 5);
    const Predicate bad = sys.spec.safety().bad_states();

    // Reference: serial exploration + canonical scan.
    const TransitionSystem full(sys.ring, &sys.corrupt_any, sys.legitimate,
                                1u);
    const NodeId b = full.first_bad_node(bad);
    ASSERT_NE(b, TransitionSystem::kNoNode);

    for (const char* threads : {"1", "2", "8"}) {
        const EnvVarGuard tg("DCFT_VERIFIER_THREADS", threads);
        ExplorationCache::global().clear();
        const CheckResult r = check_unreachable(sys.ring, &sys.corrupt_any,
                                                sys.legitimate, bad);
        ASSERT_FALSE(r.ok);
        EXPECT_EQ(r.reason, "reachable: state " +
                                sys.space->format(full.state_of(b)) +
                                " satisfies " + bad.name() +
                                "; witness: " + full.format_witness(b));
        ASSERT_EQ(r.witness.size(), full.witness_trace(b).size());
        EXPECT_EQ(r.witness, full.witness_trace(b));
    }
    ExplorationCache::global().clear();

    // Unreachable case: nothing outside the fault span.
    const Predicate none("unreachable-bad", [](const StateSpace&,
                                               StateIndex) { return false; });
    EXPECT_TRUE(
        check_unreachable(sys.ring, &sys.corrupt_any, sys.legitimate, none)
            .ok);
    ExplorationCache::global().clear();
}

TEST(FirstBadNodeTest, FailsafeCounterexampleIsThreadCountInvariant) {
    const auto sys = apps::make_token_ring(5, 5);
    ASSERT_TRUE(sys.spec.safety().state_only());

    ExplorationCache::global().clear();
    const ToleranceReport serial = [&] {
        const EnvVarGuard tg("DCFT_VERIFIER_THREADS", "1");
        return check_tolerance(sys.ring, sys.corrupt_any, sys.spec,
                               sys.legitimate, Tolerance::FailSafe);
    }();
    // The corrupt-any faults break mutual exclusion.
    ASSERT_FALSE(serial.ok());
    for (const char* threads : {"2", "8"}) {
        const EnvVarGuard tg("DCFT_VERIFIER_THREADS", threads);
        ExplorationCache::global().clear();
        const ToleranceReport r = check_tolerance(
            sys.ring, sys.corrupt_any, sys.spec, sys.legitimate,
            Tolerance::FailSafe);
        ASSERT_FALSE(r.ok()) << "threads=" << threads;
        EXPECT_EQ(r.in_absence.ok, serial.in_absence.ok);
        EXPECT_EQ(r.in_presence.reason, serial.in_presence.reason);
        EXPECT_EQ(r.in_presence.witness, serial.in_presence.witness);
        EXPECT_EQ(r.span_size, serial.span_size);
    }
    ExplorationCache::global().clear();
}

TEST(FirstBadNodeTest, RefinesFailsafeWeakeningWithAndWithoutFaults) {
    const auto sys = apps::make_token_ring(4, 4);
    const ProblemSpec failsafe = sys.spec.failsafe_weakening();
    ASSERT_TRUE(failsafe.safety().state_only());
    ASSERT_TRUE(failsafe.liveness().obligations().empty());

    // Failing query (faults escape the safety part of SPEC_token).
    ExplorationCache::global().clear();
    const CheckResult a =
        refines_spec(sys.ring, failsafe, sys.legitimate, {&sys.corrupt_any});
    ASSERT_FALSE(a.ok);
    ASSERT_FALSE(a.witness.empty());

    // Passing query: program-only refinement from the legitimate set.
    EXPECT_TRUE(refines_spec(sys.ring, failsafe, sys.legitimate, {}).ok);
    ExplorationCache::global().clear();
}

}  // namespace
}  // namespace dcft
