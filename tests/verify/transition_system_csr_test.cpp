// Differential tests for the CSR transition system against the retained
// reference (seed-era) implementation in verify/reference.hpp.
//
// The optimized explorer promises *bit-for-bit* equivalence with the
// sequential FIFO BFS: same node numbering, same edge lists (order
// included), same BFS parents and witness paths — for every thread count.
// These tests pin that contract on randomized guarded-command programs and
// on app systems large enough to exercise the parallel chunked path, and
// additionally cross-check the verdict pipeline (leads-to, tolerance
// grades) against the reference pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "apps/byzantine.hpp"
#include "apps/catalog.hpp"
#include "apps/token_ring.hpp"
#include "common/rng.hpp"
#include "obs/telemetry.hpp"
#include "verify/fairness.hpp"
#include "verify/reachability.hpp"
#include "verify/reference.hpp"
#include "verify/state_set.hpp"
#include "verify/tolerance_checker.hpp"
#include "verify/transition_system.hpp"

namespace dcft {
namespace {

struct RandomSystem {
    std::shared_ptr<const StateSpace> space;
    Program program;
    FaultClass faults;
};

/// Random guarded-command system over three small variables (same family
/// as random_program_test.cpp).
RandomSystem random_system(std::uint64_t seed) {
    Rng rng(seed);
    auto space = make_space(
        {Variable{"a", 4, {}}, Variable{"b", 3, {}}, Variable{"c", 3, {}}});
    auto random_action = [&](const std::string& name) {
        const VarId gvar = rng.below(3);
        const Value gval =
            static_cast<Value>(rng.below(static_cast<std::uint64_t>(
                space->variable(gvar).domain_size)));
        const VarId tvar = rng.below(3);
        const Value tval =
            static_cast<Value>(rng.below(static_cast<std::uint64_t>(
                space->variable(tvar).domain_size)));
        const Predicate guard(
            "g", [gvar, gval](const StateSpace& sp, StateIndex s) {
                return sp.get(s, gvar) == gval;
            });
        return Action::assign_const(*space, name, guard,
                                    space->variable(tvar).name, tval);
    };

    Program p(space, "random");
    const std::size_t num_actions = 2 + rng.below(4);
    for (std::size_t i = 0; i < num_actions; ++i)
        p.add_action(random_action("ac" + std::to_string(i)));

    FaultClass f(space, "F");
    f.add_action(random_action("fault0"));
    if (rng.below(2) == 0) f.add_action(random_action("fault1"));

    return RandomSystem{space, std::move(p), std::move(f)};
}

/// Asserts the CSR system and the reference system are identical:
/// numbering, roots, parents, edge lists, witnesses.
void expect_same_system(const TransitionSystem& ts,
                        const reference::RefTransitionSystem& ref) {
    ASSERT_EQ(ts.num_nodes(), ref.num_nodes());
    ASSERT_EQ(ts.initial_nodes(), ref.initial_nodes());
    ASSERT_EQ(ts.num_program_edges(), ref.num_program_edges());
    std::vector<TransitionSystem::Edge> fault;
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        ASSERT_EQ(ts.state_of(n), ref.state_of(n)) << "node " << n;
        const auto prog = ts.program_edges(n);
        const auto& rprog = ref.program_edges(n);
        ASSERT_EQ(prog.size(), rprog.size()) << "node " << n;
        for (std::size_t i = 0; i < prog.size(); ++i) {
            EXPECT_EQ(prog[i].action, rprog[i].action);
            EXPECT_EQ(prog[i].to, rprog[i].to);
        }
        ts.fault_edges(n, fault);
        const auto& rfault = ref.fault_edges(n);
        ASSERT_EQ(fault.size(), rfault.size()) << "node " << n;
        for (std::size_t i = 0; i < fault.size(); ++i) {
            EXPECT_EQ(fault[i].action, rfault[i].action);
            EXPECT_EQ(fault[i].to, rfault[i].to);
        }
        EXPECT_EQ(ts.terminal(n), ref.terminal(n)) << "node " << n;
        EXPECT_EQ(ts.witness_path(n), ref.witness_path(n)) << "node " << n;
    }
}

class CsrDifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrDifferentialTest, MatchesReferenceProgramOnly) {
    RandomSystem sys = random_system(GetParam());
    const Predicate init = Predicate::var_eq(*sys.space, "a", 0);
    const TransitionSystem ts(sys.program, nullptr, init, /*n_threads=*/1);
    const reference::RefTransitionSystem ref(sys.program, nullptr, init);
    expect_same_system(ts, ref);
}

TEST_P(CsrDifferentialTest, MatchesReferenceWithFaults) {
    RandomSystem sys = random_system(GetParam());
    const Predicate init = Predicate::var_eq(*sys.space, "b", 1);
    const TransitionSystem ts(sys.program, &sys.faults, init, 1);
    const reference::RefTransitionSystem ref(sys.program, &sys.faults, init);
    expect_same_system(ts, ref);

    // state_bits() marks exactly the node states — the fault span of init.
    const BitVec bits = ts.state_bits();
    EXPECT_EQ(bits.popcount(), ts.num_nodes());
    for (NodeId n = 0; n < ts.num_nodes(); ++n)
        EXPECT_TRUE(bits.test(ts.state_of(n)));
    const StateSet reach =
        reachable_states(sys.program, &sys.faults, init);
    EXPECT_EQ(StateSet(ts.state_bits()), reach);
}

TEST_P(CsrDifferentialTest, ThreadCountDoesNotChangeTheSystem) {
    RandomSystem sys = random_system(GetParam());
    const Predicate init = Predicate::var_eq(*sys.space, "c", 0);
    const TransitionSystem t1(sys.program, &sys.faults, init, 1);
    const TransitionSystem t8(sys.program, &sys.faults, init, 8);
    ASSERT_EQ(t1.num_nodes(), t8.num_nodes());
    ASSERT_EQ(t1.initial_nodes(), t8.initial_nodes());
    std::vector<TransitionSystem::Edge> f1, f8;
    for (NodeId n = 0; n < t1.num_nodes(); ++n) {
        ASSERT_EQ(t1.state_of(n), t8.state_of(n));
        const auto p1 = t1.program_edges(n);
        const auto p8 = t8.program_edges(n);
        ASSERT_TRUE(std::equal(p1.begin(), p1.end(), p8.begin(), p8.end()));
        t1.fault_edges(n, f1);
        t8.fault_edges(n, f8);
        ASSERT_EQ(f1, f8);
        ASSERT_EQ(t1.witness_path(n), t8.witness_path(n));
    }
}

TEST_P(CsrDifferentialTest, LeadsToAgreesWithReference) {
    RandomSystem sys = random_system(GetParam());
    const Predicate from = Predicate::var_eq(*sys.space, "a", 0);
    const Predicate to = Predicate::var_eq(*sys.space, "b", 2);
    const TransitionSystem ts(sys.program, &sys.faults, Predicate::top(), 1);
    const reference::RefTransitionSystem ref(sys.program, &sys.faults,
                                             Predicate::top());
    for (const bool with_faults : {false, true}) {
        const CheckResult a = check_leads_to(ts, from, to, with_faults);
        const CheckResult b =
            reference::ref_check_leads_to(ref, from, to, with_faults);
        EXPECT_EQ(a.ok, b.ok) << "with_faults=" << with_faults;
        EXPECT_EQ(a.reason, b.reason) << "with_faults=" << with_faults;
    }
}

TEST_P(CsrDifferentialTest, ToleranceVerdictAgreesWithReference) {
    RandomSystem sys = random_system(GetParam());
    // A closed invariant: the program-reachable closure of a seed set.
    auto reach = std::make_shared<StateSet>(reachable_states(
        sys.program, nullptr, Predicate::var_eq(*sys.space, "a", 1)));
    const Predicate inv = predicate_of(reach, "inv");
    SafetySpec safety(
        "diff-safety",
        Predicate("bad",
                  [](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, 0) == 3 && sp.get(s, 2) == 2;
                  }),
        [](const StateSpace& sp, StateIndex from, StateIndex to) {
            return sp.get(from, 1) == 0 && sp.get(to, 1) == 2;
        });
    LivenessSpec liveness;
    liveness.add(LeadsTo{Predicate::var_eq(*sys.space, "a", 1),
                         Predicate::var_eq(*sys.space, "b", 0)});
    const ProblemSpec spec("diff-spec", std::move(safety),
                           std::move(liveness));
    for (const Tolerance grade :
         {Tolerance::FailSafe, Tolerance::Nonmasking, Tolerance::Masking}) {
        const ToleranceReport a =
            check_tolerance(sys.program, sys.faults, spec, inv, grade);
        const ToleranceReport b = reference::ref_check_tolerance(
            sys.program, sys.faults, spec, inv, grade);
        EXPECT_EQ(a.ok(), b.ok()) << "grade " << static_cast<int>(grade);
        EXPECT_EQ(a.in_absence.ok, b.in_absence.ok);
        EXPECT_EQ(a.in_presence.ok, b.in_presence.ok);
        EXPECT_EQ(a.invariant_size, b.invariant_size);
        EXPECT_EQ(a.span_size, b.span_size);
        // The span is the same *set* in both pipelines.
        const StateSet sa = materialize(*sys.space, a.fault_span);
        const StateSet sb = materialize(*sys.space, b.fault_span);
        EXPECT_EQ(sa, sb);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrDifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 25));

// App-sized systems whose first BFS level exceeds the parallel grain, so
// the chunked expansion path (not just the fused serial one) is exercised
// and must still match the purely sequential reference.
TEST(CsrParallelPathTest, TokenRingMatchesReferenceAcrossThreadCounts) {
    auto sys = apps::make_token_ring(6, 6);  // 46656 states, one big level
    const reference::RefTransitionSystem ref(sys.ring, nullptr,
                                             Predicate::top());
    for (const unsigned threads : {1u, 2u, 8u}) {
        const TransitionSystem ts(sys.ring, nullptr, Predicate::top(),
                                  threads);
        expect_same_system(ts, ref);
    }
}

TEST(CsrParallelPathTest, ByzantineWithFaultsMatchesReference) {
    auto sys = apps::make_byzantine(4, 1);  // 23328 states
    const reference::RefTransitionSystem ref(sys.masking,
                                             &sys.byzantine_fault,
                                             Predicate::top());
    for (const unsigned threads : {1u, 8u}) {
        const TransitionSystem ts(sys.masking, &sys.byzantine_fault,
                                  Predicate::top(), threads);
        expect_same_system(ts, ref);
    }
}

// ---------------------------------------------------------------------------
// Fault edges on demand: the system stores no fault CSR, so every fault row
// is regenerated from the compiled fault kernel (the fault-only batch
// kernel when the fault set lowers, guard-bitset/bytecode probes
// otherwise). The rows must be exactly the ones the reference records.

/// Sets (or, with nullptr, clears) an environment variable for one scope.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (const char* old = std::getenv(name)) old_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv() {
        if (old_)
            ::setenv(name_.c_str(), old_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

private:
    std::string name_;
    std::optional<std::string> old_;
};

/// Every regenerated fault row of `ts` equals the reference row. On an
/// early-exit fragment (a prefix of the full graph's numbering) that holds
/// for every expanded node; the unexpanded last level has empty rows.
void expect_fault_rows_match(const TransitionSystem& ts,
                             const reference::RefTransitionSystem& ref) {
    std::size_t last_depth = 0;
    for (NodeId n = 0; n < ts.num_nodes(); ++n)
        last_depth = std::max(last_depth, ts.witness_path(n).size());
    std::vector<TransitionSystem::Edge> row;
    std::vector<TransitionSystem::FaultStep> steps;
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        ASSERT_EQ(ts.state_of(n), ref.state_of(n)) << "node " << n;
        ts.fault_edges(n, row);
        ts.fault_steps(n, steps);
        ASSERT_EQ(row.size(), steps.size()) << "node " << n;
        if (!ts.complete() && ts.witness_path(n).size() == last_depth) {
            EXPECT_TRUE(row.empty()) << "unexpanded node " << n;
            continue;
        }
        const auto& rrow = ref.fault_edges(n);
        ASSERT_EQ(row.size(), rrow.size()) << "node " << n;
        for (std::size_t i = 0; i < row.size(); ++i) {
            EXPECT_EQ(row[i].action, rrow[i].action) << "node " << n;
            EXPECT_EQ(row[i].to, rrow[i].to) << "node " << n;
            EXPECT_EQ(steps[i].first, rrow[i].action) << "node " << n;
            EXPECT_EQ(steps[i].second, ref.state_of(rrow[i].to))
                << "node " << n;
        }
    }
}

/// Complete graph + early-exit fragment of (program, faults) from `init`,
/// at 1 and 4 threads, on the default kernel and with DCFT_NO_BATCH=1.
void check_regenerated_rows(const Program& program, const FaultClass& faults,
                            const Predicate& init, const Predicate& stop) {
    const reference::RefTransitionSystem ref(program, &faults, init);
    for (const char* no_batch : {static_cast<const char*>(nullptr), "1"}) {
        const ScopedEnv env("DCFT_NO_BATCH", no_batch);
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(std::string("DCFT_NO_BATCH=") +
                         (no_batch ? no_batch : "unset") +
                         " threads=" + std::to_string(threads));
            const TransitionSystem full(program, &faults, init, threads);
            ASSERT_TRUE(full.complete());
            expect_fault_rows_match(full, ref);
            ExploreOptions opts;
            opts.n_threads = threads;
            opts.stop_on = &stop;
            const TransitionSystem frag(program, &faults, init, opts);
            ASSERT_FALSE(frag.complete());
            expect_fault_rows_match(frag, ref);
        }
    }
}

TEST(FaultRowsOnDemandTest, BatchableFaultsMatchReference) {
    // corrupt-any lowers to the fault-only batch kernel.
    auto sys = apps::make_token_ring(4, 4);
    check_regenerated_rows(sys.ring, sys.corrupt_any, sys.legitimate,
                           !sys.legitimate);
}

TEST(FaultRowsOnDemandTest, ScalarFaultsMatchReference) {
    // Opaque guards: guard-bitset-free bytecode (kCall) probes.
    for (std::uint64_t seed = 1; seed < 9; ++seed) {
        RandomSystem sys = random_system(seed);
        const Predicate init = Predicate::var_eq(*sys.space, "b", 1);
        const Predicate stop = Predicate::var_eq(*sys.space, "b", 0);
        const TransitionSystem probe(sys.program, &sys.faults, init, 1);
        if (probe.first_bad_node(stop) == TransitionSystem::kNoNode) continue;
        check_regenerated_rows(sys.program, sys.faults, init, stop);
    }
}

TEST(FaultRowsOnDemandTest, ByzantineMatchesReference) {
    // Stops at the first state a fault made Byzantine (level >= 1).
    auto sys = apps::make_byzantine(4, 1);
    check_regenerated_rows(sys.masking, sys.byzantine_fault, sys.no_byzantine,
                           !sys.no_byzantine);
}

TEST(FaultRowsOnDemandTest, ResidentBytesCountNoFaultEdges) {
    // Pin the direct-mapped interner tier, whose size the bound below uses.
    const ScopedEnv tier("DCFT_DIRECT_MAP_MAX", nullptr);
    auto sys = apps::make_token_ring(4, 4);
    const TransitionSystem ts(sys.ring, &sys.corrupt_any, sys.legitimate, 1);
    ASSERT_GT(ts.num_fault_edges(), 0u);
    // States, parents, the program CSR, the initial list, the interner
    // tier and the fault kernel's whole-space guard bitsets (one per fault
    // action) — nothing per fault edge.
    const std::uint64_t n = ts.num_nodes();
    const std::uint64_t space = ts.space().num_states();
    const std::uint64_t arrays = n * sizeof(StateIndex) +
                                 n * sizeof(NodeId) +
                                 (n + 1) * sizeof(std::uint64_t) +
                                 ts.num_program_edges() *
                                     sizeof(TransitionSystem::Edge) +
                                 ts.initial_nodes().capacity() *
                                     sizeof(NodeId);
    const std::uint64_t guard_bits = ts.num_fault_actions() *
                                     ((space + 63) / 64) *
                                     sizeof(std::uint64_t);
    EXPECT_GE(ts.resident_bytes(), arrays + guard_bits);
    EXPECT_LE(ts.resident_bytes(),
              arrays + guard_bits + space * sizeof(NodeId));
    EXPECT_LT(ts.resident_bytes(),
              arrays + ts.num_fault_edges() * sizeof(TransitionSystem::Edge));
}

TEST(FaultRowsOnDemandTest, FaultPredecessorsMatchReferenceAtAnyThreadCount) {
    // 46656 states: with the work threshold forced down, the 4-thread
    // exploration takes the parallel merge; the predecessor build
    // regenerates the same fault rows from either graph.
    auto sys = apps::make_token_ring(6, 6);
    const reference::RefTransitionSystem ref(sys.ring, &sys.corrupt_any,
                                             sys.legitimate);
    const auto& rpreds = ref.predecessors(/*include_faults=*/true);
    const ScopedEnv work("DCFT_PARALLEL_WORK_MIN", "1");
    for (const char* threads : {"1", "4"}) {
        const ScopedEnv env("DCFT_VERIFIER_THREADS", threads);
        const TransitionSystem ts(sys.ring, &sys.corrupt_any, sys.legitimate);
        const auto& preds = ts.predecessors(/*include_faults=*/true);
        ASSERT_EQ(ts.num_nodes(), rpreds.size());
        for (NodeId n = 0; n < ts.num_nodes(); ++n) {
            const auto row = preds[n];
            ASSERT_TRUE(std::equal(row.begin(), row.end(), rpreds[n].begin(),
                                   rpreds[n].end()))
                << "threads=" << threads << " node " << n;
        }
    }
}

TEST(FaultRowsOnDemandTest, FaultScansAgreeAcrossThreadCounts) {
    // The fault-transition safety and closure scans regenerate fault rows
    // from graphs explored at 1 and 4 threads (the parallel merge forced
    // on); verdicts, reasons and witnesses must agree.
    const ScopedEnv work("DCFT_PARALLEL_WORK_MIN", "1");
    for (const auto& [name, size] :
         std::vector<std::pair<std::string, int>>{{"byzantine", 4},
                                                  {"barrier", 8}}) {
        const apps::SystemInstance sys = apps::load_system(name, size);
        std::vector<ToleranceReport> serial;
        for (const char* threads : {"1", "4"}) {
            const ScopedEnv env("DCFT_VERIFIER_THREADS", threads);
            std::vector<ToleranceReport> reports;
            for (const auto& [variant, program] : sys.variants)
                for (const Tolerance grade :
                     {Tolerance::FailSafe, Tolerance::Nonmasking,
                      Tolerance::Masking})
                    reports.push_back(check_tolerance(
                        program, *sys.faults, sys.spec, sys.invariant, grade));
            if (serial.empty()) {
                serial = std::move(reports);
                continue;
            }
            for (std::size_t i = 0; i < serial.size(); ++i) {
                EXPECT_EQ(reports[i].ok(), serial[i].ok()) << name << " " << i;
                EXPECT_EQ(reports[i].reason(), serial[i].reason())
                    << name << " " << i;
                EXPECT_EQ(reports[i].in_presence.witness,
                          serial[i].in_presence.witness)
                    << name << " " << i;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The corrupt-any line rule: serial levels on the direct-mapped tier skip
// the fault successors of a line that an earlier expansion already
// interned. Node numbering, parents, the program CSR, the fault-edge
// count and every witness trace must stay exactly the reference's, on the
// batch and the scalar kernel, serially (marks on) and on the forced
// parallel merge (marks off).

/// A structured program over p, q (domain 4) and r, w (domain 3) that the
/// batch kernel lowers, with the fault class a test supplies. The idle
/// variable z (domain 256) widens the BFS levels past the parallel grain.
struct LineRuleSystem {
    std::shared_ptr<const StateSpace> space = make_space(
        {Variable{"p", 4, {}}, Variable{"q", 4, {}}, Variable{"r", 3, {}},
         Variable{"w", 3, {}}, Variable{"z", 256, {}}});
    VarId p = 0, q = 1, r = 2, w = 3;
    Program program{space, "line-rule"};
    FaultClass faults{space, "F"};

    LineRuleSystem() {
        program.add_action(Action::assign_add_mod(
            *space, "inc", Predicate::var_ne(*space, r, 2), r, r, 1, 3));
        program.add_action(Action::assign_var(
            *space, "copy", Predicate::vars_ne(*space, w, r), w, r));
        program.add_action(Action::assign_const(
            *space, "reset", Predicate::var_eq(*space, p, 3), "p", 0));
    }
    Predicate init() const {
        return Predicate::var_eq(*space, p, 0) &&
               Predicate::var_eq(*space, w, 0);
    }
};

/// Asserts `ts` is the reference exploration, or on an early exit its
/// prefix: same nodes, roots and parents, the same program rows for every
/// expanded node (empty for the unexpanded last level), and as many fault
/// edges as the reference rows of the expanded nodes hold.
void expect_reference_prefix(const TransitionSystem& ts,
                             const reference::RefTransitionSystem& ref) {
    ASSERT_LE(ts.num_nodes(), ref.num_nodes());
    if (ts.complete()) {
        ASSERT_EQ(ts.num_nodes(), ref.num_nodes());
    }
    ASSERT_EQ(ts.initial_nodes(), ref.initial_nodes());
    std::size_t last_depth = 0;
    for (NodeId n = 0; n < ts.num_nodes(); ++n)
        last_depth = std::max(last_depth, ts.witness_path(n).size());
    std::uint64_t fault_edges = 0;
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        ASSERT_EQ(ts.state_of(n), ref.state_of(n)) << "node " << n;
        ASSERT_EQ(ts.raw_parent()[n], ref.parents()[n]) << "node " << n;
        ASSERT_EQ(ts.witness_path(n), ref.witness_path(n)) << "node " << n;
        const auto prog = ts.program_edges(n);
        if (!ts.complete() && ts.witness_path(n).size() == last_depth) {
            EXPECT_TRUE(prog.empty()) << "unexpanded node " << n;
            continue;
        }
        const auto& rprog = ref.program_edges(n);
        ASSERT_EQ(prog.size(), rprog.size()) << "node " << n;
        for (std::size_t i = 0; i < prog.size(); ++i) {
            EXPECT_EQ(prog[i].action, rprog[i].action) << "node " << n;
            EXPECT_EQ(prog[i].to, rprog[i].to) << "node " << n;
        }
        fault_edges += ref.fault_edges(n).size();
    }
    EXPECT_EQ(ts.num_fault_edges(), fault_edges);
}

/// Explores `sys` from its init (stopping at `stop` when given) on the
/// batch and scalar kernels, serially and on the forced parallel merge;
/// every run must be the reference exploration (prefix) with identical
/// witness traces. Both kernels make the same marks; the parallel merge
/// makes none on its parallel levels, so it skips less.
void check_line_rule(const LineRuleSystem& sys,
                     const Predicate* stop = nullptr) {
    const Predicate init = sys.init();
    const reference::RefTransitionSystem ref(sys.program, &sys.faults, init);
    obs::set_enabled(true);
    std::optional<std::vector<std::vector<WitnessStep>>> first_traces;
    std::vector<std::uint64_t> serial_skips, parallel_skips;
    for (const char* no_batch : {static_cast<const char*>(nullptr), "1"}) {
        const ScopedEnv batch_env("DCFT_NO_BATCH", no_batch);
        for (const bool parallel : {false, true}) {
            SCOPED_TRACE(std::string("DCFT_NO_BATCH=") +
                         (no_batch ? no_batch : "unset") +
                         (parallel ? " parallel" : " serial"));
            const ScopedEnv work("DCFT_PARALLEL_WORK_MIN",
                                 parallel ? "1" : nullptr);
            obs::Registry::global().reset();
            ExploreOptions opts;
            opts.n_threads = parallel ? 4 : 1;
            opts.stop_on = stop;
            const TransitionSystem ts(sys.program, &sys.faults, init, opts);
            EXPECT_EQ(ts.complete(), stop == nullptr);
            expect_reference_prefix(ts, ref);
            std::vector<std::vector<WitnessStep>> traces;
            for (NodeId n = 0; n < ts.num_nodes(); ++n)
                traces.push_back(ts.witness_trace(n));
            if (!first_traces)
                first_traces = std::move(traces);
            else
                EXPECT_EQ(traces, *first_traces);

            std::uint64_t skipped = 0, batched = 0;
            for (const auto& c : obs::Registry::global().counters()) {
                if (c.path == "verify/interner/fault_successors_skipped")
                    skipped = c.value;
                if (c.path == "verify/explore/batched") batched = c.value;
            }
            EXPECT_EQ(batched, no_batch == nullptr ? 1u : 0u);
            (parallel ? parallel_skips : serial_skips).push_back(skipped);
        }
    }
    obs::set_enabled(false);
    ASSERT_EQ(serial_skips.size(), 2u);
    EXPECT_GT(serial_skips[0], 0u);
    EXPECT_EQ(serial_skips[0], serial_skips[1]);
    for (const std::uint64_t skipped : parallel_skips)
        EXPECT_LT(skipped, serial_skips[0]);
}

TEST(LineRuleTest, GuardFalseOnPartOfEveryLine) {
    // p != q is false at exactly one state of every p-line and q-line, so
    // a line may be reached at a disabled state first; only an enabled
    // expansion may mark it.
    LineRuleSystem sys;
    sys.faults.add_action(Action::corrupt_any(
        *sys.space, "corrupt", Predicate::vars_ne(*sys.space, sys.p, sys.q),
        {sys.p, sys.q}));
    check_line_rule(sys);
}

TEST(LineRuleTest, OverlappingCorruptAnyFaultsAndAChoiceFault) {
    // Two corrupt-any faults share q, so one may cover the other's line;
    // the assign_choice fault is never skipped.
    LineRuleSystem sys;
    sys.faults.add_action(Action::corrupt_any(
        *sys.space, "corrupt-pq", Predicate::var_eq(*sys.space, sys.r, 0),
        {sys.p, sys.q}));
    sys.faults.add_action(Action::corrupt_any(
        *sys.space, "corrupt-qw", Predicate::var_ne(*sys.space, sys.r, 0),
        {sys.q, sys.w}));
    sys.faults.add_action(Action::assign_choice(
        *sys.space, "choose-r", Predicate::top(), sys.r, {0, 2}));
    check_line_rule(sys);
}

TEST(LineRuleTest, EarlyExitFragment) {
    // Stops a few levels in, after lines have been marked: the fragment is
    // still the reference's prefix.
    LineRuleSystem sys;
    sys.faults.add_action(Action::corrupt_any(
        *sys.space, "corrupt", Predicate::vars_ne(*sys.space, sys.p, sys.q),
        {sys.p, sys.q}));
    const Predicate stop = Predicate::var_eq(*sys.space, sys.p, 3) &&
                           Predicate::var_eq(*sys.space, sys.q, 2) &&
                           Predicate::var_eq(*sys.space, sys.w, 2);
    check_line_rule(sys, &stop);
}

// ---------------------------------------------------------------------------
// Guard bitsets bought at a level boundary, over a lazily committed direct
// map. Explorations start on guard bytecode and buy the whole-space
// bitsets (and the batch kernel) at the first level where the discovered
// nodes times 64 reach the space size. The purchase must not show in the
// graph: numbering, parents, program rows, fault rows and witness traces
// equal the reference on both kernels, serially and on the forced parallel
// merge (the direct map's ~id claim CAS), and on the sparse tier.

struct PurchaseCounters {
    std::uint64_t levels = 0;
    std::uint64_t levels_before_guard_bits = 0;
    std::uint64_t guard_bits_built = 0;
    friend bool operator==(const PurchaseCounters&,
                           const PurchaseCounters&) = default;
};

/// Explores (program, faults) from `init` (stopping at `stop` when given)
/// in every configuration below, checks each run against the reference
/// (its prefix on an early exit), and returns the purchase counters, which
/// every configuration must share.
PurchaseCounters check_purchase(const Program& program,
                                const FaultClass& faults,
                                const Predicate& init,
                                const Predicate* stop = nullptr) {
    struct Config {
        const char* no_batch;
        const char* map_max;
        unsigned threads;
    };
    const Config configs[] = {
        {nullptr, nullptr, 1},  // batch kernel once bought, serial
        {"1", nullptr, 1},      // DCFT_NO_BATCH=1: bitsets, scalar kernel
        {nullptr, nullptr, 4},  // parallel merge: the direct map's claim
        {"1", nullptr, 4},
        {nullptr, "1", 1},  // DCFT_DIRECT_MAP_MAX=1: the sparse tier
        {nullptr, "1", 4},
    };
    const reference::RefTransitionSystem ref(program, &faults, init);
    obs::set_enabled(true);
    std::optional<PurchaseCounters> first_counters;
    std::optional<std::vector<std::vector<WitnessStep>>> first_traces;
    for (const Config& c : configs) {
        SCOPED_TRACE(std::string("DCFT_NO_BATCH=") +
                     (c.no_batch ? c.no_batch : "unset") +
                     " DCFT_DIRECT_MAP_MAX=" +
                     (c.map_max ? c.map_max : "unset") +
                     " threads=" + std::to_string(c.threads));
        const ScopedEnv batch_env("DCFT_NO_BATCH", c.no_batch);
        const ScopedEnv map_env("DCFT_DIRECT_MAP_MAX", c.map_max);
        const ScopedEnv work("DCFT_PARALLEL_WORK_MIN",
                             c.threads > 1 ? "1" : nullptr);
        obs::Registry::global().reset();
        ExploreOptions opts;
        opts.n_threads = c.threads;
        opts.stop_on = stop;
        const TransitionSystem ts(program, &faults, init, opts);
        EXPECT_EQ(ts.complete(), stop == nullptr);
        expect_reference_prefix(ts, ref);
        expect_fault_rows_match(ts, ref);
        std::vector<std::vector<WitnessStep>> traces;
        for (NodeId n = 0; n < ts.num_nodes(); ++n)
            traces.push_back(ts.witness_trace(n));
        if (!first_traces)
            first_traces = std::move(traces);
        else
            EXPECT_EQ(traces, *first_traces);

        PurchaseCounters got;
        for (const auto& k : obs::Registry::global().counters()) {
            if (k.path == "verify/explore/levels") got.levels = k.value;
            if (k.path == "verify/explore/levels_before_guard_bits")
                got.levels_before_guard_bits = k.value;
            if (k.path == "verify/compile/guard_bits_built")
                got.guard_bits_built = k.value;
        }
        if (!first_counters)
            first_counters = got;
        else
            EXPECT_EQ(got, *first_counters);
    }
    obs::set_enabled(false);
    return *first_counters;
}

TEST(GuardBitsPurchaseTest, NeverBoughtByzantine) {
    // The masking variant from the catalog invariant: a few thousand of
    // 419,904 states reached, so the bytecode never costs as much as a
    // bitset would and none is built — not even for the fault kernel kept
    // for fault-row regeneration. (From no_byzantine the 13,122 roots
    // alone would pay for the bitsets before level 0.)
    const apps::SystemInstance sys = apps::load_system("byzantine", 5);
    const PurchaseCounters c = check_purchase(
        sys.variants.at("masking"), *sys.faults, sys.invariant);
    EXPECT_GT(c.levels, 1u);
    EXPECT_EQ(c.levels_before_guard_bits, c.levels);
    EXPECT_EQ(c.guard_bits_built, 0u);
}

TEST(GuardBitsPurchaseTest, BoughtMidRunTokenRing) {
    // Level 0 runs on bytecode from the legitimate states; its fault
    // successors reach enough of the 46,656 states that the bitsets are
    // bought before level 1.
    auto sys = apps::make_token_ring(6, 6);
    const PurchaseCounters c =
        check_purchase(sys.ring, sys.corrupt_any, sys.legitimate);
    EXPECT_EQ(c.levels_before_guard_bits, 1u);
    EXPECT_GT(c.levels, c.levels_before_guard_bits);
    EXPECT_EQ(c.guard_bits_built, sys.ring.num_actions() + 1);
}

TEST(GuardBitsPurchaseTest, EarlyExitBeforeThePurchase) {
    // The first fault step leaves the legitimate states, so the stop
    // predicate fires on level 0's successors, before the purchase. The
    // fragment's node count still pays for the kept fault kernel's one
    // bitset.
    auto sys = apps::make_token_ring(6, 6);
    const Predicate stop = !sys.legitimate;
    const PurchaseCounters c =
        check_purchase(sys.ring, sys.corrupt_any, sys.legitimate, &stop);
    EXPECT_EQ(c.levels, 1u);
    EXPECT_EQ(c.levels_before_guard_bits, 1u);
    EXPECT_EQ(c.guard_bits_built, 1u);
}

}  // namespace
}  // namespace dcft
