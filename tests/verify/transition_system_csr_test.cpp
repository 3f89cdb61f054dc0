// Differential tests for the CSR transition system against the retained
// reference (seed-era) implementation in verify/reference.hpp.
//
// The optimized explorer promises *bit-for-bit* equivalence with the
// sequential FIFO BFS: same node numbering, same edge lists (order
// included), same BFS parents and witness paths — for every thread count.
// These tests pin that contract on randomized guarded-command programs and
// on app-sized systems at several thread counts, and
// additionally cross-check the verdict pipeline (leads-to, tolerance
// grades) against the reference pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>

#include "apps/byzantine.hpp"
#include "apps/catalog.hpp"
#include "apps/token_ring.hpp"
#include "common/rng.hpp"
#include "fuzz/oracle.hpp"
#include "obs/telemetry.hpp"
#include "verify/fairness.hpp"
#include "verify/reachability.hpp"
#include "verify/reference.hpp"
#include "verify/state_set.hpp"
#include "verify/tolerance_checker.hpp"
#include "verify/transition_system.hpp"
#include "partial_span.hpp"

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

/// The interner tier counter an exploration of `space` must report: the
/// sparse table when DCFT_DIRECT_MAP_MAX (as under sparse_interner_smoke)
/// is below the space size, the direct map otherwise.
const char* expected_bfs_tier(const StateSpace& space) {
    const char* max = std::getenv("DCFT_DIRECT_MAP_MAX");
    const bool sparse = max != nullptr && *max != '\0' &&
                        std::strtoull(max, nullptr, 10) < space.num_states();
    return sparse ? "verify/interner/sparse" : "verify/interner/direct";
}

std::uint64_t counter_value(const std::string& path) {
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == path) return c.value;
    return 0;
}

/// Explores (program, faults) from `init` at each thread count, checks it
/// against the reference and asserts the BFS interner tier it ran on.
void check_bfs_tier(const Program& program, const FaultClass* faults,
                    const Predicate& init,
                    std::initializer_list<unsigned> threads) {
    const reference::RefTransitionSystem ref(program, faults, init);
    ASSERT_LT(ref.initial_nodes().size(), program.space().num_states());
    obs::set_enabled(true);
    for (const unsigned t : threads) {
        SCOPED_TRACE(std::to_string(t) + " threads");
        obs::Registry::global().reset();
        const TransitionSystem ts(program, faults, init, t);
        EXPECT_FALSE(ts.identity_interner());
        EXPECT_EQ(counter_value(expected_bfs_tier(program.space())), 1u);
        expect_same_system(ts, ref);
    }
    obs::set_enabled(false);
}

// App-sized systems explored from seeds that are not the whole space, at
// several thread counts, must match the purely sequential reference: on
// the direct map, and under sparse_interner_smoke (DCFT_DIRECT_MAP_MAX=
// 1024) on the sparse tier.
TEST(CsrParallelPathTest, TokenRingMatchesReferenceAcrossThreadCounts) {
    auto sys = apps::make_token_ring(6, 6);  // 46656 states
    const FaultClass partial = test::corrupt_all_but_last(sys);
    check_bfs_tier(sys.ring, &partial, sys.legitimate, {1u, 2u, 8u});
}

TEST(CsrParallelPathTest, ByzantineWithFaultsMatchesReference) {
    auto sys = apps::make_byzantine(4, 1);  // 23328 states
    check_bfs_tier(sys.masking, &sys.byzantine_fault, sys.no_byzantine,
                   {1u, 8u});
}

// Whole-space seeds: one identity sweep whose node ids are the canonical
// order, so the graph is the reference's node for node.
TEST(IdentityGraphTest, WholeSpaceSeedsMatchReferenceAcrossThreadCounts) {
    auto ring = apps::make_token_ring(6, 6);
    const reference::RefTransitionSystem ref(ring.ring, nullptr,
                                             Predicate::top());
    for (const unsigned threads : {1u, 2u, 8u}) {
        const TransitionSystem ts(ring.ring, nullptr, Predicate::top(),
                                  threads);
        EXPECT_TRUE(ts.identity_interner());
        EXPECT_TRUE(ts.canonical_ids());
        expect_same_system(ts, ref);
    }
    auto byz = apps::make_byzantine(4, 1);
    const reference::RefTransitionSystem bref(byz.masking,
                                              &byz.byzantine_fault,
                                              Predicate::top());
    for (const unsigned threads : {1u, 8u}) {
        const TransitionSystem ts(byz.masking, &byz.byzantine_fault,
                                  Predicate::top(), threads);
        expect_same_system(ts, bref);
    }
}

// ---------------------------------------------------------------------------
// Fault edges on demand: the system stores no fault CSR, so every fault row
// is regenerated from the compiled fault kernel through the exploration's
// expander (guard-bitset probes once bought, bytecode otherwise). The rows
// must be exactly the ones the reference records.

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

/// Every regenerated fault row of `ts` equals the reference row.
void expect_fault_rows_match(const TransitionSystem& ts,
                             const reference::RefTransitionSystem& ref) {
    ASSERT_EQ(ts.num_nodes(), ref.num_nodes());
    std::vector<TransitionSystem::Edge> row;
    std::vector<TransitionSystem::FaultStep> steps;
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        ASSERT_EQ(ts.state_of(n), ref.state_of(n)) << "node " << n;
        ts.fault_edges(n, row);
        ts.fault_steps(n, steps);
        ASSERT_EQ(row.size(), steps.size()) << "node " << n;
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

/// The graph of (program, faults) from `init`, at 1 and 4 threads.
void check_regenerated_rows(const Program& program, const FaultClass& faults,
                            const Predicate& init) {
    const reference::RefTransitionSystem ref(program, &faults, init);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const TransitionSystem full(program, &faults, init, threads);
        expect_fault_rows_match(full, ref);
    }
}

TEST(FaultRowsOnDemandTest, BatchableFaultsMatchReference) {
    // corrupt-any: fault rows regenerated from guard-bitset probes, on a
    // BFS graph (every counter but the last corruptible).
    auto sys = apps::make_token_ring(4, 4);
    const FaultClass partial = test::corrupt_all_but_last(sys);
    obs::set_enabled(true);
    obs::Registry::global().reset();
    check_regenerated_rows(sys.ring, partial, sys.legitimate);
    EXPECT_EQ(counter_value(expected_bfs_tier(*sys.space)), 2u);
    obs::set_enabled(false);
}

TEST(FaultRowsOnDemandTest, ScalarFaultsMatchReference) {
    // Opaque guards: guard-bitset-free bytecode (kCall) probes.
    for (std::uint64_t seed = 1; seed < 9; ++seed) {
        RandomSystem sys = random_system(seed);
        const Predicate init = Predicate::var_eq(*sys.space, "b", 1);
        check_regenerated_rows(sys.program, sys.faults, init);
    }
}

TEST(FaultRowsOnDemandTest, ByzantineMatchesReference) {
    auto sys = apps::make_byzantine(4, 1);
    check_regenerated_rows(sys.masking, sys.byzantine_fault, sys.no_byzantine);
}

TEST(FaultRowsOnDemandTest, ResidentBytesCountNoFaultEdges) {
    // Pin the direct-mapped interner tier, whose size the bound below uses
    // (a full fault span would build an identity graph instead).
    const ScopedEnv tier("DCFT_DIRECT_MAP_MAX", nullptr);
    auto sys = apps::make_token_ring(4, 4);
    const FaultClass partial = test::corrupt_all_but_last(sys);
    const TransitionSystem ts(sys.ring, &partial, sys.legitimate, 1);
    ASSERT_FALSE(ts.identity_interner());
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
    // 46656 states: the predecessor build regenerates the same fault rows
    // from the graphs explored at 1 and 4 threads. With every counter but
    // the last corruptible the graph is BFS-numbered and each row equals
    // the reference's; with the full corrupt-any it is an identity graph
    // and each row holds the reference's predecessors by state.
    auto sys = apps::make_token_ring(6, 6);
    const FaultClass partial = test::corrupt_all_but_last(sys);
    for (const FaultClass* faults :
         std::initializer_list<const FaultClass*>{&partial,
                                                  &sys.corrupt_any}) {
        SCOPED_TRACE(faults->name());
        const reference::RefTransitionSystem ref(sys.ring, faults,
                                                 sys.legitimate);
        const auto& rpreds = ref.predecessors(/*include_faults=*/true);
        for (const char* threads : {"1", "4"}) {
            const ScopedEnv env("DCFT_VERIFIER_THREADS", threads);
            const TransitionSystem ts(sys.ring, faults, sys.legitimate);
            EXPECT_EQ(ts.identity_interner(), faults == &sys.corrupt_any);
            const auto& preds = ts.predecessors(/*include_faults=*/true);
            ASSERT_EQ(ts.num_nodes(), rpreds.size());
            for (NodeId r = 0; r < ts.num_nodes(); ++r) {
                std::vector<StateIndex> want, got;
                for (const NodeId u : rpreds[r]) want.push_back(ref.state_of(u));
                for (const NodeId u : preds[ts.node_of(ref.state_of(r))])
                    got.push_back(ts.state_of(u));
                if (!ts.identity_interner()) {
                    ASSERT_EQ(got, want) << "threads=" << threads << " node "
                                         << r;
                    continue;
                }
                std::sort(want.begin(), want.end());
                std::sort(got.begin(), got.end());
                ASSERT_EQ(got, want) << "threads=" << threads << " node " << r;
            }
        }
    }
}

TEST(FaultRowsOnDemandTest, FaultScansAgreeAcrossThreadCounts) {
    // The fault-transition safety and closure scans regenerate fault rows
    // from graphs explored at 1 and 4 threads; verdicts, reasons and
    // witnesses must agree.
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
// The corrupt-any line rule: levels on the direct-mapped tier skip the
// fault successors of a line that an earlier expansion already interned.
// Node numbering, parents, the program CSR, the fault-edge count and every
// witness trace must stay exactly the reference's, at 1 and 4 threads,
// and the skips must not depend on the thread count.

/// A structured program over p, q (domain 4) and r, w (domain 3), with the
/// fault class a test supplies. The idle
/// variable z (domain 256) widens the BFS levels.
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

/// Asserts `ts` is the reference exploration: same nodes, roots and
/// parents, the same program rows, and as many fault edges as the
/// reference rows hold.
void expect_reference_graph(const TransitionSystem& ts,
                            const reference::RefTransitionSystem& ref) {
    ASSERT_EQ(ts.num_nodes(), ref.num_nodes());
    ASSERT_EQ(ts.initial_nodes(), ref.initial_nodes());
    std::uint64_t fault_edges = 0;
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        ASSERT_EQ(ts.state_of(n), ref.state_of(n)) << "node " << n;
        ASSERT_EQ(ts.raw_parent()[n], ref.parents()[n]) << "node " << n;
        ASSERT_EQ(ts.witness_path(n), ref.witness_path(n)) << "node " << n;
        const auto prog = ts.program_edges(n);
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

/// Explores `sys` from its init at 1 and 4 threads; both runs must be the
/// reference exploration with identical witness traces and line skips.
void check_line_rule(const LineRuleSystem& sys) {
    const Predicate init = sys.init();
    const reference::RefTransitionSystem ref(sys.program, &sys.faults, init);
    obs::set_enabled(true);
    std::optional<std::vector<std::vector<WitnessStep>>> first_traces;
    std::vector<std::uint64_t> skips;
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        obs::Registry::global().reset();
        const TransitionSystem ts(sys.program, &sys.faults, init, threads);
        expect_reference_graph(ts, ref);
        std::vector<std::vector<WitnessStep>> traces;
        for (NodeId n = 0; n < ts.num_nodes(); ++n)
            traces.push_back(ts.witness_trace(n));
        if (!first_traces)
            first_traces = std::move(traces);
        else
            EXPECT_EQ(traces, *first_traces);

        for (const auto& c : obs::Registry::global().counters())
            if (c.path == "verify/interner/fault_successors_skipped")
                skips.push_back(c.value);
    }
    obs::set_enabled(false);
    ASSERT_EQ(skips.size(), 2u);
    EXPECT_GT(skips[0], 0u);
    EXPECT_EQ(skips[1], skips[0]);
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

// ---------------------------------------------------------------------------
// Guard bitsets bought at a level boundary, over a lazily committed direct
// map. Explorations start on guard bytecode and buy the whole-space
// bitsets at the first level where the discovered nodes times 64 reach
// the space size. The purchase must not show in the graph: numbering,
// parents, program rows, fault rows and witness traces equal the
// reference at 1 and 4 threads, on the direct map and on the sparse tier.

struct PurchaseCounters {
    std::uint64_t levels = 0;
    std::uint64_t levels_before_guard_bits = 0;
    std::uint64_t guard_bits_built = 0;
    friend bool operator==(const PurchaseCounters&,
                           const PurchaseCounters&) = default;
};

/// Explores (program, faults) from `init` in every configuration below,
/// checks each run against the reference, and returns the purchase
/// counters, which every configuration must share.
PurchaseCounters check_purchase(const Program& program,
                                const FaultClass& faults,
                                const Predicate& init) {
    struct Config {
        const char* map_max;
        unsigned threads;
    };
    const Config configs[] = {
        {nullptr, 1},  // guard bitsets once bought, serial
        {nullptr, 4},
        {"1", 1},      // DCFT_DIRECT_MAP_MAX=1: the sparse tier
        {"1", 4},
    };
    const reference::RefTransitionSystem ref(program, &faults, init);
    obs::set_enabled(true);
    std::optional<PurchaseCounters> first_counters;
    std::optional<std::vector<std::vector<WitnessStep>>> first_traces;
    for (const Config& c : configs) {
        SCOPED_TRACE(std::string("DCFT_DIRECT_MAP_MAX=") +
                     (c.map_max ? c.map_max : "unset") +
                     " threads=" + std::to_string(c.threads));
        const ScopedEnv map_env("DCFT_DIRECT_MAP_MAX", c.map_max);
        obs::Registry::global().reset();
        const TransitionSystem ts(program, &faults, init, c.threads);
        expect_reference_graph(ts, ref);
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
    // successors (every counter but the last corruptible, so a BFS) reach
    // enough of the 46,656 states that the bitsets are bought before
    // level 1.
    auto sys = apps::make_token_ring(6, 6);
    const FaultClass partial = test::corrupt_all_but_last(sys);
    const PurchaseCounters c =
        check_purchase(sys.ring, partial, sys.legitimate);
    EXPECT_EQ(c.levels_before_guard_bits, 1u);
    EXPECT_GT(c.levels, c.levels_before_guard_bits);
    EXPECT_EQ(c.guard_bits_built, sys.ring.num_actions() + 1);
}

// ---------------------------------------------------------------------------
// Every statement form through the one per-state expander. Each IR effect
// form — the ones the identity sweep lowers and the ones it does not —
// and a kTerm* comparison guard run through CompiledActionSet::expand on
// 1 and 4 threads, on the direct map and on the sparse tier, and
// through the fault kernel's regenerated rows. Every run must be the
// reference exploration, witness traces included.

/// The witness trace the reference graph implies for node n: its BFS-tree
/// path, each step named by the first program edge, else the first fault
/// edge, from the parent — the provenance rule of witness_trace.
std::vector<WitnessStep> reference_trace(
    const reference::RefTransitionSystem& ref, const FaultClass& faults,
    NodeId n) {
    std::vector<NodeId> chain{n};
    while (ref.parents()[chain.back()] != chain.back())
        chain.push_back(ref.parents()[chain.back()]);
    std::reverse(chain.begin(), chain.end());
    std::vector<WitnessStep> out;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        WitnessStep step;
        step.state = ref.state_of(chain[i]);
        step.state_repr = ref.space().format(step.state);
        if (i > 0) {
            const NodeId u = chain[i - 1];
            bool found = false;
            for (const auto& e : ref.program_edges(u))
                if (!found && e.to == chain[i]) {
                    step.action = ref.program().action(e.action).name();
                    found = true;
                }
            for (const auto& e : ref.fault_edges(u))
                if (!found && e.to == chain[i]) {
                    step.action = faults.actions()[e.action].name();
                    step.fault = true;
                    found = true;
                }
        }
        out.push_back(std::move(step));
    }
    return out;
}

/// Explores (program, faults) from `init` at 1 and 4 threads, on the
/// direct map and on the sparse tier; each must equal the reference —
/// nodes, parents, program and fault rows, witness paths and witness
/// traces.
void check_against_reference(const Program& program, const FaultClass& faults,
                             const Predicate& init) {
    const reference::RefTransitionSystem ref(program, &faults, init);
    struct Config {
        const char* name;
        const char* map_max;
        unsigned threads;
    };
    for (const Config& c : {Config{"serial", nullptr, 1},
                            Config{"4 threads", nullptr, 4},
                            Config{"sparse tier", "1", 1},
                            Config{"sparse tier, 4 threads", "1", 4}}) {
        SCOPED_TRACE(c.name);
        const ScopedEnv map_env("DCFT_DIRECT_MAP_MAX", c.map_max);
        const TransitionSystem ts(program, &faults, init, c.threads);
        expect_same_system(ts, ref);
        expect_fault_rows_match(ts, ref);
        for (NodeId n = 0; n < ts.num_nodes(); ++n)
            ASSERT_EQ(ts.witness_trace(n), reference_trace(ref, faults, n))
                << "node " << n;
    }
}

TEST(ExpanderFormsTest, EveryStatementFormMatchesReference) {
    using NK = Predicate::NodeKind;
    using EK = Action::EffectForm::Kind;
    const auto space = make_space({Variable{"a", 3, {}}, Variable{"b", 3, {}},
                                   Variable{"c", 4, {}}, Variable{"d", 2, {}},
                                   Variable{"e", 2, {}}});
    const StateSpace& sp = *space;
    const VarId a = 0, b = 1, c = 2, d = 3, e = 4;
    const Term ta = Term::var(sp, a), tb = Term::var(sp, b),
               tc = Term::var(sp, c), td = Term::var(sp, d);
    // An opaque guard: a kCall op, so its bitset is never bought.
    const Predicate opaque("a+c odd", [](const StateSpace& x, StateIndex s) {
        return (x.get(s, 0) + x.get(s, 2)) % 2 == 1;
    });

    Program program(space, "every-form");
    program.add_action(Action::skip(
        "stutter", Predicate::var_eq(sp, d, 1) && Predicate::var_eq(sp, e, 1)));
    program.add_action(
        Action::assign_const(sp, "zero-a", Predicate::var_eq(sp, a, 2), "a", 0));
    program.add_action(
        Action::assign_var(sp, "copy", Predicate::vars_ne(sp, b, a), b, a));
    program.add_action(Action::assign_add_mod(
        sp, "inc", Predicate::var_ne(sp, c, 3), c, c, 1, 4));
    program.add_action(Action::assign_choice(
        sp, "choose-a", Predicate::var_eq(sp, d, 0), a, {2, 0, 1}));
    program.add_action(Action::corrupt_any(
        sp, "scramble", Predicate::var_eq(sp, c, 3), {a, e}));
    program.add_action(Action::set_any(
        sp, "raise",
        Predicate::var_eq(sp, c, 2) &&
            (Predicate::var_eq(sp, d, 0) || Predicate::var_eq(sp, e, 0)),
        {d, e}, 1));
    program.add_action(Action::assign_parallel(
        sp, "swap", Predicate::compare(ta, NK::kTermLt, tc),
        {{a, tb}, {b, ta}}));
    program.add_action(Action::choose_parallel(
        sp, "pick",
        Predicate::compare(Term::count(sp, {d, e}, 1), NK::kTermLe,
                           Term::constant(1)),
        {{{d, Term::constant(1)}}, {{e, td}, {c, ta}}}));
    program.add_action(Action::nondet(
        "opaque", opaque,
        [](const StateSpace& x, StateIndex s, std::vector<StateIndex>& out) {
            out.push_back(x.set(s, 2, 0));
            out.push_back(x.set(s, 4, 1 - x.get(s, 4)));
        }));

    FaultClass faults(space, "F");
    faults.add_action(Action::corrupt_any(
        sp, "corrupt", Predicate::vars_ne(sp, a, b), {a, b}));
    faults.add_action(
        Action::set_any(sp, "set", Predicate::var_eq(sp, d, 0), {d, e}, 1));
    faults.add_action(Action::nondet(
        "kick", opaque,
        [](const StateSpace& x, StateIndex s, std::vector<StateIndex>& out) {
            out.push_back(x.set(s, 3, 1 - x.get(s, 3)));
        }));

    // Every form is present (kParallel with one and with two branches).
    std::vector<EK> kinds;
    for (const Action& act : program.actions())
        kinds.push_back(act.effect_form().kind);
    for (const EK k : {EK::kSkip, EK::kAssignConst, EK::kAssignVar,
                       EK::kAssignAddMod, EK::kAssignChoice, EK::kCorruptAny,
                       EK::kSetAny, EK::kParallel, EK::kGeneric})
        EXPECT_NE(std::find(kinds.begin(), kinds.end(), k), kinds.end());
    EXPECT_EQ(program.action(7).effect_form().branches.size(), 1u);
    EXPECT_EQ(program.action(8).effect_form().branches.size(), 2u);

    // From one root (multi-level, guard bitsets bought mid-run), and from
    // every state (the identity interner; these forms do not lower to the
    // sweep, so its one level runs on the expander too).
    const Predicate root = Predicate::var_eq(sp, a, 0) &&
                           Predicate::var_eq(sp, b, 0) &&
                           Predicate::var_eq(sp, c, 0) &&
                           Predicate::var_eq(sp, d, 0) &&
                           Predicate::var_eq(sp, e, 0);
    check_against_reference(program, faults, root);
    check_against_reference(program, faults, Predicate::top());
}

TEST(ExpanderFormsTest, SixtyFiveProgramActionsMatchReference) {
    // More program actions than one 64-bit action mask holds: action k
    // moves x from k to k+1, so the BFS from x = 0 is a 66-level chain
    // widened by a corrupt-any fault on y.
    constexpr int kActions = 65;
    const auto space =
        make_space({Variable{"x", kActions + 1, {}}, Variable{"y", 3, {}}});
    const StateSpace& sp = *space;
    const VarId x = 0, y = 1;
    Program program(space, "wide");
    for (int k = 0; k < kActions; ++k)
        program.add_action(Action::assign_const(
            sp, "step" + std::to_string(k), Predicate::var_eq(sp, x, k), "x",
            k + 1));
    ASSERT_EQ(program.num_actions(), 65u);
    FaultClass faults(space, "F");
    faults.add_action(Action::corrupt_any(
        sp, "corrupt-y", Predicate::var_ne(sp, x, kActions), {y}));
    const Predicate root =
        Predicate::var_eq(sp, x, 0) && Predicate::var_eq(sp, y, 0);
    check_against_reference(program, faults, root);
    check_against_reference(program, faults, Predicate::top());
}

// ---------------------------------------------------------------------------
// Full fault spans: an unconditional corrupt-any over every counter makes
// the span of the legitimate states the whole space, built as one identity
// sweep. The graph must be the reference exploration by state — canonical
// order, program and fault rows, witness paths and witness traces through
// the replay — at 1 and 4 threads, and the tolerance verdicts must match
// the reference pipeline.

TEST(IdentityGraphTest, FullSpanMatchesReferenceByState) {
    auto sys = apps::make_token_ring(5, 4);
    const reference::RefTransitionSystem ref(sys.ring, &sys.corrupt_any,
                                             sys.legitimate);
    for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        const TransitionSystem ts(sys.ring, &sys.corrupt_any, sys.legitimate,
                                  threads);
        ASSERT_TRUE(ts.identity_interner());
        ASSERT_FALSE(ts.canonical_ids());
        EXPECT_TRUE(ts.raw_states().empty());
        EXPECT_TRUE(ts.raw_parent().empty());
        EXPECT_EQ(fuzz::first_identity_difference(ref, ts), std::nullopt);
        std::uint64_t fault_edges = 0;
        for (NodeId r = 0; r < ref.num_nodes(); ++r) {
            fault_edges += ref.fault_edges(r).size();
            ASSERT_EQ(ts.witness_trace(ts.node_of(ref.state_of(r))),
                      reference_trace(ref, sys.corrupt_any, r))
                << "reference node " << r;
        }
        EXPECT_EQ(ts.num_fault_edges(), fault_edges);
        EXPECT_EQ(ts.first_bad_node(Predicate::top()), ts.initial_nodes()[0]);
    }
}

TEST(IdentityGraphTest, ScalarFullSpanMatchesReferenceByState) {
    // A program the sweep kernel does not lower (a kGeneric effect): the
    // program CSR comes from the per-state expander, and the fault count
    // from guard popcounts.
    auto sys = apps::make_token_ring(4, 4);
    Program program(sys.space, "ring-with-generic");
    for (const Action& a : sys.ring.actions()) program.add_action(a);
    const VarId x0 = sys.x[0];
    program.add_action(Action(
        "generic", Predicate::var_eq(*sys.space, x0, 1),
        [x0](const StateSpace& sp, StateIndex s) { return sp.set(s, x0, 2); }));
    const reference::RefTransitionSystem ref(program, &sys.corrupt_any,
                                             sys.legitimate);
    const TransitionSystem ts(program, &sys.corrupt_any, sys.legitimate, 1);
    ASSERT_TRUE(ts.identity_interner());
    EXPECT_EQ(fuzz::first_identity_difference(ref, ts), std::nullopt);
    std::uint64_t fault_edges = 0;
    for (NodeId r = 0; r < ref.num_nodes(); ++r)
        fault_edges += ref.fault_edges(r).size();
    EXPECT_EQ(ts.num_fault_edges(), fault_edges);
}

TEST(IdentityGraphTest, ConcurrentReplayMatchesSerialReplay) {
    // Checker threads share one graph, and with it the canonical replay:
    // witnesses and canonical positions asked for from four threads at
    // once, in different orders, equal a serial replay's.
    auto sys = apps::make_token_ring(5, 4);
    const TransitionSystem serial(sys.ring, &sys.corrupt_any, sys.legitimate,
                                  1);
    const TransitionSystem shared(sys.ring, &sys.corrupt_any, sys.legitimate,
                                  1);
    ASSERT_FALSE(shared.canonical_ids());
    const NodeId n = static_cast<NodeId>(serial.num_nodes());
    std::vector<std::vector<StateIndex>> want(n);
    std::vector<NodeId> order(n);
    for (NodeId v = 0; v < n; ++v) want[v] = serial.witness_path(v);
    for (NodeId p = 0; p < n; ++p) order[p] = serial.canonical_node(p);
    std::vector<int> mismatches(4, 0);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < 4; ++w) {
        workers.emplace_back([&, w] {
            for (NodeId k = 0; k < n; ++k) {
                const NodeId v = w % 2 == 0 ? (k * 7 + w) % n : n - 1 - k;
                if (shared.witness_path(v) != want[v]) ++mismatches[w];
                if (shared.canonical_node(v) != order[v]) ++mismatches[w];
            }
        });
    }
    for (std::thread& t : workers) t.join();
    EXPECT_EQ(mismatches, std::vector<int>(4, 0));
}

TEST(IdentityGraphTest, FullSpanVerdictsMatchReferencePipeline) {
    auto sys = apps::make_token_ring(5, 5);
    for (const Tolerance grade :
         {Tolerance::FailSafe, Tolerance::Nonmasking, Tolerance::Masking}) {
        const ToleranceReport a = check_tolerance(
            sys.ring, sys.corrupt_any, sys.spec, sys.legitimate, grade);
        const ToleranceReport b = reference::ref_check_tolerance(
            sys.ring, sys.corrupt_any, sys.spec, sys.legitimate, grade);
        EXPECT_EQ(a.in_absence.ok, b.in_absence.ok);
        EXPECT_EQ(a.in_presence.ok, b.in_presence.ok);
        EXPECT_EQ(a.span_size, sys.space->num_states());
        EXPECT_EQ(a.span_size, b.span_size);
    }
}

}  // namespace
}  // namespace dcft
