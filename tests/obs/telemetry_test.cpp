// Telemetry subsystem tests: registry semantics, disabled no-ops,
// exploration- and liveness-counter determinism across thread counts, JSON
// writer/parser round-trips, and the run-report schema.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "apps/byzantine.hpp"
#include "apps/catalog.hpp"
#include "apps/token_ring.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "obs/trace.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/tolerance_checker.hpp"
#include "verify/transition_system.hpp"
#include "../verify/partial_span.hpp"

namespace dcft {
namespace {

/// Enables telemetry on a clean registry for the duration of one test and
/// restores the disabled default afterwards (the flag and registry are
/// process-wide).
struct TelemetryGuard {
    explicit TelemetryGuard(bool on = true) {
        obs::set_enabled(on);
        obs::Registry::global().reset();
    }
    ~TelemetryGuard() { obs::set_enabled(false); }
};

std::uint64_t counter_value(const std::string& path) {
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == path) return c.value;
    return 0;
}

bool counter_exists(const std::string& path) {
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == path) return true;
    return false;
}

TEST(TelemetryTest, CountersTimersAndSnapshotsSorted) {
    TelemetryGuard guard;
    obs::count("t/b", 2);
    obs::count("t/a");
    obs::count("t/a", 4);
    obs::count_max("t/peak", 7);
    obs::count_max("t/peak", 3);  // below the high-water mark: ignored
    obs::record("t/gauge", 9);
    obs::record("t/gauge", 5);  // gauge: overwritten
    { const obs::Span span("t/span/inner"); }

    EXPECT_EQ(counter_value("t/a"), 5u);
    EXPECT_EQ(counter_value("t/b"), 2u);
    EXPECT_EQ(counter_value("t/peak"), 7u);
    EXPECT_EQ(counter_value("t/gauge"), 5u);

    const auto counters = obs::Registry::global().counters();
    for (std::size_t i = 1; i < counters.size(); ++i)
        EXPECT_LT(counters[i - 1].path, counters[i].path);

    bool saw_span = false;
    for (const auto& t : obs::Registry::global().timers())
        if (t.path == "t/span/inner") {
            saw_span = true;
            EXPECT_EQ(t.calls, 1u);
        }
    EXPECT_TRUE(saw_span);
}

TEST(TelemetryTest, DisabledRecordingIsANoOp) {
    obs::set_enabled(false);
    obs::set_trace_enabled(false);
    obs::count("t/disabled/counter");
    obs::record("t/disabled/gauge", 3);
    { const obs::Span span("t/disabled/span"); }
    // With both gates off, helpers and spans never touch the registry —
    // the paths are not even registered.
    EXPECT_FALSE(counter_exists("t/disabled/counter"));
    EXPECT_FALSE(counter_exists("t/disabled/gauge"));
    for (const auto& t : obs::Registry::global().timers())
        EXPECT_NE(t.path, "t/disabled/span");
}

TEST(TelemetryTest, RegistryResetZeroesButKeepsRegistrations) {
    TelemetryGuard guard;
    obs::count("t/reset/c", 11);
    obs::Registry::global().timer("t/reset/t").add(100, 2);
    obs::Registry::global().reset();
    EXPECT_TRUE(counter_exists("t/reset/c"));
    EXPECT_EQ(counter_value("t/reset/c"), 0u);
    for (const auto& t : obs::Registry::global().timers())
        if (t.path == "t/reset/t") {
            EXPECT_EQ(t.ns, 0u);
            EXPECT_EQ(t.calls, 0u);
        }
}

TEST(TelemetryTest, ExplorationCounterMatchesExploreSpanCalls) {
    TelemetryGuard guard;
    auto sys = apps::make_token_ring(4, 4);
    const TransitionSystem ts(sys.ring, &sys.corrupt_any, Predicate::top());
    const TransitionSystem again(sys.ring, nullptr, Predicate::top());
    std::uint64_t explore_calls = 0;
    for (const auto& t : obs::Registry::global().timers())
        if (t.path == "verify/explore") explore_calls = t.calls;
    EXPECT_EQ(explore_calls, 2u);
    // One increment per exploration, not one per recording site.
    EXPECT_EQ(counter_value("verify/explorations"), explore_calls);
}

TEST(TelemetryTest, LineMarksSkipFaultSuccessorsOfCoveredLines) {
    TelemetryGuard guard;
    // Token ring n=6, k=6 with every counter but the last corruptible:
    // the fault span is still all 6^6 states, each with 5*5 corrupt
    // successors, but not syntactically, so the BFS runs on the direct
    // map. Only the first expansion of each of the 5*6^5 lines (one per
    // corrupted variable and other-digit tuple) interns its 5 successors;
    // every other corrupt successor is counted, not interned.
    auto ring = apps::make_token_ring(6, 6);
    const FaultClass partial = test::corrupt_all_but_last(ring);
    const TransitionSystem ts(ring.ring, &partial, ring.legitimate,
                              /*n_threads=*/1);
    EXPECT_FALSE(ts.identity_interner());
    EXPECT_EQ(counter_value("verify/interner/direct"), 1u);
    EXPECT_EQ(ts.num_nodes(), 46'656u);
    EXPECT_EQ(ts.num_fault_edges(), 1'166'400u);
    EXPECT_EQ(counter_value("verify/interner/fault_successors_skipped"),
              1'166'400u - 5u * 7'776u * 5u);
    // interner_hits keeps its arithmetic definition: every target that
    // was already interned, looked up or known to be by a line mark.
    EXPECT_EQ(counter_value("verify/explore/interner_hits"),
              counter_value("verify/explore/initial_states") +
                  counter_value("verify/explore/program_edges") +
                  counter_value("verify/explore/fault_edges") -
                  counter_value("verify/explore/nodes"));

    // Byzantine faults are not corrupt-any: nothing to skip.
    obs::Registry::global().reset();
    auto byz = apps::make_byzantine(4, 1);
    const TransitionSystem b(byz.masking, &byz.byzantine_fault,
                             byz.no_byzantine, /*n_threads=*/1);
    EXPECT_GT(b.num_fault_edges(), 0u);
    EXPECT_EQ(counter_value("verify/interner/fault_successors_skipped"), 0u);
}

TEST(TelemetryTest, FullSpanIsOneIdentitySweep) {
    TelemetryGuard guard;
    // The ring's own corrupt-any covers every counter unconditionally, so
    // the fault span of the legitimate states is the whole space: one
    // sweep, no interner, fault transitions counted (6*5 per state) and
    // never looked up.
    auto ring = apps::make_token_ring(6, 6);
    const TransitionSystem ts(ring.ring, &ring.corrupt_any, ring.legitimate,
                              /*n_threads=*/1);
    EXPECT_TRUE(ts.identity_interner());
    EXPECT_FALSE(ts.canonical_ids());
    EXPECT_EQ(ts.num_nodes(), 46'656u);
    EXPECT_EQ(ts.num_fault_edges(), 1'399'680u);
    EXPECT_EQ(counter_value("verify/interner/identity"), 1u);
    EXPECT_EQ(counter_value("verify/explore/levels"), 1u);
    EXPECT_EQ(counter_value("verify/explore/sweep_states"), 46'656u);
    EXPECT_EQ(counter_value("verify/explore/interner_hits"), 0u);
    EXPECT_EQ(counter_value("verify/explore/interner_misses"), 0u);
    EXPECT_EQ(counter_value("verify/explore/fault_edges"), 1'399'680u);
    EXPECT_EQ(counter_value("verify/interner/fault_successors_skipped"), 0u);
    // Nothing asked for canonical order yet; a witness replays only as far
    // as its node.
    EXPECT_EQ(counter_value("verify/canonical/replayed_nodes"), 0u);
    const NodeId first_fault_target = ts.canonical_node(
        ts.initial_nodes().size());
    EXPECT_EQ(ts.witness_path(first_fault_target).size(), 2u);
    EXPECT_EQ(counter_value("verify/canonical/replayed_nodes"), 1u);
}

/// Exploration counters under one DCFT_VERIFIER_THREADS setting.
std::vector<std::pair<std::string, std::uint64_t>> explore_counters(
    unsigned threads) {
    setenv("DCFT_VERIFIER_THREADS", std::to_string(threads).c_str(), 1);
    obs::Registry::global().reset();
    auto sys = apps::make_token_ring(4, 4);
    const TransitionSystem ts(sys.ring, &sys.corrupt_any, Predicate::top());
    EXPECT_GT(ts.num_nodes(), 0u);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const auto& c : obs::Registry::global().counters())
        if (c.path.rfind("verify/explore/", 0) == 0)
            out.emplace_back(c.path, c.value);
    unsetenv("DCFT_VERIFIER_THREADS");
    return out;
}

TEST(TelemetryTest, ExplorationCountersDeterministicAcrossThreadCounts) {
    TelemetryGuard guard;
    const auto t1 = explore_counters(1);
    const auto t2 = explore_counters(2);
    const auto t8 = explore_counters(8);
    ASSERT_FALSE(t1.empty());
    // Levels, frontier peak, node/edge counts, interner hits/misses: all
    // derived from the canonical BFS, hence identical per thread count.
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);

    auto value = [&](const char* path) -> std::uint64_t {
        for (const auto& [p, v] : t1)
            if (p == path) return v;
        return 0;
    };
    EXPECT_GT(value("verify/explore/levels"), 0u);
    EXPECT_GT(value("verify/explore/frontier_peak"), 0u);
    EXPECT_GT(value("verify/explore/nodes"), 0u);
    EXPECT_GT(value("verify/explore/program_edges"), 0u);
    EXPECT_GT(value("verify/explore/fault_edges"), 0u);
    // An identity seed is one sweep that makes no interning decision.
    EXPECT_EQ(value("verify/explore/levels"), 1u);
    EXPECT_EQ(value("verify/explore/interner_misses"), 0u);
    EXPECT_EQ(value("verify/explore/interner_hits"), 0u);
    // An identity seed buys the guard bitsets before level 0.
    EXPECT_EQ(value("verify/explore/levels_before_guard_bits"), 0u);
}

TEST(TelemetryTest, InternerCountersDeterministicAcrossThreadCounts) {
    TelemetryGuard guard;
    // A BFS exploration: every intern call is a hit or a miss, misses ==
    // discovered nodes, at every thread count.
    auto sys = apps::make_token_ring(4, 4);
    const FaultClass partial = test::corrupt_all_but_last(sys);
    std::vector<std::vector<std::pair<std::string, std::uint64_t>>> runs;
    for (const unsigned threads : {1u, 2u, 8u}) {
        obs::Registry::global().reset();
        const TransitionSystem ts(sys.ring, &partial, sys.legitimate,
                                  threads);
        EXPECT_FALSE(ts.identity_interner());
        std::vector<std::pair<std::string, std::uint64_t>> out;
        for (const auto& c : obs::Registry::global().counters())
            if (c.path.rfind("verify/explore/", 0) == 0)
                out.emplace_back(c.path, c.value);
        runs.push_back(std::move(out));
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
    auto value = [&](const char* path) -> std::uint64_t {
        for (const auto& [p, v] : runs[0])
            if (p == path) return v;
        return 0;
    };
    EXPECT_GT(value("verify/explore/levels"), 1u);
    EXPECT_EQ(value("verify/explore/interner_misses"),
              value("verify/explore/nodes"));
    EXPECT_EQ(value("verify/explore/interner_hits"),
              value("verify/explore/initial_states") +
                  value("verify/explore/program_edges") +
                  value("verify/explore/fault_edges") -
                  value("verify/explore/nodes"));
}

TEST(TelemetryTest, GuardBitsBoughtOnlyWhereTheyPay) {
    TelemetryGuard guard;
    ExplorationCache::global().clear();
    // Byzantine n=6 reaches 15,353 of 7,558,272 states over the catalog
    // queries: no exploration gets near |space| / 64 nodes, so every level
    // runs on guard bytecode and no whole-space bitset is built.
    const apps::SystemInstance byz = apps::load_system("byzantine", 6);
    for (const auto& [variant, program] : byz.variants) {
        check_failsafe(program, *byz.faults, byz.spec, byz.invariant);
        check_nonmasking(program, *byz.faults, byz.spec, byz.invariant);
        check_masking(program, *byz.faults, byz.spec, byz.invariant);
    }
    EXPECT_EQ(counter_value("verify/compile/guard_bits_built"), 0u);
    EXPECT_EQ(counter_value("verify/explore/levels"), 49u);
    EXPECT_EQ(counter_value("verify/explore/levels_before_guard_bits"),
              counter_value("verify/explore/levels"));
    ExplorationCache::global().clear();

    // Token ring n=7, p [] F from the legitimate states (every counter
    // but the last corruptible, so a BFS): levels 0 and 1 run on
    // bytecode, then the fault successors have reached enough of the
    // 823,543 states that the bitsets are bought.
    obs::Registry::global().reset();
    auto ring = apps::make_token_ring(7, 7);
    const FaultClass partial = test::corrupt_all_but_last(ring);
    const TransitionSystem ts(ring.ring, &partial, ring.legitimate);
    EXPECT_EQ(counter_value("verify/interner/direct"), 1u);
    EXPECT_EQ(counter_value("verify/explore/levels_before_guard_bits"), 2u);
    EXPECT_GT(counter_value("verify/explore/levels"), 2u);
    EXPECT_EQ(counter_value("verify/compile/guard_bits_built"),
              ring.ring.num_actions() + 1);
    // Not an identity exploration, so the sweep kernel never ran.
    EXPECT_EQ(counter_value("verify/explore/sweep_states"), 0u);
}

TEST(TelemetryTest, GraphAndLineSkipsIndependentOfThreadCount) {
    TelemetryGuard guard;
    // Token ring n=6 p [] F (every counter but the last corruptible) from
    // the legitimate states at 1 and 4 threads: the line rule runs on
    // every level, so the skipped fault successors, like the graph
    // itself, must not depend on the thread count.
    auto ring = apps::make_token_ring(6, 6);
    const FaultClass partial = test::corrupt_all_but_last(ring);
    const TransitionSystem serial(ring.ring, &partial, ring.legitimate,
                                  /*n_threads=*/1);
    EXPECT_EQ(counter_value("verify/interner/direct"), 1u);
    const std::uint64_t serial_skips =
        counter_value("verify/interner/fault_successors_skipped");
    obs::Registry::global().reset();
    const TransitionSystem par(ring.ring, &partial, ring.legitimate,
                               /*n_threads=*/4);
    EXPECT_GT(serial_skips, 0u);
    EXPECT_EQ(counter_value("verify/interner/fault_successors_skipped"),
              serial_skips);

    ASSERT_EQ(par.num_nodes(), serial.num_nodes());
    EXPECT_EQ(par.num_fault_edges(), serial.num_fault_edges());
    EXPECT_TRUE(std::ranges::equal(par.raw_parent(), serial.raw_parent()));
    for (NodeId n = 0; n < serial.num_nodes(); ++n) {
        ASSERT_EQ(par.state_of(n), serial.state_of(n)) << "node " << n;
        const auto pe = par.program_edges(n);
        const auto se = serial.program_edges(n);
        ASSERT_TRUE(std::equal(pe.begin(), pe.end(), se.begin(), se.end()))
            << "node " << n;
    }
}

/// Liveness counters of the token-ring n=6 catalog grid (every variant,
/// three grades) under one DCFT_VERIFIER_THREADS setting.
std::vector<std::uint64_t> ring_grid_liveness_counters(unsigned threads) {
    setenv("DCFT_VERIFIER_THREADS", std::to_string(threads).c_str(), 1);
    ExplorationCache::global().clear();
    obs::Registry::global().reset();
    const apps::SystemInstance ring = apps::load_system("token-ring", 6);
    for (const auto& [variant, program] : ring.variants) {
        check_failsafe(program, *ring.faults, ring.spec, ring.invariant);
        EXPECT_TRUE(check_nonmasking(program, *ring.faults, ring.spec,
                                     ring.invariant)
                        .ok());
        check_masking(program, *ring.faults, ring.spec, ring.invariant);
    }
    unsetenv("DCFT_VERIFIER_THREADS");
    ExplorationCache::global().clear();
    return {counter_value("verify/obligations/liveness"),
            counter_value("verify/liveness/attractor_nodes"),
            counter_value("verify/liveness/residue_nodes"),
            counter_value("verify/preds_csr/builds")};
}

TEST(TelemetryTest, LivenessCountersPinnedAcrossThreadCounts) {
    TelemetryGuard guard;
    const auto t1 = ring_grid_liveness_counters(1);
    const auto t4 = ring_grid_liveness_counters(4);
    EXPECT_EQ(t1, t4);
    // 19 leads-to calls; every non-target node of each settles in the
    // program attractor, so the fair-SCC pass never runs and the passing
    // convergence query builds no predecessor CSR.
    const std::vector<std::uint64_t> pinned = {19, 48'840, 0, 0};
    EXPECT_EQ(t1, pinned);
}

TEST(JsonTest, WriterEscapingRoundTrips) {
    obs::JsonWriter w;
    const std::string nasty = "a\"b\\c\nd\te\rf\x01g";
    w.begin_object();
    w.kv("s", nasty);
    w.kv("n", std::uint64_t{42});
    w.kv("d", 1.5);
    w.kv("b", true);
    w.key("null_member");
    w.null();
    w.end_object();

    std::string error;
    const auto doc = obs::parse_json(w.str(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    ASSERT_TRUE(doc->is_object());
    EXPECT_EQ(doc->find("s")->as_string(), nasty);
    EXPECT_EQ(doc->find("n")->as_number(), 42.0);
    EXPECT_EQ(doc->find("d")->as_number(), 1.5);
    EXPECT_TRUE(doc->find("b")->as_bool());
    EXPECT_TRUE(doc->find("null_member")->is_null());
}

TEST(JsonTest, ParserRejectsMalformedDocuments) {
    for (const char* bad :
         {"", "{", "[1,]", "{\"a\" 1}", "\"unterminated", "{} trailing",
          "{\"a\": nul}", "[1 2]"}) {
        std::string error;
        EXPECT_FALSE(obs::parse_json(bad, &error).has_value())
            << "accepted: " << bad;
        EXPECT_FALSE(error.empty());
    }
}

TEST(JsonTest, ParserStopsAtTheEndOfTheView) {
    // The view ends right after '{'; the '"' behind it must not be read.
    std::string error;
    EXPECT_FALSE(
        obs::parse_json(std::string_view("{\"k\":1}", 1), &error)
            .has_value());
    EXPECT_NE(error.find("expected '\"'"), std::string::npos) << error;
}

TEST(RunReportTest, SchemaRoundTrips) {
    TelemetryGuard guard;
    obs::count("verify/explorations", 3);
    { const obs::Span span("verify/explore/level"); }

    obs::RunReport report("dcft", "verify token-ring 4");
    obs::ReportQuery pass;
    pass.name = "token-ring/ring/nonmasking";
    pass.system = "token-ring";
    pass.variant = "ring";
    pass.grade = "nonmasking";
    pass.ok = true;
    pass.invariant_size = 4;
    pass.span_size = 256;
    pass.witness_kind = "exploration";
    pass.witness = {WitnessStep{0, "<t=0>", "", false},
                    WitnessStep{7, "<t=3>", "corrupt", true}};
    report.add_query(pass);
    obs::ReportQuery fail;
    fail.name = "token-ring/ring/failsafe";
    fail.system = "token-ring";
    fail.variant = "ring";
    fail.grade = "failsafe";
    fail.ok = false;
    fail.reason = "safety violated: ...";
    fail.witness_kind = "counterexample";
    fail.witness = {WitnessStep{0, "<t=0>", "", false},
                    WitnessStep{1, "<t=1>", "pass", false}};
    report.add_query(fail);

    std::string error;
    const auto doc = obs::parse_json(report.to_json(), &error);
    ASSERT_TRUE(doc.has_value()) << error;

    // Envelope.
    EXPECT_EQ(doc->find("schema")->as_string(), "dcft.report");
    EXPECT_EQ(doc->find("schema_version")->as_number(), 1.0);
    EXPECT_EQ(doc->find("kind")->as_string(), "run_report");
    EXPECT_EQ(doc->find("tool")->as_string(), "dcft");

    // Queries and witnesses.
    const auto* queries =
        doc->find("queries", obs::JsonValue::Kind::Array);
    ASSERT_NE(queries, nullptr);
    ASSERT_EQ(queries->as_array().size(), 2u);
    const auto& q0 = queries->as_array()[0];
    EXPECT_TRUE(q0.find("ok")->as_bool());
    EXPECT_EQ(q0.find("span_size")->as_number(), 256.0);
    const auto* witness = q0.find("witness", obs::JsonValue::Kind::Object);
    ASSERT_NE(witness, nullptr);
    EXPECT_EQ(witness->find("kind")->as_string(), "exploration");
    const auto& trace = witness->find("trace")->as_array();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace[0].find("action")->as_string(), "");
    EXPECT_TRUE(trace[1].find("fault")->as_bool());
    const auto& q1 = queries->as_array()[1];
    EXPECT_FALSE(q1.find("ok")->as_bool());
    EXPECT_EQ(q1.find("witness")->find("kind")->as_string(),
              "counterexample");

    // Telemetry: counters non-negative, spans nested by path.
    const auto* telemetry =
        doc->find("telemetry", obs::JsonValue::Kind::Object);
    ASSERT_NE(telemetry, nullptr);
    EXPECT_TRUE(telemetry->find("enabled")->as_bool());
    const auto* counters =
        telemetry->find("counters", obs::JsonValue::Kind::Object);
    ASSERT_NE(counters, nullptr);
    for (const auto& [path, v] : counters->as_object()) {
        EXPECT_TRUE(v.is_number()) << path;
        EXPECT_GE(v.as_number(), 0.0) << path;
    }
    EXPECT_EQ(counters->find("verify/explorations")->as_number(), 3.0);
    const auto* spans = telemetry->find("spans", obs::JsonValue::Kind::Array);
    ASSERT_NE(spans, nullptr);
    bool found_level = false;
    for (const auto& top : spans->as_array()) {
        if (top.find("name")->as_string() != "verify") continue;
        for (const auto& child : top.find("children")->as_array()) {
            if (child.find("name")->as_string() != "explore") continue;
            for (const auto& leaf : child.find("children")->as_array()) {
                if (leaf.find("name")->as_string() == "level" &&
                    leaf.find("path")->as_string() ==
                        "verify/explore/level" &&
                    leaf.find("calls")->as_number() >= 1.0)
                    found_level = true;
            }
        }
    }
    EXPECT_TRUE(found_level);
}

TEST(RunReportTest, ToleranceWitnessesAreReplayable) {
    TelemetryGuard guard;
    auto sys = apps::make_token_ring(4, 4);
    // Nonmasking holds for the ring; its report carries an exploration
    // witness. Fail-safe does not; its report carries a counterexample.
    const ToleranceReport pass = check_nonmasking(
        sys.ring, sys.corrupt_any, sys.spec, sys.legitimate);
    ASSERT_TRUE(pass.ok());
    const std::vector<WitnessStep> deepest = pass.deepest_trace();
    ASSERT_FALSE(deepest.empty());
    EXPECT_TRUE(deepest.front().action.empty());  // root
    for (std::size_t i = 1; i < deepest.size(); ++i) {
        EXPECT_FALSE(deepest[i].action.empty());
        EXPECT_FALSE(deepest[i].state_repr.empty());
    }

    const ToleranceReport fail = check_failsafe(
        sys.ring, sys.corrupt_any, sys.spec, sys.legitimate);
    ASSERT_FALSE(fail.ok());
    ASSERT_FALSE(fail.counterexample().empty());
    EXPECT_TRUE(fail.counterexample().front().action.empty());
    for (std::size_t i = 1; i < fail.counterexample().size(); ++i)
        EXPECT_FALSE(fail.counterexample()[i].action.empty());
}

}  // namespace
}  // namespace dcft
