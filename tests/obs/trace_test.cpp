// Trace subsystem tests: instant-event determinism across verifier
// thread counts, ring-buffer overflow accounting, and the Chrome
// trace-event JSON export round-tripping through the repo's own parser.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "apps/token_ring.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "verify/transition_system.hpp"
#include "../verify/partial_span.hpp"

namespace dcft {
namespace {

/// Enables tracing on an empty buffer for one test and restores the
/// disabled default (flag, lanes, and capacity are process-wide).
struct TraceGuard {
    TraceGuard() {
        obs::set_trace_enabled(true);
        obs::set_trace_buffer_capacity(0);
        obs::trace_reset();
    }
    ~TraceGuard() {
        obs::set_trace_enabled(false);
        obs::set_trace_buffer_capacity(0);
        obs::trace_reset();
    }
};

/// Instant-event counts by name, summed across lanes. Span (begin/end)
/// events legitimately vary with the chunking, instants must not.
std::map<std::string, std::uint64_t> instant_counts(
    const obs::TraceSnapshot& snap) {
    std::map<std::string, std::uint64_t> out;
    for (const obs::TraceLane& lane : snap.lanes)
        for (const obs::TraceEvent& e : lane.events)
            if (e.phase == obs::TracePhase::kInstant)
                ++out[snap.names[e.name]];
    return out;
}

/// Explores token-ring n=6 (46656 states) and returns the instant counts
/// of that exploration.
std::map<std::string, std::uint64_t> explore_instants(unsigned threads) {
    setenv("DCFT_VERIFIER_THREADS", std::to_string(threads).c_str(), 1);
    obs::trace_reset();
    auto sys = apps::make_token_ring(6, 6);
    // Seed from the single legitimate start state so the BFS has real
    // depth (Predicate::top() would make the whole space level 0), with a
    // fault class whose span is not syntactically full (the ring's own
    // corrupt-any would make the exploration one identity sweep).
    const StateIndex init = sys.initial_state();
    const Predicate seed(
        "init", [init](const StateSpace&, StateIndex s) { return s == init; });
    const FaultClass partial = test::corrupt_all_but_last(sys);
    const TransitionSystem ts(sys.ring, &partial, seed);
    EXPECT_GT(ts.num_nodes(), 0u);
    unsetenv("DCFT_VERIFIER_THREADS");
    return instant_counts(obs::trace_snapshot());
}

TEST(TraceTest, InstantCountsIdenticalAcrossThreadCounts) {
    TraceGuard guard;
    const auto t1 = explore_instants(1);
    const auto t2 = explore_instants(2);
    const auto t8 = explore_instants(8);
    ASSERT_FALSE(t1.empty());
    // level_done, interner tier, cache and spill markers are all functions
    // of the canonical BFS / byte layout, never of the chunking.
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
    ASSERT_TRUE(t1.count("verify/explore/level_done"));
    EXPECT_GT(t1.at("verify/explore/level_done"), 1u);
    EXPECT_EQ(t1.at("verify/interner/tier"), 1u);
    // One purchase of the guard bitsets, at a level boundary.
    EXPECT_EQ(t1.at("verify/compile/guard_bits"), 1u);
}

TEST(TraceTest, OverflowDropsCountedWithoutCorruptingExport) {
    TraceGuard guard;
    obs::set_enabled(true);  // so the dropped counter gets published
    obs::Registry::global().reset();
    obs::set_trace_buffer_capacity(64);
    obs::trace_reset();

    {
        const obs::Span span("t/overflow/span");
        for (int i = 0; i < 1000; ++i) obs::instant("t/overflow/tick", i);
    }  // lane already full: the span's End is dropped

    const obs::TraceSnapshot snap = obs::trace_snapshot();
    EXPECT_GT(snap.dropped_total, 0u);
    std::uint64_t counter = 0;
    for (const auto& c : obs::Registry::global().counters())
        if (c.path == "obs/trace/dropped") counter = c.value;
    EXPECT_EQ(counter, snap.dropped_total);

    // The export must still be well-formed JSON with balanced spans: the
    // snapshot synthesizes an End for the open Begin whose End was lost.
    std::string error;
    const auto doc = obs::parse_json(obs::chrome_trace_json(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto* events = doc->find("traceEvents", obs::JsonValue::Kind::Array);
    ASSERT_NE(events, nullptr);
    std::map<double, int> depth;
    for (const obs::JsonValue& e : events->as_array()) {
        const std::string ph =
            e.find("ph", obs::JsonValue::Kind::String)->as_string();
        const double tid =
            e.find("tid", obs::JsonValue::Kind::Number)->as_number();
        if (ph == "B") ++depth[tid];
        if (ph == "E") {
            --depth[tid];
            EXPECT_GE(depth[tid], 0);
        }
    }
    for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0);
    obs::set_enabled(false);
}

TEST(TraceTest, ChromeExportRoundTripsThroughParser) {
    TraceGuard guard;
    {
        const obs::Span outer("t/round/outer", 7);
        obs::instant("t/round/mark", 3);
    }

    std::string error;
    const auto doc = obs::parse_json(obs::chrome_trace_json(), &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto* events = doc->find("traceEvents", obs::JsonValue::Kind::Array);
    ASSERT_NE(events, nullptr);

    bool saw_begin = false, saw_end = false, saw_mark = false;
    double last_ts = 0.0;
    for (const obs::JsonValue& e : events->as_array()) {
        const std::string name =
            e.find("name", obs::JsonValue::Kind::String)->as_string();
        const std::string ph =
            e.find("ph", obs::JsonValue::Kind::String)->as_string();
        const double ts =
            e.find("ts", obs::JsonValue::Kind::Number)->as_number();
        EXPECT_GE(ts, last_ts);  // single lane: globally monotone
        last_ts = ts;
        if (name == "t/round/outer" && ph == "B") {
            saw_begin = true;
            const auto* args = e.find("args", obs::JsonValue::Kind::Object);
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->find("v", obs::JsonValue::Kind::Number)
                          ->as_number(),
                      7.0);
        }
        if (name == "t/round/outer" && ph == "E") saw_end = true;
        if (name == "t/round/mark" && ph == "i") {
            saw_mark = true;
            EXPECT_EQ(e.find("s", obs::JsonValue::Kind::String)->as_string(),
                      "t");
        }
    }
    EXPECT_TRUE(saw_begin);
    EXPECT_TRUE(saw_end);
    EXPECT_TRUE(saw_mark);

    const auto* other = doc->find("otherData", obs::JsonValue::Kind::Object);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("dropped", obs::JsonValue::Kind::Number)
                  ->as_number(),
              0.0);
}

TEST(TraceTest, SpanFeedsTimerAndTraceUnderOneName) {
    TraceGuard guard;
    obs::set_enabled(true);
    obs::Registry::global().reset();
    { const obs::Span span("t/both/span", 5); }

    std::uint64_t calls = 0;
    for (const auto& t : obs::Registry::global().timers())
        if (t.path == "t/both/span") calls = t.calls;
    EXPECT_EQ(calls, 1u);
    std::vector<obs::TracePhase> phases;
    std::uint64_t begin_arg = 0;
    const obs::TraceSnapshot snap = obs::trace_snapshot();
    for (const obs::TraceLane& lane : snap.lanes)
        for (const obs::TraceEvent& e : lane.events)
            if (snap.names[e.name] == "t/both/span") {
                phases.push_back(e.phase);
                if (e.phase == obs::TracePhase::kBegin) begin_arg = e.arg;
            }
    EXPECT_EQ(phases, (std::vector<obs::TracePhase>{obs::TracePhase::kBegin,
                                                    obs::TracePhase::kEnd}));
    EXPECT_EQ(begin_arg, 5u);

    // The two gates share one word but switch independently.
    obs::set_enabled(false);
    EXPECT_FALSE(obs::enabled());
    EXPECT_TRUE(obs::trace_enabled());
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
    obs::set_trace_enabled(false);
    obs::trace_reset();
    obs::instant("t/disabled/mark");
    { const obs::Span span("t/disabled/span"); }
    const obs::TraceSnapshot snap = obs::trace_snapshot();
    for (const obs::TraceLane& lane : snap.lanes)
        EXPECT_TRUE(lane.events.empty());
    EXPECT_EQ(snap.dropped_total, 0u);
}

}  // namespace
}  // namespace dcft
