// Unified telemetry: named atomic counters, accumulated phase timers with
// a hierarchical phase tree, and the one span primitive that feeds both the
// timers and the event trace (src/obs/, see DESIGN.md §8).
//
// Design constraints, in order:
//  1. Near-zero overhead when disabled. The telemetry and trace gates share
//     one atomic word, resolved once from the environment at first use.
//     Every recording helper, every Span and every instant first loads it
//     relaxed; with both gates off that load is the *entire* cost. Hot
//     paths additionally accumulate into local variables and flush once
//     per phase, so even the enabled path never puts an atomic RMW inside
//     a per-state loop.
//  2. Thread-safe. The registry is a mutex-guarded map from path to a
//     heap-stable Counter/Timer whose cells are std::atomic — concurrent
//     checker threads and simulator workers record without coordination
//     once they hold a reference.
//  3. Deterministic where the verifier is deterministic. Exploration
//     counters (levels, frontier sizes, interner hits/misses, edge counts)
//     are derived from the canonical BFS, so their values are identical for
//     every DCFT_VERIFIER_THREADS setting — a property the test suite
//     pins (tests/obs/telemetry_test).
//
// Spans: obs::Span(path, arg) is the only way to time a phase. With
// telemetry on it adds its lifetime to the timer at `path`; with tracing on
// it emits a balanced begin/end event named `path` on the calling thread's
// trace lane (obs/trace.hpp), `arg` riding on the begin event. One registry
// lookup resolves both, because every Timer carries its interned trace
// name — so the span tree of a run report and its Chrome trace name the
// same phases. obs::instant(path, arg) marks a point in time on the trace.
//
// Naming convention: '/'-separated lower_snake paths whose prefixes form
// the phase tree, e.g. "verify/explore/level", "verify/closure",
// "sim/run", "synth/fixpoint". RunReport (obs/run_report.hpp) serializes
// the tree from these paths.
//
// Enabling: DCFT_TELEMETRY and DCFT_TRACE (the shared truthiness rule of
// common/env.hpp), or set_enabled / set_trace_enabled from code (dcft
// --report and --trace do this). A programmatic set wins over the
// environment.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dcft::obs {

namespace detail {

inline constexpr unsigned kTelemetryGate = 1u;
inline constexpr unsigned kTraceGate = 2u;
inline constexpr unsigned kGatesResolved = 4u;

/// Both gates plus the resolved bit; 0 until the first read.
inline std::atomic<unsigned> gate_word{0};

/// Publishes the environment's gates unless a set_* call got there first,
/// and returns the word.
unsigned resolve_gates();

/// The gate word: one relaxed load once resolved.
inline unsigned gates() {
    const unsigned g = gate_word.load(std::memory_order_relaxed);
    return (g & kGatesResolved) != 0 ? g : resolve_gates();
}

/// Interns a trace event name, returning its id (obs/trace.cpp). Takes a
/// lock.
std::uint32_t intern_event_name(std::string_view path);

/// Records an instant event on the calling thread's lane (obs/trace.cpp).
void emit_instant(std::string_view path, std::uint64_t arg);

}  // namespace detail

/// Is telemetry collection on? One relaxed load.
inline bool enabled() {
    return (detail::gates() & detail::kTelemetryGate) != 0;
}

/// Programmatic override of the DCFT_TELEMETRY toggle (tests, --report).
void set_enabled(bool on);

/// A named monotonic counter. Heap-stable: references returned by the
/// registry stay valid for the process lifetime.
class Counter {
public:
    void add(std::uint64_t delta = 1) {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    /// Records v if it exceeds the current value (high-water mark).
    void record_max(std::uint64_t v) {
        std::uint64_t cur = value_.load(std::memory_order_relaxed);
        while (cur < v && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }
    /// Overwrites the value (gauges, e.g. resolved thread counts).
    void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Accumulated wall time and call count for one phase path, plus the
/// interned trace name the path's spans emit under.
class Timer {
public:
    explicit Timer(std::uint32_t trace_id) : trace_id_(trace_id) {}

    void add(std::uint64_t ns, std::uint64_t calls = 1) {
        ns_.fetch_add(ns, std::memory_order_relaxed);
        calls_.fetch_add(calls, std::memory_order_relaxed);
    }
    std::uint64_t nanos() const { return ns_.load(std::memory_order_relaxed); }
    std::uint64_t calls() const {
        return calls_.load(std::memory_order_relaxed);
    }
    /// Zeroes the accumulators (Registry::reset()).
    void reset() {
        ns_.store(0, std::memory_order_relaxed);
        calls_.store(0, std::memory_order_relaxed);
    }
    std::uint32_t trace_id() const { return trace_id_; }

private:
    std::atomic<std::uint64_t> ns_{0};
    std::atomic<std::uint64_t> calls_{0};
    const std::uint32_t trace_id_;
};

/// Process-wide registry of counters and timers, keyed by phase path.
class Registry {
public:
    /// The process registry every recording helper targets.
    static Registry& global();

    /// Counter/timer at `path`, created on first use. Thread-safe; the
    /// returned reference is stable for the registry's lifetime.
    Counter& counter(std::string_view path);
    Timer& timer(std::string_view path);

    struct CounterSample {
        std::string path;
        std::uint64_t value = 0;
    };
    struct TimerSample {
        std::string path;
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    /// Point-in-time snapshots, sorted by path (deterministic emission).
    std::vector<CounterSample> counters() const;
    std::vector<TimerSample> timers() const;

    /// Zeroes every counter and timer (registrations survive). Tests use
    /// this to compare runs; concurrent recorders see a clean slate.
    void reset();

private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

// -- recording helpers (no-ops when disabled) ------------------------------

/// Adds `delta` to the counter at `path` iff telemetry is enabled.
inline void count(std::string_view path, std::uint64_t delta = 1) {
    if (enabled()) Registry::global().counter(path).add(delta);
}

/// High-water-mark record iff enabled.
inline void count_max(std::string_view path, std::uint64_t v) {
    if (enabled()) Registry::global().counter(path).record_max(v);
}

/// Gauge write iff enabled.
inline void record(std::string_view path, std::uint64_t v) {
    if (enabled()) Registry::global().counter(path).set(v);
}

/// Monotonic clock reading in nanoseconds (steady).
std::uint64_t now_ns();

/// RAII phase span. With telemetry on it adds its lifetime to the timer
/// at `path`; with tracing on it emits begin (carrying `arg`) and end
/// events named `path` on the caller's lane. The gates are read once, at
/// construction: a span that started traced always closes, and with both
/// gates off the span costs one relaxed load and no clock read.
class Span {
public:
    explicit Span(std::string_view path, std::uint64_t arg = 0) {
        const unsigned on = detail::gates() &
                            (detail::kTelemetryGate | detail::kTraceGate);
        if (on != 0) open(on, path, arg);
    }
    ~Span() {
        if (timer_ != nullptr) close();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    void open(unsigned gates, std::string_view path, std::uint64_t arg);
    void close();

    Timer* timer_ = nullptr;
    std::uint64_t start_ns_ = 0;
    unsigned gates_ = 0;
};

/// Instant trace event named `path` on the caller's lane iff tracing is
/// on; one relaxed load otherwise.
inline void instant(std::string_view path, std::uint64_t arg = 0) {
    if ((detail::gates() & detail::kTraceGate) != 0)
        detail::emit_instant(path, arg);
}

}  // namespace dcft::obs
