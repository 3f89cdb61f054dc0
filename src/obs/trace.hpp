// Low-overhead event tracing for long-running verification.
//
// Where the timers of obs/telemetry.hpp record *aggregates* (accumulated
// span nanos), this layer records *ordered events* — begin/end spans and
// instant markers with nanosecond timestamps and a lane (thread) id — so
// questions like "which BFS level stalls, and on which lane?" become a
// timeline instead of a guess. Events are recorded by the primitives of
// obs/telemetry.hpp, never directly: obs::Span emits a begin/end pair
// named after its timer path, obs::instant a marker. So every timed phase
// of a run report is a span of its trace, and the disabled cost is the
// one relaxed load of the shared gate word.
//
//   * trace_enabled() resolves once from DCFT_TRACE (any truthy value; the
//     CLIs pass the output path through it) and can be overridden
//     programmatically with set_trace_enabled().
//   * Event names are '/'-separated lower_snake paths, interned on first
//     use, so a recorded event stores a 4-byte id, never a string.
//   * Each OS thread appends to a lane: a fixed-capacity event buffer it
//     owns exclusively (size is published with a release store; snapshots
//     read it with acquire). Parallel passes (fills, the identity sweep,
//     liveness) spawn short-lived workers on every call, so lanes are
//     pooled — a thread leases a lane on its first event and returns it
//     at thread exit, keeping memory bounded by the peak thread count,
//     not the thread-spawn count, and giving the export stable per-worker
//     lanes.
//   * Overflow never blocks and never reallocates: once a lane is full,
//     further events are dropped and counted. The per-lane drop counts are
//     summed into the `obs/trace/dropped` telemetry counter at snapshot
//     time and into the export's metadata. Because Ends of already-recorded
//     Begins may be among the drops, trace_snapshot() repairs balance:
//     orphan End events are removed and unclosed Begins get a synthesized
//     End at the lane's last timestamp, so the export is always
//     well-formed.
//
// Exports: write_chrome_trace()/chrome_trace_json() emit Chrome
// trace-event JSON (load in Perfetto or chrome://tracing), and the
// per-level ExplorationTimeline — filled in by TransitionSystem::explore —
// is embedded in the dcft.report envelope (see obs/run_report.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"

namespace dcft::obs {

// ---------------------------------------------------------------------------
// Gate

/// True when event tracing is on: one relaxed load of the gate word it
/// shares with obs::enabled().
inline bool trace_enabled() {
    return (detail::gates() & detail::kTraceGate) != 0;
}

/// Programmatic override (the CLIs call this when --trace is given).
void set_trace_enabled(bool on);

// ---------------------------------------------------------------------------
// Events

enum class TracePhase : std::uint8_t { kBegin, kEnd, kInstant };

struct TraceEvent {
    std::uint64_t ts_ns = 0;  ///< obs::now_ns() at emission.
    std::uint64_t arg = 0;    ///< One event-specific payload (level, bytes…).
    std::uint32_t name = 0;   ///< Interned name id.
    TracePhase phase = TracePhase::kInstant;
};

// ---------------------------------------------------------------------------
// Snapshot & export

struct TraceLane {
    std::uint32_t tid = 0;            ///< Stable lane id (0 = first lane).
    std::uint64_t dropped = 0;        ///< Events lost to overflow.
    std::vector<TraceEvent> events;   ///< Timestamp-ordered, balance-repaired.
};

struct TraceSnapshot {
    std::vector<std::string> names;   ///< Indexed by TraceEvent::name.
    std::vector<TraceLane> lanes;     ///< Sorted by tid.
    std::uint64_t dropped_total = 0;
};

/// Copies every lane, repairs begin/end balance (see file comment), and —
/// when telemetry is enabled — publishes dropped_total to the
/// `obs/trace/dropped` counter. Safe to call while other threads trace.
TraceSnapshot trace_snapshot();

/// Drops all recorded events and leased lanes (live threads re-lease on
/// their next event). Name interning survives. For tests.
void trace_reset();

/// Per-lane capacity in events for lanes leased *after* the call.
/// 0 restores the default of 64Ki events. Tests use a
/// tiny capacity to exercise the overflow path; combine with trace_reset().
void set_trace_buffer_capacity(std::size_t events);

/// Chrome trace-event JSON (object form: {"traceEvents": […], …}) of the
/// current snapshot. Timestamps are microseconds rebased to the first
/// recorded event. write_chrome_trace returns false (with *error set) on
/// I/O failure.
std::string chrome_trace_json();
bool write_chrome_trace(const std::string& path, std::string* error = nullptr);

// ---------------------------------------------------------------------------
// Per-level exploration timeline
//
// A structured companion to the event stream: one row per BFS level,
// filled in by TransitionSystem::explore when telemetry or tracing is on,
// embedded under "timeline" in run reports and validated by report_check.

struct LevelStat {
    std::uint64_t level = 0;           ///< BFS depth (0 = initial states).
    std::uint64_t frontier = 0;        ///< States expanded at this level.
    std::uint64_t new_nodes = 0;       ///< States first discovered here.
    std::uint64_t program_edges = 0;   ///< Program transitions written.
    std::uint64_t fault_edges = 0;     ///< Fault transitions written.
    std::uint64_t level_ns = 0;        ///< Wall time for the whole level.
    std::uint64_t rss_bytes = 0;       ///< Resident set after the level (0 if unknown).
    std::uint64_t spill_bytes = 0;     ///< Cumulative bytes in spill files.
    std::uint64_t spill_released_bytes = 0;  ///< Cumulative bytes returned to the OS.
    bool parallel = false;             ///< A chunked identity sweep.
    std::uint64_t chunks = 1;          ///< Worker chunks (1 on serial levels).
};

struct ExplorationTimeline {
    std::uint64_t id = 0;              ///< Process-wide exploration ordinal.
    std::uint64_t space_states = 0;    ///< Full state-space size (ETA basis).
    std::uint64_t total_ns = 0;
    bool spilled = false;
    /// An identity sweep (node id == state index): one row, whose
    /// new_nodes is space_states.
    bool identity = false;
    std::vector<LevelStat> levels;
};

/// Appends a finished timeline (assigns `id`). Bounded: past a cap the
/// oldest are kept and the new one is dropped, so a long-running process
/// cannot grow without bound.
void timeline_publish(ExplorationTimeline timeline);

std::vector<ExplorationTimeline> timeline_snapshot();
void timeline_reset();

}  // namespace dcft::obs
