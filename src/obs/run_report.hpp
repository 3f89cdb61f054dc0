// Run-report emitter: serializes one tool invocation — phase tree, counter
// registry, per-query tolerance verdicts, and witness traces — to a stable
// JSON schema shared by every JSON artifact the repo produces.
//
// Envelope (schema_version 1):
//   {
//     "schema": "dcft.report",
//     "schema_version": 1,
//     "kind": "run_report" | "bench",
//     "tool": "<binary name>",
//     "command": "<reconstructed command line>",
//     "host": { "cores", "page_size_bytes", "kernel", "total_ram_bytes" },
//     ...kind-specific payload...,
//     "timeline": [ {                          // run_report kind only:
//                     "id", "space_states", "total_ns", "spilled",
//                     "levels": [ {            // one row per BFS level
//                       "level", "frontier", "new_nodes", "program_edges",
//                       "fault_edges", "level_ns", "rss_bytes",
//                       "spill_bytes", "spill_released_bytes",
//                       "parallel", "chunks" }, ... ] }, ... ],
//     "telemetry": {
//       "enabled": true,
//       "counters": { "<path>": <u64>, ... },          // sorted by path
//       "spans": [ { "name", "path", "ns", "calls",    // phase tree built
//                    "children": [...] }, ... ]        // from '/'-paths
//     }
//   }
//
// A run report's payload is "queries": one entry per tolerance query with
// the verdict, invariant/span sizes, a "materialize" array (one
// { predicate, path, kcall_ops, states_scanned, memo_hit } per predicate
// the query materialized; omitted when it materialized none), and a
// replayable witness trace:
// failing queries carry the counterexample of the first failing obligation;
// passing queries carry the exploration witness (BFS path to the deepest
// fault-span state). Graded runs (--graded) attach two extra members per
// query: "masking_distance" { masking, distance (null when masking),
// game_nodes, game_layers, witness_faults } and "monte_carlo" { runs,
// violated_runs, base_seed, fault_probability, max_steps, max_faults,
// violation_rate, and time_to_violation / time_to_recovery /
// faults_absorbed as { count, mean, p50, p90, p99 } (null when count 0) }. A "programs" array follows with per-variant kernel
// coverage (fully compiled vs interpreter-fallback actions, batch
// eligibility). bench_util.hpp reuses begin_envelope/write_telemetry
// for "kind": "bench", so BENCH_*.json and run reports parse with the same
// reader (obs/json.hpp) and validator (tools/report_check).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "verify/check_result.hpp"

namespace dcft::obs {

/// Graded game verdict attached to a query: the masking distance of the
/// queried variant (verify/masking_distance.hpp). "masking" means the
/// distance is infinite; `distance` is emitted as null in that case.
struct QueryMaskingDistance {
    bool masking = false;
    std::uint64_t distance = 0;       ///< meaningful when !masking
    std::uint64_t game_nodes = 0;
    std::uint64_t game_layers = 0;
    std::uint64_t witness_faults = 0; ///< fault steps on the min witness
};

/// One serialized SummaryStats distribution (runtime/metrics.hpp). The
/// doubles may be NaN when count == 0; JsonWriter prints NaN as null.
struct QueryStatsBlock {
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
};

/// Monte Carlo estimate attached to a query (runtime/estimate.hpp): the
/// full configuration (reproducible from the block alone) plus the three
/// graded distributions.
struct QueryMonteCarlo {
    std::uint64_t runs = 0;
    std::uint64_t violated_runs = 0;
    std::uint64_t base_seed = 0;
    double fault_probability = 0.0;
    std::uint64_t max_steps = 0;
    std::uint64_t max_faults = 0;  ///< 0 = unbounded
    double violation_rate = 0.0;
    QueryStatsBlock time_to_violation;
    QueryStatsBlock time_to_recovery;
    QueryStatsBlock faults_absorbed;
};

/// How one query materialized one predicate (gc/predicate.hpp
/// MaterializeRecord): "backed", "word_algebra" or "per_state_scan", the
/// subtrees the fill evaluated per state (kCall ops), the states it so
/// evaluated in this query, and whether eval_bits' memo served it.
struct QueryMaterialize {
    std::string predicate;
    std::string path;
    std::uint64_t kcall_ops = 0;
    std::uint64_t states_scanned = 0;
    bool memo_hit = false;
};

/// One tolerance query in a run report.
struct ReportQuery {
    std::string name;     ///< unique label, e.g. "token-ring/base/masking"
    std::string system;   ///< system family, e.g. "token-ring"
    std::string variant;  ///< program variant, e.g. "base", "corrected"
    std::string grade;    ///< "failsafe" | "nonmasking" | "masking"
    bool ok = false;
    std::string reason;   ///< failure reason ("" when ok)
    std::uint64_t invariant_size = 0;
    std::uint64_t span_size = 0;
    /// "counterexample" (failing query), "exploration" (passing query with
    /// a deepest-trace witness), or "" (no witness available).
    std::string witness_kind;
    std::vector<WitnessStep> witness;
    /// One entry per predicate the query materialized.
    std::vector<QueryMaterialize> materialize;
    /// Graded blocks (--graded / graded requests only); both present or
    /// both absent.
    std::optional<QueryMaskingDistance> masking_distance;
    std::optional<QueryMonteCarlo> monte_carlo;
};

/// Per-program kernel-compilation coverage in a run report: how much of
/// the program (and its fault class) the compiled/batched exploration
/// layers actually cover, and how much falls back to interpretation
/// (kCall guard ops, generic effects). Mirrors verify/kernel/* telemetry
/// but attributed to a named program variant.
struct ReportProgram {
    std::string name;     ///< "<system>/<variant>"
    std::string system;
    std::string variant;
    std::uint64_t actions = 0;             ///< program + fault actions
    std::uint64_t fully_compiled = 0;      ///< guards without kCall ops
    std::uint64_t structured_effects = 0;  ///< non-generic effect forms
    std::uint64_t batchable_actions = 0;   ///< both of the above
    std::uint64_t kcall_ops = 0;           ///< total guard fallback ops
    bool batchable = false;  ///< whole program on the batch sweep path
};

/// Accumulates queries and emits the run-report JSON document.
class RunReport {
public:
    RunReport(std::string tool, std::string command);

    void add_query(ReportQuery query);
    const std::vector<ReportQuery>& queries() const { return queries_; }

    void add_program(ReportProgram program);
    const std::vector<ReportProgram>& programs() const { return programs_; }

    /// The complete document, snapshotting Registry::global() for the
    /// telemetry section at call time.
    std::string to_json() const;

    /// Writes to_json() to `path`. Returns false (and fills `error`) on
    /// I/O failure.
    bool write(const std::string& path, std::string* error = nullptr) const;

private:
    std::string tool_;
    std::string command_;
    std::vector<ReportQuery> queries_;
    std::vector<ReportProgram> programs_;
};

// -- shared-envelope building blocks (used by bench_util.hpp too) ----------

/// Opens the envelope object and writes the schema/kind/tool/command
/// members. The caller appends its payload members and must eventually
/// call end_object().
void begin_envelope(JsonWriter& w, std::string_view kind,
                    std::string_view tool, std::string_view command);

/// Writes the "telemetry" member from a point-in-time snapshot of
/// Registry::global(): the enabled flag, the sorted counter map, and the
/// phase tree assembled from '/'-separated timer paths.
void write_telemetry(JsonWriter& w);

/// Writes a witness trace as an array of step objects
/// {"state","state_repr","action","fault"}.
void write_witness(JsonWriter& w, const std::vector<WitnessStep>& trace);

/// Writes one query object exactly as run reports emit it (verdict,
/// sizes, witness).
void write_query(JsonWriter& w, const ReportQuery& q);

/// Writes the "timeline" member: every per-level exploration timeline
/// published so far (obs/trace.hpp), one object per exploration.
void write_timeline(JsonWriter& w);

}  // namespace dcft::obs
