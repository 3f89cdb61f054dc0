// bench_compare: regression gate over BENCH_verifier.json series.
//
//   bench_compare <baseline.json> <candidate.json> [--tolerance=PCT]
//                 [--min-delta-ms=MS] [--json-out=FILE]
//
// Reads the `workloads` array of both files, matches workloads by `name`,
// and fails (exit 1) when any matched workload's candidate `best_ms`
// exceeds baseline `best_ms` by more than PCT percent (default 25) AND by
// more than --min-delta-ms (default 0.25 ms) absolute — sub-millisecond
// workloads jitter past 25% on timer noise alone, and a gate that can
// only fire on >0.25 ms of real slowdown never flags noise. The
// intersection of workload names must be non-empty — an empty overlap
// means the series drifted apart and the gate would silently pass, so it
// is treated as failure. Workloads present on only one side are listed
// but do not fail the gate (benchmark sets may grow). An unreadable or
// malformed input exits 2.
//
// The ctest smoke target wires this as:
//   bench_verifier --smoke --json=BENCH_verifier.smoke.json
//   bench_compare  <src>/BENCH_verifier.json BENCH_verifier.smoke.json
// so a perf regression in the verifier core fails `ctest` without a full
// (minutes-long) benchmark run. Smoke timings are best-of-3; the 25%
// default leaves headroom for scheduler jitter on small workloads.
//
// --json-out=FILE additionally writes a machine-readable summary in the
// shared dcft.report envelope (kind "bench_compare"): the per-workload
// base/cand/ratio/regressed rows plus the gate verdict. Both directions
// go through the shared JSON code (obs/json.hpp, obs/run_report.hpp).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "verify/spill.hpp"

namespace {

using dcft::obs::JsonValue;
using dcft::obs::JsonWriter;

bool load_best_ms(const std::string& path,
                  std::map<std::string, double>& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    std::string error;
    const auto root = dcft::obs::parse_json(buf.str(), &error);
    if (!root) {
        std::fprintf(stderr, "bench_compare: %s: parse error: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    const JsonValue* workloads =
        root->find("workloads", JsonValue::Kind::Array);
    if (workloads == nullptr) {
        std::fprintf(stderr, "bench_compare: %s: no workloads array\n",
                     path.c_str());
        return false;
    }
    for (const JsonValue& w : workloads->as_array()) {
        const JsonValue* name = w.find("name", JsonValue::Kind::String);
        const JsonValue* best = w.find("best_ms", JsonValue::Kind::Number);
        if (name == nullptr || best == nullptr) {
            std::fprintf(stderr,
                         "bench_compare: %s: workload without "
                         "name/best_ms\n",
                         path.c_str());
            return false;
        }
        out[name->as_string()] = best->as_number();
    }
    return true;
}

/// One comparison row. Workloads on only one side have base_ms or cand_ms
/// < 0 (emitted as null).
struct Row {
    std::string name;
    double base_ms = -1.0;
    double cand_ms = -1.0;
    double ratio = 0.0;
    bool regressed = false;
};

/// The --json-out summary: the dcft.report envelope (kind
/// "bench_compare") around the gate's settings, rows and verdict.
bool write_json_report(const std::string& path, const std::string& command,
                       const std::string& baseline_path,
                       const std::string& candidate_path, double tolerance_pct,
                       double min_delta_ms, const std::vector<Row>& rows,
                       std::size_t compared, std::size_t regressions) {
    JsonWriter w;
    dcft::obs::begin_envelope(w, "bench_compare", "bench_compare", command);
    w.kv("baseline", baseline_path);
    w.kv("candidate", candidate_path);
    w.kv("tolerance_pct", tolerance_pct);
    w.kv("min_delta_ms", min_delta_ms);
    w.key("workloads");
    w.begin_array();
    for (const Row& r : rows) {
        const bool both = r.base_ms >= 0.0 && r.cand_ms >= 0.0;
        w.begin_object();
        w.kv("name", r.name);
        w.key("base_ms");
        r.base_ms < 0.0 ? w.null() : w.value(r.base_ms);
        w.key("cand_ms");
        r.cand_ms < 0.0 ? w.null() : w.value(r.cand_ms);
        w.key("ratio");
        both ? w.value(r.ratio) : w.null();
        w.kv("regressed", r.regressed);
        w.end_object();
    }
    w.end_array();
    w.key("summary");
    w.begin_object();
    w.kv("compared", static_cast<std::uint64_t>(compared));
    w.kv("regressions", static_cast<std::uint64_t>(regressions));
    w.kv("ok", compared > 0 && regressions == 0);
    w.end_object();
    w.end_object();
    std::ofstream out(path, std::ios::binary);
    out << w.str() << '\n';
    return out.good();
}

}  // namespace

int main(int argc, char** argv) {
    double tolerance_pct = 25.0;
    double min_delta_ms = 0.25;
    std::string json_out;
    std::vector<std::string> paths;
    std::string command;
    for (int i = 0; i < argc; ++i) {
        if (i > 0) command += ' ';
        command += argv[i];
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--tolerance=", 0) == 0) {
            tolerance_pct = std::strtod(arg.c_str() + 12, nullptr);
        } else if (arg.rfind("--min-delta-ms=", 0) == 0) {
            min_delta_ms = std::strtod(arg.c_str() + 15, nullptr);
        } else if (arg.rfind("--json-out=", 0) == 0) {
            json_out = arg.substr(11);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: bench_compare <baseline.json> <candidate.json> "
                "[--tolerance=PCT] [--min-delta-ms=MS] [--json-out=FILE]\n");
            return 0;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2) {
        std::fprintf(stderr,
                     "usage: bench_compare <baseline.json> <candidate.json> "
                     "[--tolerance=PCT] [--min-delta-ms=MS] "
                     "[--json-out=FILE]\n");
        return 2;
    }

    // The regression gate compares against a baseline recorded in the
    // *default* configuration. Out-of-core storage deliberately trades
    // speed for residency, so comparing under it would only ever report
    // the mode's own overhead.
    if (dcft::spill_enabled()) {
        std::printf(
            "bench_compare: DCFT_SPILL is set — perf gate skipped (only "
            "meaningful in the default configuration)\n");
        return 0;
    }

    std::map<std::string, double> baseline, candidate;
    if (!load_best_ms(paths[0], baseline)) return 2;
    if (!load_best_ms(paths[1], candidate)) return 2;

    const double limit = 1.0 + tolerance_pct / 100.0;
    std::size_t compared = 0, regressions = 0;
    std::vector<Row> rows;
    std::printf(
        "bench_compare: tolerance %+.0f%% (and > %.2f ms absolute) on "
        "best_ms\n",
        tolerance_pct, min_delta_ms);
    std::printf("  %-42s %10s %10s %8s\n", "workload", "base ms", "cand ms",
                "ratio");
    for (const auto& [name, base_ms] : baseline) {
        const auto it = candidate.find(name);
        if (it == candidate.end()) {
            std::printf("  %-42s %10.3f %10s %8s  (baseline only)\n",
                        name.c_str(), base_ms, "-", "-");
            rows.push_back({name, base_ms, -1.0, 0.0, false});
            continue;
        }
        ++compared;
        const double cand_ms = it->second;
        const double ratio = base_ms > 0.0 ? cand_ms / base_ms : 0.0;
        const bool regressed = base_ms > 0.0 && ratio > limit &&
                               cand_ms - base_ms > min_delta_ms;
        regressions += regressed ? 1u : 0u;
        std::printf("  %-42s %10.3f %10.3f %7.2fx  %s\n", name.c_str(),
                    base_ms, cand_ms, ratio,
                    regressed ? "REGRESSION" : "ok");
        rows.push_back({name, base_ms, cand_ms, ratio, regressed});
    }
    for (const auto& [name, cand_ms] : candidate) {
        if (baseline.find(name) == baseline.end()) {
            std::printf("  %-42s %10s %10.3f %8s  (candidate only)\n",
                        name.c_str(), "-", cand_ms, "-");
            rows.push_back({name, -1.0, cand_ms, 0.0, false});
        }
    }

    if (!json_out.empty() &&
        !write_json_report(json_out, command, paths[0], paths[1],
                           tolerance_pct, min_delta_ms, rows, compared,
                           regressions)) {
        std::fprintf(stderr, "bench_compare: cannot write %s\n",
                     json_out.c_str());
        return 2;
    }

    if (compared == 0) {
        std::fprintf(stderr,
                     "bench_compare: no workload names in common — series "
                     "drifted; regenerate the baseline\n");
        return 1;
    }
    if (regressions > 0) {
        std::fprintf(stderr,
                     "bench_compare: %zu/%zu workloads regressed by more "
                     "than %.0f%%\n",
                     regressions, compared, tolerance_pct);
        return 1;
    }
    std::printf("bench_compare: %zu workloads within %.0f%%\n", compared,
                tolerance_pct);
    return 0;
}
