// grid_worker — runs one verdict grid the way `dcft verify` does and prints
// its outputs as one JSON document on stdout, for the grid benchmark driver
// (gridbench/run.py) to check and time.
//
//   grid_worker <system> <size> [--graded] [--mc-seed N] [--traced]
//               [--load-only]
//
// Per variant it calls check_failsafe, check_nonmasking and check_masking,
// builds a CompiledProgram for batch_coverage and, with --graded, calls
// apps::graded_blocks with the Monte Carlo base_seed set to --mc-seed.
// --load-only stops after apps::load_system (the benchmark's set-up step).
//
// With --traced the worker turns telemetry on and adds a "spans" array and
// a "telemetry" object to its output. Each span is one benchmark-owned
// region around a public call (load, each grade call, coverage, graded)
// carrying the deltas of the program's own layer timers over its interval,
// so the driver can split a grade call into explore, materialize, closure,
// safety and liveness without touching the library. The graded span gets
// two children, game and monte_carlo, whose durations are the deltas of
// verify/masking_distance and runtime/estimate_tolerance; graded_blocks
// runs the game first and the estimate last, so the game child starts at
// the graded span's start and the monte_carlo child ends at its end.
//
// Exit status: 0 with a document, 1 on any exception (bad_alloc under the
// driver's memory limit, ContractError on a bad system name), 2 on usage.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "common/parallel.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "verify/batch_kernel.hpp"
#include "verify/tolerance_checker.hpp"

using namespace dcft;

namespace {

// Library timers whose deltas are attached to every benchmark span.
const char* const kLayerTimers[] = {
    "verify/explore",
    "verify/compile",
    "verify/check_tolerance/materialize",
    "verify/closure",
    "verify/safety",
    "verify/liveness",
    "verify/graph_store/load",
    "verify/masking_distance",
    "runtime/estimate_tolerance",
    "sim/run/monitor_hooks",
};

using TimerMap = std::map<std::string, std::uint64_t>;

TimerMap layer_timers() {
    TimerMap out;
    for (const auto& t : obs::Registry::global().timers())
        for (const char* path : kLayerTimers)
            if (t.path == path) out[t.path] = t.ns;
    return out;
}

struct Span {
    std::string name;
    std::string variant;
    int parent = -1;
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    TimerMap layers;  ///< layer timer deltas over [ts, ts + dur)
};

/// Benchmark-owned spans. Inert unless `traced`, so untimed bookkeeping
/// never lands inside the plain pass.
class SpanLog {
public:
    explicit SpanLog(bool traced) : traced_(traced) {}

    int begin(std::string name, std::string variant = {}) {
        if (!traced_) return -1;
        Span s;
        s.name = std::move(name);
        s.variant = std::move(variant);
        s.parent = open_.empty() ? -1 : open_.back();
        start_layers_.push_back(layer_timers());
        s.ts_ns = obs::now_ns();
        spans_.push_back(std::move(s));
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void end(int id) {
        if (id < 0) return;
        Span& s = spans_[static_cast<std::size_t>(id)];
        s.dur_ns = obs::now_ns() - s.ts_ns;
        const TimerMap before = std::move(start_layers_.back());
        start_layers_.pop_back();
        open_.pop_back();
        for (const auto& [path, ns] : layer_timers()) {
            const auto it = before.find(path);
            const std::uint64_t delta =
                ns - (it == before.end() ? 0 : it->second);
            if (delta > 0) s.layers[path] = delta;
        }
    }

    /// Adds a closed child of `parent` from a measured duration.
    void add_child(int parent, std::string name, std::uint64_t ts_ns,
                   std::uint64_t dur_ns) {
        if (parent < 0) return;
        Span s;
        s.name = std::move(name);
        s.variant = spans_[static_cast<std::size_t>(parent)].variant;
        s.parent = parent;
        s.ts_ns = ts_ns;
        s.dur_ns = dur_ns;
        spans_.push_back(std::move(s));
    }

    const Span& at(int id) const { return spans_[static_cast<std::size_t>(id)]; }
    const std::vector<Span>& spans() const { return spans_; }

private:
    bool traced_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::vector<TimerMap> start_layers_;
};

/// Runs `fn` inside span `name`; returns its result.
template <typename Fn>
auto timed(SpanLog& log, const char* name, const std::string& variant,
           Fn&& fn) {
    const int id = log.begin(name, variant);
    auto result = fn();
    log.end(id);
    return result;
}

/// Doubles are written as "%.17g" strings so they round-trip exactly
/// (JsonWriter rounds numbers to 6 significant digits). NaN -> null.
void exact(obs::JsonWriter& w, std::string_view key, double d) {
    w.key(key);
    if (std::isnan(d)) {
        w.null();
        return;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    w.value(std::string_view(buf));
}

void write_stats(obs::JsonWriter& w, std::string_view key,
                 const obs::QueryStatsBlock& b) {
    w.key(key).begin_object();
    w.kv("count", b.count);
    exact(w, "mean", b.mean);
    exact(w, "p50", b.p50);
    exact(w, "p90", b.p90);
    exact(w, "p99", b.p99);
    w.end_object();
}

void write_graded(obs::JsonWriter& w, const apps::GradedBlocks& g) {
    const auto& md = g.masking_distance;
    const auto& mc = g.monte_carlo;
    w.key("graded").begin_object();
    w.kv("masking", md.masking);
    w.key("distance");
    if (md.masking)
        w.null();
    else
        w.value(md.distance);
    w.kv("game_nodes", md.game_nodes);
    w.key("monte_carlo").begin_object();
    w.kv("runs", mc.runs);
    w.kv("violated_runs", mc.violated_runs);
    w.kv("base_seed", mc.base_seed);
    exact(w, "fault_probability", mc.fault_probability);
    w.kv("max_steps", mc.max_steps);
    w.kv("max_faults", mc.max_faults);
    exact(w, "violation_rate", mc.violation_rate);
    write_stats(w, "time_to_violation", mc.time_to_violation);
    write_stats(w, "time_to_recovery", mc.time_to_recovery);
    write_stats(w, "faults_absorbed", mc.faults_absorbed);
    w.end_object();
    w.end_object();
}

void write_trace(obs::JsonWriter& w, const SpanLog& log) {
    w.key("spans").begin_array();
    for (const Span& s : log.spans()) {
        w.begin_object();
        w.kv("name", s.name);
        if (!s.variant.empty()) w.kv("variant", s.variant);
        w.kv("parent", s.parent);
        w.kv("ts_ns", s.ts_ns);
        w.kv("dur_ns", s.dur_ns);
        w.key("layers").begin_object();
        for (const auto& [path, ns] : s.layers) w.kv(path, ns);
        w.end_object();
        w.end_object();
    }
    w.end_array();
    w.key("telemetry").begin_object();
    w.key("timers").begin_object();
    for (const auto& t : obs::Registry::global().timers())
        w.kv(t.path, t.ns);
    w.end_object();
    w.key("counters").begin_object();
    for (const auto& c : obs::Registry::global().counters())
        w.kv(c.path, c.value);
    w.end_object();
    w.end_object();
}

struct Args {
    std::string system;
    int size = 0;
    bool graded = false;
    bool traced = false;
    bool load_only = false;
    std::uint64_t mc_seed = ToleranceEstimateOptions{}.base_seed;
};

std::optional<Args> parse(int argc, char** argv) {
    if (argc < 3) return std::nullopt;
    Args a;
    a.system = argv[1];
    char* end = nullptr;
    a.size = static_cast<int>(std::strtol(argv[2], &end, 10));
    if (*end != '\0' || a.size <= 0) return std::nullopt;
    for (int i = 3; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--graded") {
            a.graded = true;
        } else if (flag == "--traced") {
            a.traced = true;
        } else if (flag == "--load-only") {
            a.load_only = true;
        } else if (flag == "--mc-seed" && i + 1 < argc) {
            a.mc_seed = std::strtoull(argv[++i], &end, 10);
            if (*end != '\0') return std::nullopt;
        } else {
            return std::nullopt;
        }
    }
    return a;
}

int run(const Args& args) {
    if (args.traced) obs::set_enabled(true);
    SpanLog log(args.traced);
    const int grid = log.begin("grid");

    const apps::SystemInstance sys = timed(log, "load", "", [&] {
        return apps::load_system(args.system, args.size);
    });

    obs::JsonWriter w;
    w.begin_object();
    w.kv("system", args.system);
    w.kv("size", args.size);
    w.kv("states", static_cast<std::uint64_t>(sys.space->num_states()));
    w.kv("threads", resolve_verifier_threads(0));
    w.kv("build_type", GRIDBENCH_BUILD_TYPE);
    w.key("variants").begin_array();
    if (!args.load_only) {
        ToleranceEstimateOptions mc;
        mc.base_seed = args.mc_seed;
        for (const auto& [variant, program] : sys.variants) {
            auto grade = [&](const char* name, auto check) {
                return timed(log, name, variant, [&] {
                    return check(program, *sys.faults, sys.spec,
                                 sys.invariant);
                });
            };
            const ToleranceReport fs = grade("failsafe", check_failsafe);
            const ToleranceReport nm = grade("nonmasking", check_nonmasking);
            const ToleranceReport mk = grade("masking", check_masking);
            const BatchCoverage cov = timed(log, "coverage", variant, [&] {
                const CompiledProgram cp(program, sys.faults.get());
                return batch_coverage(cp);
            });

            w.begin_object();
            w.kv("variant", variant);
            w.kv("failsafe", fs.ok());
            w.kv("nonmasking", nm.ok());
            w.kv("masking", mk.ok());
            w.key("kernel").begin_object();
            w.kv("actions", static_cast<std::uint64_t>(cov.actions));
            w.kv("batchable_actions",
                 static_cast<std::uint64_t>(cov.batchable_actions));
            w.kv("kcall_ops", static_cast<std::uint64_t>(cov.kcall_ops));
            w.kv("batchable", cov.batchable);
            w.end_object();
            if (args.graded) {
                const int id = log.begin("graded", variant);
                const apps::GradedBlocks blocks =
                    apps::graded_blocks(sys, program, mc);
                log.end(id);
                if (id >= 0) {
                    const Span& g = log.at(id);
                    const auto layer = [&g](const char* path) {
                        const auto it = g.layers.find(path);
                        return it == g.layers.end() ? std::uint64_t{0}
                                                    : it->second;
                    };
                    const std::uint64_t game = layer("verify/masking_distance");
                    const std::uint64_t est =
                        layer("runtime/estimate_tolerance");
                    const std::uint64_t start = g.ts_ns;
                    const std::uint64_t stop = g.ts_ns + g.dur_ns;
                    log.add_child(id, "game", start, game);
                    log.add_child(id, "monte_carlo", stop - est, est);
                }
                write_graded(w, blocks);
            }
            w.end_object();
        }
    }
    w.end_array();
    log.end(grid);
    if (args.traced) write_trace(w, log);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return std::fflush(stdout) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Args> args = parse(argc, argv);
    if (!args) {
        std::fprintf(stderr,
                     "usage: grid_worker <system> <size> [--graded] "
                     "[--mc-seed N] [--traced] [--load-only]\n");
        return 2;
    }
    try {
        return run(*args);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
