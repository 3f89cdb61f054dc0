// dcft — command-line driver over the built-in example systems.
//
//   dcft list
//       Show the available systems and their program variants.
//   dcft verify <system> [size] [--report FILE] [--trace FILE]
//                                [--progress[=SECS]]
//       Run the fail-safe / nonmasking / masking checks for every variant
//       of the system and print the verdict grid. With --report, enable
//       telemetry and write a run report (schema dcft.report, see
//       obs/run_report.hpp) with per-query verdicts, witness traces, the
//       per-level exploration timeline, the phase tree, and all counters.
//       With --trace, record begin/end/instant events and export Chrome
//       trace-event JSON (chrome://tracing, Perfetto). With --progress,
//       print a live heartbeat to stderr while exploring.
//   dcft simulate <system> [size] [--variant NAME] [--runs N]
//                 [--fault-p P] [--max-faults K] [--steps N] [--seed S]
//                 [--trace FILE] [--progress[=SECS]]
//       Batch-simulate a variant under fault injection and print
//       aggregate statistics.
//
// Observability flags accept `--flag value` and `--flag=value`;
// --progress may also appear bare (1s interval). Each has an environment
// twin (DCFT_TRACE=FILE, DCFT_PROGRESS=SECS, DCFT_TELEMETRY=1) so the
// same knobs work on binaries launched by scripts or ctest. Contradictory
// requests fail fast instead of silently doing nothing: --report/--trace
// with DCFT_TELEMETRY explicitly falsy, or --progress=0, are errors.
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "apps/catalog.hpp"
#include "common/env.hpp"
#include "obs/progress.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"
#include "verify/batch_kernel.hpp"
#include "verify/tolerance_checker.hpp"

using namespace dcft;

namespace {

int cmd_list() {
    std::printf("built-in systems (dcft verify <system> [size]):\n");
    for (const std::string& name : apps::catalog_names()) {
        const apps::SystemInstance sys = apps::load_system(name, 0);
        std::printf("  %-14s states=%-10llu variants:", name.c_str(),
                    static_cast<unsigned long long>(
                        sys.space->num_states()));
        for (const auto& [variant, program] : sys.variants) {
            std::printf(" %s(%zu actions)", variant.c_str(),
                        program.num_actions());
        }
        std::printf("\n");
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Flag parsing

/// Normalized flags: `--flag`, `--flag=value`, and `--flag value` all land
/// here; value-less flags map to "".
using FlagMap = std::map<std::string, std::string>;

struct FlagSpec {
    const char* name;
    bool value_required;  ///< must carry a value (= form or next argv)
};

const std::vector<FlagSpec> kVerifyFlags = {
    {"report", true}, {"trace", true}, {"progress", false},
    {"graded", false}};

// --report is accepted here only to produce a targeted error in
// cmd_simulate; run reports are a verify concept.
const std::vector<FlagSpec> kSimulateFlags = {
    {"variant", true},    {"runs", true},  {"steps", true},
    {"seed", true},       {"fault-p", true}, {"max-faults", true},
    {"report", true},     {"trace", true}, {"progress", false}};

bool parse_flags(int argc, char** argv, int arg,
                 const std::vector<FlagSpec>& specs, FlagMap& out,
                 std::string* error) {
    for (; arg < argc; ++arg) {
        std::string token = argv[arg];
        if (token.rfind("--", 0) != 0) {
            *error = "unexpected argument '" + token + "'";
            return false;
        }
        std::string key = token.substr(2);
        std::optional<std::string> value;
        if (const std::size_t eq = key.find('='); eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        }
        const FlagSpec* spec = nullptr;
        for (const FlagSpec& s : specs)
            if (key == s.name) {
                spec = &s;
                break;
            }
        if (spec == nullptr) {
            *error = "unknown flag --" + key;
            return false;
        }
        if (!value.has_value() && spec->value_required) {
            if (arg + 1 >= argc) {
                *error = "--" + key + " requires a value (--" + key +
                         "=VALUE or --" + key + " VALUE)";
                return false;
            }
            value = argv[++arg];
        }
        out[key] = value.value_or("");
    }
    return true;
}

/// `text` as a decimal integer in [min, max], or nullopt when it is not
/// one in full (trailing junk, overflow, out of range).
std::optional<long long> parse_integer(const std::string& text,
                                       long long min, long long max) {
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE ||
        value < min || value > max)
        return std::nullopt;
    return value;
}

/// Integer flag `key` (>= min), or `fallback` when absent. Prints an
/// error naming the flag and returns nullopt on a bad value.
std::optional<long long> integer_flag(const FlagMap& flags, const char* key,
                                      long long fallback, long long min) {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    const auto value = parse_integer(it->second, min, LLONG_MAX);
    if (!value)
        std::fprintf(stderr,
                     "error: --%s must be an integer >= %lld (got '%s')\n",
                     key, min, it->second.c_str());
    return value;
}

/// Probability flag `key` in [0, 1], or `fallback` when absent. Prints an
/// error naming the flag and returns nullopt on a bad value.
std::optional<double> probability_flag(const FlagMap& flags, const char* key,
                                       double fallback) {
    const auto it = flags.find(key);
    if (it == flags.end()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end != it->second.c_str() && *end == '\0' && value >= 0.0 &&
        value <= 1.0)
        return value;
    std::fprintf(stderr,
                 "error: --%s must be a number in [0, 1] (got '%s')\n", key,
                 it->second.c_str());
    return std::nullopt;
}

void print_usage(std::FILE* out) {
    std::fputs(
        "usage: dcft <command> [args]\n"
        "\n"
        "commands:\n"
        "  list\n"
        "      Show the built-in systems and their program variants.\n"
        "  verify <system> [size] [--graded] [--report FILE] [--trace FILE]\n"
        "         [--progress[=SECS]]\n"
        "      Run the fail-safe / nonmasking / masking checks for every\n"
        "      variant and print the verdict grid. With --graded, also\n"
        "      solve the masking-distance game (faults absorbed before\n"
        "      safety breaks; inf = masking) and run a fixed-seed Monte\n"
        "      Carlo estimate (time-to-violation / time-to-recovery /\n"
        "      faults-absorbed percentiles); reports gain per-query\n"
        "      masking_distance + monte_carlo blocks.\n"
        "  simulate <system> [size] [--variant NAME] [--runs N] [--steps N]\n"
        "           [--seed S] [--fault-p P] [--max-faults K]\n"
        "           [--trace FILE] [--progress[=SECS]]\n"
        "      Batch-simulate a variant under fault injection.\n"
        "\n"
        "observability flags (each has an environment twin):\n"
        "  --report FILE      write a dcft.report run report: per-query\n"
        "                     verdicts, witnesses, the per-level exploration\n"
        "                     timeline, and telemetry. Implies telemetry.\n"
        "                     env twin: DCFT_TELEMETRY=1 (telemetry only)\n"
        "  --trace FILE       record begin/end/instant events and write\n"
        "                     Chrome trace-event JSON (chrome://tracing or\n"
        "                     Perfetto). Implies telemetry.\n"
        "                     env twin: DCFT_TRACE=FILE\n"
        "  --progress[=SECS]  print a live heartbeat to stderr every SECS\n"
        "                     seconds (default 1).\n"
        "                     env twin: DCFT_PROGRESS=SECS\n"
        "\n"
        "Contradictions fail fast instead of silently doing nothing:\n"
        "--report/--trace with DCFT_TELEMETRY explicitly falsy, and\n"
        "--progress=0, are errors.\n",
        out);
}

// ---------------------------------------------------------------------------
// Observability setup

/// Resolves --trace/--progress against their environment twins and arms
/// the subsystems. Returns the trace output path ("" when tracing is
/// off). Throws ContractError on combinations that would otherwise
/// silently do nothing.
std::string setup_observability(const FlagMap& flags, bool wants_report) {
    std::string trace_path;
    if (const auto it = flags.find("trace"); it != flags.end()) {
        if (it->second.empty())
            throw ContractError("--trace requires a non-empty output path");
        trace_path = it->second;
    } else if (const char* env = std::getenv("DCFT_TRACE");
               env != nullptr && env_value_truthy(env)) {
        trace_path = env;  // env twin carries the output path
    }

    // --report and --trace imply telemetry (the report embeds the counter
    // snapshot and timeline; the trace export publishes obs/trace/dropped).
    // When the user *explicitly* exported a falsy DCFT_TELEMETRY the two
    // requests contradict each other — refuse rather than silently
    // override one of them.
    const std::optional<bool> telemetry = env_flag_state("DCFT_TELEMETRY");
    if (telemetry.has_value() && !*telemetry) {
        if (wants_report)
            throw ContractError(
                "--report needs telemetry, but DCFT_TELEMETRY is explicitly "
                "falsy; unset DCFT_TELEMETRY or drop --report");
        if (!trace_path.empty())
            throw ContractError(
                "--trace (or DCFT_TRACE) needs telemetry, but "
                "DCFT_TELEMETRY is explicitly falsy; unset DCFT_TELEMETRY "
                "or drop the trace request");
    }
    if (wants_report || !trace_path.empty()) obs::set_enabled(true);
    if (!trace_path.empty()) obs::set_trace_enabled(true);

    if (const auto it = flags.find("progress"); it != flags.end()) {
        double secs = 1.0;
        if (!it->second.empty()) {
            char* end = nullptr;
            secs = std::strtod(it->second.c_str(), &end);
            if (end == it->second.c_str() || *end != '\0' || secs <= 0.0)
                throw ContractError(
                    "--progress interval must be a positive number of "
                    "seconds (got '" + it->second + "')");
        }
        obs::set_progress_interval(secs);
    }
    return trace_path;
}

/// Writes the Chrome-trace JSON collected during the run; no-op when
/// `trace_path` is empty. Returns the process exit code contribution.
int finish_trace(const std::string& trace_path) {
    if (trace_path.empty()) return 0;
    std::string error;
    if (!obs::write_chrome_trace(trace_path, &error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    std::printf("trace written to %s\n", trace_path.c_str());
    return 0;
}

int cmd_verify(const std::string& name, int size, const FlagMap& flags) {
    const auto report_it = flags.find("report");
    const bool reporting = report_it != flags.end();
    const bool graded = flags.count("graded") != 0;
    const std::string trace_path = setup_observability(flags, reporting);
    obs::RunReport report(
        "dcft", "verify " + name +
                    (size > 0 ? " " + std::to_string(size) : std::string()) +
                    (graded ? " --graded" : ""));

    const apps::SystemInstance sys = apps::load_system(name, size);
    std::printf("%s: |space|=%llu, spec=%s, faults=%s\n", name.c_str(),
                static_cast<unsigned long long>(sys.space->num_states()),
                sys.spec.name().c_str(), sys.faults->name().c_str());
    std::printf("  %-14s %-10s %-11s %-8s\n", "variant", "fail-safe",
                "nonmasking", "masking");
    for (const auto& [variant, program] : sys.variants) {
        const ToleranceReport fs =
            check_failsafe(program, *sys.faults, sys.spec, sys.invariant);
        const ToleranceReport nm =
            check_nonmasking(program, *sys.faults, sys.spec, sys.invariant);
        const ToleranceReport mk = check_masking(program, *sys.faults,
                                                 sys.spec, sys.invariant);
        std::printf("  %-14s %-10s %-11s %-8s\n", variant.c_str(),
                    fs.ok() ? "yes" : "no", nm.ok() ? "yes" : "no",
                    mk.ok() ? "yes" : "no");
        if (!mk.ok())
            std::printf("      masking fails because: %s\n",
                        mk.reason().c_str());
        // Kernel-compilation coverage: which exploration tier this variant
        // can run on (identity sweep / per-state expander, printed as
        // "scalar path" / kCall fallbacks). Guard bitsets are not built for this — it is a
        // static scan of the compiled actions.
        const CompiledProgram cp(program, sys.faults.get());
        const BatchCoverage cov = batch_coverage(cp);
        std::printf(
            "      kernel: %zu/%zu actions fully compiled, %zu kCall "
            "fallback op%s — %s\n",
            cov.batchable_actions, cov.actions, cov.kcall_ops,
            cov.kcall_ops == 1 ? "" : "s",
            cov.batchable ? "batch sweep eligible" : "scalar path");
        std::optional<apps::GradedBlocks> blocks;
        if (graded) {
            blocks = apps::graded_blocks(sys, program);
            const auto& md = blocks->masking_distance;
            const auto& mc = blocks->monte_carlo;
            std::printf(
                "      graded: distance=%s (game: %llu nodes, %llu "
                "layers)\n",
                md.masking ? "inf" : std::to_string(md.distance).c_str(),
                static_cast<unsigned long long>(md.game_nodes),
                static_cast<unsigned long long>(md.game_layers));
            std::printf(
                "      monte-carlo (%llu runs, seed %llu, p=%.2f): "
                "violation rate %.2f, faults absorbed p50=%.0f p99=%.0f\n",
                static_cast<unsigned long long>(mc.runs),
                static_cast<unsigned long long>(mc.base_seed),
                mc.fault_probability, mc.violation_rate,
                mc.faults_absorbed.p50, mc.faults_absorbed.p99);
        }
        if (reporting) {
            auto add_graded_query = [&](obs::ReportQuery q) {
                if (blocks) {
                    q.masking_distance = blocks->masking_distance;
                    q.monte_carlo = blocks->monte_carlo;
                }
                report.add_query(std::move(q));
            };
            add_graded_query(
                apps::tolerance_query(name, variant, "failsafe", fs));
            add_graded_query(
                apps::tolerance_query(name, variant, "nonmasking", nm));
            add_graded_query(
                apps::tolerance_query(name, variant, "masking", mk));
            obs::ReportProgram rp;
            rp.name = name + "/" + variant;
            rp.system = name;
            rp.variant = variant;
            rp.actions = cov.actions;
            rp.fully_compiled = cov.fully_compiled;
            rp.structured_effects = cov.structured_effects;
            rp.batchable_actions = cov.batchable_actions;
            rp.kcall_ops = cov.kcall_ops;
            rp.batchable = cov.batchable;
            report.add_program(std::move(rp));
        }
    }
    obs::progress_stop();
    if (reporting) {
        std::string error;
        if (!report.write(report_it->second, &error)) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 1;
        }
        std::printf("run report written to %s (%zu queries)\n",
                    report_it->second.c_str(), report.queries().size());
    }
    return finish_trace(trace_path);
}

int cmd_simulate(const std::string& name, int size, const FlagMap& flags) {
    if (flags.count("report")) {
        std::fprintf(stderr,
                     "error: --report is only supported by 'dcft verify'\n");
        return 2;
    }
    const auto runs = integer_flag(flags, "runs", 200, 1);
    const auto steps = integer_flag(flags, "steps", 1000, 1);
    const auto seed = integer_flag(flags, "seed", 1, 0);
    const auto max_faults = integer_flag(flags, "max-faults", 3, 0);
    const auto fault_p = probability_flag(flags, "fault-p", 0.1);
    if (!runs || !steps || !seed || !max_faults || !fault_p) return 2;
    const std::string trace_path =
        setup_observability(flags, /*wants_report=*/false);
    const apps::SystemInstance sys = apps::load_system(name, size);
    std::string variant = flags.count("variant")
                              ? flags.at("variant")
                              : sys.variants.begin()->first;
    if (!sys.variants.count(variant)) {
        std::fprintf(stderr, "no variant '%s' in %s\n", variant.c_str(),
                     name.c_str());
        return 1;
    }

    Experiment ex;
    const Program& program = sys.variants.at(variant);
    ex.program = &program;
    ex.initial = sys.initial;
    ex.runs = static_cast<std::size_t>(*runs);
    ex.base_seed = static_cast<std::uint64_t>(*seed);
    ex.options.max_steps = static_cast<std::size_t>(*steps);
    ex.faults = sys.faults.get();
    ex.fault_probability = *fault_p;
    ex.max_faults = static_cast<std::size_t>(*max_faults);
    ex.safety = sys.spec.safety();
    ex.corrector = sys.invariant;

    const BatchResult result = run_experiment(ex);
    std::printf("%s/%s: %zu runs, seed %llu, fault-p %.2f\n", name.c_str(),
                variant.c_str(), result.runs,
                static_cast<unsigned long long>(ex.base_seed),
                ex.fault_probability);
    std::printf("  steps/run          : mean %.1f, max %.0f\n",
                result.steps.mean(), result.steps.max());
    std::printf("  faults/run         : mean %.2f\n",
                result.fault_steps.mean());
    std::printf("  deadlocked runs    : %zu\n", result.deadlocked);
    std::printf("  safety violations  : %zu (program steps)\n",
                result.safety_violations);
    if (!result.availability.empty())
        std::printf("  invariant uptime   : mean %.3f\n",
                    result.availability.mean());
    if (!result.correction_latency.empty())
        std::printf("  recovery latency   : mean %.1f, p99 %.1f\n",
                    result.correction_latency.mean(),
                    result.correction_latency.percentile(0.99));
    obs::progress_stop();
    return finish_trace(trace_path);
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) {
            print_usage(stderr);
            return 2;
        }
        const std::string command = argv[1];
        if (command == "help" || command == "--help" || command == "-h") {
            print_usage(stdout);
            return 0;
        }
        if (command == "list") return cmd_list();

        const bool is_verify = command == "verify";
        const bool is_simulate = command == "simulate";
        if (!is_verify && !is_simulate) {
            std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
            print_usage(stderr);
            return 2;
        }
        if (argc < 3) {
            std::fprintf(stderr, "%s requires a system name\n",
                         command.c_str());
            return 2;
        }
        const std::string system = argv[2];
        int size = 0;  // omitted: the system's default size
        int arg = 3;
        if (arg < argc && argv[arg][0] != '-') {
            const auto parsed = parse_integer(argv[arg], 1, INT_MAX);
            if (!parsed) {
                std::fprintf(stderr,
                             "error: size must be a positive integer (got "
                             "'%s')\n",
                             argv[arg]);
                return 2;
            }
            size = static_cast<int>(*parsed);
            ++arg;
        }
        FlagMap flags;
        std::string error;
        if (!parse_flags(argc, argv, arg,
                         is_verify ? kVerifyFlags : kSimulateFlags, flags,
                         &error)) {
            std::fprintf(stderr, "error: %s\n\n", error.c_str());
            print_usage(stderr);
            return 2;
        }

        return is_verify ? cmd_verify(system, size, flags)
                         : cmd_simulate(system, size, flags);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
