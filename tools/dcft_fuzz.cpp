// dcft_fuzz: differential fuzzing driver for the verifier stack.
//
//   dcft_fuzz [--seed N] [--programs N] [--states N] [--threads N]
//             [--corpus-dir DIR] [--no-shrink] [--time-budget SECONDS]
//             [--json-out FILE]
//   dcft_fuzz --smoke [--json-out FILE]
//   dcft_fuzz --replay PATH [--threads N]
//   dcft_fuzz --print-seed N [--states N]
//
// Default mode runs a campaign: for each derived program seed, generate a
// random guarded-command system, run the full differential oracle matrix
// (reference vs CSR exploration, 1 vs N threads, cached vs fresh
// graphs, sparse vs direct interner, optimized vs reference verdict
// pipelines,
// simulator traces vs explored graphs, witness replay, offline trace
// checking), and on divergence minimize the program with the
// delta-debugging shrinker and write the reproducer into --corpus-dir.
// Exit status 1 when any divergence was found.
//
// --smoke is the ctest configuration: a fixed seed, a small state budget,
// and a ~25 s wall-clock cap, so the full oracle matrix runs on every
// `ctest` invocation without dominating it.
//
// --replay re-runs the oracles on one corpus file or every *.json in a
// directory (exit 1 on any failure) — the corpus regression gate.
//
// --print-seed prints the generated spec JSON for one seed, which is how
// campaign findings are reproduced and corpus seeds are authored.
//
// --json-out writes a machine-readable summary in the shared dcft.report
// envelope (kind "fuzz"), including the telemetry counter snapshot.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/spec_json.hpp"
#include "obs/run_report.hpp"
#include "obs/telemetry.hpp"

namespace {

using namespace dcft;

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--seed N] [--programs N] [--states N] [--threads N]\n"
        "          [--corpus-dir DIR] [--no-shrink] [--time-budget SEC]\n"
        "          [--json-out FILE] [--smoke]\n"
        "       %s --replay PATH [--threads N]\n"
        "       %s --print-seed N [--states N]\n",
        argv0, argv0, argv0);
    return 2;
}

/// Reconstructs the command line for the report envelope.
std::string command_line(int argc, char** argv) {
    std::string cmd;
    for (int i = 0; i < argc; ++i) {
        if (i > 0) cmd += ' ';
        cmd += argv[i];
    }
    return cmd;
}

bool write_json_report(const std::string& path, const std::string& command,
                       const fuzz::CampaignResult& result,
                       const fuzz::CampaignConfig& config) {
    obs::JsonWriter w;
    obs::begin_envelope(w, "fuzz", "dcft_fuzz", command);
    w.kv("campaign_seed", config.seed);
    w.kv("programs_requested", static_cast<std::uint64_t>(config.programs));
    w.kv("programs_run", static_cast<std::uint64_t>(result.programs_run));
    w.kv("elapsed_seconds", result.elapsed_seconds);
    w.kv("time_exhausted", result.time_exhausted);
    w.key("findings").begin_array();
    for (const fuzz::Finding& f : result.findings) {
        w.begin_object();
        w.kv("program_seed", f.program_seed);
        w.kv("index", static_cast<std::uint64_t>(f.index));
        w.kv("file", f.file);
        w.kv("minimized", fuzz::describe(f.minimized));
        w.key("divergences").begin_array();
        for (const fuzz::Divergence& d : f.divergences) {
            w.begin_object();
            w.kv("oracle", d.oracle);
            w.kv("detail", d.detail);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    obs::write_telemetry(w);
    w.end_object();

    std::ofstream out(path);
    if (!out) return false;
    out << w.str() << "\n";
    return out.good();
}

}  // namespace

int main(int argc, char** argv) {
    fuzz::CampaignConfig config;
    config.programs = 200;
    std::string json_out;
    std::string replay_path;
    bool smoke = false;
    bool print_seed = false;
    std::uint64_t print_seed_value = 0;

    auto next_u64 = [&](int& i, std::uint64_t& out) {
        if (i + 1 >= argc) return false;
        out = std::strtoull(argv[++i], nullptr, 10);
        return true;
    };

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        std::uint64_t v = 0;
        if (std::strcmp(arg, "--seed") == 0 && next_u64(i, v)) {
            config.seed = v;
        } else if (std::strcmp(arg, "--programs") == 0 && next_u64(i, v)) {
            config.programs = static_cast<std::size_t>(v);
        } else if (std::strcmp(arg, "--states") == 0 && next_u64(i, v)) {
            config.generator.max_states = v;
        } else if (std::strcmp(arg, "--threads") == 0 && next_u64(i, v)) {
            config.oracle.threads = static_cast<unsigned>(v);
        } else if (std::strcmp(arg, "--time-budget") == 0 && next_u64(i, v)) {
            config.time_budget_seconds = static_cast<double>(v);
        } else if (std::strcmp(arg, "--corpus-dir") == 0 && i + 1 < argc) {
            config.corpus_dir = argv[++i];
        } else if (std::strcmp(arg, "--json-out") == 0 && i + 1 < argc) {
            json_out = argv[++i];
        } else if (std::strcmp(arg, "--replay") == 0 && i + 1 < argc) {
            replay_path = argv[++i];
        } else if (std::strcmp(arg, "--no-shrink") == 0) {
            config.shrink = false;
        } else if (std::strcmp(arg, "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(arg, "--print-seed") == 0 && next_u64(i, v)) {
            print_seed = true;
            print_seed_value = v;
        } else {
            return usage(argv[0]);
        }
    }

    if (print_seed) {
        const fuzz::ProgramSpec spec =
            fuzz::generate_spec(print_seed_value, config.generator);
        std::printf("%s\n", fuzz::to_json(spec).c_str());
        return 0;
    }

    if (!replay_path.empty()) {
        const fuzz::ReplayResult result =
            fuzz::replay_corpus(replay_path, config.oracle);
        std::printf("replayed %zu corpus file%s\n", result.files,
                    result.files == 1 ? "" : "s");
        for (const fuzz::ReplayFailure& f : result.failures)
            std::fprintf(stderr, "FAIL %s: %s\n", f.file.c_str(),
                         f.detail.c_str());
        if (!result.ok()) {
            std::fprintf(stderr, "%zu failure%s\n", result.failures.size(),
                         result.failures.size() == 1 ? "" : "s");
            return 1;
        }
        return 0;
    }

    if (smoke) {
        // Fixed, fast ctest configuration: small spaces, bounded wall
        // clock, deterministic seed.
        config.seed = 1;
        config.programs = 40;
        config.generator.max_states = 512;
        config.time_budget_seconds = 25;
    }

    const fuzz::CampaignResult result = fuzz::run_campaign(config);
    std::printf("campaign seed %llu: %zu/%zu programs in %.1fs%s, %zu "
                "divergent\n",
                static_cast<unsigned long long>(config.seed),
                result.programs_run, config.programs, result.elapsed_seconds,
                result.time_exhausted ? " (budget)" : "",
                result.findings.size());
    for (const fuzz::Finding& f : result.findings) {
        std::fprintf(stderr, "DIVERGENCE seed=%llu index=%zu (%s)\n",
                     static_cast<unsigned long long>(f.program_seed), f.index,
                     fuzz::describe(f.minimized).c_str());
        for (const fuzz::Divergence& d : f.divergences)
            std::fprintf(stderr, "  %s: %s\n", d.oracle.c_str(),
                         d.detail.c_str());
        if (!f.file.empty())
            std::fprintf(stderr, "  reproducer: %s\n", f.file.c_str());
        std::fprintf(stderr, "  reproduce: %s --print-seed %llu\n", argv[0],
                     static_cast<unsigned long long>(f.program_seed));
    }

    if (!json_out.empty() &&
        !write_json_report(json_out, command_line(argc, argv), result,
                           config)) {
        std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
        return 2;
    }
    return result.findings.empty() ? 0 : 1;
}
