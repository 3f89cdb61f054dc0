#include "fuzz/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fuzz/shrinker.hpp"
#include "fuzz/spec_json.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"

namespace dcft::fuzz {

namespace {

namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

}  // namespace

std::uint64_t campaign_program_seed(std::uint64_t campaign_seed,
                                    std::size_t index) {
    // SplitMix64 of (campaign_seed + golden-ratio stride * index): the
    // same mixing the Rng seeder uses, so per-program streams are
    // statistically independent and stable across campaign splits.
    std::uint64_t z = campaign_seed + 0x9E3779B97F4A7C15ULL *
                                          (static_cast<std::uint64_t>(index) +
                                           1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

CampaignResult run_campaign(const CampaignConfig& config) {
    const auto start = std::chrono::steady_clock::now();
    CampaignResult result;
    for (std::size_t i = 0; i < config.programs; ++i) {
        if (config.time_budget_seconds > 0 &&
            seconds_since(start) >= config.time_budget_seconds) {
            result.time_exhausted = true;
            break;
        }
        const std::uint64_t seed = campaign_program_seed(config.seed, i);
        const ProgramSpec spec = generate_spec(seed, config.generator);
        obs::count("fuzz/programs");
        const obs::Span program_span("fuzz/program", i);
        std::vector<Divergence> divergences =
            run_oracles(spec, config.oracle);
        ++result.programs_run;
        if (obs::progress_enabled())
            obs::progress_items("fuzz", result.programs_run,
                                config.programs);
        if (divergences.empty()) continue;

        obs::count("fuzz/divergent");
        Finding finding;
        finding.program_seed = seed;
        finding.index = i;
        finding.divergences = std::move(divergences);
        finding.minimized =
            config.shrink
                ? shrink(spec,
                         [&config](const ProgramSpec& candidate) {
                             return !run_oracles(candidate, config.oracle)
                                         .empty();
                         })
                : spec;

        if (!config.corpus_dir.empty()) {
            std::error_code ec;
            fs::create_directories(config.corpus_dir, ec);
            std::ostringstream name;
            name << "fuzz-" << config.seed << "-" << i << ".json";
            const fs::path path = fs::path(config.corpus_dir) / name.str();
            std::ofstream file(path);
            if (file) {
                file << to_json(finding.minimized) << "\n";
                finding.file = path.string();
            }
        }
        result.findings.push_back(std::move(finding));
    }
    result.elapsed_seconds = seconds_since(start);
    return result;
}

ReplayResult replay_corpus(const std::string& path,
                           const OracleOptions& options) {
    ReplayResult result;
    std::vector<fs::path> files;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        for (const auto& entry : fs::directory_iterator(path, ec)) {
            if (!entry.is_regular_file()) continue;
            if (entry.path().extension() != ".json") continue;
            files.push_back(entry.path());
        }
        std::sort(files.begin(), files.end());
    } else if (fs::exists(path, ec)) {
        files.emplace_back(path);
    } else {
        result.failures.push_back({path, "no such file or directory"});
        return result;
    }

    for (const fs::path& file : files) {
        ++result.files;
        std::ifstream in(file);
        if (!in) {
            result.failures.push_back({file.string(), "unreadable"});
            continue;
        }
        std::ostringstream text;
        text << in.rdbuf();
        std::string error;
        const std::optional<ProgramSpec> spec =
            from_json(text.str(), &error);
        if (!spec.has_value()) {
            result.failures.push_back(
                {file.string(), "parse error: " + error});
            continue;
        }
        if (!validate(*spec, &error)) {
            result.failures.push_back(
                {file.string(), "invalid spec: " + error});
            continue;
        }
        const std::vector<Divergence> divergences =
            run_oracles(*spec, options);
        for (const Divergence& d : divergences)
            result.failures.push_back(
                {file.string(), d.oracle + ": " + d.detail});
    }
    return result;
}

}  // namespace dcft::fuzz
