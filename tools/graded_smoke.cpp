// graded_smoke — end-to-end check of the graded-tolerance pipeline.
//
// Two phases, both deterministic and small enough for every ctest run:
//
//  1. Consistency: for every catalog system (small sizes) and every
//     program variant, the masking-distance game must agree with the
//     explicit checker — distance inf exactly when check_failsafe's
//     in-presence safety obligation holds, and a finite distance comes
//     with a witness carrying exactly `distance` fault steps.
//
//     The distances are pinned per variant.
//
//  2. Determinism: the catalog-standard graded blocks (game + 200-run
//     Monte Carlo estimate, fixed base seed) serialized through the
//     dcft.report query writer must be byte-identical across Monte Carlo
//     thread counts 1/2/8 — the merge is slice-ordered, so pooled
//     samples (and float summation order) never depend on scheduling.
//
//  3. Game determinism: on large graphs the game regenerates fault rows
//     over parallel node chunks, so its distance, reason, witness and
//     layer counts must be identical at 1 and 4 verifier threads, with
//     the parallel work threshold forced down so these graphs split.
//
//  4. Golden Monte Carlo blocks: the catalog-standard graded blocks of the
//     five graded-grid systems (gridbench GRADED sizes, base seed 1) must
//     equal GOLDEN_FILE byte for byte: per variant, a `# system size
//     variant` line, then the query JSON. A mismatch writes the actual
//     text to OUT_FILE, so `diff -u GOLDEN_FILE
//     OUT_FILE` shows the change.
//
//   graded_smoke [GOLDEN_FILE OUT_FILE]   (phase 4 runs only with both)
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/catalog.hpp"
#include "obs/json.hpp"
#include "obs/run_report.hpp"
#include "runtime/estimate.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/masking_distance.hpp"
#include "verify/tolerance_checker.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    std::fprintf(stderr, "graded_smoke: FAIL: %s\n", what.c_str());
}

std::string fmt_distance(const dcft::MaskingDistanceResult& r) {
    return r.masking ? "inf" : std::to_string(r.distance);
}

/// Phase 1: game vs explicit checker on the whole catalog.
void check_consistency() {
    using dcft::apps::SystemInstance;
    // Small sizes for the systems whose default graphs are larger; 0
    // keeps the catalog default (already small) everywhere else.
    const std::vector<std::pair<std::string, int>> sizes = {
        {"token-ring", 4}, {"byzantine", 3}, {"spanning-tree", 3},
        {"election", 3},   {"termination", 3}, {"reset", 3}};
    auto size_of = [&](const std::string& name) {
        for (const auto& [n, s] : sizes)
            if (n == name) return s;
        return 0;
    };
    // Masking distances of every variant at these sizes ("inf" = masking).
    const std::map<std::string, std::string> pinned = {
        {"memory/failsafe", "inf"},  {"memory/intolerant", "1"},
        {"memory/masking", "inf"},   {"memory/nonmasking", "1"},
        {"tmr/failsafe", "inf"},     {"tmr/intolerant", "1"},
        {"tmr/masking", "inf"},      {"byzantine/failsafe", "inf"},
        {"byzantine/intolerant", "1"}, {"byzantine/masking", "1"},
        {"token-ring/ring", "1"},    {"spanning-tree/tree", "1"},
        {"election/election", "1"},  {"termination/probe", "1"},
        {"barrier/rechecking", "inf"}, {"barrier/trusting", "1"},
        {"reset/reset", "1"},        {"abp/protocol", "inf"}};
    for (const std::string& name : dcft::apps::catalog_names()) {
        const SystemInstance sys = dcft::apps::load_system(name,
                                                           size_of(name));
        for (const auto& [variant, program] : sys.variants) {
            const dcft::MaskingDistanceResult game = dcft::masking_distance(
                program, *sys.faults, sys.spec, sys.invariant);
            const dcft::ToleranceReport fs = dcft::check_failsafe(
                program, *sys.faults, sys.spec, sys.invariant);
            const std::string where = name + "/" + variant;
            expect(game.masking == fs.in_presence.ok,
                   where + ": game says distance " + fmt_distance(game) +
                       " but check_failsafe in-presence ok=" +
                       (fs.in_presence.ok ? "true" : "false") + " (" +
                       fs.in_presence.reason + ")");
            if (!game.masking) {
                expect(game.witness_faults() == game.distance,
                       where + ": witness carries " +
                           std::to_string(game.witness_faults()) +
                           " fault steps for distance " +
                           std::to_string(game.distance));
                expect(!game.witness.empty(),
                       where + ": finite distance without a witness");
            } else {
                expect(game.witness.empty(),
                       where + ": masking verdict with a witness trace");
            }
            const auto pin = pinned.find(where);
            expect(pin != pinned.end() && pin->second == fmt_distance(game),
                   where + ": distance " + fmt_distance(game) +
                       " differs from the pinned value");
            std::printf("graded_smoke: %-28s distance %s\n", where.c_str(),
                        fmt_distance(game).c_str());
        }
    }
}

/// Serializes one variant's graded blocks through the dcft.report query
/// writer (the exact bytes `dcft verify --graded --report` emits).
std::string graded_bytes(const dcft::apps::SystemInstance& sys,
                         const dcft::Program& variant,
                         const dcft::ToleranceEstimateOptions& options) {
    const dcft::apps::GradedBlocks blocks =
        dcft::apps::graded_blocks(sys, variant, options);
    dcft::obs::ReportQuery q;
    q.name = "graded_smoke";
    q.masking_distance = blocks.masking_distance;
    q.monte_carlo = blocks.monte_carlo;
    dcft::obs::JsonWriter w;
    dcft::obs::write_query(w, q);
    return w.str();
}

/// Phase 2: 200-run fixed-seed estimate, byte-stable across MC threads.
void check_determinism() {
    const dcft::apps::SystemInstance sys =
        dcft::apps::load_system("memory", 0);
    dcft::ToleranceEstimateOptions options;
    options.runs = 200;
    options.base_seed = 7;
    for (const auto& [variant, program] : sys.variants) {
        options.threads = 1;
        const std::string base = graded_bytes(sys, program, options);
        for (const unsigned threads : {2u, 8u}) {
            options.threads = threads;
            const std::string other = graded_bytes(sys, program, options);
            expect(other == base,
                   "memory/" + variant + ": graded blocks differ between "
                   "1 and " + std::to_string(threads) + " MC threads");
        }
        std::printf("graded_smoke: memory/%-10s byte-stable across "
                    "MC threads 1/2/8 (%zu bytes)\n",
                    variant.c_str(), base.size());
    }
}

/// Everything a game result reports, as one comparable string.
std::string game_bytes(const dcft::MaskingDistanceResult& r) {
    std::string out = fmt_distance(r) + "|" + r.reason + "|" +
                      std::to_string(r.game_nodes) + "|" +
                      std::to_string(r.game_layers);
    for (const dcft::WitnessStep& step : r.witness)
        out += "|" + step.state_repr + "/" + step.action +
               (step.fault ? "/f" : "");
    return out;
}

/// Phase 3: the game at 1 and 4 verifier threads.
void check_game_threads() {
    const std::vector<std::pair<std::string, int>> systems = {
        {"token-ring", 6}, {"barrier", 8}, {"byzantine", 5}, {"reset", 8},
        {"abp", 6}};
    for (const auto& [name, size] : systems) {
        const dcft::apps::SystemInstance sys =
            dcft::apps::load_system(name, size);
        for (const auto& [variant, program] : sys.variants) {
            std::string base;
            for (const char* threads : {"1", "4"}) {
                ::setenv("DCFT_VERIFIER_THREADS", threads, 1);
                const std::string got = game_bytes(dcft::masking_distance(
                    program, *sys.faults, sys.spec, sys.invariant));
                if (base.empty()) base = got;
                expect(got == base, name + "/" + variant +
                                        ": game differs between 1 and " +
                                        threads + " verifier threads");
            }
            ::unsetenv("DCFT_VERIFIER_THREADS");
            std::printf("graded_smoke: %s %d/%-10s game identical at "
                        "1/4 verifier threads\n",
                        name.c_str(), size, variant.c_str());
        }
    }
}

/// Phase 4: the graded blocks of the graded-grid systems against a golden
/// file.
void check_golden_blocks(const std::string& golden_path,
                         const std::string& out_path) {
    const std::vector<std::pair<std::string, int>> systems = {
        {"byzantine", 5}, {"barrier", 8}, {"reset", 8}, {"abp", 6},
        {"token-ring", 6}};
    std::string got;
    for (const auto& [name, size] : systems) {
        const dcft::apps::SystemInstance sys =
            dcft::apps::load_system(name, size);
        for (const auto& [variant, program] : sys.variants)
            got += "# " + name + " " + std::to_string(size) + " " +
                   variant + "\n" + graded_bytes(sys, program, {}) + "\n";
    }
    std::ifstream in(golden_path, std::ios::binary);
    std::ostringstream want;
    want << in.rdbuf();
    if (in && got == want.str()) {
        std::printf("graded_smoke: graded-grid blocks equal %s\n",
                    golden_path.c_str());
        return;
    }
    std::ofstream(out_path, std::ios::binary) << got;
    expect(false, "graded-grid blocks differ from " + golden_path +
                      " (actual text in " + out_path + ")");
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 1 && argc != 3) {
        std::fprintf(stderr, "usage: graded_smoke [GOLDEN_FILE OUT_FILE]\n");
        return 2;
    }
    check_consistency();
    check_determinism();
    check_game_threads();
    if (argc == 3) check_golden_blocks(argv[1], argv[2]);
    dcft::ExplorationCache::global().clear();
    if (failures != 0) {
        std::fprintf(stderr, "graded_smoke: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("graded_smoke: all checks passed\n");
    return 0;
}
