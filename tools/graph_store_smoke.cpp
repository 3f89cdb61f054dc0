// graph_store_smoke — the verify suite twice against one persistent
// graph store (ctest). Pass 1 runs the full tolerance grid (failsafe /
// nonmasking / masking over every variant) for several catalog systems
// with DCFT_GRAPH_STORE pointing at a fresh directory, populating it.
// The exploration cache is then dropped — as a process restart would —
// and the identical suite runs again. The second pass must be served
// entirely from the store: zero new explorations, store hits for every
// graph the suite needs, no new misses or saves, and verdicts identical
// to the first pass (the mmap-adopted graphs are bit-identical). Every
// snapshot is format v3, which stores no fault edges: a p [] F file holds
// exactly the header page plus the page-padded states, parents, program
// CSR and initial list — and an identity graph (here the token-ring
// fault span, the whole space) no states or parents at all.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/catalog.hpp"
#include "obs/telemetry.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/graph_store.hpp"
#include "verify/tolerance_checker.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
    std::printf("%s: %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok) ++g_failures;
}

std::uint64_t counter(const char* name) {
    return dcft::obs::Registry::global().counter(name).value();
}

/// One suite row: (system, variant, grade, verdict, reason).
using Row = std::tuple<std::string, std::string, std::string, bool,
                       std::string>;

std::vector<Row> run_suite() {
    const std::vector<std::pair<std::string, int>> workloads = {
        {"token-ring", 6}, {"tmr", 2}, {"memory", 3}};
    std::vector<Row> rows;
    for (const auto& [name, size] : workloads) {
        const dcft::apps::SystemInstance sys =
            dcft::apps::load_system(name, size);
        for (const auto& [variant, program] : sys.variants) {
            const auto push = [&](const char* grade,
                                  const dcft::ToleranceReport& report) {
                rows.emplace_back(name, variant, grade, report.ok(),
                                  report.reason());
            };
            push("failsafe",
                 dcft::check_failsafe(program, *sys.faults, sys.spec,
                                      sys.invariant));
            push("nonmasking",
                 dcft::check_nonmasking(program, *sys.faults, sys.spec,
                                        sys.invariant));
            push("masking",
                 dcft::check_masking(program, *sys.faults, sys.spec,
                                     sys.invariant));
        }
    }
    return rows;
}

/// The format version of a snapshot (the u32 after the 8-byte magic).
std::uint32_t snapshot_version(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    char magic[8];
    std::uint32_t version = 0;
    in.read(magic, sizeof(magic));
    in.read(reinterpret_cast<char*>(&version), sizeof(version));
    return in ? version : 0;
}

/// Saves the token-ring 6 fault span and checks the file size against the
/// sections a v3 snapshot carries: the span is the whole space, so it is
/// an identity graph with no states or parent sections.
void check_snapshot_size(const std::string& dir) {
    constexpr std::uint64_t kPage = 4096;
    auto padded = [&](std::uint64_t bytes) {
        return (bytes + kPage - 1) / kPage * kPage;
    };
    const dcft::apps::SystemInstance sys =
        dcft::apps::load_system("token-ring", 6);
    const dcft::Program& program = sys.variants.begin()->second;
    const dcft::BitVec init = dcft::eval_bits(*sys.space, sys.invariant);
    const dcft::TransitionSystem ts(program, sys.faults.get(), sys.invariant);
    dcft::GraphStore store(dir, 0);
    const dcft::GraphKey key =
        dcft::graph_key(program, sys.faults.get(), init);
    check(store.save(key, ts), "fault-span snapshot saved");

    const std::uint64_t n = ts.num_nodes();
    check(ts.identity_interner(), "the full fault span is an identity graph");
    const std::uint64_t v3_bytes =
        kPage + padded((n + 1) * sizeof(std::uint64_t)) +
        padded(ts.num_program_edges() * sizeof(dcft::TransitionSystem::Edge)) +
        padded(ts.initial_nodes().size() * sizeof(dcft::NodeId));
    const std::filesystem::path path = dir + "/" + key.hex() + ".dcftg";
    const std::uint64_t file_bytes = std::filesystem::file_size(path);
    check(snapshot_version(path) == 3, "snapshot is dcft.graph v3");
    check(ts.num_fault_edges() > 0 && file_bytes == v3_bytes,
          "snapshot holds no fault edges, states or parents (" +
              std::to_string(file_bytes) +
              " bytes, header + program CSR + initial = " +
              std::to_string(v3_bytes) + ", " +
              std::to_string(ts.num_fault_edges()) + " fault edges)");
}

}  // namespace

int main() {
    dcft::obs::set_enabled(true);

    char dir_template[] = "/tmp/dcft-graph-store-smoke-XXXXXX";
    if (::mkdtemp(dir_template) == nullptr) {
        std::fprintf(stderr, "FAIL: mkdtemp failed\n");
        return 1;
    }
    const std::string store_dir = dir_template;
    ::setenv("DCFT_GRAPH_STORE", store_dir.c_str(), 1);

    // -- Pass 1: cold — explores, and publishes every graph -------------
    const std::vector<Row> cold = run_suite();
    const std::uint64_t explored = counter("verify/explorations");
    const std::uint64_t misses = counter("verify/graph_store/misses");
    const std::uint64_t saves = counter("verify/graph_store/saves");
    check(!cold.empty(), "suite produced verdicts");
    check(explored > 0, "cold pass explored");
    check(saves > 0, "cold pass published graphs to the store");

    std::size_t stored_files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(store_dir))
        if (entry.path().extension() == ".dcftg") ++stored_files;
    check(stored_files == saves,
          "one .dcftg snapshot per save (" +
              std::to_string(stored_files) + " files, " +
              std::to_string(saves) + " saves)");
    bool all_v3 = stored_files > 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(store_dir))
        if (entry.path().extension() == ".dcftg")
            all_v3 = all_v3 && snapshot_version(entry.path()) == 3;
    check(all_v3, "every snapshot is dcft.graph v3");

    // Simulate a process restart: the in-memory cache is gone, only the
    // store directory survives.
    dcft::ExplorationCache::global().clear();

    // -- Pass 2: warm — every graph must come from the store ------------
    const std::vector<Row> warm = run_suite();
    const std::uint64_t hits = counter("verify/graph_store/hits");
    check(counter("verify/explorations") == explored,
          "warm pass ran zero new explorations");
    check(hits >= saves,
          "warm pass hit the store for every published graph (" +
              std::to_string(hits) + " hits, " + std::to_string(saves) +
              " saved)");
    check(counter("verify/graph_store/misses") == misses,
          "warm pass had no store misses");
    check(counter("verify/graph_store/saves") == saves,
          "warm pass re-published nothing");
    check(counter("verify/graph_store/load_errors") == 0,
          "no snapshot failed to load");

    check(warm.size() == cold.size(), "both passes ran the same grid");
    bool verdicts_match = warm.size() == cold.size();
    for (std::size_t i = 0; verdicts_match && i < cold.size(); ++i)
        verdicts_match = cold[i] == warm[i];
    check(verdicts_match,
          "mmap-served verdicts identical to freshly explored ones");

    check_snapshot_size(store_dir + "/size");

    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);

    if (g_failures == 0) {
        std::printf("graph_store_smoke: all checks passed\n");
        return 0;
    }
    std::fprintf(stderr, "graph_store_smoke: %d check(s) failed\n",
                 g_failures);
    return 1;
}
