// Persistent graph store (verify/graph_store.hpp): snapshot round-trips
// are bit-identical to the explored graph across thread counts and
// in-core vs spill builds, empty graphs included; keys are stable within
// a run and distinct across systems; corrupted/truncated/version-skewed
// files are rejected with clear errors (never a crash, never a silently
// wrong graph); the byte budget evicts least-recently-used entries; and
// the ExplorationCache serves repeat queries — including early-exit
// ones — from the store after its in-memory entries are gone.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "apps/token_ring.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/graph_store.hpp"

namespace dcft {
namespace {

/// Scoped environment override restoring the previous value on exit.
class EnvGuard {
public:
    EnvGuard(const char* name, const char* value) : name_(name) {
        if (const char* prev = ::getenv(name)) prev_ = prev;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~EnvGuard() {
        if (prev_.has_value())
            ::setenv(name_, prev_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

private:
    const char* name_;
    std::optional<std::string> prev_;
};

/// A fresh store directory, removed with its contents on destruction.
class TempStore {
public:
    TempStore() {
        char tmpl[] = "/tmp/dcft-store-test-XXXXXX";
        dir_ = ::mkdtemp(tmpl);
    }
    ~TempStore() {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }
    const std::string& dir() const { return dir_; }

private:
    std::string dir_;
};

template <typename T>
void expect_span_eq(std::span<const T> a, std::span<const T> b,
                    const char* what) {
    ASSERT_EQ(a.size(), b.size()) << what;
    ASSERT_TRUE(a.empty() ||
                std::memcmp(a.data(), b.data(), a.size_bytes()) == 0)
        << what << " differ";
}

/// Full structural comparison: every array the snapshot carries, plus the
/// rebuilt interner answering exactly like the original.
void expect_bit_identical(const TransitionSystem& a,
                          const TransitionSystem& b) {
    expect_span_eq(a.raw_states(), b.raw_states(), "states");
    expect_span_eq(a.raw_parent(), b.raw_parent(), "parent");
    expect_span_eq(a.raw_prog_offsets(), b.raw_prog_offsets(),
                   "prog_offsets");
    expect_span_eq(a.raw_prog_edges(), b.raw_prog_edges(), "prog_edges");
    ASSERT_EQ(a.initial_nodes(), b.initial_nodes());
    ASSERT_EQ(a.num_fault_edges(), b.num_fault_edges());
    // Fault rows are not stored: the adopted side compiles its fault
    // kernel on first use and must regenerate the same rows.
    std::vector<TransitionSystem::Edge> fa, fb;
    for (NodeId n = 0; n < a.num_nodes(); ++n) {
        a.fault_edges(n, fa);
        b.fault_edges(n, fb);
        ASSERT_EQ(fa, fb) << "fault row of node " << n;
    }
    ASSERT_EQ(a.num_fault_actions(), b.num_fault_actions());
    for (std::uint32_t f = 0; f < a.num_fault_actions(); ++f)
        EXPECT_EQ(a.fault_action_name(f), b.fault_action_name(f));
    EXPECT_TRUE(b.complete());
    // Interner round-trip (forces the lazy rebuild on the adopted side).
    for (NodeId n = 0; n < a.num_nodes(); n += 7) {
        const StateIndex s = a.state_of(n);
        ASSERT_TRUE(b.has_state(s));
        ASSERT_EQ(b.node_of(s), n);
    }
}

GraphKey key_of(const apps::TokenRingSystem& sys, const Predicate& init) {
    return graph_key(sys.ring, &sys.corrupt_any,
                     eval_bits(*sys.space, init));
}

TEST(GraphStoreTest, RoundTripIsBitIdenticalAcrossThreadCounts) {
    auto sys = apps::make_token_ring(4, 4);
    TempStore tmp;
    GraphStore store(tmp.dir(), 0);
    const GraphKey key = key_of(sys, sys.legitimate);

    const TransitionSystem reference(sys.ring, &sys.corrupt_any,
                                     sys.legitimate, 1);
    ASSERT_TRUE(store.save(key, reference));
    ASSERT_TRUE(store.contains(key));

    for (unsigned threads : {1u, 2u, 8u}) {
        const TransitionSystem fresh(sys.ring, &sys.corrupt_any,
                                     sys.legitimate, threads);
        std::string error;
        auto loaded = store.load(key, sys.ring, &sys.corrupt_any, &error);
        ASSERT_NE(loaded, nullptr) << error;
        expect_bit_identical(fresh, *loaded);
    }
}

TEST(GraphStoreTest, SpillBuiltSnapshotMatchesInCoreBuild) {
    auto sys = apps::make_token_ring(4, 4);
    TempStore tmp;
    GraphStore store(tmp.dir(), 0);
    const GraphKey key = key_of(sys, sys.legitimate);

    ExploreOptions spill_opts;
    spill_opts.spill = true;
    const TransitionSystem spilled(sys.ring, &sys.corrupt_any,
                                   sys.legitimate, spill_opts);
    ASSERT_TRUE(spilled.spilled());
    ASSERT_TRUE(store.save(key, spilled));

    const TransitionSystem in_core(sys.ring, &sys.corrupt_any,
                                   sys.legitimate);
    auto loaded = store.load(key, sys.ring, &sys.corrupt_any);
    ASSERT_NE(loaded, nullptr);
    expect_bit_identical(in_core, *loaded);
    EXPECT_FALSE(loaded->spilled());
}

TEST(GraphStoreTest, EmptyGraphRoundTrips) {
    // An exploration from false has no initial nodes: every section is
    // empty, and loading must not copy into the empty initial array.
    auto sys = apps::make_token_ring(4, 4);
    TempStore tmp;
    GraphStore store(tmp.dir(), 0);
    const GraphKey key = key_of(sys, Predicate::bottom());

    const TransitionSystem empty(sys.ring, &sys.corrupt_any,
                                 Predicate::bottom(), 1);
    ASSERT_EQ(empty.num_nodes(), 0u);
    ASSERT_TRUE(store.save(key, empty));

    std::string error;
    auto loaded = store.load(key, sys.ring, &sys.corrupt_any, &error);
    ASSERT_NE(loaded, nullptr) << error;
    expect_bit_identical(empty, *loaded);
    EXPECT_TRUE(loaded->initial_nodes().empty());
}

TEST(GraphStoreTest, KeysSeparateSystemsFaultsAndInitialSets) {
    auto sys = apps::make_token_ring(4, 4);
    auto other = apps::make_token_ring(3, 4);
    const BitVec legit = eval_bits(*sys.space, sys.legitimate);
    const BitVec top = eval_bits(*sys.space, Predicate::top());

    const GraphKey base = graph_key(sys.ring, &sys.corrupt_any, legit);
    EXPECT_EQ(base, graph_key(sys.ring, &sys.corrupt_any, legit))
        << "key must be deterministic";
    EXPECT_NE(base, graph_key(sys.ring, nullptr, legit));
    EXPECT_NE(base, graph_key(sys.ring, &sys.corrupt_any, top));
    EXPECT_NE(base, graph_key(other.ring, &other.corrupt_any,
                              eval_bits(*other.space, other.legitimate)));
}

TEST(GraphStoreTest, CorruptedTruncatedAndVersionSkewedFilesAreRejected) {
    auto sys = apps::make_token_ring(3, 3);
    TempStore tmp;
    GraphStore store(tmp.dir(), 0);
    const GraphKey key = key_of(sys, Predicate::top());
    const TransitionSystem ts(sys.ring, &sys.corrupt_any, Predicate::top());
    ASSERT_TRUE(store.save(key, ts));
    const std::string path = tmp.dir() + "/" + key.hex() + ".dcftg";
    const auto file_size = std::filesystem::file_size(path);

    auto patch = [&](std::size_t at, const void* bytes, std::size_t n) {
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(at));
        f.write(static_cast<const char*>(bytes),
                static_cast<std::streamsize>(n));
    };
    auto load_error = [&]() {
        std::string error;
        auto loaded = store.load(key, sys.ring, &sys.corrupt_any, &error);
        EXPECT_EQ(loaded, nullptr);
        return error;
    };

    // Payload corruption: flip one byte mid-file.
    {
        std::ifstream f(path, std::ios::binary);
        f.seekg(static_cast<std::streamoff>(file_size / 2));
        char byte = 0;
        f.read(&byte, 1);
        const char flipped = static_cast<char>(byte ^ 0x40);
        patch(file_size / 2, &flipped, 1);
        EXPECT_NE(load_error().find("checksum"), std::string::npos);
        patch(file_size / 2, &byte, 1);  // restore
    }
    // Version skew (validated before the header digest, so the message
    // names the version). A v1 snapshot, which still carried the fault
    // CSR sections, is rejected like any other version and re-explored.
    {
        const std::uint32_t v1 = 1;
        patch(8, &v1, sizeof(v1));
        EXPECT_NE(load_error().find("unsupported dcft.graph version 1"),
                  std::string::npos);
        const std::uint32_t bad_version = 99;
        patch(8, &bad_version, sizeof(bad_version));
        EXPECT_NE(load_error().find("version"), std::string::npos);
        const std::uint32_t good_version = 2;
        patch(8, &good_version, sizeof(good_version));
    }
    // Header corruption (key bytes): caught by the header digest.
    {
        const std::uint64_t garbage = 0xDEADBEEF;
        patch(16, &garbage, sizeof(garbage));
        EXPECT_NE(load_error().find("checksum"), std::string::npos);
    }
    // Restore a clean copy, then truncate it.
    ASSERT_TRUE(store.save(key, ts));
    std::filesystem::resize_file(path, file_size / 2);
    EXPECT_NE(load_error().find("truncated"), std::string::npos);
    // Not a dcft.graph file at all.
    {
        std::ofstream f(path, std::ios::binary | std::ios::trunc);
        const std::string junk(8192, 'x');
        f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
    }
    EXPECT_NE(load_error().find("magic"), std::string::npos);
    // A sane file still loads after all that (save republishes).
    ASSERT_TRUE(store.save(key, ts));
    std::string error;
    auto loaded = store.load(key, sys.ring, &sys.corrupt_any, &error);
    ASSERT_NE(loaded, nullptr) << error;
    expect_bit_identical(ts, *loaded);
}

TEST(GraphStoreTest, FaultRowsLeavingTheStoredGraphAreRejected) {
    // The snapshot carries no fault edges; the loader's fault class
    // regenerates them. A fault class whose rows leave the stored node set
    // (here: corrupt-any against a graph explored under a stutter fault,
    // as if a fault lambda had changed under an unchanged key) is rejected
    // at load, so the caller re-explores.
    auto sys = apps::make_token_ring(4, 4);
    FaultClass stutter(sys.space, "stutter");
    stutter.add_action(Action::skip("corrupt", Predicate::top()));
    TempStore tmp;
    GraphStore store(tmp.dir(), 0);
    const GraphKey key = key_of(sys, sys.legitimate);
    const TransitionSystem ts(sys.ring, &stutter, sys.legitimate);
    ASSERT_LT(ts.num_nodes(), sys.space->num_states());
    ASSERT_TRUE(store.save(key, ts));
    std::string error;
    EXPECT_EQ(store.load(key, sys.ring, &sys.corrupt_any, &error), nullptr);
    EXPECT_NE(error.find("fault rows leave the stored node set"),
              std::string::npos)
        << error;
    const auto same = store.load(key, sys.ring, &stutter, &error);
    ASSERT_NE(same, nullptr) << error;
    expect_bit_identical(ts, *same);
}

TEST(GraphStoreTest, ByteBudgetEvictsLeastRecentlyUsed) {
    auto sys = apps::make_token_ring(3, 3);
    TempStore tmp;
    const TransitionSystem with_faults(sys.ring, &sys.corrupt_any,
                                       Predicate::top());
    const TransitionSystem no_faults(sys.ring, nullptr, Predicate::top());
    const TransitionSystem legit(sys.ring, &sys.corrupt_any,
                                 sys.legitimate);
    const BitVec top = eval_bits(*sys.space, Predicate::top());
    const GraphKey k1 = graph_key(sys.ring, &sys.corrupt_any, top);
    const GraphKey k2 = graph_key(sys.ring, nullptr, top);
    const GraphKey k3 = key_of(sys, sys.legitimate);

    // Budget below three snapshots: the oldest (by mtime) must go. Use an
    // unlimited store first to learn the file sizes.
    {
        GraphStore probe(tmp.dir(), 0);
        ASSERT_TRUE(probe.save(k1, with_faults));
        const auto one = std::filesystem::file_size(
            tmp.dir() + "/" + k1.hex() + ".dcftg");
        std::filesystem::remove(tmp.dir() + "/" + k1.hex() + ".dcftg");

        GraphStore store(tmp.dir(), 2 * one + one / 2);
        ASSERT_TRUE(store.save(k1, with_faults));
        struct timespec times[2] = {{1, 0}, {1, 0}};  // age the first entry
        ASSERT_EQ(::utimensat(AT_FDCWD,
                              (tmp.dir() + "/" + k1.hex() + ".dcftg").c_str(),
                              times, 0),
                  0);
        ASSERT_TRUE(store.save(k2, no_faults));
        ASSERT_TRUE(store.save(k3, legit));
        EXPECT_FALSE(store.contains(k1)) << "oldest entry must be evicted";
        EXPECT_TRUE(store.contains(k3)) << "fresh entry must survive";
    }
}

TEST(GraphStoreTest, ExplorationCacheServesRepeatQueriesFromStore) {
    TempStore tmp;
    EnvGuard store_env("DCFT_GRAPH_STORE", tmp.dir().c_str());
    EnvGuard cache_env("DCFT_NO_EXPLORE_CACHE", nullptr);
    auto& cache = ExplorationCache::global();
    cache.clear();

    auto sys = apps::make_token_ring(4, 4);
    const auto cold =
        cache.get_or_build(sys.ring, &sys.corrupt_any, sys.legitimate);
    ASSERT_TRUE(cold->complete());

    // Forget the in-memory entry: the next query must come back from the
    // store as an adopted snapshot, not a re-exploration (pointer differs,
    // content identical).
    cache.clear();
    const auto warm =
        cache.get_or_build(sys.ring, &sys.corrupt_any, sys.legitimate);
    EXPECT_NE(cold.get(), warm.get());
    expect_bit_identical(*cold, *warm);

    // Early-exit queries are served from the store too: the stored graph
    // is complete, so the caller scans it via first_bad_node.
    cache.clear();
    const Predicate bad("two_privileges", [&sys](const StateSpace& sp,
                                                 StateIndex s) {
        int privileged = 0;
        for (int i = 0; i < sys.n; ++i)
            privileged += sys.privilege(i).eval(sp, s) ? 1 : 0;
        return privileged >= 2;
    });
    const auto early = cache.get_or_build_early_exit(
        sys.ring, &sys.corrupt_any, sys.legitimate, bad);
    ASSERT_TRUE(early->complete())
        << "store-served early-exit query must yield the full graph";
    expect_bit_identical(*cold, *early);

    cache.clear();
}

}  // namespace
}  // namespace dcft
