// Persistent graph store: `dcft.graph` snapshots of explored transition
// systems, shared across processes and restarts.
//
// A TransitionSystem is already flat arrays (node states, BFS parents,
// program CSR offsets/edges; fault edges are regenerated, never stored;
// identity graphs have no node states or parents, only an identity flag
// and their initial set), so a snapshot is those arrays written verbatim
// into
// a versioned, checksummed, page-aligned file and *adopted* back by mmap
// — loading is O(mmap + checksum scan), there is no deserialization loop
// and no per-element work (see DESIGN.md §10).
//
// Keying. The in-process ExplorationCache keys entries by process-local
// identities (StateSpace::uid, Action::id). Those cannot name a file that
// outlives the process, so the store derives a *stable* 128-bit content
// fingerprint instead:
//
//   space structure   variable names + domain sizes + state count
//   program           name + per-action structural fingerprint: action
//                     name, guard name, the structured EffectForm fields,
//                     and a semantic sample — the successor sets of 64
//                     deterministic pseudo-random states per action,
//                     computed through the interpreted path
//   fault class       same, when present (plus a presence flag)
//   initial set       FNV-1a over the materialized bit words + popcount
//
// Two runs of the same system therefore agree on the key, while any edit
// to a guard, an effect, a domain, or the initial set moves it (the
// structured fields catch most edits exactly; the semantic sample catches
// kGeneric lambdas whose behavior changed).
//
// Store layout. DCFT_GRAPH_STORE=DIR holds one `<key-hex>.dcftg` file per
// graph. Writers publish atomically (temp file + rename), readers bump
// the file mtime on every hit, and after each save the writer evicts
// least-recently-used files until the directory fits the byte budget
// (DCFT_GRAPH_STORE_BYTES, default 32 GiB). Concurrent processes may race
// on publish; rename() makes either outcome a complete, identical file.
//
// Integrity. The fixed header carries magic/version/endianness, the key,
// array counts, a section table, and two checksums (header and payload).
// Loads validate all of it before adopting a single byte: a truncated,
// corrupted, or version-skewed file is *rejected* (nullptr + counter +
// reason), never crashed on and never served as a silently wrong graph.
// Fault rows are not stored but regenerated from the caller's fault class,
// so a load also regenerates the rows of 64 stored nodes and rejects the
// file when one leads outside the stored node set (an opaque fault lambda
// that changed under an unchanged key).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/bitvec.hpp"
#include "gc/program.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

/// Stable 128-bit content identity of (space, program, faults, init).
struct GraphKey {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    /// 32-hex-digit rendering; the store's file stem.
    std::string hex() const;

    friend bool operator==(const GraphKey&, const GraphKey&) = default;
};

/// Derives the stable fingerprint described in the file comment. The
/// initial set must be materialized over the program's full space.
GraphKey graph_key(const Program& program, const FaultClass* faults,
                   const BitVec& init_bits);

/// Why GraphStore::load returned no graph.
enum class StoreLoadError {
    kNone,     ///< loaded
    kMiss,     ///< no snapshot under the key
    kVersion,  ///< a snapshot of another format version (re-explore)
    kInvalid,  ///< corrupt, truncated or inconsistent snapshot
};

/// One snapshot directory (see file comment). Thread-safe: every method
/// is self-contained filesystem work.
class GraphStore {
public:
    /// The store named by DCFT_GRAPH_STORE, or nullptr when the variable
    /// is unset/empty. Re-reads the environment on every call (tests and
    /// the fuzz harness repoint it); the returned pointer stays valid
    /// until the next call that observes a *different* directory.
    static GraphStore* global();

    /// Opens (creating if needed) the store at `dir`. `byte_budget` of 0
    /// means unlimited.
    explicit GraphStore(std::string dir, std::uint64_t byte_budget);

    /// Loads the snapshot of `key`, reconstructing it over `program` /
    /// `faults` (which the caller has already matched to the key). On a
    /// miss or any validation failure returns nullptr; when `error` is
    /// non-null it receives the reason ("" for a plain miss), and when
    /// `kind` is non-null the typed cause.
    std::shared_ptr<TransitionSystem> load(const GraphKey& key,
                                           const Program& program,
                                           const FaultClass* faults,
                                           std::string* error = nullptr,
                                           StoreLoadError* kind = nullptr);

    /// Writes a snapshot of `ts` under `key`, atomically, then enforces
    /// the byte budget. Returns false (with `error` set) on I/O failure;
    /// an existing entry is overwritten.
    bool save(const GraphKey& key, const TransitionSystem& ts,
              std::string* error = nullptr);

    /// Whether an entry for `key` currently exists.
    bool contains(const GraphKey& key) const;

    const std::string& dir() const { return dir_; }
    std::uint64_t byte_budget() const { return byte_budget_; }

private:
    void evict(const std::string& keep_path);
    std::string path_of(const GraphKey& key) const;

    std::string dir_;
    std::uint64_t byte_budget_ = 0;
};

}  // namespace dcft
