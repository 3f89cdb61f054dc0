// Process-wide memoization of explored transition systems.
//
// One tolerance verdict explores the same two graphs (p from S, p [] F
// from S); `dcft verify` asks for three grades over the same pair; masking
// synthesis re-checks candidates against the same fault class repeatedly.
// Before this cache each of those calls re-ran the full BFS. The cache
// keys a built TransitionSystem by *content identity*:
//
//   (space uid, program name, program action identities,
//    fault-class name + action identities (or "no faults"),
//    the exact initial-state bit set)
//
// Identity is ABA-proof by construction:
//  * The space component is StateSpace::uid() — a process-unique,
//    monotonically increasing generation id assigned per object — never
//    the raw address. A destroyed space whose storage the allocator hands
//    to a new space can therefore never resurrect a stale entry.
//  * Action identity is Action::id() (the shared immutable implementation
//    pointer), and the key stores the Action *values* themselves, pinning
//    the implementations alive for the entry's lifetime so their ids
//    cannot be recycled either. This matters for fault classes in
//    particular: a TransitionSystem does not retain its FaultClass, so
//    without pinning, a rebuilt fault class could reuse a freed id and
//    collide with a stale entry (the regression test rebuilds fault
//    classes in a loop to pin this).
//  * Any transformation that changes an action (restriction,
//    encapsulation, synthesis edits) produces new ids and therefore a new
//    key; renaming a program changes the program-name component.
//
// The initial predicate is compared by its *materialized bit set* (hash
// first, exact word comparison on candidate hits), so differently-named
// but extensionally equal initial predicates share an entry, and hash
// collisions cannot produce a wrong graph.
//
// Concurrency: the mutex guards only the entry list. A miss inserts an
// in-flight entry carrying a std::shared_future and runs the BFS *outside*
// the lock; concurrent requests for the same key park on the future (one
// build per key), while unrelated keys build fully concurrently — one
// large exploration no longer serializes the verdict pipelines (the
// concurrency regression test pins this). A build that throws removes its
// entry and propagates the exception to every waiter.
//
// Eviction is LRU beyond capacity() (a constant 8) entries. Every
// completed entry records the resident footprint of its TransitionSystem
// (TransitionSystem::resident_bytes — nodes + CSR + interner), summed in
// the verify/explore_cache/resident_bytes gauge; evictions are counted in
// verify/explore_cache/evictions.
//
// Persistent store integration: when DCFT_GRAPH_STORE names a directory
// (see verify/graph_store.hpp), a miss first tries to mmap-adopt a stored
// snapshot — including on the early-exit path, where a stored *complete*
// graph is answered via first_bad_node exactly like an in-memory hit —
// and a completed fresh build is published back to the store.
// DCFT_NO_EXPLORE_CACHE=1 bypasses the cache entirely (every call
// builds); benches clear() inside timed loops so repeated queries measure
// real exploration work.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "gc/program.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

/// True iff DCFT_NO_EXPLORE_CACHE is set to a truthy value (see
/// common/env.hpp for the shared DCFT_* truthiness rule).
bool exploration_cache_disabled();

class ExplorationCache {
public:
    /// The process-wide cache used by the verdict and synthesis pipelines.
    static ExplorationCache& global();

    /// Returns the transition system of (program [, faults]) restricted to
    /// the states reachable from `init`, building and caching it on miss.
    /// Thread-safe; the lock covers map operations only. Concurrent
    /// requests for the same key share one build (all callers receive the
    /// same shared_ptr); requests for different keys build concurrently.
    std::shared_ptr<const TransitionSystem> get_or_build(
        const Program& program, const FaultClass* faults,
        const Predicate& init, unsigned n_threads = 0);

    /// Early-exit variant for safety-style obligations. Returns either
    ///  * the cached *complete* graph of (program [, faults], init) when
    ///    one is already resident (callers then use first_bad_node), or
    ///  * a fresh exploration with `stop_on` registered: the result is an
    ///    early-exit fragment when the predicate fired (bad_node() set) or
    ///    the full graph when it never fired.
    /// Cache discipline: fragments are NEVER inserted — a subsequent
    /// get_or_build for the same key can therefore never be served an
    /// incomplete graph — while a fresh build that ran to exhaustion IS
    /// published (it is exactly the graph get_or_build would have built).
    /// An in-flight full build of the same key is not waited on: the
    /// fragment is typically far cheaper than parking on a large BFS.
    std::shared_ptr<const TransitionSystem> get_or_build_early_exit(
        const Program& program, const FaultClass* faults,
        const Predicate& init, const Predicate& stop_on,
        unsigned n_threads = 0);

    /// Drops every entry (benches use this to time real explorations).
    /// In-flight builds complete normally for their waiters; they are
    /// simply forgotten.
    void clear();

    /// Number of entries, including in-flight builds.
    std::size_t size() const;

    /// Maximum number of retained entries.
    static constexpr std::size_t capacity() { return 8; }

    /// Sum of the recorded resident bytes of completed entries.
    std::uint64_t resident_bytes() const;

private:
    struct Key {
        std::uint64_t space_uid = 0;
        std::string program_name;
        /// Pinned copies: keep the Action implementations (and through
        /// them their ids) alive for the entry's lifetime.
        std::vector<Action> program_actions;
        bool has_faults = false;
        std::string fault_name;
        std::vector<Action> fault_actions;
        std::uint64_t init_hash = 0;
        BitVec init_bits;  ///< exact key component (collision-proof)
    };

    struct Entry {
        Key key;
        std::uint64_t token;  ///< identifies this entry for error removal
        std::shared_future<std::shared_ptr<const TransitionSystem>> ts;
        /// TransitionSystem::resident_bytes once the build completed;
        /// 0 while in flight.
        std::uint64_t bytes = 0;
    };

    /// Removes the entry carrying `token` if it is still present (used
    /// when a build fails; waiters get the exception via the future).
    void remove_entry(std::uint64_t token);

    /// Records the completed entry's footprint and publishes the
    /// resident_bytes gauge.
    void note_ready_bytes(std::uint64_t token, std::uint64_t bytes);

    /// Inserts a ready entry for (program [, faults], init) unless one is
    /// already present; returns true when inserted. Shared by the
    /// early-exit publish and the store-load paths.
    bool publish_if_absent(
        const StateSpace& space, const Program& program,
        const FaultClass* faults, std::uint64_t init_hash,
        const BitVec& init_bits,
        const std::shared_ptr<const TransitionSystem>& ts);

    /// Whether `k` identifies (program [, faults], init_bits) — the one
    /// key comparison, shared by the full and early-exit lookups.
    static bool matches(const Key& k, const StateSpace& space,
                        const Program& program, const FaultClass* faults,
                        std::uint64_t init_hash, const BitVec& init_bits);

    /// Builds the pinned key for (program [, faults], init_bits).
    static Key make_key(const StateSpace& space, const Program& program,
                        const FaultClass* faults, std::uint64_t init_hash,
                        BitVec init_bits);

    mutable std::mutex mutex_;
    std::list<Entry> entries_;  ///< front = most recently used
    std::uint64_t next_token_ = 0;
};

}  // namespace dcft
