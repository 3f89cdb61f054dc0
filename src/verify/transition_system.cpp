#include "verify/transition_system.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"
#include "common/parallel.hpp"
#include "obs/proc_stats.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "verify/action_kernel.hpp"
#include "verify/batch_kernel.hpp"

namespace dcft {
namespace {

/// Largest space for which the interner is a direct-mapped NodeId array
/// (4 bytes per state of the *whole* space). Beyond this the sharded
/// sparse table takes over. Overridable via DCFT_DIRECT_MAP_MAX so the
/// sparse path is exercisable (tests, fuzzing, benches) at any size.
constexpr StateIndex kDefaultDirectMapMax = StateIndex{1} << 25;

StateIndex direct_map_max() {
    if (const auto v = env_positive_u64("DCFT_DIRECT_MAP_MAX"))
        return static_cast<StateIndex>(*v);
    return kDefaultDirectMapMax;
}

/// Levels whose *work* — frontier size × total action count — falls below
/// this stay on the fused serial path even when multiple workers are
/// available: the staging buffers, claim traffic, and chunk dispatch of
/// the parallel merge cost more than the expansion itself. The old
/// heuristic thresholded on frontier size alone (16384 states), which let
/// medium levels with few actions go parallel and regress 1.7–2.4×
/// (token_ring n6/n7 ts_build at 2 threads in BENCH_verifier.json); a
/// work-based threshold keeps them serial while still parallelizing
/// genuinely large levels (token_ring n8: 1.3e8 work units). Recorded in
/// telemetry as the gauge verify/explore/parallel_threshold; the count of
/// levels under it (verify/explore/levels_below_threshold) is a function
/// of the canonical BFS and the program only — never of the worker
/// budget — hence identical for every thread count.
constexpr std::uint64_t kParallelWorkMin = std::uint64_t{1} << 23;

/// The effective threshold: DCFT_PARALLEL_WORK_MIN overrides the default,
/// so tests can force the parallel merge onto workloads far below the
/// production cutoff (mirrors DCFT_DIRECT_MAP_MAX for the interner tiers).
std::uint64_t parallel_work_min() {
    if (const auto v = env_positive_u64("DCFT_PARALLEL_WORK_MIN")) return *v;
    return kParallelWorkMin;
}

/// Segment length (states) of the identity sweep when spilling: after
/// each segment the sealed CSR/offset/node prefixes are advised out of
/// RSS, bounding the resident window to ~one segment's output.
constexpr StateIndex kSweepSegment = StateIndex{1} << 22;

/// Serial-path block size fed to BatchKernel::expand_frontier (one guard
/// word's worth of states).
constexpr std::size_t kExpandBlock = 64;

/// Cap on speculative reserve() sizing (states) so pathological spaces do
/// not pre-allocate unbounded memory.
constexpr std::size_t kReserveCap = std::size_t{1} << 22;

/// Claim markers of the parallel merge: chunk c writes kClaimBase + c into
/// an interner slot to tentatively own a newly discovered state. Real node
/// ids must stay below kClaimBase (checked per level); kNoNode (all-ones)
/// is "absent" and compares greater than every marker.
constexpr NodeId kClaimBase = 0xFFFF0000u;

/// Chunk-private buffers produced by one worker for one slice of a BFS
/// level. For each node of the slice, in order: `counts` holds
/// (#program successors, #fault successors) and `recs` holds those
/// successors contiguously — program records first, then fault records,
/// each as (action index, target state). Fault records only feed the
/// claims: no fault edge is written. `claims` holds the (target,
/// parent) pairs this chunk tentatively claimed, in first-local-occurrence
/// order — after the filter pass this is exactly the canonical new-node
/// subsequence the chunk contributes.
struct ChunkBuf {
    std::vector<std::pair<std::uint32_t, StateIndex>> recs;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> counts;
    std::vector<std::pair<StateIndex, NodeId>> claims;
    std::uint64_t prog_total = 0;   ///< program records in recs
    std::uint64_t fault_total = 0;  ///< fault records in recs
    std::uint64_t begin = 0;        ///< slice start within the level
};

/// Guard-bitset pointers of `set` (nullptr = guard with kCall fallbacks,
/// evaluated per state by bytecode). Builds the bitsets it returns.
std::vector<const BitVec*> guard_bit_ptrs(const CompiledActionSet& set) {
    // Whole-space guard bitsets pay off only when they can be filled with
    // word-level algebra; guards with opaque subtrees would need a
    // full-space scan, so those stay on per-state bytecode instead (which
    // touches only reachable states).
    std::vector<const BitVec*> out;
    out.reserve(set.size());
    for (const CompiledAction& a : set.actions()) {
        if (a.guard_fully_compiled()) {
            a.ensure_guard_bits();
            out.push_back(&a.guard_bits());
        } else {
            out.push_back(nullptr);
        }
    }
    return out;
}

}  // namespace

/// The compiled fault actions, kept after exploration so fault rows can be
/// regenerated: guard-bitset probes (bytecode for kCall guards) and, when
/// every fault action lowers, a fault-only block kernel.
struct TransitionSystem::FaultKernel {
    std::shared_ptr<const CompiledActionSet> set;
    std::vector<const BitVec*> gbits;
    std::unique_ptr<BatchKernel> batch;
    std::uint64_t bytes = 0;  ///< whole-space guard bitsets kept alive

    explicit FaultKernel(std::shared_ptr<const CompiledActionSet> s)
        : set(std::move(s)), gbits(guard_bit_ptrs(*set)) {
        for (const BitVec* b : gbits)
            if (b != nullptr) bytes += b->num_words() * sizeof(std::uint64_t);
        if (batch_disabled()) return;
        auto bk = std::make_unique<BatchKernel>(
            set->cspace(), std::span<const CompiledAction>{},
            std::span<const BitVec* const>{}, set->actions(), gbits);
        if (bk->batchable()) batch = std::move(bk);
    }

    /// Appends the fault records of state s, in exploration order.
    void steps(StateIndex s, std::vector<FaultStep>& out) const {
        if (batch != nullptr) {
            batch->expand_faults(s, out);
            return;
        }
        thread_local std::vector<StateIndex> scratch;
        const auto acts = set->actions();
        for (std::uint32_t a = 0; a < acts.size(); ++a) {
            const CompiledAction& ka = acts[a];
            if (gbits[a] != nullptr ? !gbits[a]->test(s) : !ka.enabled(s))
                continue;
            scratch.clear();
            ka.successors(s, scratch);
            for (const StateIndex t : scratch) out.emplace_back(a, t);
        }
    }
};

// ---------------------------------------------------------------------------
// SparseNodeTable: the interner tier for spaces beyond DCFT_DIRECT_MAP_MAX.
//
// An open-addressing (linear probing) table sharded by a splitmix64
// fingerprint of the packed state index: the low bits of the fingerprint
// select one of 64 shards, the high bits the probe start inside the shard.
// Keys are stored biased by one (0 = empty slot) so membership needs no
// separate occupancy bitmap; values are NodeIds — or, transiently during
// the parallel merge's claim phase, kClaimBase+chunk markers.
//
// Concurrency contract, phase by phase:
//   * serial exploration path: find_or_insert, single-threaded, lock-free;
//   * claim phase (parallel):  claim() under a per-shard mutex — the only
//     phase that inserts, so growth is confined here;
//   * filter/publish phases:   keys are frozen; find() is a lock-free
//     read and publish() overwrites only the caller-owned value slot;
//   * consumers (has_state, node_of, edge resolution): find(), lock-free.
class SparseNodeTable {
public:
    static constexpr unsigned kShardBits = 6;
    static constexpr std::size_t kNumShards = std::size_t{1} << kShardBits;

    /// Sizes every shard for ~`expected` total entries (load factor 0.7)
    /// up front — the reserve that keeps large explorations from
    /// rehashing level after level.
    explicit SparseNodeTable(std::size_t expected) {
        const std::size_t per_shard = expected / kNumShards + 1;
        for (Shard& sh : shards_) sh.rehash(slots_for(per_shard));
    }

    static std::uint64_t fingerprint(StateIndex s) {
        // splitmix64 finalizer: full-avalanche, cheap, and stable — the
        // shard/probe layout is a pure function of the state index.
        std::uint64_t z =
            static_cast<std::uint64_t>(s) + 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /// Lock-free lookup (no concurrent inserts allowed). kNoNode if
    /// absent; during the merge the returned value may be a claim marker.
    NodeId find(StateIndex s) const {
        const std::uint64_t h = fingerprint(s);
        const Shard& sh = shards_[h & (kNumShards - 1)];
        const std::uint64_t key = static_cast<std::uint64_t>(s) + 1;
        std::size_t i = (h >> kShardBits) & sh.mask;
        for (;;) {
            const std::uint64_t k = sh.keys[i];
            if (k == key) return sh.vals[i];
            if (k == 0) return TransitionSystem::kNoNode;
            i = (i + 1) & sh.mask;
        }
    }

    /// Serial find-or-insert: returns the resident id, or installs `id`
    /// and returns it. Single-threaded callers only.
    NodeId find_or_insert(StateIndex s, NodeId id) {
        const std::uint64_t h = fingerprint(s);
        Shard& sh = shards_[h & (kNumShards - 1)];
        maybe_grow(sh);
        const std::uint64_t key = static_cast<std::uint64_t>(s) + 1;
        std::size_t i = (h >> kShardBits) & sh.mask;
        for (;;) {
            ++sh.probes;
            const std::uint64_t k = sh.keys[i];
            if (k == key) return sh.vals[i];
            if (k == 0) {
                sh.keys[i] = key;
                sh.vals[i] = id;
                ++sh.size;
                return id;
            }
            i = (i + 1) & sh.mask;
        }
    }

    /// Claim protocol of the parallel merge (thread-safe, per-shard lock).
    /// Returns true iff this call installed `mark`: the slot was absent or
    /// held a *larger* chunk's marker — min-chunk-wins, which makes the
    /// final owner of every new state the canonically first chunk that
    /// produced it, independent of thread timing.
    bool claim(StateIndex s, NodeId mark) {
        const std::uint64_t h = fingerprint(s);
        Shard& sh = shards_[h & (kNumShards - 1)];
        const std::lock_guard<std::mutex> lock(sh.mu);
        maybe_grow(sh);
        const std::uint64_t key = static_cast<std::uint64_t>(s) + 1;
        std::size_t i = (h >> kShardBits) & sh.mask;
        for (;;) {
            ++sh.probes;
            const std::uint64_t k = sh.keys[i];
            if (k == key) {
                NodeId& v = sh.vals[i];
                if (v < kClaimBase || v <= mark) return false;
                v = mark;
                return true;
            }
            if (k == 0) {
                sh.keys[i] = key;
                sh.vals[i] = mark;
                ++sh.size;
                return true;
            }
            i = (i + 1) & sh.mask;
        }
    }

    /// Publishes the final id of a claim the caller won (keys frozen, one
    /// writer per slot — lock-free by construction).
    void publish(StateIndex s, NodeId id) {
        const std::uint64_t h = fingerprint(s);
        Shard& sh = shards_[h & (kNumShards - 1)];
        const std::uint64_t key = static_cast<std::uint64_t>(s) + 1;
        std::size_t i = (h >> kShardBits) & sh.mask;
        while (sh.keys[i] != key) i = (i + 1) & sh.mask;
        sh.vals[i] = id;
    }

    std::uint64_t probes() const {
        std::uint64_t p = 0;
        for (const Shard& sh : shards_) p += sh.probes;
        return p;
    }
    std::uint64_t resizes() const {
        std::uint64_t r = 0;
        for (const Shard& sh : shards_) r += sh.resizes;
        return r;
    }
    std::uint64_t bytes() const {
        std::uint64_t b = 0;
        for (const Shard& sh : shards_)
            b += sh.keys.capacity() * sizeof(std::uint64_t) +
                 sh.vals.capacity() * sizeof(NodeId);
        return b;
    }

private:
    struct Shard {
        std::vector<std::uint64_t> keys;  ///< state index + 1; 0 = empty
        std::vector<NodeId> vals;
        std::size_t size = 0;
        std::size_t mask = 0;
        std::uint64_t probes = 0;
        std::uint64_t resizes = 0;
        std::mutex mu;

        void rehash(std::size_t new_cap) {
            std::vector<std::uint64_t> old_keys = std::move(keys);
            std::vector<NodeId> old_vals = std::move(vals);
            keys.assign(new_cap, 0);
            vals.assign(new_cap, TransitionSystem::kNoNode);
            mask = new_cap - 1;
            for (std::size_t j = 0; j < old_keys.size(); ++j) {
                const std::uint64_t k = old_keys[j];
                if (k == 0) continue;
                const std::uint64_t h = fingerprint(
                    static_cast<StateIndex>(k - 1));
                std::size_t i = (h >> kShardBits) & mask;
                while (keys[i] != 0) i = (i + 1) & mask;
                keys[i] = k;
                vals[i] = old_vals[j];
            }
        }
    };

    static std::size_t slots_for(std::size_t entries) {
        // Smallest power of two keeping load factor <= 0.7, min 16 slots.
        std::size_t cap = 16;
        while (cap * 7 < entries * 10) cap <<= 1;
        return cap;
    }

    void maybe_grow(Shard& sh) {
        if ((sh.size + 1) * 10 < (sh.mask + 1) * 7) return;
        sh.rehash((sh.mask + 1) * 2);
        ++sh.resizes;
    }

    std::array<Shard, kNumShards> shards_;
};

TransitionSystem::TransitionSystem(const Program& program,
                                   const FaultClass* faults,
                                   const Predicate& init, unsigned n_threads)
    : TransitionSystem(program, faults, init,
                       ExploreOptions{n_threads, nullptr}) {}

TransitionSystem::TransitionSystem(const Program& program,
                                   const FaultClass* faults,
                                   const Predicate& init,
                                   const ExploreOptions& options)
    : space_(program.space_ptr()), program_(program) {
    if (faults != nullptr)
        faults_ = std::make_shared<const FaultClass>(*faults);
    explore(faults, init, resolve_verifier_threads(options.n_threads),
            options.stop_on, options.spill || spill_enabled());
}

TransitionSystem::TransitionSystem(const Program& program,
                                   const FaultClass* faults,
                                   AdoptedArrays&& arrays)
    : space_(program.space_ptr()),
      program_(program),
      faults_(faults != nullptr ? std::make_shared<const FaultClass>(*faults)
                                : nullptr),
      states_(std::move(arrays.states)),
      initial_(std::move(arrays.initial)),
      parent_(std::move(arrays.parent)),
      prog_offsets_(std::move(arrays.prog_offsets)),
      prog_edges_(std::move(arrays.prog_edges)),
      fault_edge_count_(arrays.num_fault_edges),
      expanded_end_(states_.size()),
      identity_nodes_(arrays.identity_nodes) {
    // The snapshot stores no interner: node_of/has_state rebuild it on
    // first use. The tier decision matches a fresh exploration's, so the
    // memory profile of a warm graph equals the cold one's.
    if (!identity_nodes_) {
        direct_mapped_ = space_->num_states() <= direct_map_max();
        interner_lazy_ = true;
    }
}

std::shared_ptr<TransitionSystem> TransitionSystem::adopt(
    const Program& program, const FaultClass* faults,
    AdoptedArrays&& arrays) {
    return std::shared_ptr<TransitionSystem>(
        new TransitionSystem(program, faults, std::move(arrays)));
}

const TransitionSystem::FaultKernel& TransitionSystem::fault_kernel() const {
    std::call_once(fault_kernel_once_, [this] {
        const obs::ScopedSpan span("verify/compile/faults");
        fault_kernel_ = std::make_unique<FaultKernel>(
            std::make_shared<const CompiledActionSet>(compile_space(space_),
                                                      faults_->actions()));
        fault_kernel_bytes_.store(fault_kernel_->bytes);
    });
    return *fault_kernel_;
}

void TransitionSystem::fault_steps(NodeId n,
                                   std::vector<FaultStep>& out) const {
    out.clear();
    if (faults_ == nullptr || n >= expanded_end_) return;
    fault_kernel().steps(states_[n], out);
}

void TransitionSystem::fault_edges(NodeId n, std::vector<Edge>& out) const {
    thread_local std::vector<FaultStep> steps;
    fault_steps(n, steps);
    out.clear();
    if (steps.empty()) return;
    // node_of without its per-call checks: every fault successor of an
    // expanded node was interned by the exploration.
    if (interner_lazy_) ensure_interner();
    for (const auto& [a, t] : steps) {
        const NodeId to = identity_nodes_ ? static_cast<NodeId>(t)
                          : direct_mapped_
                              ? node_map_[static_cast<std::size_t>(t)]
                              : sparse_->find(t);
        DCFT_ASSERT(to != kNoNode, "fault_edges: target not interned");
        out.push_back(Edge{a, to});
    }
}

void TransitionSystem::ensure_interner() const {
    std::call_once(interner_once_, [this] {
        const obs::ScopedSpan span("verify/graph_store/interner_rebuild");
        const std::size_t n = states_.size();
        if (direct_mapped_) {
            node_map_.assign(
                static_cast<std::size_t>(space_->num_states()), kNoNode);
            for (std::size_t i = 0; i < n; ++i)
                node_map_[static_cast<std::size_t>(states_[i])] =
                    static_cast<NodeId>(i);
        } else {
            auto table = std::make_unique<SparseNodeTable>(n);
            for (std::size_t i = 0; i < n; ++i)
                table->find_or_insert(states_[i], static_cast<NodeId>(i));
            sparse_ = std::move(table);
        }
    });
}

std::uint64_t TransitionSystem::resident_bytes() const {
    std::uint64_t b = states_.size() * sizeof(StateIndex) +
                      parent_.size() * sizeof(NodeId) +
                      prog_offsets_.size() * sizeof(std::uint64_t) +
                      prog_edges_.size() * sizeof(Edge) +
                      initial_.capacity() * sizeof(NodeId);
    b += node_map_.capacity() * sizeof(NodeId);
    if (sparse_ != nullptr) b += sparse_->bytes();
    b += fault_kernel_bytes_.load();
    return b;
}

TransitionSystem::~TransitionSystem() = default;

namespace {

/// Interned trace-event name ids, resolved once per process. The span
/// names mirror the telemetry span paths exactly, so a Perfetto timeline
/// and the aggregated span tree in a run report line up term for term.
struct ExploreTraceIds {
    std::uint32_t explore = obs::trace_name("verify/explore");
    std::uint32_t compile = obs::trace_name("verify/compile");
    std::uint32_t seed = obs::trace_name("verify/explore/seed");
    std::uint32_t level = obs::trace_name("verify/explore/level");
    std::uint32_t level_done = obs::trace_name("verify/explore/level_done");
    std::uint32_t sweep = obs::trace_name("verify/explore/sweep");
    std::uint32_t sweep_chunk =
        obs::trace_name("verify/explore/sweep/chunk");
    std::uint32_t expand = obs::trace_name("verify/explore/expand_claim");
    std::uint32_t expand_chunk =
        obs::trace_name("verify/explore/expand_claim/chunk");
    std::uint32_t filter = obs::trace_name("verify/explore/claim_filter");
    std::uint32_t filter_chunk =
        obs::trace_name("verify/explore/claim_filter/chunk");
    std::uint32_t publish = obs::trace_name("verify/explore/publish");
    std::uint32_t publish_chunk =
        obs::trace_name("verify/explore/publish/chunk");
    std::uint32_t edge_write = obs::trace_name("verify/explore/edge_write");
    std::uint32_t edge_write_chunk =
        obs::trace_name("verify/explore/edge_write/chunk");
    std::uint32_t tier = obs::trace_name("verify/interner/tier");
    std::uint32_t early_exit =
        obs::trace_name("verify/explore/early_exit_stop");
};

const ExploreTraceIds& tr() {
    static const ExploreTraceIds* ids = new ExploreTraceIds();
    return *ids;
}

}  // namespace

void TransitionSystem::explore(const FaultClass* faults,
                               const Predicate& init, unsigned n_threads,
                               const Predicate* stop_on, bool spill) {
    const bool telemetry = obs::enabled();
    const bool tracing = obs::trace_enabled();
    // The per-level timeline rides on either structured-output mode:
    // run reports (telemetry) embed it, traces cross-reference it.
    const bool timeline = telemetry || tracing;
    const bool progress_on = obs::progress_enabled();
    // One count per BFS actually run: snapshot-adopted graphs never pass
    // here, which is what the graph-store smoke test asserts on.
    obs::count("verify/explorations");
    const obs::ScopedSpan span("verify/explore");
    const obs::TraceSpan tspan(tracing ? tr().explore : 0);
    const StateIndex n_states = space_->num_states();
    const std::uint64_t explore_t0 = timeline ? obs::now_ns() : 0;

    // Out-of-core mode: the node and CSR arrays go to mmap-backed spill
    // files (decided before anything is written). Graphs are bit-for-bit
    // identical either way; only residency changes.
    spilled_ = spill;
    if (spill) {
        states_.enable_spill();
        parent_.enable_spill();
        prog_offsets_.enable_spill();
        prog_edges_.enable_spill();
    }

    // Compile the guarded commands once per exploration (guard bytecode,
    // divmod-free effects, whole-space enabled bitsets for fully compiled
    // guards). Opaque guard subtrees run through kCall ops.
    std::unique_ptr<CompiledProgram> compiled;
    std::vector<const BitVec*> prog_gbits;
    std::vector<const BitVec*> fault_gbits;
    {
        const obs::ScopedSpan cspan("verify/compile");
        const obs::TraceSpan ctspan(tracing ? tr().compile : 0);
        compiled = std::make_unique<CompiledProgram>(program_, faults);
        prog_gbits = guard_bit_ptrs(compiled->program_actions());
        if (compiled->has_faults())
            fault_gbits = guard_bit_ptrs(compiled->fault_actions());
    }
    const CompiledSpace& cspace = compiled->cspace();

    // Batch layer on top of the compiled program: fused guard+successor
    // kernels over blocks of states (see batch_kernel.hpp). Only engaged
    // when every action is batchable; DCFT_NO_BATCH=1 pins the scalar
    // path — the differential oracle for this layer.
    std::unique_ptr<BatchKernel> batch;
    if (!batch_disabled()) {
        auto bk =
            std::make_unique<BatchKernel>(*compiled, prog_gbits, fault_gbits);
        if (bk->batchable()) batch = std::move(bk);
    }

    // The early-exit stop predicate, compiled to guard bytecode.
    std::unique_ptr<GuardCode> stop_code;
    if (stop_on != nullptr)
        stop_code = std::make_unique<GuardCode>(cspace, *stop_on);
    std::uint64_t stop_scans = 0;
    auto stop_at = [&](StateIndex s) {
        ++stop_scans;
        return stop_code->eval(cspace, s);
    };

    // Expands one state: tests each guard (bitset probe or bytecode) and
    // appends each enabled action's successors via on_prog/on_fault(action
    // index, target) — actions in declaration order, each action's
    // successors in its statement order.
    auto expand = [&](StateIndex s, std::vector<StateIndex>& scratch,
                      auto&& on_prog, auto&& on_fault) {
        const auto pacts = compiled->program_actions().actions();
        for (std::uint32_t a = 0; a < pacts.size(); ++a) {
            const CompiledAction& ka = pacts[a];
            const BitVec* gb = prog_gbits[a];
            if (gb != nullptr ? !gb->test(s) : !ka.enabled(s)) continue;
            scratch.clear();
            ka.successors(s, scratch);
            for (StateIndex t : scratch) on_prog(a, t);
        }
        if (compiled->has_faults()) {
            const auto facts = compiled->fault_actions().actions();
            for (std::uint32_t a = 0; a < facts.size(); ++a) {
                const CompiledAction& ka = facts[a];
                const BitVec* gb = fault_gbits[a];
                if (gb != nullptr ? !gb->test(s) : !ka.enabled(s)) continue;
                scratch.clear();
                ka.successors(s, scratch);
                for (StateIndex t : scratch) on_fault(a, t);
            }
        }
    };

    // Seed: bulk-evaluate init over the space (each state exactly once).
    // Done before the interner is chosen so the initial-set cardinality
    // can size it.
    const BitVec init_bits = [&] {
        const obs::ScopedSpan seed_span("verify/explore/seed");
        const obs::TraceSpan seed_tspan(tracing ? tr().seed : 0);
        BitVec b(n_states);
        fill_guard_bits(cspace, init, b);
        return b;
    }();
    const std::uint64_t init_pop = init_bits.popcount();

    // Interner tier selection. When the seed covers the whole space the
    // ascending-order root interning makes node id == state index; every
    // lookup is the identity and no reverse map is allocated at all (the
    // hottest memory traffic of dense explorations, and ~4 bytes/state of
    // allocation, both gone). Otherwise: direct-mapped NodeId array up to
    // DCFT_DIRECT_MAP_MAX states, sharded open-addressing table beyond —
    // reserved from the init-set cardinality times a growth estimate so
    // large explorations do not rehash level after level.
    identity_nodes_ = init_pop == n_states;
    if (!identity_nodes_) {
        direct_mapped_ = n_states <= direct_map_max();
        if (direct_mapped_) {
            node_map_.assign(static_cast<std::size_t>(n_states), kNoNode);
        } else {
            constexpr std::uint64_t kGrowthEstimate = 8;
            const std::uint64_t expected = std::min<std::uint64_t>(
                std::max<std::uint64_t>(init_pop * kGrowthEstimate, 4096),
                n_states);
            sparse_ = std::make_unique<SparseNodeTable>(
                static_cast<std::size_t>(expected));
        }
    }
    // Tier selection is a function of the seed cardinality and the space
    // size only, so this instant — like every instant below — fires the
    // same number of times for every thread count (pinned by trace_test).
    if (tracing)
        obs::trace_instant(tr().tier,
                           identity_nodes_ ? 0 : direct_mapped_ ? 1 : 2);
    if (progress_on) obs::progress_explore_begin(n_states);

    // Reserve node/edge storage. Identity explorations have a known exact
    // node count; otherwise size to the space (capped) — explicit-state
    // instances are usually mostly reachable.
    const std::size_t guess =
        identity_nodes_
            ? static_cast<std::size_t>(n_states)
            : static_cast<std::size_t>(
                  std::min<StateIndex>(n_states, kReserveCap));
    states_.reserve(guess);
    parent_.reserve(guess);
    prog_offsets_.reserve(guess + 1);
    // Edge vectors dominate the working set of dense explorations; growing
    // them by doubling re-copies tens of MB mid-BFS. Reserve one slot per
    // (state, action) — an upper bound for deterministic actions — capped.
    // reserve() only allocates address space; untouched tail pages are
    // never committed.
    constexpr std::size_t kEdgeReserveCap = std::size_t{1} << 24;
    prog_edges_.reserve(std::min<std::size_t>(
        guess * std::max<std::size_t>(program_.num_actions(), 1),
        kEdgeReserveCap));

    // Interns t (first discovery appends it to the next BFS level with
    // `from` as its BFS-tree parent). Serial — called only from the fused
    // serial path, in canonical order.
    auto intern = [&](StateIndex t, NodeId from) -> NodeId {
        if (identity_nodes_) return static_cast<NodeId>(t);
        if (direct_mapped_) {
            NodeId& slot = node_map_[static_cast<std::size_t>(t)];
            if (slot == kNoNode) {
                slot = static_cast<NodeId>(states_.size());
                states_.push_back(t);
                parent_.push_back(from);
            }
            return slot;
        }
        const NodeId fresh = static_cast<NodeId>(states_.size());
        const NodeId got = sparse_->find_or_insert(t, fresh);
        if (got == fresh) {
            states_.push_back(t);
            parent_.push_back(from);
        }
        return got;
    };

    // Resolves a state that is known to be interned (merge phase B and
    // consumers within this function). Lock-free on every tier.
    auto lookup = [&](StateIndex t) -> NodeId {
        if (identity_nodes_) return static_cast<NodeId>(t);
        if (direct_mapped_) return node_map_[static_cast<std::size_t>(t)];
        return sparse_->find(t);
    };

    // Intern the satisfying seed states in ascending order — the
    // canonical root numbering. Identity seeds fill directly.
    initial_.reserve(static_cast<std::size_t>(init_pop));
    if (identity_nodes_) {
        // resize_overwrite: the loop below writes every slot immediately.
        states_.resize_overwrite(static_cast<std::size_t>(n_states));
        parent_.resize_overwrite(static_cast<std::size_t>(n_states));
        initial_.resize(static_cast<std::size_t>(n_states));
        for (StateIndex s = 0; s < n_states; ++s) {
            states_[static_cast<std::size_t>(s)] = s;
            parent_[static_cast<std::size_t>(s)] = static_cast<NodeId>(s);
            initial_[static_cast<std::size_t>(s)] = static_cast<NodeId>(s);
            // Seal the filled prefix as we go: the sweep never reads these
            // arrays, so spilled identity builds keep a bounded window.
            if (spill && (s & (kSweepSegment - 1)) == kSweepSegment - 1) {
                states_.release_prefix(static_cast<std::size_t>(s));
                parent_.release_prefix(static_cast<std::size_t>(s));
            }
        }
    } else {
        init_bits.for_each_set([&](std::uint64_t s) {
            const NodeId id =
                intern(static_cast<StateIndex>(s), static_cast<NodeId>(0));
            parent_[id] = id;  // roots are their own parent
            initial_.push_back(id);
        });
    }

    prog_offsets_.push_back(0);
    // Fault transitions enumerated so far. Their targets are interned like
    // program successors (fault steps add nodes to the span), but no fault
    // edge is written: consumers regenerate fault rows (fault_steps).
    std::uint64_t fault_count = 0;

    // Scans the newly discovered nodes [from_id, states_.size()) in id
    // order against the stop predicate; on a hit records the canonically
    // least bad node and flips the fragment incomplete. Scanning whole
    // levels (never mid-level) keeps the discovered prefix — numbering,
    // edges, parents — identical for every thread count.
    auto scan_new_nodes = [&](std::size_t from_id) -> bool {
        if (stop_on == nullptr) return false;
        for (std::size_t i = from_id; i < states_.size(); ++i) {
            if (stop_at(states_[i])) {
                bad_node_ = static_cast<NodeId>(i);
                complete_ = false;
                if (tracing)
                    obs::trace_instant(tr().early_exit,
                                       static_cast<std::uint64_t>(i));
                return true;
            }
        }
        return false;
    };

    // On early exit the last level's nodes are never expanded; give them
    // empty CSR rows so the accessors stay total.
    auto pad_offsets = [&] {
        prog_offsets_.resize(states_.size() + 1, prog_edges_.size());
    };

    std::uint64_t n_levels = 0;  // telemetry: BFS depth / frontier stats
    std::uint64_t frontier_max = 0;
    std::uint64_t levels_below_threshold = 0;
    // Cost model input of the serial/parallel decision: expanding one
    // state costs ~one guard probe + successor emission per action, so
    // level work scales with frontier size × action count.
    const std::uint64_t actions_per_state = std::max<std::uint64_t>(
        program_.num_actions() +
            (faults != nullptr ? faults->actions().size() : 0),
        1);
    const std::uint64_t work_min = parallel_work_min();

    bool stopped = scan_new_nodes(0);  // a bad root ends it before level 1

    // Per-level timeline rows (embedded in run reports, see
    // obs/trace.hpp) and heartbeat updates. One row per BFS level; the
    // merge-phase ns breakdown is filled only on the parallel path.
    std::vector<obs::LevelStat> tl_levels;
    std::uint64_t tl_prev_prog = 0, tl_prev_fault = 0;
    auto finish_level = [&](std::uint64_t level_index, std::size_t lvl_begin,
                            std::size_t lvl_end, std::uint64_t lvl_t0,
                            bool parallel_merge,
                            const std::array<std::uint64_t, 4>& phase_ns) {
        const std::uint64_t new_nodes = states_.size() - lvl_end;
        if (timeline) {
            obs::LevelStat ls;
            ls.level = level_index;
            ls.frontier = lvl_end - lvl_begin;
            ls.new_nodes = new_nodes;
            ls.program_edges = prog_edges_.size() - tl_prev_prog;
            ls.fault_edges = fault_count - tl_prev_fault;
            ls.level_ns = obs::now_ns() - lvl_t0;
            ls.expand_claim_ns = phase_ns[0];
            ls.claim_filter_ns = phase_ns[1];
            ls.publish_ns = phase_ns[2];
            ls.edge_write_ns = phase_ns[3];
            ls.rss_bytes = obs::current_rss_bytes().value_or(0);
            ls.spill_bytes = spill ? spill_bytes() : 0;
            ls.spill_released_bytes = spill ? spill_released_bytes() : 0;
            ls.parallel = parallel_merge;
            tl_levels.push_back(ls);
            tl_prev_prog = prog_edges_.size();
            tl_prev_fault = fault_count;
        }
        if (tracing) obs::trace_instant(tr().level_done, level_index);
        if (progress_on)
            obs::progress_explore_level(
                level_index, new_nodes, states_.size(),
                spill ? spill_released_bytes() : 0);
    };

    // Level-synchronous BFS. Workers expand disjoint contiguous slices of
    // the current level into chunk-private buffers; a deterministic
    // two-pass merge then interns and appends without any serial section:
    //
    //   A  (parallel) expand + claim: every successor record is staged;
    //      uninterned targets are claimed min-chunk-wins (CAS on the
    //      direct map, per-shard lock on the sparse table), and each chunk
    //      keeps its first-local-occurrence claims in order;
    //   A2 (parallel) filter: drop claims lost to a smaller chunk — what
    //      remains per chunk is its canonical new-node subsequence;
    //   —  (serial, O(chunks)) prefix sums over per-chunk new-node and
    //      edge counts in canonical chunk order; pre-size states_/parent_/
    //      edge/offset arrays for the level;
    //   A3 (parallel) publish: assign ids base[c]+j, overwrite markers
    //      with real ids, write states_/parent_;
    //   B  (parallel) resolve every record to its final id and write
    //      edges + per-node offsets into the pre-sized CSR slices.
    //
    // Because a new node's owner is the canonically first chunk that
    // produced it and chunks are concatenated in slice order, discovery
    // order — and with it node numbering, edge order, and the BFS parent
    // tree — is identical to the sequential FIFO exploration, for every
    // thread count.
    std::vector<ChunkBuf> bufs;
    std::vector<std::uint64_t> base_new, base_prog;
    std::vector<StateIndex> succ;  // scratch for the fused serial path
    std::vector<BatchKernel::Rec> brecs;      // batch serial-path staging
    std::vector<BatchKernel::Counts> bcounts;
    std::uint64_t sweep_states = 0;  // telemetry: states via identity sweep
    std::size_t level_begin = 0;
    while (!stopped && level_begin < states_.size()) {
        const obs::ScopedSpan level_span("verify/explore/level");
        const std::size_t level_end = states_.size();
        const std::uint64_t level_size = level_end - level_begin;
        const std::uint64_t level_index = n_levels;
        const std::uint64_t lvl_t0 = timeline ? obs::now_ns() : 0;
        const obs::TraceSpan level_tspan(tracing ? tr().level : 0,
                                         level_index);
        std::array<std::uint64_t, 4> phase_ns{0, 0, 0, 0};
        ++n_levels;
        frontier_max = std::max(frontier_max, level_size);
        // Levels with too little work stay serial regardless of the worker
        // budget: the staging/merge overhead dominates under the
        // threshold. Work = frontier size × actions — a function of the
        // canonical BFS and the program only, so the telemetry stays
        // thread-count-invariant.
        const bool small_level =
            level_size * actions_per_state < work_min;
        if (small_level) ++levels_below_threshold;
        const unsigned chunks =
            small_level ? 1
                        : parallel_chunk_count(level_size, n_threads,
                                               /*align=*/1);

        // Identity fast path: the one level of an identity exploration is
        // the whole space in ascending contiguous order, so the batch
        // kernel sweeps it with odometer digits and exact pre-counted CSR
        // slices — no interning, no staging, no per-state scratch. Output
        // positions are pure prefix sums of guard-bitset popcounts, hence
        // bit-identical for every thread count.
        if (batch != nullptr && identity_nodes_ && level_begin == 0 &&
            level_end == n_states) {
            const obs::ScopedSpan sweep_span("verify/explore/sweep");
            const obs::TraceSpan sweep_tspan(tracing ? tr().sweep : 0);
            sweep_states = n_states;
            // Every state is already interned, so fault successors need
            // no enumeration at all: their count is a guard popcount.
            const auto [prog_total, fault_total] =
                batch->count_edges(0, n_states);
            fault_count += fault_total;
            // resize_overwrite: the sweep writes every edge slot and every
            // offsets entry past index 0 ([0] was pushed as 0 above) —
            // exactly once, positions pre-counted.
            prog_edges_.resize_overwrite(prog_total);
            prog_offsets_.resize_overwrite(static_cast<std::size_t>(n_states) +
                                           1);
            // Segmenting bounds the resident window in spill mode (each
            // sealed segment is advised out); in-core runs use one
            // segment. Within a segment, chunks sweep disjoint pre-sized
            // slices.
            const StateIndex seg_step = spill ? kSweepSegment : n_states;
            std::uint64_t pcur = 0;
            std::vector<std::uint64_t> ccnt, cbase;
            for (StateIndex seg = 0; seg < n_states; seg += seg_step) {
                const StateIndex seg_end =
                    std::min<StateIndex>(n_states, seg + seg_step);
                const std::uint64_t seg_words = ((seg_end - seg) + 63) >> 6;
                const unsigned seg_chunks =
                    chunks <= 1
                        ? 1
                        : parallel_chunk_count(seg_words, n_threads,
                                               /*align=*/1);
                if (seg_chunks <= 1) {
                    batch->sweep(seg, seg_end,
                                 {prog_edges_.data(), prog_offsets_.data(),
                                  pcur});
                    pcur += batch->count_edges(seg, seg_end).first;
                } else {
                    // Two deterministic passes over identical chunk
                    // bounds: count, prefix, sweep into disjoint slices.
                    ccnt.assign(seg_chunks, 0);
                    parallel_chunks(
                        seg_words, n_threads, /*align=*/1,
                        [&](unsigned c, std::uint64_t wb, std::uint64_t we) {
                            const StateIndex b = seg + (wb << 6);
                            const StateIndex e = std::min<StateIndex>(
                                seg_end, seg + (we << 6));
                            ccnt[c] = batch->count_edges(b, e).first;
                        });
                    cbase.assign(seg_chunks, 0);
                    for (unsigned c = 0; c < seg_chunks; ++c) {
                        cbase[c] = pcur;
                        pcur += ccnt[c];
                    }
                    parallel_chunks(
                        seg_words, n_threads, /*align=*/1,
                        [&](unsigned c, std::uint64_t wb, std::uint64_t we) {
                            const obs::TraceSpan cspan(
                                tracing ? tr().sweep_chunk : 0, c);
                            const StateIndex b = seg + (wb << 6);
                            const StateIndex e = std::min<StateIndex>(
                                seg_end, seg + (we << 6));
                            batch->sweep(b, e,
                                         {prog_edges_.data(),
                                          prog_offsets_.data(), cbase[c]});
                        });
                }
                if (spill) {
                    prog_edges_.release_prefix(pcur);
                    prog_offsets_.release_prefix(seg_end);
                }
            }
            expanded_end_ = level_end;
            stopped = scan_new_nodes(level_end);
            finish_level(level_index, level_begin, level_end, lvl_t0,
                         chunks > 1, phase_ns);
            level_begin = level_end;
            continue;
        }

        if (chunks <= 1) {
            // Fused serial path: one worker would process the whole level,
            // so skip the staging buffers and intern/append inline. This is
            // exactly the sequential FIFO BFS, hence trivially canonical.
            if (batch != nullptr) {
                // Block-batched expansion: guard masks + specialized
                // successor emission into flat records (no per-state
                // scratch vector), then intern in record order — the same
                // FIFO sequence the per-state loop produces.
                for (std::size_t i = level_begin; i < level_end;
                     i += kExpandBlock) {
                    const std::size_t bn =
                        std::min(kExpandBlock, level_end - i);
                    brecs.clear();
                    bcounts.clear();
                    batch->expand_frontier(states_.data() + i, bn, brecs,
                                           bcounts);
                    std::size_t r = 0;
                    for (std::size_t j = 0; j < bn; ++j) {
                        const NodeId node = static_cast<NodeId>(i + j);
                        const auto [n_prog, n_fault] = bcounts[j];
                        for (std::uint32_t k = 0; k < n_prog; ++k, ++r) {
                            const auto [a, t] = brecs[r];
                            prog_edges_.push_back(Edge{a, intern(t, node)});
                        }
                        prog_offsets_.push_back(prog_edges_.size());
                        for (std::uint32_t k = 0; k < n_fault; ++k, ++r)
                            intern(brecs[r].second, node);
                        fault_count += n_fault;
                    }
                }
            } else {
                for (std::size_t i = level_begin; i < level_end; ++i) {
                    const StateIndex s = states_[i];
                    const NodeId node = static_cast<NodeId>(i);
                    expand(
                        s, succ,
                        [&](std::uint32_t a, StateIndex t) {
                            prog_edges_.push_back(Edge{a, intern(t, node)});
                        },
                        [&](std::uint32_t, StateIndex t) {
                            intern(t, node);
                            ++fault_count;
                        });
                    prog_offsets_.push_back(prog_edges_.size());
                }
            }
            if (spill) {
                states_.release_prefix(level_end);
                parent_.release_prefix(level_end);
                prog_edges_.release_prefix(prog_edges_.size());
                prog_offsets_.release_prefix(level_end);
            }
            expanded_end_ = level_end;
            stopped = scan_new_nodes(level_end);
            finish_level(level_index, level_begin, level_end, lvl_t0,
                         /*parallel_merge=*/false, phase_ns);
            level_begin = level_end;
            continue;
        }

        DCFT_ASSERT(chunks < (kNoNode - kClaimBase),
                    "TransitionSystem: chunk count exceeds claim markers");
        if (bufs.size() < chunks) bufs.resize(chunks);
        if (base_new.size() < chunks) {
            base_new.resize(chunks);
            base_prog.resize(chunks);
        }

        // Phase A: parallel expand + claim.
        {
            const std::uint64_t pt0 = timeline ? obs::now_ns() : 0;
            const obs::ScopedSpan pspan("verify/explore/expand_claim");
            const obs::TraceSpan ptspan(tracing ? tr().expand : 0);
            parallel_chunks(
                level_size, n_threads, /*align=*/1,
                [&](unsigned c, std::uint64_t begin, std::uint64_t end) {
                    const obs::TraceSpan cspan(
                        tracing ? tr().expand_chunk : 0, c);
                    ChunkBuf& buf = bufs[c];
                    buf.recs.clear();
                    buf.counts.clear();
                    buf.claims.clear();
                    buf.prog_total = 0;
                    buf.fault_total = 0;
                    buf.begin = begin;
                    const NodeId mark = kClaimBase + c;
                    auto try_claim = [&](StateIndex t, NodeId from) {
                        if (identity_nodes_) return;  // everything interned
                        if (direct_mapped_) {
                            std::atomic_ref<NodeId> slot(
                                node_map_[static_cast<std::size_t>(t)]);
                            NodeId cur =
                                slot.load(std::memory_order_relaxed);
                            for (;;) {
                                // Real id, or a smaller/equal chunk's
                                // marker: nothing to do.
                                if (cur < kClaimBase || cur <= mark) return;
                                if (slot.compare_exchange_weak(
                                        cur, mark,
                                        std::memory_order_relaxed)) {
                                    buf.claims.emplace_back(t, from);
                                    return;
                                }
                            }
                        }
                        if (sparse_->claim(t, mark))
                            buf.claims.emplace_back(t, from);
                    };
                    if (batch != nullptr) {
                        // Block-batched expansion straight into the claim
                        // buffers: records land in buf.recs in canonical
                        // order, then the claim pass walks them with the
                        // correct parent — the same first-local-occurrence
                        // claim sequence the per-state loop produces.
                        for (std::uint64_t i = begin; i < end;
                             i += kExpandBlock) {
                            const std::uint64_t bn =
                                std::min<std::uint64_t>(kExpandBlock,
                                                        end - i);
                            const std::size_t rec_base = buf.recs.size();
                            const std::size_t cnt_base = buf.counts.size();
                            const auto [pt, ft] = batch->expand_frontier(
                                states_.data() + level_begin + i,
                                static_cast<std::size_t>(bn), buf.recs,
                                buf.counts);
                            buf.prog_total += pt;
                            buf.fault_total += ft;
                            std::size_t r = rec_base;
                            for (std::uint64_t j = 0; j < bn; ++j) {
                                const NodeId node = static_cast<NodeId>(
                                    level_begin + i + j);
                                const auto [n_prog, n_fault] =
                                    buf.counts[cnt_base + j];
                                const std::uint32_t total =
                                    n_prog + n_fault;
                                for (std::uint32_t k = 0; k < total;
                                     ++k, ++r)
                                    try_claim(buf.recs[r].second, node);
                            }
                        }
                        return;
                    }
                    std::vector<StateIndex> succ;
                    for (std::uint64_t i = begin; i < end; ++i) {
                        const StateIndex s = states_[level_begin + i];
                        const NodeId node =
                            static_cast<NodeId>(level_begin + i);
                        std::uint32_t n_prog = 0, n_fault = 0;
                        expand(
                            s, succ,
                            [&](std::uint32_t a, StateIndex t) {
                                buf.recs.emplace_back(a, t);
                                ++n_prog;
                                try_claim(t, node);
                            },
                            [&](std::uint32_t a, StateIndex t) {
                                buf.recs.emplace_back(a, t);
                                ++n_fault;
                                try_claim(t, node);
                            });
                        buf.counts.emplace_back(n_prog, n_fault);
                        buf.prog_total += n_prog;
                        buf.fault_total += n_fault;
                    }
                });
            if (timeline) phase_ns[0] = obs::now_ns() - pt0;
        }

        // Phase A2: drop claims lost to a smaller chunk. What survives,
        // in order, is the chunk's canonical new-node subsequence.
        {
            const std::uint64_t pt0 = timeline ? obs::now_ns() : 0;
            const obs::ScopedSpan pspan("verify/explore/claim_filter");
            const obs::TraceSpan ptspan(tracing ? tr().filter : 0);
            parallel_chunks(
                chunks, n_threads, /*align=*/1,
                [&](unsigned w, std::uint64_t cb, std::uint64_t ce) {
                    const obs::TraceSpan cspan(
                        tracing ? tr().filter_chunk : 0, w);
                    for (std::uint64_t c = cb; c < ce; ++c) {
                        auto& cl = bufs[c].claims;
                        const NodeId mark =
                            kClaimBase + static_cast<NodeId>(c);
                        std::size_t kept = 0;
                        for (const auto& [t, from] : cl)
                            if (lookup(t) == mark) cl[kept++] = {t, from};
                        cl.resize(kept);
                    }
                });
            if (timeline) phase_ns[1] = obs::now_ns() - pt0;
        }

        // Serial prefix sums in canonical chunk order; pre-size the level.
        std::uint64_t total_new = 0, prog_total = 0;
        for (unsigned c = 0; c < chunks; ++c) {
            base_new[c] = level_end + total_new;
            base_prog[c] = prog_edges_.size() + prog_total;
            total_new += bufs[c].claims.size();
            prog_total += bufs[c].prog_total;
            fault_count += bufs[c].fault_total;
        }
        DCFT_ASSERT(level_end + total_new < kClaimBase,
                    "TransitionSystem: node count exceeds claim base");
        states_.resize(level_end + total_new);
        parent_.resize(level_end + total_new);
        prog_edges_.resize(prog_edges_.size() + prog_total);
        prog_offsets_.resize(level_end + 1);

        // Phase A3: publish ids — overwrite the winning markers with the
        // final node ids and record states/parents. Each slot has exactly
        // one writer (its owner chunk), so this is race-free without
        // locks; the join below orders it before phase B's reads.
        {
            const std::uint64_t pt0 = timeline ? obs::now_ns() : 0;
            const obs::ScopedSpan pspan("verify/explore/publish");
            const obs::TraceSpan ptspan(tracing ? tr().publish : 0);
            parallel_chunks(
                chunks, n_threads, /*align=*/1,
                [&](unsigned w, std::uint64_t cb, std::uint64_t ce) {
                    const obs::TraceSpan cspan(
                        tracing ? tr().publish_chunk : 0, w);
                    for (std::uint64_t c = cb; c < ce; ++c) {
                        const auto& cl = bufs[c].claims;
                        for (std::size_t j = 0; j < cl.size(); ++j) {
                            const auto& [t, from] = cl[j];
                            const NodeId id =
                                static_cast<NodeId>(base_new[c] + j);
                            if (direct_mapped_)
                                node_map_[static_cast<std::size_t>(t)] = id;
                            else
                                sparse_->publish(t, id);
                            states_[id] = t;
                            parent_[id] = from;
                        }
                    }
                });
            if (timeline) phase_ns[2] = obs::now_ns() - pt0;
        }

        // Phase B: resolve every program record to its final id and write
        // edges + per-node offsets into the pre-sized slices. Fault records
        // have done their work (the claims) and are skipped.
        {
            const std::uint64_t pt0 = timeline ? obs::now_ns() : 0;
            const obs::ScopedSpan pspan("verify/explore/edge_write");
            const obs::TraceSpan ptspan(tracing ? tr().edge_write : 0);
            parallel_chunks(
                chunks, n_threads, /*align=*/1,
                [&](unsigned w, std::uint64_t cb, std::uint64_t ce) {
                    const obs::TraceSpan cspan(
                        tracing ? tr().edge_write_chunk : 0, w);
                    for (std::uint64_t c = cb; c < ce; ++c) {
                        const ChunkBuf& buf = bufs[c];
                        std::uint64_t pc = base_prog[c];
                        std::size_t r = 0;
                        NodeId node =
                            static_cast<NodeId>(level_begin + buf.begin);
                        for (const auto& [n_prog, n_fault] : buf.counts) {
                            for (std::uint32_t k = 0; k < n_prog;
                                 ++k, ++r) {
                                const auto& [a, t] = buf.recs[r];
                                prog_edges_[pc++] = Edge{a, lookup(t)};
                            }
                            prog_offsets_[node + 1] = pc;
                            r += n_fault;
                            ++node;
                        }
                    }
                });
            if (timeline) phase_ns[3] = obs::now_ns() - pt0;
        }

        if (spill) {
            states_.release_prefix(level_end);
            parent_.release_prefix(level_end);
            prog_edges_.release_prefix(prog_edges_.size());
            prog_offsets_.release_prefix(level_end);
        }
        expanded_end_ = level_end;
        stopped = scan_new_nodes(level_end);
        finish_level(level_index, level_begin, level_end, lvl_t0,
                     /*parallel_merge=*/true, phase_ns);
        level_begin = level_end;
    }
    if (stopped) pad_offsets();
    fault_edge_count_ = fault_count;
    // Keep only the fault half of the compiled program (its guard bitsets
    // included) for fault-row regeneration.
    if (compiled->has_faults())
        std::call_once(fault_kernel_once_, [&] {
            fault_kernel_ =
                std::make_unique<FaultKernel>(compiled->fault_actions_ptr());
            fault_kernel_bytes_.store(fault_kernel_->bytes);
        });

    if (timeline) {
        obs::ExplorationTimeline tl;
        tl.space_states = n_states;
        tl.total_ns = obs::now_ns() - explore_t0;
        tl.complete = complete_;
        tl.spilled = spill;
        tl.levels = std::move(tl_levels);
        obs::timeline_publish(std::move(tl));
    }

    // Telemetry flush: one registry access per exploration, never per
    // state. Everything under verify/explore/ is a function of the
    // canonical BFS, so the values are identical for every thread count
    // (pinned by tests/obs/telemetry_test); timing- or layout-dependent
    // interner statistics live under verify/interner/ and verify/mem/.
    if (telemetry) {
        auto& reg = obs::Registry::global();
        reg.counter("verify/explorations").add(1);
        // Both threshold counters are functions of the canonical BFS (the
        // level sizes), never of the worker budget, so they stay identical
        // across thread counts like every other verify/explore/ counter.
        reg.counter("verify/explore/parallel_threshold").set(work_min);
        reg.counter("verify/explore/levels_below_threshold")
            .add(levels_below_threshold);
        reg.counter("verify/explore/batched").add(batch != nullptr ? 1 : 0);
        reg.counter("verify/explore/sweep_states").add(sweep_states);
        // kCall fallback ops across the compiled guards: how much of the
        // program escaped full guard compilation (and with it the batch
        // layer). A pure function of the program, so it stays
        // thread-count-invariant.
        reg.counter("verify/kernel/kcall_fallbacks")
            .add(batch_coverage(*compiled).kcall_ops);
        reg.counter("verify/explore/levels").add(n_levels);
        reg.counter("verify/explore/frontier_peak").record_max(frontier_max);
        reg.counter("verify/explore/nodes").add(states_.size());
        reg.counter("verify/explore/initial_states").add(initial_.size());
        reg.counter("verify/explore/program_edges").add(prog_edges_.size());
        reg.counter("verify/explore/fault_edges").add(fault_count);
        // Every node is discovered by exactly one interning decision;
        // every decision is an initial seed or a transition target.
        const std::uint64_t intern_calls =
            initial_.size() + prog_edges_.size() + fault_count;
        reg.counter("verify/explore/interner_misses").add(states_.size());
        reg.counter("verify/explore/interner_hits")
            .add(intern_calls - states_.size());
        if (stop_on != nullptr) {
            reg.counter("verify/explore/stop_scans").add(stop_scans);
            reg.counter("verify/explore/early_exit").add(stopped ? 1 : 0);
            if (stopped)
                reg.counter("verify/explore/early_exit_depth")
                    .record_max(n_levels);
        }
        // Interner tier + peak-bytes gauges. Probe/resize counts depend
        // on claim timing and slot layout, byte capacities on the growth
        // pattern of the chosen path — thread-variant by nature, hence
        // the separate prefixes.
        reg.counter(identity_nodes_
                        ? "verify/interner/identity"
                        : direct_mapped_ ? "verify/interner/direct"
                                         : "verify/interner/sparse")
            .add(1);
        std::uint64_t interner_bytes =
            node_map_.capacity() * sizeof(NodeId);
        if (sparse_ != nullptr) {
            interner_bytes += sparse_->bytes();
            reg.counter("verify/interner/probes").add(sparse_->probes());
            reg.counter("verify/interner/resizes").add(sparse_->resizes());
        }
        reg.counter("verify/mem/interner_bytes").record_max(interner_bytes);
        reg.counter("verify/mem/nodes_bytes")
            .record_max(states_.capacity() * sizeof(StateIndex) +
                        parent_.capacity() * sizeof(NodeId));
        reg.counter("verify/mem/edges_bytes")
            .record_max(prog_edges_.capacity() * sizeof(Edge) +
                        prog_offsets_.capacity() * sizeof(std::uint64_t));
        if (spill) {
            // Out-of-core watermarks: bytes living in the spill files and
            // bytes advised out of the resident set during the build.
            reg.counter("verify/explorations_spilled").add(1);
            reg.counter("verify/mem/spill_bytes").record_max(spill_bytes());
            reg.counter("verify/mem/spill_released_bytes")
                .record_max(spill_released_bytes());
        }
    }
}

std::uint64_t TransitionSystem::spill_bytes() const {
    return states_.spill_bytes() + parent_.spill_bytes() +
           prog_offsets_.spill_bytes() + prog_edges_.spill_bytes();
}

std::uint64_t TransitionSystem::spill_released_bytes() const {
    return states_.spill_released_bytes() + parent_.spill_released_bytes() +
           prog_offsets_.spill_released_bytes() +
           prog_edges_.spill_released_bytes();
}

NodeId TransitionSystem::bad_node() const {
    DCFT_EXPECTS(!complete_ && bad_node_ != kNoNode,
                 "TransitionSystem::bad_node: exploration completed");
    return bad_node_;
}

NodeId TransitionSystem::first_bad_node(const Predicate& bad) const {
    const std::size_t n = states_.size();
    if (const auto& bits = bad.backing_bits();
        bits != nullptr && bits->size_bits() == space_->num_states()) {
        for (std::size_t i = 0; i < n; ++i)
            if (bits->test(states_[i])) return static_cast<NodeId>(i);
        return kNoNode;
    }
    for (std::size_t i = 0; i < n; ++i)
        if (bad.eval(*space_, states_[i])) return static_cast<NodeId>(i);
    return kNoNode;
}

BitVec TransitionSystem::state_bits() const {
    BitVec bits(space_->num_states());
    for (const StateIndex s : states_) bits.set(s);
    return bits;
}

void TransitionSystem::build_predecessors(CsrList& out,
                                          bool include_faults) const {
    const obs::ScopedSpan span("verify/preds_csr");
    obs::count("verify/preds_csr/builds");
    const std::size_t n = states_.size();
    if (spilled_) {
        // The reverse CSR inherits the out-of-core mode, and the two
        // sequential passes below over the (possibly advised-out) forward
        // edges benefit from explicit readahead.
        out.offsets_.enable_spill();
        out.items_.enable_spill();
        prog_offsets_.prefetch();
        prog_edges_.prefetch();
    }
    // Fault rows are regenerated once, in node order, into one target
    // buffer plus a per-node row length; the count and fill passes below
    // read them back in the same order.
    const bool with_faults = include_faults && faults_ != nullptr;
    std::vector<NodeId> targets;
    std::vector<std::uint32_t> row_len(with_faults ? n : 0);
    if (with_faults) {
        targets.reserve(fault_edge_count_);
        std::vector<Edge> row;
        for (NodeId u = 0; u < n; ++u) {
            fault_edges(u, row);
            row_len[u] = static_cast<std::uint32_t>(row.size());
            for (const Edge& x : row) targets.push_back(x.to);
        }
    }
    out.offsets_.assign(n + 1, 0);
    for (const Edge& e : prog_edges_) ++out.offsets_[e.to + 1];
    for (const NodeId v : targets) ++out.offsets_[v + 1];
    for (std::size_t i = 1; i <= n; ++i)
        out.offsets_[i] += out.offsets_[i - 1];
    out.items_.resize(out.offsets_[n]);
    // Fill in ascending source order (program edges before fault edges per
    // source), matching the order the lazy seed builder produced.
    std::vector<std::uint64_t> cursor(out.offsets_.begin(),
                                      out.offsets_.end() - 1);
    std::size_t at = 0;
    for (NodeId u = 0; u < n; ++u) {
        for (const Edge& e : program_edges(u))
            out.items_[cursor[e.to]++] = u;
        if (!with_faults) continue;
        for (std::uint32_t k = 0; k < row_len[u]; ++k)
            out.items_[cursor[targets[at++]]++] = u;
    }
}

bool TransitionSystem::has_state(StateIndex s) const {
    if (identity_nodes_) return s < space_->num_states();
    if (interner_lazy_) ensure_interner();
    if (direct_mapped_)
        return s < node_map_.size() &&
               node_map_[static_cast<std::size_t>(s)] != kNoNode;
    return sparse_->find(s) != kNoNode;
}

NodeId TransitionSystem::node_of(StateIndex s) const {
    if (identity_nodes_) {
        DCFT_EXPECTS(s < space_->num_states(),
                     "TransitionSystem::node_of: state not reachable");
        return static_cast<NodeId>(s);
    }
    if (interner_lazy_) ensure_interner();
    if (direct_mapped_) {
        DCFT_EXPECTS(s < node_map_.size() &&
                         node_map_[static_cast<std::size_t>(s)] != kNoNode,
                     "TransitionSystem::node_of: state not reachable");
        return node_map_[static_cast<std::size_t>(s)];
    }
    const NodeId id = sparse_->find(s);
    DCFT_EXPECTS(id != kNoNode,
                 "TransitionSystem::node_of: state not reachable");
    return id;
}

bool TransitionSystem::enabled(NodeId n, std::uint32_t a) const {
    DCFT_EXPECTS(a < program_.num_actions(), "action index out of range");
    return program_.action(a).enabled(*space_, states_[n]);
}

std::vector<StateIndex> TransitionSystem::witness_path(NodeId n) const {
    DCFT_EXPECTS(n < states_.size(), "witness_path: node out of range");
    std::vector<StateIndex> path;
    NodeId cur = n;
    for (;;) {
        path.push_back(states_[cur]);
        if (parent_[cur] == cur) break;
        cur = parent_[cur];
    }
    std::reverse(path.begin(), path.end());
    return path;
}

std::vector<WitnessStep> TransitionSystem::witness_trace(NodeId n) const {
    DCFT_EXPECTS(n < states_.size(), "witness_trace: node out of range");
    std::vector<NodeId> chain;
    for (NodeId cur = n;;) {
        chain.push_back(cur);
        if (parent_[cur] == cur) break;
        cur = parent_[cur];
    }
    std::reverse(chain.begin(), chain.end());

    std::vector<WitnessStep> out;
    out.reserve(chain.size());
    for (std::size_t i = 0; i < chain.size(); ++i) {
        WitnessStep step;
        step.state = states_[chain[i]];
        step.state_repr = space_->format(step.state);
        if (i > 0) {
            // Recover the acting action of the BFS tree edge u -> v.
            // Program edges are searched first, matching exploration order
            // (a program edge that discovered v wins over a later fault
            // edge to the same node).
            const NodeId u = chain[i - 1];
            const NodeId v = chain[i];
            bool found = false;
            for (const Edge& e : program_edges(u)) {
                if (e.to == v) {
                    step.action = program_.action(e.action).name();
                    step.fault = false;
                    found = true;
                    break;
                }
            }
            if (!found) {
                std::vector<FaultStep> steps;
                fault_steps(u, steps);
                for (const auto& [a, t] : steps) {
                    if (t == step.state) {
                        step.action = fault_action_name(a);
                        step.fault = true;
                        found = true;
                        break;
                    }
                }
            }
            DCFT_ASSERT(found, "witness_trace: BFS tree edge not recorded");
        }
        out.push_back(std::move(step));
    }
    return out;
}

std::string TransitionSystem::format_witness(NodeId n) const {
    constexpr std::size_t kMaxShown = 6;
    const std::vector<StateIndex> path = witness_path(n);
    std::string out;
    const std::size_t start =
        path.size() > kMaxShown ? path.size() - kMaxShown : 0;
    if (start > 0) out += "... -> ";
    for (std::size_t i = start; i < path.size(); ++i) {
        if (i > start) out += " -> ";
        out += space_->format(path[i]);
    }
    return out;
}

}  // namespace dcft
