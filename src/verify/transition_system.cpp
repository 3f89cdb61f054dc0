#include "verify/transition_system.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
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
/// (4 bytes per state of the *whole* space). Beyond this the sparse
/// open-addressing table takes over. Overridable via DCFT_DIRECT_MAP_MAX so
/// the sparse path is exercisable (tests, fuzzing, benches) at any size.
constexpr StateIndex kDefaultDirectMapMax = StateIndex{1} << 25;

StateIndex direct_map_max() {
    if (const auto v = env_positive_u64("DCFT_DIRECT_MAP_MAX"))
        return static_cast<StateIndex>(*v);
    return kDefaultDirectMapMax;
}

/// Work floor of the chunked identity sweep: a sweep whose work — states
/// × total action count — reaches this runs as two deterministic passes
/// over one chunk per worker; smaller sweeps, and every frontier level,
/// run on one thread. Recorded in telemetry as the gauge
/// verify/explore/parallel_threshold; the levels expanded on one thread
/// (verify/explore/levels_below_threshold) are counted by the work rule,
/// not by the worker budget, so the count is identical for every thread
/// count.
constexpr std::uint64_t kParallelWorkMin = std::uint64_t{1} << 23;

/// Segment length (states) of the identity sweep when spilling: after
/// each segment the sealed CSR/offset/node prefixes are advised out of
/// RSS, bounding the resident window to ~one segment's output.
constexpr StateIndex kSweepSegment = StateIndex{1} << 22;

/// Serial-path block size: the fused serial level expands this many
/// states into staged records before interning them (one guard word's
/// worth of states).
constexpr std::size_t kExpandBlock = 64;

/// Cap on speculative reserve() sizing (states) so pathological spaces do
/// not pre-allocate unbounded memory.
constexpr std::size_t kReserveCap = std::size_t{1} << 22;

/// Cap on the speculative program-edge reserve (edges).
constexpr std::size_t kEdgeReserveCap = std::size_t{1} << 24;

/// The rent-or-buy rule for whole-space guard bitsets. Filling one costs
/// |space| / 64 word operations; evaluating the guard bytecode costs one
/// evaluation per reached state. Once the reached states times 64 reach
/// the space size, a bitset costs no more than the bytecode already spent,
/// so it is bought — with no tunable constant. Explorations check this at
/// each level boundary on the nodes discovered so far.
bool guard_bits_pay(std::uint64_t nodes, StateIndex space_states) {
    return nodes * BitVec::kWordBits >= space_states;
}

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

/// Fault transitions out of every state of the space, counted without
/// enumerating a record: an unconditional-or-guarded corrupt-any emits
/// Σ(dom(v) − 1) successors at each enabled state, so it costs one guard
/// popcount; other forms are expanded state by state into scratch and
/// counted, never interned.
std::uint64_t count_fault_transitions(const CompiledActionSet& faults,
                                      std::span<const BitVec* const> gbits,
                                      StateIndex n_states) {
    using EK = Action::EffectForm::Kind;
    const CompiledSpace& cs = faults.cspace();
    std::uint64_t total = 0;
    std::vector<StateIndex> scratch;
    for (std::size_t a = 0; a < faults.size(); ++a) {
        const CompiledAction& act = faults[a];
        const BitVec* bits = gbits.empty() ? nullptr : gbits[a];
        if (act.effect_form().kind == EK::kCorruptAny) {
            std::uint64_t per_state = 0;
            for (const VarId v : act.effect_form().vars)
                per_state += static_cast<std::uint64_t>(cs.domain(v) - 1);
            std::uint64_t enabled = 0;
            if (bits != nullptr) {
                enabled = bits->popcount();
            } else {
                for (StateIndex s = 0; s < n_states; ++s)
                    enabled += act.enabled(s) ? 1 : 0;
            }
            total += enabled * per_state;
            continue;
        }
        for (StateIndex s = 0; s < n_states; ++s) {
            if (bits != nullptr ? !bits->test(s) : !act.enabled(s)) continue;
            scratch.clear();
            act.successors(s, scratch);
            total += scratch.size();
        }
    }
    return total;
}

}  // namespace

bool full_span_faults(const StateSpace& space, const FaultClass& faults) {
    for (const Action& a : faults.actions()) {
        const Action::EffectForm& form = a.effect_form();
        if (form.kind != Action::EffectForm::Kind::kCorruptAny ||
            a.guard().node_kind() != Predicate::NodeKind::kTrue)
            continue;
        BitVec covered(space.num_vars());
        for (const VarId v : form.vars) covered.set(v);
        bool all = true;
        for (VarId v = 0; v < space.num_vars() && all; ++v)
            all = covered.test(v) || space.variable(v).domain_size <= 1;
        if (all) return true;
    }
    return false;
}

/// The compiled fault actions, kept after exploration so fault rows can be
/// regenerated through the exploration's own expander: guard bytecode, or
/// — when the system's node count pays for them (guard_bits_pay) —
/// guard-bitset probes.
struct TransitionSystem::FaultKernel {
    std::shared_ptr<const CompiledActionSet> set;
    std::vector<const BitVec*> gbits;
    std::uint64_t bytes = 0;  ///< whole-space guard bitsets kept alive

    FaultKernel(std::shared_ptr<const CompiledActionSet> s, bool guard_bits)
        : set(std::move(s)),
          gbits(guard_bits ? guard_bit_ptrs(*set)
                           : std::vector<const BitVec*>(set->size())) {
        for (const BitVec* b : gbits)
            if (b != nullptr) bytes += b->num_words() * sizeof(std::uint64_t);
    }

    /// Appends the fault records of state s, in exploration order; with
    /// `marks`, leaves out the corrupt-any lines already covered.
    void steps(StateIndex s, std::vector<FaultStep>& out,
               LineMarks* marks = nullptr) const {
        set->expand(s, gbits, out, marks);
    }
};

// ---------------------------------------------------------------------------
// SparseNodeTable: the interner tier for spaces beyond DCFT_DIRECT_MAP_MAX.
//
// One open-addressing (linear probing) table; a splitmix64 fingerprint of
// the packed state index picks the probe start. Keys are stored biased by
// one (0 = empty slot) so membership needs no separate occupancy bitmap;
// values are NodeIds.
//
// Inserts (find_or_insert) come only from the exploration's one thread;
// once it is built, find() is a lock-free read for every consumer
// (has_state, node_of, fault-row resolution).
class SparseNodeTable {
public:
    /// Sizes the table for ~`expected` entries (load factor 0.7) up front
    /// — the reserve that keeps large explorations from rehashing level
    /// after level.
    explicit SparseNodeTable(std::size_t expected) {
        rehash(slots_for(expected));
    }

    static std::uint64_t fingerprint(StateIndex s) {
        // splitmix64 finalizer: full-avalanche, cheap, and stable — the
        // probe layout is a pure function of the state index.
        std::uint64_t z =
            static_cast<std::uint64_t>(s) + 0x9E3779B97F4A7C15ULL;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }

    /// Lock-free lookup (no concurrent inserts allowed). kNoNode if
    /// absent.
    NodeId find(StateIndex s) const {
        const std::uint64_t key = static_cast<std::uint64_t>(s) + 1;
        std::size_t i = fingerprint(s) & mask_;
        for (;;) {
            const std::uint64_t k = keys_[i];
            if (k == key) return vals_[i];
            if (k == 0) return TransitionSystem::kNoNode;
            i = (i + 1) & mask_;
        }
    }

    /// Serial find-or-insert: returns the resident id, or installs `id`
    /// and returns it. Single-threaded callers only.
    NodeId find_or_insert(StateIndex s, NodeId id) {
        if ((size_ + 1) * 10 >= (mask_ + 1) * 7) {
            rehash((mask_ + 1) * 2);
            ++resizes_;
        }
        const std::uint64_t key = static_cast<std::uint64_t>(s) + 1;
        std::size_t i = fingerprint(s) & mask_;
        for (;;) {
            ++probes_;
            const std::uint64_t k = keys_[i];
            if (k == key) return vals_[i];
            if (k == 0) {
                keys_[i] = key;
                vals_[i] = id;
                ++size_;
                return id;
            }
            i = (i + 1) & mask_;
        }
    }

    std::uint64_t probes() const { return probes_; }
    std::uint64_t resizes() const { return resizes_; }
    std::uint64_t bytes() const {
        return keys_.capacity() * sizeof(std::uint64_t) +
               vals_.capacity() * sizeof(NodeId);
    }

private:
    static std::size_t slots_for(std::size_t entries) {
        // Smallest power of two keeping load factor <= 0.7, min 16 slots.
        std::size_t cap = 16;
        while (cap * 7 < entries * 10) cap <<= 1;
        return cap;
    }

    void rehash(std::size_t new_cap) {
        std::vector<std::uint64_t> old_keys = std::move(keys_);
        std::vector<NodeId> old_vals = std::move(vals_);
        keys_.assign(new_cap, 0);
        vals_.assign(new_cap, TransitionSystem::kNoNode);
        mask_ = new_cap - 1;
        for (std::size_t j = 0; j < old_keys.size(); ++j) {
            const std::uint64_t k = old_keys[j];
            if (k == 0) continue;
            std::size_t i =
                fingerprint(static_cast<StateIndex>(k - 1)) & mask_;
            while (keys_[i] != 0) i = (i + 1) & mask_;
            keys_[i] = k;
            vals_[i] = old_vals[j];
        }
    }

    std::vector<std::uint64_t> keys_;  ///< state index + 1; 0 = empty
    std::vector<NodeId> vals_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    std::uint64_t probes_ = 0;
    std::uint64_t resizes_ = 0;
};

// ---------------------------------------------------------------------------
// DirectMap: the interner tier up to DCFT_DIRECT_MAP_MAX states.

/// Page granularity of the direct map's commit accounting.
constexpr std::size_t kMapPage = 4096;
constexpr std::size_t kSlotsPerPage = kMapPage / sizeof(NodeId);

TransitionSystem::DirectMap::~DirectMap() {
    if (slots_ != nullptr) ::munmap(slots_, size_ * sizeof(NodeId));
}

void TransitionSystem::DirectMap::allocate(std::size_t n) {
    DCFT_ASSERT(slots_ == nullptr, "DirectMap: allocated twice");
    if (n == 0) return;
    // mmap, not calloc: glibc serves a calloc this large from the heap
    // once its dynamic mmap threshold has risen, and then memsets (and so
    // commits) every page. Huge pages would commit 2 MiB around each
    // touched slot, so they are declined.
    void* p = ::mmap(nullptr, n * sizeof(NodeId), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
#ifdef MADV_NOHUGEPAGE
    (void)::madvise(p, n * sizeof(NodeId), MADV_NOHUGEPAGE);
#endif
    slots_ = static_cast<NodeId*>(p);
    size_ = n;
    pages_ = BitVec((n + kSlotsPerPage - 1) / kSlotsPerPage);
}

void TransitionSystem::DirectMap::note_pages(const StateIndex* states,
                                             std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
        pages_.set(static_cast<std::size_t>(states[i]) / kSlotsPerPage);
}

std::uint64_t TransitionSystem::DirectMap::touched_bytes() const {
    const std::size_t n_pages = pages_.size_bits();
    if (n_pages == 0) return 0;
    // Only the map's own bytes count: the last page may extend past it.
    std::uint64_t touched = pages_.popcount() * kMapPage;
    if (pages_.test(n_pages - 1))
        touched -= n_pages * kMapPage - size_ * sizeof(NodeId);
    return touched;
}

TransitionSystem::TransitionSystem(const Program& program,
                                   const FaultClass* faults,
                                   const Predicate& init, unsigned n_threads)
    : TransitionSystem(program, faults, init, ExploreOptions{n_threads}) {}

TransitionSystem::TransitionSystem(const Program& program,
                                   const FaultClass* faults,
                                   const Predicate& init,
                                   const ExploreOptions& options)
    : space_(program.space_ptr()), program_(program) {
    if (faults != nullptr)
        faults_ = std::make_shared<const FaultClass>(*faults);
    explore(faults, init, resolve_verifier_threads(options.n_threads),
            options.spill || spill_enabled());
}

TransitionSystem::TransitionSystem(const Program& program,
                                   const FaultClass* faults,
                                   AdoptedArrays&& arrays)
    : space_(program.space_ptr()),
      program_(program),
      faults_(faults != nullptr ? std::make_shared<const FaultClass>(*faults)
                                : nullptr),
      num_nodes_(arrays.identity_nodes
                     ? static_cast<std::size_t>(program.space().num_states())
                     : arrays.states.size()),
      states_(std::move(arrays.states)),
      initial_(std::move(arrays.initial)),
      parent_(std::move(arrays.parent)),
      prog_offsets_(std::move(arrays.prog_offsets)),
      prog_edges_(std::move(arrays.prog_edges)),
      fault_edge_count_(arrays.num_fault_edges),
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
        const obs::Span span("verify/compile/faults");
        fault_kernel_ = std::make_unique<FaultKernel>(
            std::make_shared<const CompiledActionSet>(compile_space(space_),
                                                      faults_->actions()),
            guard_bits_pay(num_nodes_, space_->num_states()));
        fault_kernel_bytes_.store(fault_kernel_->bytes);
    });
    return *fault_kernel_;
}

void TransitionSystem::fault_steps(NodeId n,
                                   std::vector<FaultStep>& out) const {
    out.clear();
    if (faults_ == nullptr) return;
    fault_kernel().steps(state_of(n), out);
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
        const NodeId to = identity_nodes_  ? static_cast<NodeId>(t)
                          : direct_mapped_ ? node_map_.get(t)
                                           : sparse_->find(t);
        DCFT_ASSERT(to != kNoNode, "fault_edges: target not interned");
        out.push_back(Edge{a, to});
    }
}

void TransitionSystem::ensure_interner() const {
    std::call_once(interner_once_, [this] {
        const obs::Span span("verify/graph_store/interner_rebuild");
        const std::size_t n = num_nodes_;
        if (direct_mapped_) {
            node_map_.allocate(static_cast<std::size_t>(space_->num_states()));
            for (std::size_t i = 0; i < n; ++i)
                node_map_.set(states_[i], static_cast<NodeId>(i));
            node_map_.note_pages(states_.data(), n);
            interner_bytes_.store(node_map_.touched_bytes());
        } else {
            auto table = std::make_unique<SparseNodeTable>(n);
            for (std::size_t i = 0; i < n; ++i)
                table->find_or_insert(states_[i], static_cast<NodeId>(i));
            interner_bytes_.store(table->bytes());
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
    b += interner_bytes_.load();
    b += fault_kernel_bytes_.load();
    return b;
}

TransitionSystem::~TransitionSystem() = default;

void TransitionSystem::explore(const FaultClass* faults,
                               const Predicate& init, unsigned n_threads,
                               bool spill) {
    const bool telemetry = obs::enabled();
    // The per-level timeline rides on either structured-output mode:
    // run reports (telemetry) embed it, traces cross-reference it.
    const bool timeline = telemetry || obs::trace_enabled();
    const bool progress_on = obs::progress_enabled();
    // One count per exploration actually run: snapshot-adopted graphs
    // never pass here, which is what the graph-store smoke test asserts on.
    obs::count("verify/explorations");
    const obs::Span span("verify/explore");
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
    // divmod-free effects). Opaque guard subtrees run through kCall ops.
    // Guards start on per-state bytecode (null bitset pointers); the
    // whole-space bitsets are bought at a level boundary (buy_guard_bits).
    std::unique_ptr<CompiledProgram> compiled;
    {
        const obs::Span cspan("verify/compile");
        compiled = std::make_unique<CompiledProgram>(program_, faults);
    }
    const CompiledSpace& cspace = compiled->cspace();

    // Seed: bulk-evaluate init over the space (each state exactly once).
    // Done before the interner is chosen so the initial-set cardinality
    // can size it.
    const BitVec init_bits = [&] {
        const obs::Span seed_span("verify/explore/seed");
        BitVec b(n_states);
        fill_guard_bits(cspace, init, b);
        return b;
    }();
    const std::uint64_t init_pop = init_bits.popcount();

    // Identity graphs: the seed covers the whole space, or the fault span
    // of a non-empty seed syntactically does. Node id == state index and
    // one sweep builds the graph (explore_identity).
    identity_nodes_ =
        init_pop == n_states ||
        (init_pop > 0 && faults != nullptr &&
         full_span_faults(*space_, *faults));
    // Otherwise: direct-mapped NodeId array up to DCFT_DIRECT_MAP_MAX
    // states, an open-addressing table beyond — reserved from the
    // init-set cardinality times a growth estimate so large explorations
    // do not rehash level after level.
    if (!identity_nodes_) {
        direct_mapped_ = n_states <= direct_map_max();
        if (direct_mapped_) {
            node_map_.allocate(static_cast<std::size_t>(n_states));
        } else {
            constexpr std::uint64_t kGrowthEstimate = 8;
            const std::uint64_t expected = std::min<std::uint64_t>(
                std::max<std::uint64_t>(init_pop * kGrowthEstimate, 4096),
                n_states);
            sparse_ = std::make_unique<SparseNodeTable>(
                static_cast<std::size_t>(expected));
        }
    }
    // Tier selection is a function of the program, the fault class, the
    // seed cardinality and the space size only, so this instant — like
    // every instant below — fires the same number of times for every
    // thread count (pinned by trace_test).
    obs::instant("verify/interner/tier",
                 identity_nodes_ ? 0 : direct_mapped_ ? 1 : 2);
    if (progress_on) obs::progress_explore_begin(n_states);

    if (identity_nodes_)
        explore_identity(*compiled, init_bits, n_threads, spill, explore_t0);
    else
        explore_bfs(*compiled, init_bits, spill, explore_t0);

    if (telemetry) {
        auto& reg = obs::Registry::global();
        // The sweep's work floor (see kParallelWorkMin).
        reg.counter("verify/explore/parallel_threshold").set(kParallelWorkMin);
        // kCall fallback ops across the compiled guards: how much of the
        // program escaped full guard compilation (and with it the guard
        // bitsets). A pure function of the program, so it stays
        // thread-count-invariant.
        reg.counter("verify/kernel/kcall_fallbacks")
            .add(batch_coverage(*compiled).kcall_ops);
        reg.counter("verify/explore/sweep_states")
            .add(identity_nodes_ ? n_states : 0);
        reg.counter("verify/explore/nodes").add(num_nodes_);
        reg.counter("verify/explore/initial_states").add(initial_.size());
        reg.counter("verify/explore/program_edges").add(prog_edges_.size());
        reg.counter("verify/explore/fault_edges").add(fault_edge_count_);
        reg.counter("verify/mem/interner_bytes")
            .record_max(interner_bytes_.load());
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

void TransitionSystem::explore_bfs(const CompiledProgram& compiled,
                                   const BitVec& init_bits, bool spill,
                                   std::uint64_t explore_t0) {
    const bool telemetry = obs::enabled();
    const bool timeline = telemetry || obs::trace_enabled();
    const bool progress_on = obs::progress_enabled();
    const StateIndex n_states = space_->num_states();
    const CompiledSpace& cspace = compiled.cspace();
    std::vector<const BitVec*> prog_gbits(
        compiled.program_actions().size());
    std::vector<const BitVec*> fault_gbits(
        compiled.has_faults() ? compiled.fault_actions().size() : 0);
    bool guard_bits_bought = false;
    std::uint64_t levels_before_guard_bits = 0;
    // Buys the guard bitsets of every fully compiled guard (program
    // and fault actions). Guard evaluation never changes a successor
    // or its order, so the graph is the same whenever this happens;
    // only the cost moves.
    auto buy_guard_bits = [&](std::uint64_t level_index) {
        const obs::Span cspan("verify/compile");
        guard_bits_bought = true;
        prog_gbits = guard_bit_ptrs(compiled.program_actions());
        if (compiled.has_faults())
            fault_gbits = guard_bit_ptrs(compiled.fault_actions());
        obs::instant("verify/compile/guard_bits", level_index);
    };

    // The corrupt-any line rule (LineMarks): every level on the
    // direct-mapped tier skips fault successors whose line is already
    // fully interned. Its n/dom(v) bits per corrupted variable stay
    // far below the direct map's 4 bytes per state.
    std::unique_ptr<LineMarks> marks;
    if (direct_mapped_ && compiled.has_faults()) {
        marks = std::make_unique<LineMarks>(
            cspace, compiled.fault_actions().actions());
        if (!marks->any()) marks.reset();
    }

    // Expands one state into `recs` (CompiledActionSet::expand): its
    // program records, then its fault records. With `marks`, fault
    // successors on an already covered corrupt-any line are left out
    // (LineMarks). Returns the (program, fault) record counts.
    using Counts = std::pair<std::uint32_t, std::uint32_t>;
    auto expand = [&](StateIndex s,
                      std::vector<CompiledActionSet::Rec>& recs,
                      LineMarks* lm) -> Counts {
        const std::uint32_t n_prog =
            compiled.program_actions().expand(s, prog_gbits, recs);
        const std::uint32_t n_fault =
            compiled.has_faults()
                ? compiled.fault_actions().expand(s, fault_gbits, recs,
                                                   lm)
                : 0;
        return {n_prog, n_fault};
    };

    // Reserve node/edge storage: size to the space (capped) —
    // explicit-state instances are usually mostly reachable.
    const std::size_t guess = static_cast<std::size_t>(
        std::min<StateIndex>(n_states, kReserveCap));
    states_.reserve(guess);
    parent_.reserve(guess);
    prog_offsets_.reserve(guess + 1);
    // Edge vectors dominate the working set of dense explorations;
    // growing them by doubling re-copies tens of MB mid-BFS. Reserve
    // one slot per (state, action) — an upper bound for deterministic
    // actions — capped. reserve() only allocates address space;
    // untouched tail pages are never committed.
    prog_edges_.reserve(std::min<std::size_t>(
        guess * std::max<std::size_t>(program_.num_actions(), 1),
        kEdgeReserveCap));

    // Interns t (first discovery appends it to the next BFS level with
    // `from` as its BFS-tree parent). Called in canonical FIFO order.
    auto intern = [&](StateIndex t, NodeId from) -> NodeId {
        if (direct_mapped_) {
            const NodeId got = node_map_.get(t);
            if (got != kNoNode) return got;
            const NodeId fresh = static_cast<NodeId>(states_.size());
            node_map_.set(t, fresh);
            states_.push_back(t);
            parent_.push_back(from);
            return fresh;
        }
        const NodeId fresh = static_cast<NodeId>(states_.size());
        const NodeId got = sparse_->find_or_insert(t, fresh);
        if (got == fresh) {
            states_.push_back(t);
            parent_.push_back(from);
        }
        return got;
    };

    // Intern the satisfying seed states in ascending order — the
    // canonical root numbering.
    initial_.reserve(static_cast<std::size_t>(init_bits.popcount()));
    init_bits.for_each_set([&](std::uint64_t s) {
        const NodeId id =
            intern(static_cast<StateIndex>(s), static_cast<NodeId>(0));
        parent_[id] = id;  // roots are their own parent
        initial_.push_back(id);
    });
    if (direct_mapped_)
        node_map_.note_pages(states_.data(), states_.size());

    prog_offsets_.push_back(0);
    // Fault transitions enumerated so far. Their targets are interned
    // like program successors (fault steps add nodes to the span), but
    // no fault edge is written: consumers regenerate fault rows
    // (fault_steps).
    std::uint64_t fault_count = 0;

    std::uint64_t n_levels = 0;  // telemetry: BFS depth / frontier stats
    std::uint64_t frontier_max = 0;

    // Per-level timeline rows (embedded in run reports, see
    // obs/trace.hpp) and heartbeat updates. One row per BFS level.
    std::vector<obs::LevelStat> tl_levels;
    std::uint64_t tl_prev_prog = 0, tl_prev_fault = 0;

    // Level-synchronous FIFO BFS: each level's states are expanded in
    // id order and their successors interned in record order, so node
    // numbering, edge order and the BFS parent tree are the canonical
    // ones. Line marks only leave out interning calls that would hit,
    // so every decision that still runs happens in the same order.
    std::vector<CompiledActionSet::Rec> brecs;  // one block's records
    std::vector<Counts> bcounts;
    std::size_t level_begin = 0;
    while (level_begin < states_.size()) {
        const std::uint64_t level_index = n_levels;
        if (!guard_bits_bought) {
            if (guard_bits_pay(states_.size(), n_states))
                buy_guard_bits(level_index);
            else
                ++levels_before_guard_bits;
        }
        const obs::Span level_span("verify/explore/level", level_index);
        const std::size_t level_end = states_.size();
        const std::uint64_t lvl_t0 = timeline ? obs::now_ns() : 0;
        ++n_levels;
        frontier_max = std::max<std::uint64_t>(frontier_max,
                                               level_end - level_begin);
        const std::uint64_t skipped0 =
            marks != nullptr ? marks->skipped() : 0;
        // Each block of states is expanded into flat records first,
        // then interned in record order — the FIFO sequence.
        for (std::size_t i = level_begin; i < level_end;
             i += kExpandBlock) {
            const std::size_t bn = std::min(kExpandBlock, level_end - i);
            brecs.clear();
            bcounts.clear();
            for (std::size_t j = 0; j < bn; ++j)
                bcounts.push_back(
                    expand(states_[i + j], brecs, marks.get()));
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
        if (marks != nullptr) fault_count += marks->skipped() - skipped0;
        if (spill) {
            states_.release_prefix(level_end);
            parent_.release_prefix(level_end);
            prog_edges_.release_prefix(prog_edges_.size());
            prog_offsets_.release_prefix(level_end);
        }
        const std::uint64_t new_nodes = states_.size() - level_end;
        if (direct_mapped_)
            node_map_.note_pages(states_.data() + level_end, new_nodes);
        if (timeline) {
            obs::LevelStat ls;
            ls.level = level_index;
            ls.frontier = level_end - level_begin;
            ls.new_nodes = new_nodes;
            ls.program_edges = prog_edges_.size() - tl_prev_prog;
            ls.fault_edges = fault_count - tl_prev_fault;
            ls.level_ns = obs::now_ns() - lvl_t0;
            ls.rss_bytes = obs::current_rss_bytes().value_or(0);
            ls.spill_bytes = spill ? spill_bytes() : 0;
            ls.spill_released_bytes = spill ? spill_released_bytes() : 0;
            tl_levels.push_back(ls);
            tl_prev_prog = prog_edges_.size();
            tl_prev_fault = fault_count;
        }
        obs::instant("verify/explore/level_done", level_index);
        if (progress_on)
            obs::progress_explore_level(
                level_index, new_nodes, states_.size(),
                spill ? spill_released_bytes() : 0);
        level_begin = level_end;
    }
    num_nodes_ = states_.size();
    fault_edge_count_ = fault_count;
    // Keep only the fault half of the compiled program (its guard
    // bitsets included) for fault-row regeneration.
    if (compiled.has_faults())
        std::call_once(fault_kernel_once_, [&] {
            fault_kernel_ = std::make_unique<FaultKernel>(
                compiled.fault_actions_ptr(),
                guard_bits_pay(num_nodes_, n_states));
            fault_kernel_bytes_.store(fault_kernel_->bytes);
        });
    // The interner is complete: its resident share is fixed from here.
    if (direct_mapped_)
        interner_bytes_.store(node_map_.touched_bytes());
    else
        interner_bytes_.store(sparse_->bytes());

    if (timeline) {
        obs::ExplorationTimeline tl;
        tl.space_states = n_states;
        tl.total_ns = obs::now_ns() - explore_t0;
        tl.spilled = spill;
        tl.levels = std::move(tl_levels);
        obs::timeline_publish(std::move(tl));
    }

    // Telemetry flush: one registry access per exploration, never per
    // state. Everything under verify/explore/ is a function of the
    // canonical BFS, so the values are identical for every thread
    // count (pinned by tests/obs/telemetry_test); layout-dependent
    // interner statistics live under verify/interner/ and verify/mem/.
    if (telemetry) {
        auto& reg = obs::Registry::global();
        // Every BFS level runs on one thread.
        reg.counter("verify/explore/levels_below_threshold")
            .add(n_levels);
        // Levels run on guard bytecode before the bitsets paid for
        // themselves: a function of the canonical level sizes only.
        reg.counter("verify/explore/levels_before_guard_bits")
            .add(levels_before_guard_bits);
        reg.counter("verify/explore/levels").add(n_levels);
        reg.counter("verify/explore/frontier_peak")
            .record_max(frontier_max);
        // Every node is discovered by exactly one interning decision;
        // every decision is an initial seed or a transition target.
        // Hits are the targets already interned: looked up, or known
        // to be by a line mark.
        const std::uint64_t intern_calls =
            initial_.size() + prog_edges_.size() + fault_count;
        reg.counter("verify/explore/interner_misses").add(num_nodes_);
        reg.counter("verify/explore/interner_hits")
            .add(intern_calls - num_nodes_);
        reg.counter(direct_mapped_ ? "verify/interner/direct"
                                   : "verify/interner/sparse")
            .add(1);
        if (sparse_ != nullptr) {
            // Probe/resize counts depend on the slot layout and the
            // growth pattern, hence the separate prefix.
            reg.counter("verify/interner/probes").add(sparse_->probes());
            reg.counter("verify/interner/resizes")
                .add(sparse_->resizes());
        }
        // Line marks are made on every level of a direct-mapped
        // exploration, in canonical order, so this is a function of
        // the canonical BFS like the verify/explore/ counters; it
        // lives here because it depends on the interner tier.
        reg.counter("verify/interner/fault_successors_skipped")
            .add(marks != nullptr ? marks->skipped() : 0);
    }
}

void TransitionSystem::explore_identity(const CompiledProgram& compiled,
                                        const BitVec& init_bits,
                                        unsigned n_threads, bool spill,
                                        std::uint64_t explore_t0) {
    const bool telemetry = obs::enabled();
    const bool timeline = telemetry || obs::trace_enabled();
    const StateIndex n_states = space_->num_states();
    const std::uint64_t t0 = timeline ? obs::now_ns() : 0;
    num_nodes_ = static_cast<std::size_t>(n_states);
    // The initial nodes are the seed states in ascending order — the
    // canonical roots, and (node id == state index) their own ids.
    initial_.reserve(static_cast<std::size_t>(init_bits.popcount()));
    init_bits.for_each_set(
        [&](std::uint64_t s) { initial_.push_back(static_cast<NodeId>(s)); });

    // Every state is a node, so the guard bitsets pay at once.
    std::vector<const BitVec*> prog_gbits, fault_gbits;
    {
        const obs::Span cspan("verify/compile");
        prog_gbits = guard_bit_ptrs(compiled.program_actions());
        if (compiled.has_faults())
            fault_gbits = guard_bit_ptrs(compiled.fault_actions());
        obs::instant("verify/compile/guard_bits", 0);
    }

    const obs::Span level_span("verify/explore/level", 0);
    const obs::Span sweep_span("verify/explore/sweep");
    // Cost model of the chunking decision: expanding one state costs ~one
    // guard probe + successor emission per action, so the sweep's work
    // scales with states × action count.
    const std::uint64_t actions_per_state = std::max<std::uint64_t>(
        program_.num_actions() +
            (compiled.has_faults() ? compiled.fault_actions().size() : 0),
        1);
    const bool chunked = n_states * actions_per_state >= kParallelWorkMin;
    // Segmenting bounds the resident window in spill mode (each sealed
    // segment is advised out); in-core runs use one segment.
    const StateIndex seg_step = spill ? kSweepSegment : n_states;
    unsigned sweep_chunks = 1;
    prog_offsets_.push_back(0);

    const BatchKernel batch(compiled, prog_gbits, fault_gbits);
    if (batch.batchable()) {
        // The BatchKernel sweep: odometer digits and exact pre-counted
        // CSR slices — no staging, no per-state scratch. Output positions
        // are pure prefix sums of guard-bitset popcounts, hence
        // bit-identical for every thread count. Fault successors need no
        // enumeration at all: their count is a guard popcount.
        const auto [prog_total, fault_total] = batch.count_edges(0, n_states);
        fault_edge_count_ = fault_total;
        // resize_overwrite: the sweep writes every edge slot and every
        // offsets entry past index 0 — exactly once, positions
        // pre-counted.
        prog_edges_.resize_overwrite(prog_total);
        prog_offsets_.resize_overwrite(static_cast<std::size_t>(n_states) +
                                       1);
        std::uint64_t pcur = 0;
        std::vector<std::uint64_t> ccnt, cbase;
        for (StateIndex seg = 0; seg < n_states; seg += seg_step) {
            const StateIndex seg_end =
                std::min<StateIndex>(n_states, seg + seg_step);
            const std::uint64_t seg_words = ((seg_end - seg) + 63) >> 6;
            const unsigned seg_chunks =
                chunked ? parallel_chunk_count(seg_words, n_threads,
                                               /*align=*/1)
                        : 1;
            sweep_chunks = std::max(sweep_chunks, seg_chunks);
            if (seg_chunks <= 1) {
                batch.sweep(seg, seg_end,
                            {prog_edges_.data(), prog_offsets_.data(), pcur});
                pcur += batch.count_edges(seg, seg_end).first;
            } else {
                // Two deterministic passes over identical chunk bounds:
                // count, prefix, sweep into disjoint slices.
                ccnt.assign(seg_chunks, 0);
                parallel_chunks(
                    seg_words, n_threads, /*align=*/1,
                    [&](unsigned c, std::uint64_t wb, std::uint64_t we) {
                        const StateIndex b = seg + (wb << 6);
                        const StateIndex e =
                            std::min<StateIndex>(seg_end, seg + (we << 6));
                        ccnt[c] = batch.count_edges(b, e).first;
                    });
                cbase.assign(seg_chunks, 0);
                for (unsigned c = 0; c < seg_chunks; ++c) {
                    cbase[c] = pcur;
                    pcur += ccnt[c];
                }
                parallel_chunks(
                    seg_words, n_threads, /*align=*/1,
                    [&](unsigned c, std::uint64_t wb, std::uint64_t we) {
                        const obs::Span cspan("verify/explore/sweep/chunk",
                                              c);
                        const StateIndex b = seg + (wb << 6);
                        const StateIndex e =
                            std::min<StateIndex>(seg_end, seg + (we << 6));
                        batch.sweep(b, e,
                                    {prog_edges_.data(),
                                     prog_offsets_.data(), cbase[c]});
                    });
            }
            if (spill) {
                prog_edges_.release_prefix(pcur);
                prog_offsets_.release_prefix(seg_end);
            }
        }
    } else {
        // The per-state expander in state order, program actions only, on
        // one thread: each state's records are its CSR row as written.
        prog_offsets_.reserve(static_cast<std::size_t>(n_states) + 1);
        prog_edges_.reserve(std::min<std::size_t>(
            static_cast<std::size_t>(n_states) *
                std::max<std::size_t>(program_.num_actions(), 1),
            kEdgeReserveCap));
        const CompiledActionSet& prog = compiled.program_actions();
        std::vector<CompiledActionSet::Rec> recs;
        for (StateIndex s = 0; s < n_states; ++s) {
            recs.clear();
            prog.expand(s, prog_gbits, recs);
            for (const auto& [a, t] : recs)
                prog_edges_.push_back(Edge{a, static_cast<NodeId>(t)});
            prog_offsets_.push_back(prog_edges_.size());
            if (spill && (s & (kSweepSegment - 1)) == kSweepSegment - 1) {
                prog_edges_.release_prefix(prog_edges_.size());
                prog_offsets_.release_prefix(static_cast<std::size_t>(s));
            }
        }
        fault_edge_count_ =
            compiled.has_faults()
                ? count_fault_transitions(compiled.fault_actions(),
                                          fault_gbits, n_states)
                : 0;
    }
    // Keep only the fault half of the compiled program (its guard bitsets
    // included) for fault-row regeneration.
    if (compiled.has_faults())
        std::call_once(fault_kernel_once_, [&] {
            fault_kernel_ = std::make_unique<FaultKernel>(
                compiled.fault_actions_ptr(), /*guard_bits=*/true);
            fault_kernel_bytes_.store(fault_kernel_->bytes);
        });

    // One timeline row: the sweep discovers every state.
    if (timeline) {
        obs::LevelStat ls;
        ls.frontier = n_states;
        ls.new_nodes = n_states;
        ls.program_edges = prog_edges_.size();
        ls.fault_edges = fault_edge_count_;
        ls.level_ns = obs::now_ns() - t0;
        ls.rss_bytes = obs::current_rss_bytes().value_or(0);
        ls.spill_bytes = spill ? spill_bytes() : 0;
        ls.spill_released_bytes = spill ? spill_released_bytes() : 0;
        ls.parallel = sweep_chunks > 1;
        ls.chunks = sweep_chunks;
        obs::ExplorationTimeline tl;
        tl.space_states = n_states;
        tl.total_ns = obs::now_ns() - explore_t0;
        tl.spilled = spill;
        tl.identity = true;
        tl.levels.push_back(ls);
        obs::timeline_publish(std::move(tl));
    }
    obs::instant("verify/explore/level_done", 0);
    if (obs::progress_enabled())
        obs::progress_explore_level(0, n_states, n_states,
                                    spill ? spill_released_bytes() : 0);
    if (telemetry) {
        // One sweep and no interning decision: no interner hit or miss,
        // no line skip, no level before the guard bitsets.
        auto& reg = obs::Registry::global();
        reg.counter("verify/explore/levels_below_threshold")
            .add(chunked ? 0 : 1);
        reg.counter("verify/explore/levels").add(1);
        reg.counter("verify/explore/frontier_peak").record_max(n_states);
        reg.counter("verify/interner/identity").add(1);
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

NodeId TransitionSystem::first_bad_node(const Predicate& bad) const {
    if (const auto& bits = bad.backing_bits();
        bits != nullptr && bits->size_bits() == space_->num_states())
        return first_canonical(
            [&](NodeId v) { return bits->test(state_of(v)); });
    return first_canonical(
        [&](NodeId v) { return bad.eval(*space_, state_of(v)); });
}

BitVec TransitionSystem::state_bits() const {
    BitVec bits(space_->num_states());
    if (identity_nodes_) {
        bits.set_all();
        return bits;
    }
    for (const StateIndex s : states_) bits.set(s);
    return bits;
}

void TransitionSystem::replay_grow(std::size_t pos, NodeId n) const {
    Replay& r = replay_;
    if (r.parent.size() == 0) {
        r.parent.allocate(num_nodes_);
        for (const NodeId root : initial_) r.parent.set(root, root);
        if (faults_ != nullptr) {
            const CompiledActionSet& set = *fault_kernel().set;
            r.marks = std::make_unique<LineMarks>(set.cspace(), set.actions());
            if (!r.marks->any()) r.marks.reset();
        }
    }
    const std::size_t n_roots = initial_.size();
    auto discovered = [&] { return n_roots + r.order.size(); };
    auto done = [&] {
        return n != kNoNode ? r.parent.get(n) != kNoNode : discovered() > pos;
    };
    std::uint64_t expanded = 0;
    std::vector<FaultStep> steps;
    auto visit = [&](NodeId v, NodeId from) {
        if (r.parent.get(v) != kNoNode) return;  // visited before
        r.parent.set(v, from);
        r.order.push_back(v);
    };
    while (!done()) {
        DCFT_ASSERT(r.head < discovered(),
                    "canonical replay: node unreachable from the roots");
        const NodeId u =
            r.head < n_roots ? initial_[r.head] : r.order[r.head - n_roots];
        ++r.head;
        ++expanded;
        // The exploration's record order: program row, then fault row.
        for (const Edge& e : program_edges(u)) visit(e.to, u);
        steps.clear();
        if (faults_ != nullptr)
            fault_kernel().steps(state_of(u), steps, r.marks.get());
        for (const auto& [a, t] : steps) visit(static_cast<NodeId>(t), u);
    }
    if (expanded != 0) obs::count("verify/canonical/replayed_nodes", expanded);
}

void TransitionSystem::replay_batch(std::size_t pos,
                                    std::vector<NodeId>& out) const {
    constexpr std::size_t kBatch = 64;
    out.clear();
    if (pos >= num_nodes_) return;
    const std::lock_guard<std::mutex> lock(replay_.mu);
    replay_grow(pos, kNoNode);
    const std::size_t n_roots = initial_.size();
    const std::size_t end =
        std::min(pos + kBatch, n_roots + replay_.order.size());
    for (std::size_t p = pos; p < end; ++p)
        out.push_back(p < n_roots ? initial_[p] : replay_.order[p - n_roots]);
}

NodeId TransitionSystem::canonical_node(std::size_t pos) const {
    DCFT_EXPECTS(pos < num_nodes_, "canonical_node: position out of range");
    if (canonical_ids()) return static_cast<NodeId>(pos);
    std::vector<NodeId> batch;
    replay_batch(pos, batch);
    return batch.front();
}

std::vector<NodeId> TransitionSystem::tree_chain(NodeId n) const {
    std::vector<NodeId> chain;
    if (!identity_nodes_) {
        for (NodeId cur = n;;) {
            chain.push_back(cur);
            if (parent_[cur] == cur) break;
            cur = parent_[cur];
        }
        return chain;
    }
    chain.push_back(n);
    if (canonical_ids()) return chain;  // every node is a root
    const std::lock_guard<std::mutex> lock(replay_.mu);
    replay_grow(0, n);
    for (NodeId cur = n, up = replay_.parent.get(cur); up != cur;
         cur = up, up = replay_.parent.get(cur))
        chain.push_back(up);
    return chain;
}

void TransitionSystem::build_predecessors(CsrList& out,
                                          bool include_faults) const {
    const obs::Span span("verify/preds_csr");
    obs::count("verify/preds_csr/builds");
    const std::size_t n = num_nodes_;
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
        return s < node_map_.size() && node_map_.get(s) != kNoNode;
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
        DCFT_EXPECTS(s < node_map_.size() && node_map_.get(s) != kNoNode,
                     "TransitionSystem::node_of: state not reachable");
        return node_map_.get(s);
    }
    const NodeId id = sparse_->find(s);
    DCFT_EXPECTS(id != kNoNode,
                 "TransitionSystem::node_of: state not reachable");
    return id;
}

bool TransitionSystem::enabled(NodeId n, std::uint32_t a) const {
    DCFT_EXPECTS(a < program_.num_actions(), "action index out of range");
    return program_.action(a).enabled(*space_, state_of(n));
}

std::vector<StateIndex> TransitionSystem::witness_path(NodeId n) const {
    DCFT_EXPECTS(n < num_nodes_, "witness_path: node out of range");
    const std::vector<NodeId> chain = tree_chain(n);
    std::vector<StateIndex> path;
    path.reserve(chain.size());
    for (auto it = chain.rbegin(); it != chain.rend(); ++it)
        path.push_back(state_of(*it));
    return path;
}

std::vector<WitnessStep> TransitionSystem::witness_trace(NodeId n) const {
    DCFT_EXPECTS(n < num_nodes_, "witness_trace: node out of range");
    std::vector<NodeId> chain = tree_chain(n);
    std::reverse(chain.begin(), chain.end());

    std::vector<WitnessStep> out;
    out.reserve(chain.size());
    for (std::size_t i = 0; i < chain.size(); ++i) {
        WitnessStep step;
        step.state = state_of(chain[i]);
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
