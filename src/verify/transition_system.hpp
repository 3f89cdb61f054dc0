// Explicit transition systems over program (and fault) actions.
//
// The verifier works on the reachable fragment of the state space: nodes
// are states reached from an initial predicate by program actions and,
// optionally, fault actions. Program and fault edges are kept separate
// because the paper treats them asymmetrically — computations are p-fair
// and p-maximal, and fault actions occur only finitely often (Section 2.3).
//
// Performance architecture (see DESIGN.md §7):
//  * Two ways to build. An *identity* graph numbers node id == state
//    index and is built by one sweep over the space: when the initial set
//    is the whole space, or when the fault span is syntactically the
//    whole space (full_span_faults: a non-empty initial set and an
//    unconditional corrupt-any over every variable of domain > 1). The
//    sweep writes the program CSR (BatchKernel::sweep when the program
//    lowers, the per-state expander in state order otherwise) and only
//    counts fault transitions. It builds no interner and keeps no node ->
//    state or BFS-parent arrays. Every other exploration is the FIFO BFS,
//    one level at a time on one thread: each level's states are expanded
//    in id order and their successors interned in record order, with the
//    corrupt-any line rule (LineMarks) on every direct-mapped level.
//  * Canonical order. Every order-dependent output (first violation,
//    witness paths, the deepest exploration witness) is the one of the
//    canonical FIFO BFS from the initial states in ascending order. On a
//    BFS-numbered graph that order is the node-id order. On an identity
//    graph from a partial seed it is replayed on demand (first_canonical,
//    canonical_node): FIFO from the initial nodes over the CSR program
//    row, then the regenerated fault row, marking visited nodes. The
//    replay is mutex-guarded, grows lazily and never past the position
//    asked for, and supplies the BFS parents of witness_path and
//    witness_trace. Outputs are therefore identical under both numberings
//    and for every thread count.
//  * The interner of a BFS-numbered graph is two-tiered: spaces up to
//    DCFT_DIRECT_MAP_MAX states (default 2^25) use a direct-mapped NodeId
//    array (O(1) array probe per successor) in a lazily committed
//    anonymous mapping, so only the pages of reached states cost memory;
//    larger spaces use an open-addressing fingerprint table
//    (SparseNodeTable) sized from the initial-set cardinality.
//  * Whole-space guard bitsets are bought at a level boundary: levels run
//    on per-state guard bytecode until the discovered node count times 64
//    reaches the space size, the point where filling a bitset (|space|/64
//    word operations) costs no more than the bytecode already spent.
//    Identity sweeps buy them at once.
//  * Every exploration runs to exhaustion: a TransitionSystem is always
//    the complete reachable graph, which every verdict consumer needs.
//  * Program edges are stored CSR (compressed sparse row): flat
//    offsets[] / edges[] arrays, giving cache-friendly iteration
//    everywhere the checkers consume adjacency.
//  * Fault edges are not stored. Faults occur only finitely often, so the
//    verdicts need them only for reachability (done during exploration)
//    and a few backward or transition checks. Those regenerate a node's
//    fault row on demand from the compiled fault kernel exploration
//    already built (fault_steps / fault_edges).
//  * The predecessor CSRs (program-only and program+fault) are built
//    lazily on first request, guarded by a std::once_flag, so checkers
//    that never walk edges backwards (e.g. safety scans) do not pay for
//    them — while a const TransitionSystem& stays safely shareable across
//    checker threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "gc/program.hpp"
#include "verify/check_result.hpp"
#include "verify/spill.hpp"

namespace dcft {

/// Node identifier inside one TransitionSystem (dense, 0-based).
using NodeId = std::uint32_t;

class CompiledProgram;  // verify/action_kernel.hpp
class LineMarks;        // verify/action_kernel.hpp
class SparseNodeTable;  // open-addressing interner (internal)

/// Whether the fault span of any non-empty initial set under `faults` is
/// syntactically the whole space: some fault action is an unconditional
/// corrupt-any (guard `true`) whose variables cover every variable of
/// domain > 1, so every state is at most num_vars fault steps from any
/// state. A function of the fault class only.
bool full_span_faults(const StateSpace& space, const FaultClass& faults);

/// Exploration knobs beyond the (program, faults, init) triple.
struct ExploreOptions {
    /// Worker-thread bound (0 = the process default, see
    /// default_verifier_threads()). The resulting system is identical for
    /// every thread count.
    unsigned n_threads = 0;

    /// Out-of-core mode: node and CSR arrays live in mmap-backed spill
    /// files and sealed BFS levels are advised out of RSS, so peak
    /// resident memory tracks the active frontier window instead of the
    /// whole graph (see DESIGN.md §7). The resulting graph is bit-for-bit
    /// identical to an in-core build. DCFT_SPILL=1 forces this on.
    bool spill = false;
};

/// Explicit-state transition graph of p (optionally p [] F) restricted to
/// the states reachable from an initial set.
class TransitionSystem {
public:
    /// Sentinel node id ("absent"), also returned by first_bad_node.
    static constexpr NodeId kNoNode = ~NodeId{0};

    struct Edge {
        std::uint32_t action;  ///< index into actions() / fault_actions()
        NodeId to;

        friend bool operator==(const Edge&, const Edge&) = default;
    };

    /// One regenerated fault transition: (fault action index, target
    /// state). The layout of CompiledActionSet::Rec.
    using FaultStep = std::pair<std::uint32_t, StateIndex>;

    /// Read-only CSR adjacency: rows are nodes, lists[n] is a contiguous
    /// span. Used for the predecessor caches.
    class CsrList {
    public:
        std::span<const NodeId> operator[](NodeId n) const {
            return {items_.data() + offsets_[n], offsets_[n + 1] - offsets_[n]};
        }
        std::size_t num_items() const { return items_.size(); }

    private:
        friend class TransitionSystem;
        SpillVector<std::uint64_t> offsets_;  ///< size num_nodes() + 1
        SpillVector<NodeId> items_;
    };

    /// Builds the reachable fragment from all states satisfying `init`.
    /// If `faults` is non-null, fault transitions participate in
    /// reachability; the system keeps a copy of the fault class to
    /// regenerate fault edges on demand.
    ///
    /// `n_threads` bounds the exploration worker count (0 = the process
    /// default, see default_verifier_threads()). The resulting system —
    /// node numbering, edge order, witness paths — is identical for every
    /// thread count.
    TransitionSystem(const Program& program, const FaultClass* faults,
                     const Predicate& init, unsigned n_threads = 0);

    /// As above with explicit options (thread bound, out-of-core mode).
    TransitionSystem(const Program& program, const FaultClass* faults,
                     const Predicate& init, const ExploreOptions& options);

    /// Flat-array bundle for adopting a stored graph (verify/graph_store):
    /// the exact member arrays of a completed exploration, typically
    /// backed by SpillFile::adopt_region mappings of a `dcft.graph` file.
    struct AdoptedArrays {
        SpillVector<StateIndex> states;  ///< empty on identity graphs
        std::vector<NodeId> initial;
        SpillVector<NodeId> parent;  ///< empty on identity graphs
        SpillVector<std::uint64_t> prog_offsets;
        SpillVector<Edge> prog_edges;
        std::uint64_t num_fault_edges = 0;  ///< fault transitions explored
        bool identity_nodes = false;  ///< node id == state index
    };

    /// Reconstructs a complete system from stored arrays without
    /// re-exploration. The interner (reverse state -> node map) is NOT
    /// part of the snapshot; it is rebuilt lazily on the first
    /// has_state()/node_of() call, so adoption itself is O(mmap). The
    /// fault kernel is compiled from `faults` on the first fault-row
    /// regeneration.
    static std::shared_ptr<TransitionSystem> adopt(
        const Program& program, const FaultClass* faults,
        AdoptedArrays&& arrays);

    ~TransitionSystem();

    const StateSpace& space() const { return *space_; }
    const Program& program() const { return program_; }

    std::size_t num_nodes() const { return num_nodes_; }
    StateIndex state_of(NodeId n) const {
        return identity_nodes_ ? static_cast<StateIndex>(n) : states_[n];
    }

    /// Whether node ids are canonical BFS positions: true on BFS-numbered
    /// graphs and on identity graphs whose initial set is the whole space
    /// (every node a root, in ascending order).
    bool canonical_ids() const {
        return !identity_nodes_ || initial_.size() == num_nodes_;
    }

    /// The first node, in canonical BFS order (least depth, then
    /// discovery order), satisfying `pred` (called as pred(NodeId) ->
    /// bool, possibly more than once per node), or kNoNode. Its
    /// witness_path is a shortest path from the initial set. On
    /// canonical_ids() graphs this is the plain id loop. Otherwise the
    /// initial nodes (the first positions) are tried first, then the
    /// nodes are scanned in id order, and the canonical order is replayed
    /// only when some node matches, and only as far as the first match.
    /// Thread-safe.
    template <class Pred>
    NodeId first_canonical(Pred&& pred) const {
        if (canonical_ids()) {
            for (NodeId v = 0; v < num_nodes_; ++v)
                if (pred(v)) return v;
            return kNoNode;
        }
        // The initial nodes hold the first canonical positions.
        for (const NodeId r : initial_)
            if (pred(r)) return r;
        NodeId any = kNoNode;
        for (NodeId v = 0; v < num_nodes_ && any == kNoNode; ++v)
            if (pred(v)) any = v;
        if (any == kNoNode) return kNoNode;
        std::vector<NodeId> batch;
        for (std::size_t pos = initial_.size();; pos += batch.size()) {
            replay_batch(pos, batch);  // non-empty until `any` is reached
            for (const NodeId v : batch)
                if (v == any || pred(v)) return v;
        }
    }

    /// The node at canonical BFS position `pos` (< num_nodes()); on an
    /// identity graph from a partial seed this replays up to `pos`.
    NodeId canonical_node(std::size_t pos) const;

    /// first_canonical over the states satisfying `bad`: the canonical
    /// first violation.
    NodeId first_bad_node(const Predicate& bad) const;

    /// Node of a state, if the state is in the reachable fragment.
    bool has_state(StateIndex s) const;
    NodeId node_of(StateIndex s) const;

    /// Nodes whose states satisfied `init` at construction time.
    const std::vector<NodeId>& initial_nodes() const { return initial_; }

    std::span<const Edge> program_edges(NodeId n) const {
        return {prog_edges_.data() + prog_offsets_[n],
                prog_offsets_[n + 1] - prog_offsets_[n]};
    }

    /// Fault transitions out of node n, regenerated from the compiled fault
    /// kernel (fault edges are not stored). Clears `out`, then appends
    /// (action, target state) in exploration order: fault actions in
    /// declaration order, each action's successors in its own order.
    /// Empty for fault-free systems. Thread-safe; `out` is caller-owned
    /// scratch.
    void fault_steps(NodeId n, std::vector<FaultStep>& out) const;

    /// fault_steps(n) with every target mapped to its node (node_of) —
    /// the row the exploration enumerated for n.
    void fault_edges(NodeId n, std::vector<Edge>& out) const;

    std::size_t num_program_actions() const { return program_.num_actions(); }

    /// Whether program action `a` is enabled at node n.
    bool enabled(NodeId n, std::uint32_t a) const;

    /// Whether no program action is enabled at node n (p-maximal end state).
    bool terminal(NodeId n) const {
        return prog_offsets_[n] == prog_offsets_[n + 1];
    }

    /// Total number of program edges (for diagnostics and benches).
    std::size_t num_program_edges() const { return prog_edges_.size(); }
    /// Total number of fault transitions the exploration enumerated
    /// (counted, not stored).
    std::size_t num_fault_edges() const { return fault_edge_count_; }

    /// Raw CSR arrays, exactly as explored — the byte layout the graph
    /// store serializes. Stable for the lifetime of the system. States and
    /// parents are empty on identity graphs (state_of(n) == n, parents
    /// come from the canonical replay).
    std::span<const StateIndex> raw_states() const {
        return {states_.data(), states_.size()};
    }
    std::span<const NodeId> raw_parent() const {
        return {parent_.data(), parent_.size()};
    }
    std::span<const std::uint64_t> raw_prog_offsets() const {
        return {prog_offsets_.data(), prog_offsets_.size()};
    }
    std::span<const Edge> raw_prog_edges() const {
        return {prog_edges_.data(), prog_edges_.size()};
    }
    /// Whether this is an identity graph (node id == state index; no
    /// interner, no node or parent arrays). Recorded in graph snapshots.
    bool identity_interner() const { return identity_nodes_; }

    /// Approximate bytes of RAM/page-cache this system keeps resident:
    /// node + program CSR arrays, the interner tier (for the direct map,
    /// only its pages that hold an interned state), the initial list, and
    /// the fault kernel's guard bitsets once the kernel exists.
    /// The unit of the exploration cache's byte-budget accounting.
    std::uint64_t resident_bytes() const;

    /// Whether this system was built out-of-core (ExploreOptions::spill
    /// or DCFT_SPILL).
    bool spilled() const { return spilled_; }
    /// Total bytes currently held in spill files (0 for in-core systems).
    std::uint64_t spill_bytes() const;
    /// Bytes advised out of resident memory during the build (0 in-core).
    std::uint64_t spill_released_bytes() const;

    /// Reverse adjacency over program edges (and fault edges if requested).
    /// Built lazily on first request behind a std::once_flag, so concurrent
    /// calls on a const TransitionSystem are safe and the cost is only paid
    /// by checkers that actually walk edges backwards.
    const CsrList& predecessors(bool include_faults) const {
        if (include_faults) {
            std::call_once(preds_all_once_,
                           [this] { build_predecessors(preds_all_, true); });
            return preds_all_;
        }
        std::call_once(preds_prog_once_,
                       [this] { build_predecessors(preds_prog_, false); });
        return preds_prog_;
    }

    /// Bitset over the *whole* state space marking exactly the states of
    /// this system's nodes. For a system of p [] F explored from an
    /// invariant this is the fault span (the reachable closure of the
    /// invariant under program and fault steps).
    BitVec state_bits() const;

    /// States along the canonical BFS-tree path from its initial node to
    /// n (inclusive), a shortest path; used to report counterexample
    /// witnesses. Replays the canonical order as far as n on identity
    /// graphs from a partial seed.
    std::vector<StateIndex> witness_path(NodeId n) const;

    /// witness_path(n) as a structured, replayable trace: each step carries
    /// the formatted state plus the provenance (name, fault flag) of the
    /// action that produced it along the BFS tree.
    std::vector<WitnessStep> witness_trace(NodeId n) const;

    /// Name of fault action `a` (FaultClass-less systems have none).
    const std::string& fault_action_name(std::uint32_t a) const {
        return faults_->actions()[a].name();
    }
    std::size_t num_fault_actions() const {
        return faults_ != nullptr ? faults_->actions().size() : 0;
    }

    /// "s0 -> s1 -> ... -> sk" rendering of witness_path(n), capped to the
    /// last few states for long paths.
    std::string format_witness(NodeId n) const;

private:
    /// The direct-mapped interner tier (and the canonical replay's parent
    /// map): one slot per state of the whole space in a private anonymous
    /// mapping (no huge pages), so the kernel commits a page only when a
    /// slot on it is first written. A slot holds ~id, making an absent
    /// slot 0 — untouched pages read as kNoNode without ever being
    /// filled.
    class DirectMap {
    public:
        DirectMap() = default;
        DirectMap(const DirectMap&) = delete;
        DirectMap& operator=(const DirectMap&) = delete;
        ~DirectMap();

        /// Maps `n` zero slots (once; the map starts empty).
        void allocate(std::size_t n);
        std::size_t size() const { return size_; }

        NodeId get(StateIndex s) const {
            return ~slots_[static_cast<std::size_t>(s)];
        }
        void set(StateIndex s, NodeId id) {
            slots_[static_cast<std::size_t>(s)] = ~id;
        }
        /// Records the pages of `n` interned states in a page bitmap (one
        /// bit per map page) — called on each batch of new nodes while it
        /// is still resident, so spilled node arrays are never re-read.
        void note_pages(const StateIndex* states, std::size_t n);
        /// Bytes of the map on noted pages: what the kernel committed
        /// for the interned states.
        std::uint64_t touched_bytes() const;

    private:
        NodeId* slots_ = nullptr;
        std::size_t size_ = 0;
        BitVec pages_;
    };

    /// Adoption constructor (see adopt()); interner left for lazy rebuild.
    TransitionSystem(const Program& program, const FaultClass* faults,
                     AdoptedArrays&& arrays);

    /// The compiled fault kernel behind fault_steps (see the .cpp).
    struct FaultKernel;
    /// The fault kernel, compiled from faults_ on first use by adopted
    /// systems (explorations install the one they built).
    const FaultKernel& fault_kernel() const;

    void explore(const FaultClass* faults, const Predicate& init,
                 unsigned n_threads, bool spill);
    /// The FIFO BFS of explore() on the chosen interner tier.
    void explore_bfs(const CompiledProgram& compiled,
                     const BitVec& init_bits, bool spill,
                     std::uint64_t explore_t0);
    /// The identity sweep of explore(): node id == state index, program
    /// CSR written in state order, fault transitions counted.
    void explore_identity(const CompiledProgram& compiled,
                          const BitVec& init_bits, unsigned n_threads,
                          bool spill, std::uint64_t explore_t0);

    /// Copies into `out` up to 64 nodes at canonical positions [pos, ...),
    /// replaying the canonical order as far as `pos` (first_canonical).
    /// Empty only past the last node.
    void replay_batch(std::size_t pos, std::vector<NodeId>& out) const;
    /// BFS-tree chain from n up to its root (n first).
    std::vector<NodeId> tree_chain(NodeId n) const;
    void build_predecessors(CsrList& out, bool include_faults) const;
    /// Builds the reverse state -> node map of an adopted system on first
    /// use (direct map or sparse table, by the usual tier rule).
    void ensure_interner() const;

    std::shared_ptr<const StateSpace> space_;
    Program program_;
    /// The fault class explored with (null for program-only systems):
    /// the source of fault-action names and of the lazily compiled fault
    /// kernel of adopted systems.
    std::shared_ptr<const FaultClass> faults_;
    std::size_t num_nodes_ = 0;
    /// node -> state, BFS discovery order (empty on identity graphs).
    /// Spillable: sealed levels are the "cold frontier segments" advised
    /// out of RSS in spill mode.
    SpillVector<StateIndex> states_;
    std::vector<NodeId> initial_;
    /// BFS tree; parent_[n] == n at roots (empty on identity graphs).
    SpillVector<NodeId> parent_;

    // CSR program-edge storage: offsets have num_nodes()+1 entries; edges
    // of node n are [offsets[n], offsets[n+1]), ordered by action index
    // then successor order. Spillable: completed levels stream to the mmap
    // arena in spill mode.
    SpillVector<std::uint64_t> prog_offsets_;
    SpillVector<Edge> prog_edges_;
    std::uint64_t fault_edge_count_ = 0;
    bool spilled_ = false;

    // Fault-row regeneration: the compiled fault actions with their guard
    // bitsets (and a fault-only batch kernel when batchable). Installed by
    // explore(), or compiled lazily from faults_ for adopted systems.
    mutable std::once_flag fault_kernel_once_;
    mutable std::unique_ptr<FaultKernel> fault_kernel_;
    /// The kernel's guard-bitset bytes (0 until it is built), read by
    /// resident_bytes() without synchronizing on the once_flag.
    mutable std::atomic<std::uint64_t> fault_kernel_bytes_{0};

    // Interner / reverse lookup — identity (node id == state index,
    // nothing allocated), or one of the two tiers of a BFS-numbered graph
    // (see file comment): direct-mapped (node_map_ has
    // space_->num_states() slots), or the sparse open-addressing table.
    bool identity_nodes_ = false;
    bool direct_mapped_ = false;
    /// Adopted systems defer the reverse map to the first has_state()/
    /// node_of() call (ensure_interner); `mutable` + once_flag keeps the
    /// const accessors thread-safe, exactly like the predecessor CSRs.
    bool interner_lazy_ = false;
    mutable std::once_flag interner_once_;
    mutable DirectMap node_map_;
    mutable std::unique_ptr<SparseNodeTable> sparse_;
    /// Resident bytes of the interner tier, set once it is complete (end
    /// of exploration, or the lazy rebuild) and read by resident_bytes().
    mutable std::atomic<std::uint64_t> interner_bytes_{0};

    // Lazily built predecessor CSRs, one once_flag each so asking for the
    // program-only reverse graph never pays for the (often much larger)
    // program+fault one. `mutable` + std::once_flag keeps the const
    // accessor thread-safe: the first caller builds, everyone else blocks
    // on the flag and then reads immutable data.
    mutable std::once_flag preds_prog_once_;
    mutable std::once_flag preds_all_once_;
    mutable CsrList preds_prog_;
    mutable CsrList preds_all_;

    /// The canonical-order replay of an identity graph from a partial
    /// seed (see file comment). Positions [0, initial_.size()) are the
    /// initial nodes; later positions are `order` in discovery order.
    struct Replay {
        std::mutex mu;
        /// BFS parent of every discovered node (roots: themselves); an
        /// absent slot is an undiscovered node — the visited set. Lazily
        /// committed, so a short replay costs only the pages it touches.
        DirectMap parent;
        std::vector<NodeId> order;  ///< non-root nodes, discovery order
        std::size_t head = 0;       ///< next canonical position to expand
        /// The corrupt-any line rule over the replay's expansions: fault
        /// successors on a line already expanded are all visited, so
        /// they are skipped without changing the order (null: no line).
        std::unique_ptr<LineMarks> marks;
    };
    mutable Replay replay_;
    /// Expands canonical positions until `pos` is discovered or `n` is
    /// visited (whichever is asked; kNoNode = no node). Caller holds
    /// replay_.mu.
    void replay_grow(std::size_t pos, NodeId n) const;
};

}  // namespace dcft
