#include "fuzz/oracle.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <utility>

#include "runtime/fault_injector.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/simulator.hpp"
#include "runtime/trace_checker.hpp"
#include "verify/closure.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/fairness.hpp"
#include "verify/graph_store.hpp"
#include "verify/masking_distance.hpp"
#include "verify/reachability.hpp"
#include "verify/refinement.hpp"
#include "verify/state_set.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft::fuzz {

namespace {

/// Sets an environment variable for the current scope and restores the
/// previous value (or unsets) on destruction.
class EnvGuard {
public:
    EnvGuard(const char* name, const char* value) : name_(name) {
        if (const char* prev = std::getenv(name)) {
            had_prev_ = true;
            prev_ = prev;
        }
        ::setenv(name, value, 1);
    }
    ~EnvGuard() {
        if (had_prev_)
            ::setenv(name_, prev_.c_str(), 1);
        else
            ::unsetenv(name_);
    }
    EnvGuard(const EnvGuard&) = delete;
    EnvGuard& operator=(const EnvGuard&) = delete;

private:
    const char* name_;
    bool had_prev_ = false;
    std::string prev_;
};

std::string fmt_node(const TransitionSystem& ts, NodeId n) {
    std::ostringstream os;
    os << "node " << n << " (" << ts.space().format(ts.state_of(n)) << ")";
    return os.str();
}

/// Index of the program action named `name`, or npos.
std::size_t program_action_index(const Program& p, const std::string& name) {
    for (std::size_t i = 0; i < p.num_actions(); ++i)
        if (p.action(i).name() == name) return i;
    return ~std::size_t{0};
}

/// Whether `action` can step prev -> cur.
bool action_connects(const StateSpace& space, const Action& action,
                     StateIndex prev, StateIndex cur) {
    if (!action.enabled(space, prev)) return false;
    std::vector<StateIndex> succ;
    action.successors(space, prev, succ);
    return std::find(succ.begin(), succ.end(), cur) != succ.end();
}

/// Replays one witness trace over the raw kernel: every consecutive pair
/// must be connected by the named action (program or fault), and every
/// formatted state must match. Appends at most one divergence.
void validate_witness(const BuiltSystem& sys,
                      const std::vector<WitnessStep>& trace,
                      const std::string& where,
                      std::vector<Divergence>& out) {
    const StateSpace& space = *sys.space;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const WitnessStep& step = trace[i];
        if (step.state_repr != space.format(step.state)) {
            out.push_back({"witness/replay",
                           where + ": step " + std::to_string(i) +
                               " repr mismatch: '" + step.state_repr +
                               "' vs '" + space.format(step.state) + "'"});
            return;
        }
        if (i == 0) {
            if (!step.action.empty()) {
                out.push_back({"witness/replay",
                               where + ": root step carries action '" +
                                   step.action + "'"});
                return;
            }
            continue;
        }
        const StateIndex prev = trace[i - 1].state;
        const StateIndex cur = step.state;
        bool connected = false;
        if (step.fault) {
            for (const Action& a : sys.faults.actions()) {
                if (a.name() != step.action) continue;
                if (action_connects(space, a, prev, cur)) connected = true;
                break;
            }
        } else {
            const std::size_t idx =
                program_action_index(sys.program, step.action);
            if (idx != ~std::size_t{0})
                connected = action_connects(space, sys.program.action(idx),
                                            prev, cur);
        }
        if (!connected) {
            out.push_back(
                {"witness/replay",
                 where + ": step " + std::to_string(i) + " (" +
                     (step.fault ? "fault " : "") + "'" + step.action +
                     "') does not connect " + space.format(prev) + " -> " +
                     space.format(cur)});
            return;
        }
    }
}

/// Converts a witness trace to a recorded RunResult so the offline trace
/// checker can consume it.
RunResult witness_to_run(const BuiltSystem& sys,
                         const std::vector<WitnessStep>& trace) {
    RunResult run;
    run.initial = trace.front().state;
    run.final_state = trace.back().state;
    for (std::size_t i = 1; i < trace.size(); ++i) {
        const WitnessStep& step = trace[i];
        TraceStep ts;
        ts.to = step.state;
        if (step.fault) {
            ts.action = TraceStep::kFaultStep;
            ++run.fault_steps;
        } else {
            ts.action = program_action_index(sys.program, step.action);
            ++run.program_steps;
        }
        run.trace.push_back(ts);
    }
    run.steps = run.trace.size();
    return run;
}

/// Checks one simulated run against the explored graph: every step must
/// be a recorded edge, and a deadlocked run must end on a terminal node.
void check_run_against_graph(const BuiltSystem& sys,
                             const TransitionSystem& ts, const RunResult& run,
                             const std::string& where,
                             std::vector<Divergence>& out) {
    if (!ts.has_state(run.initial)) {
        out.push_back({"sim/trace-edge",
                       where + ": initial state " +
                           sys.space->format(run.initial) +
                           " is not a node of the explored graph"});
        return;
    }
    NodeId node = ts.node_of(run.initial);
    for (std::size_t i = 0; i < run.trace.size(); ++i) {
        const TraceStep& step = run.trace[i];
        if (!ts.has_state(step.to)) {
            out.push_back({"sim/trace-edge",
                           where + ": step " + std::to_string(i) +
                               " reaches unexplored state " +
                               sys.space->format(step.to)});
            return;
        }
        const NodeId to = ts.node_of(step.to);
        bool found = false;
        if (step.is_fault()) {
            std::vector<TransitionSystem::Edge> row;
            ts.fault_edges(node, row);
            for (const auto& e : row)
                if (e.to == to) {
                    found = true;
                    break;
                }
        } else {
            for (const auto& e : ts.program_edges(node))
                if (e.action == static_cast<std::uint32_t>(step.action) &&
                    e.to == to) {
                    found = true;
                    break;
                }
        }
        if (!found) {
            out.push_back({"sim/trace-edge",
                           where + ": step " + std::to_string(i) + " (" +
                               (step.is_fault()
                                    ? std::string("fault")
                                    : "action " + std::to_string(step.action)) +
                               ") " + fmt_node(ts, node) + " -> " +
                               fmt_node(ts, to) +
                               " is not a recorded edge"});
            return;
        }
        node = to;
    }
    if (run.deadlocked && !ts.terminal(node)) {
        out.push_back({"sim/deadlock",
                       where + ": simulator deadlocked on non-terminal " +
                           fmt_node(ts, node)});
    }
}

bool same_result(const CheckResult& a, const CheckResult& b) {
    return a.ok == b.ok && a.reason == b.reason && a.witness == b.witness;
}

/// First difference between two tolerance reports, field by field.
std::optional<std::string> first_report_difference(const ToleranceReport& a,
                                                   const ToleranceReport& b) {
    if (!same_result(a.in_absence, b.in_absence))
        return "in_absence: '" + a.in_absence.reason + "' vs '" +
               b.in_absence.reason + "' (ok, reason or witness)";
    if (!same_result(a.in_presence, b.in_presence))
        return "in_presence: '" + a.in_presence.reason + "' vs '" +
               b.in_presence.reason + "' (ok, reason or witness)";
    if (a.invariant_size != b.invariant_size || a.span_size != b.span_size)
        return "sizes: |S|=" + std::to_string(a.invariant_size) + " vs " +
               std::to_string(b.invariant_size) + ", |T|=" +
               std::to_string(a.span_size) + " vs " +
               std::to_string(b.span_size);
    const auto& sa = a.fault_span.backing_bits();
    const auto& sb = b.fault_span.backing_bits();
    if (a.fault_span.name() != b.fault_span.name() || !sa || !sb || *sa != *sb)
        return std::string("fault span predicates differ");
    if (a.deepest_trace() != b.deepest_trace())
        return std::string("deepest exploration traces differ");
    return std::nullopt;
}

/// The reference exploration as a BFS-numbered TransitionSystem (adopted
/// from its arrays): the checkers run on it exactly as on an explored
/// graph, with node ids in canonical order.
std::shared_ptr<TransitionSystem> adopt_reference(
    const reference::RefTransitionSystem& ref, const FaultClass& faults) {
    TransitionSystem::AdoptedArrays arrays;
    arrays.initial = ref.initial_nodes();
    arrays.prog_offsets.push_back(0);
    for (NodeId n = 0; n < ref.num_nodes(); ++n) {
        arrays.states.push_back(ref.state_of(n));
        arrays.parent.push_back(ref.parents()[n]);
        for (const auto& e : ref.program_edges(n))
            arrays.prog_edges.push_back({e.action, e.to});
        arrays.prog_offsets.push_back(arrays.prog_edges.size());
        arrays.num_fault_edges += ref.fault_edges(n).size();
    }
    return TransitionSystem::adopt(ref.program(), &faults, std::move(arrays));
}

/// The span/identity-vs-explored leg: `sys` with an unconditional
/// corrupt-any over every variable added to its faults, so every
/// non-empty seed has the whole space as its fault span and explores as
/// an identity graph. Compares against the reference exploration: the
/// graph by state (canonical order, program and fault rows, every witness
/// path), then the three grades (reasons, witnesses and the deepest
/// exploration witness) and the masking distance against the same
/// checkers run on the reference graph in canonical numbering.
void check_full_span(const BuiltSystem& sys, std::vector<Divergence>& out) {
    const char* kOracle = "span/identity-vs-explored";
    FaultClass full(sys.space, sys.faults.name() + "+corrupt-all");
    for (const Action& a : sys.faults.actions()) full.add_action(a);
    std::vector<VarId> all(sys.space->num_vars());
    for (VarId v = 0; v < all.size(); ++v) all[v] = v;
    full.add_action(Action::corrupt_any(*sys.space, "corrupt-all",
                                        Predicate::top(), all));

    const TransitionSystem ts(sys.program, &full, sys.init, 1);
    const reference::RefTransitionSystem ref(sys.program, &full, sys.init);
    if (ts.num_nodes() > 0 && !ts.identity_interner())
        out.push_back({kOracle, "a non-empty seed did not explore as an "
                                "identity graph"});
    if (auto d = first_graph_difference(ref, ts)) {
        out.push_back({kOracle, "graph: " + *d});
        return;
    }

    const reference::RefTransitionSystem ref_inv(sys.program, &full,
                                                 sys.invariant);
    const auto bfs = adopt_reference(ref_inv, full);
    for (const Tolerance grade :
         {Tolerance::FailSafe, Tolerance::Nonmasking, Tolerance::Masking}) {
        const std::string where = to_string(grade) + ": ";
        const ToleranceReport r = check_tolerance(
            sys.program, full, sys.problem, sys.invariant, grade);
        CheckResult want;
        switch (grade) {
            case Tolerance::Masking:
                want = check_spec_on(*bfs, &full, sys.problem);
                break;
            case Tolerance::FailSafe:
                want = check_spec_on(*bfs, &full,
                                     sys.problem.failsafe_weakening());
                break;
            case Tolerance::Nonmasking:
                want = check_reaches(*bfs, sys.invariant, true);
                if (!want)
                    want = CheckResult::failure(
                        "nonmasking: computations do not converge to " +
                            sys.invariant.name() + ": " + want.reason,
                        std::move(want.witness));
                else
                    want = r.in_absence;
                break;
        }
        if (!same_result(r.in_presence, want))
            out.push_back({kOracle, where + "in_presence '" +
                                        r.in_presence.reason +
                                        "' vs canonical '" + want.reason +
                                        "' (ok, reason or witness)"});
        const std::vector<WitnessStep> deepest =
            bfs->num_nodes() > 0
                ? bfs->witness_trace(
                      static_cast<NodeId>(bfs->num_nodes() - 1))
                : std::vector<WitnessStep>{};
        if (r.deepest_trace() != deepest)
            out.push_back({kOracle, where + "deepest exploration witness "
                                            "differs"});
    }
    if (ref_inv.num_nodes() > 0) {
        const auto ts_inv = ExplorationCache::global().get_or_build(
            sys.program, &full, sys.invariant);
        const MaskingDistanceResult a =
            masking_distance_on(*ts_inv, sys.problem.safety());
        const MaskingDistanceResult b =
            masking_distance_on(*bfs, sys.problem.safety());
        if (a.masking != b.masking || a.distance != b.distance ||
            a.reason != b.reason || a.witness != b.witness)
            out.push_back({kOracle, "masking distance '" + a.reason +
                                        "' vs canonical '" + b.reason +
                                        "'"});
    }
    ExplorationCache::global().clear();
}

}  // namespace

std::optional<std::string> first_graph_difference(
    const reference::RefTransitionSystem& ref, const TransitionSystem& ts) {
    if (ref.num_nodes() != ts.num_nodes())
        return "node count: ref " + std::to_string(ref.num_nodes()) +
               " vs csr " + std::to_string(ts.num_nodes());
    if (!ts.canonical_ids()) return first_identity_difference(ref, ts);
    if (ref.states() !=
        [&] {
            std::vector<StateIndex> s(ts.num_nodes());
            for (NodeId n = 0; n < ts.num_nodes(); ++n) s[n] = ts.state_of(n);
            return s;
        }())
        return std::string("node -> state mapping differs");
    if (ref.initial_nodes() != ts.initial_nodes())
        return std::string("initial node sets differ");
    std::vector<TransitionSystem::Edge> tf;
    for (NodeId n = 0; n < ts.num_nodes(); ++n) {
        const auto& rp = ref.program_edges(n);
        const auto tp = ts.program_edges(n);
        if (rp.size() != tp.size())
            return "program edge count at node " + std::to_string(n) +
                   ": ref " + std::to_string(rp.size()) + " vs csr " +
                   std::to_string(tp.size());
        for (std::size_t i = 0; i < rp.size(); ++i)
            if (rp[i].action != tp[i].action || rp[i].to != tp[i].to)
                return "program edge " + std::to_string(i) + " at node " +
                       std::to_string(n) + " differs";
        // Fault rows are regenerated from the compiled fault kernel.
        const auto& rf = ref.fault_edges(n);
        ts.fault_edges(n, tf);
        if (rf.size() != tf.size())
            return "fault edge count at node " + std::to_string(n) +
                   ": ref " + std::to_string(rf.size()) + " vs csr " +
                   std::to_string(tf.size());
        for (std::size_t i = 0; i < rf.size(); ++i)
            if (rf[i].action != tf[i].action || rf[i].to != tf[i].to)
                return "fault edge " + std::to_string(i) + " at node " +
                       std::to_string(n) + " differs";
        if (ref.terminal(n) != ts.terminal(n))
            return "terminality at node " + std::to_string(n) + " differs";
        if (ref.witness_path(n) != ts.witness_path(n))
            return "witness path to node " + std::to_string(n) + " differs";
    }
    return std::nullopt;
}

std::optional<std::string> first_identity_difference(
    const reference::RefTransitionSystem& ref, const TransitionSystem& ts) {
    if (ref.num_nodes() != ts.num_nodes())
        return "node count: ref " + std::to_string(ref.num_nodes()) +
               " vs csr " + std::to_string(ts.num_nodes());
    if (!ts.identity_interner())
        return std::string("not an identity graph");
    // The reference numbers nodes in canonical BFS order, so its node r is
    // canonical position r, and its initial nodes are positions 0..|S|-1.
    for (std::size_t i = 0; i < ref.initial_nodes().size(); ++i)
        if (i >= ts.initial_nodes().size() ||
            ts.state_of(ts.initial_nodes()[i]) !=
                ref.state_of(ref.initial_nodes()[i]))
            return std::string("initial node sets differ");
    if (ref.initial_nodes().size() != ts.initial_nodes().size())
        return std::string("initial node sets differ");
    const auto state_edges = [](const auto& edges, const auto& state_of) {
        std::vector<std::pair<std::uint32_t, StateIndex>> out;
        for (const auto& e : edges) out.emplace_back(e.action, state_of(e.to));
        return out;
    };
    const auto ref_state = [&](NodeId v) { return ref.state_of(v); };
    const auto ts_state = [&](NodeId v) { return ts.state_of(v); };
    std::vector<TransitionSystem::Edge> tf;
    for (NodeId r = 0; r < ref.num_nodes(); ++r) {
        const StateIndex s = ref.state_of(r);
        const std::string at = "state " + ref.space().format(s);
        if (ts.canonical_node(r) != ts.node_of(s))
            return "canonical position " + std::to_string(r) + " is not " + at;
        const NodeId n = ts.node_of(s);
        if (state_edges(ref.program_edges(r), ref_state) !=
            state_edges(ts.program_edges(n), ts_state))
            return "program row of " + at + " differs";
        ts.fault_edges(n, tf);
        if (state_edges(ref.fault_edges(r), ref_state) !=
            state_edges(tf, ts_state))
            return "fault row of " + at + " differs";
        if (ref.terminal(r) != ts.terminal(n))
            return "terminality of " + at + " differs";
        if (ref.witness_path(r) != ts.witness_path(n))
            return "witness path to " + at + " differs";
    }
    return std::nullopt;
}

std::optional<std::string> first_ts_difference(const TransitionSystem& a,
                                               const TransitionSystem& b) {
    if (a.num_nodes() != b.num_nodes())
        return "node count: " + std::to_string(a.num_nodes()) + " vs " +
               std::to_string(b.num_nodes());
    if (a.initial_nodes() != b.initial_nodes())
        return std::string("initial node sets differ");
    std::vector<TransitionSystem::Edge> fa, fb;
    for (NodeId n = 0; n < a.num_nodes(); ++n) {
        if (a.state_of(n) != b.state_of(n))
            return "state of node " + std::to_string(n) + " differs";
        const auto pa = a.program_edges(n), pb = b.program_edges(n);
        if (!std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
            return "program edges at node " + std::to_string(n) + " differ";
        a.fault_edges(n, fa);
        b.fault_edges(n, fb);
        if (fa != fb)
            return "fault edges at node " + std::to_string(n) + " differ";
        if (a.witness_path(n) != b.witness_path(n))
            return "witness path to node " + std::to_string(n) + " differs";
    }
    return std::nullopt;
}

std::vector<Divergence> run_oracles(const ProgramSpec& spec,
                                    const OracleOptions& options) {
    std::vector<Divergence> out;
    const BuiltSystem sys = build(spec);
    const FaultClass* faults = sys.faults_ptr();

    // -- graph oracles -----------------------------------------------------
    const reference::RefTransitionSystem ref(sys.program, faults, sys.init);
    const TransitionSystem ts1(sys.program, faults, sys.init, 1);
    if (auto d = first_graph_difference(ref, ts1))
        out.push_back({"graph/ref-vs-csr", *d});

    // The thread count must reach no output: the N-thread graph is the
    // serial one, node for node and edge for edge.
    const TransitionSystem tsN(sys.program, faults, sys.init,
                               std::max(options.threads, 2u));
    if (auto d = first_ts_difference(ts1, tsN))
        out.push_back({"graph/threads-1-vs-N", *d});

    // -- predicate oracle --------------------------------------------------
    {
        // eval_bits fills structured predicates by word algebra and scans
        // only opaque subtrees; every guard and spec predicate must come
        // out as the per-state loop over Predicate::interpret, padding
        // words included, at 1 and N threads, and so must Predicate::eval,
        // which runs bytecode. Renamed copies start with an empty memo and
        // no bytecode, so each call really fills and compiles.
        const StateSpace& space = *sys.space;
        std::vector<Predicate> preds{sys.init, sys.invariant, sys.bad};
        for (const Action& a : sys.program.actions())
            preds.push_back(a.guard());
        if (faults != nullptr)
            for (const Action& a : faults->actions())
                preds.push_back(a.guard());
        for (const LeadsTo& lt : sys.problem.liveness().obligations()) {
            preds.push_back(lt.from);
            preds.push_back(lt.to);
        }
        for (const Predicate& p : preds) {
            BitVec want(space.num_states());
            for (StateIndex s = 0; s < space.num_states(); ++s)
                if (p.interpret(space, s)) want.set(s);
            const Predicate compiled = p.renamed(p.name());
            for (StateIndex s = 0; s < space.num_states(); ++s) {
                if (compiled.eval(space, s) == want.test(s)) continue;
                out.push_back({"predicate/bytecode-vs-interpret",
                               p.name() + " at state " + std::to_string(s)});
                break;
            }
            for (const unsigned threads :
                 {1u, std::max(options.threads, 2u)}) {
                if (eval_bits(space, p.renamed(p.name()), threads) == want)
                    continue;
                out.push_back({"predicate/fill-vs-scan",
                               p.name() + " at " + std::to_string(threads) +
                                   " thread(s)"});
                break;
            }
        }
    }

    // -- cache oracle ------------------------------------------------------
    {
        ExplorationCache& cache = ExplorationCache::global();
        cache.clear();
        const auto first =
            cache.get_or_build(sys.program, faults, sys.init, options.threads);
        const auto second =
            cache.get_or_build(sys.program, faults, sys.init, options.threads);
        if (first.get() != second.get())
            out.push_back({"cache/hit-shares-build",
                           "second lookup of an identical key rebuilt the "
                           "graph instead of sharing it"});
        if (auto d = first_ts_difference(ts1, *first))
            out.push_back({"cache/cached-vs-fresh", *d});
        cache.clear();
    }

    // -- store round-trip oracles ------------------------------------------
    {
        // Persistent graph store, both layers. Direct: save the canonical
        // graph and mmap-adopt it back — first_ts_difference requires
        // bit-identity over nodes, edge lists, initial sets, and witness
        // parents. Integrated: with DCFT_GRAPH_STORE set and the
        // exploration cache cleared, get_or_build must serve the adopted
        // snapshot and that graph must also equal the fresh build.
        char dir_template[] = "/tmp/dcft-fuzz-store-XXXXXX";
        if (::mkdtemp(dir_template) != nullptr) {
            const std::string dir = dir_template;
            {
                GraphStore store(dir, 0);
                const BitVec init_bits = eval_bits(*sys.space, sys.init);
                const GraphKey key =
                    graph_key(sys.program, faults, init_bits);
                std::string error;
                if (!store.save(key, ts1, &error)) {
                    out.push_back(
                        {"store/roundtrip", "save failed: " + error});
                } else {
                    const auto loaded =
                        store.load(key, sys.program, faults, &error);
                    if (loaded == nullptr)
                        out.push_back(
                            {"store/roundtrip", "load failed: " + error});
                    else if (auto d = first_ts_difference(ts1, *loaded))
                        out.push_back({"store/roundtrip", *d});
                }
            }
            {
                const EnvGuard store_env("DCFT_GRAPH_STORE", dir.c_str());
                ExplorationCache& cache = ExplorationCache::global();
                cache.clear();
                const auto adopted = cache.get_or_build(
                    sys.program, faults, sys.init, options.threads);
                if (auto d = first_ts_difference(ts1, *adopted))
                    out.push_back({"store/cached-vs-fresh", *d});
                cache.clear();
            }
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
    }

    // -- interner oracle ---------------------------------------------------
    {
        // A tiny DCFT_DIRECT_MAP_MAX forces the sparse interner at every
        // size; the graph must stay bit-identical at 1 and N threads.
        const EnvGuard tiny_map("DCFT_DIRECT_MAP_MAX", "64");
        const TransitionSystem sparse1(sys.program, faults, sys.init, 1);
        if (auto d = first_ts_difference(ts1, sparse1))
            out.push_back({"interner/sparse-vs-direct", *d});
        const TransitionSystem sparseN(sys.program, faults, sys.init,
                                       std::max(options.threads, 2u));
        if (auto d = first_ts_difference(ts1, sparseN))
            out.push_back({"interner/sparse-vs-direct",
                           "(threads=N) " + *d});
    }

    // -- full fault span -----------------------------------------------------
    check_full_span(sys, out);

    // -- verdict oracles ---------------------------------------------------
    {
        // check_unreachable at N threads, from a cleared cache, vs the
        // canonical scan of the serial graph: same verdict, same message,
        // same witness trace, and the witness replays.
        ExplorationCache::global().clear();
        const CheckResult a =
            check_unreachable(sys.program, faults, sys.init, sys.bad,
                              std::max(options.threads, 2u));
        ExplorationCache::global().clear();
        const NodeId bn = ts1.first_bad_node(sys.bad);
        const bool reachable = bn != TransitionSystem::kNoNode;
        if (a.ok == reachable) {
            out.push_back({"verdict/unreachable",
                           std::string("check_unreachable ok=") +
                               (a.ok ? "true" : "false") +
                               " but first_bad_node says reachable=" +
                               (reachable ? "true" : "false")});
        } else if (reachable) {
            const std::string expect_reason =
                "reachable: state " + sys.space->format(ts1.state_of(bn)) +
                " satisfies " + sys.bad.name() +
                "; witness: " + ts1.format_witness(bn);
            if (a.reason != expect_reason)
                out.push_back({"verdict/unreachable",
                               "reason differs: '" + a.reason +
                                   "' vs serial '" + expect_reason + "'"});
            if (a.witness != ts1.witness_trace(bn))
                out.push_back({"verdict/unreachable",
                               "witness trace differs from the serial "
                               "trace to node " + std::to_string(bn)});
            validate_witness(sys, a.witness, "verdict/unreachable", out);
        }
    }
    {
        const CheckResult a = check_closed(sys.program, sys.invariant);
        const CheckResult b =
            reference::ref_check_closed(sys.program, sys.invariant);
        if (a.ok != b.ok)
            out.push_back({"verdict/closed",
                           std::string("optimized ok=") +
                               (a.ok ? "true" : "false") + " vs reference ok=" +
                               (b.ok ? "true" : "false") +
                               (b.ok ? "" : " (" + b.reason + ")")});
    }
    {
        const StateSet a = reachable_states(sys.program, faults, sys.init,
                                            options.threads);
        const StateSet b =
            reference::ref_reachable_states(sys.program, faults, sys.init);
        if (!(a == b))
            out.push_back({"verdict/reachable",
                           "reachable sets differ: optimized " +
                               std::to_string(a.count()) + " states vs "
                               "reference " + std::to_string(b.count())});
    }
    {
        const CheckResult a =
            converges(sys.program, faults, sys.init, sys.invariant);
        const CheckResult b = reference::ref_converges(sys.program, faults,
                                                       sys.init, sys.invariant);
        if (a.ok != b.ok)
            out.push_back({"verdict/converges",
                           std::string("optimized ok=") +
                               (a.ok ? "true" : "false") + " vs reference ok=" +
                               (b.ok ? "true" : "false")});
    }
    {
        const CheckResult a = refines_spec(sys.program, sys.problem, sys.init);
        const CheckResult b = reference::ref_refines_spec(
            sys.program, sys.problem, sys.init, nullptr);
        if (a.ok != b.ok)
            out.push_back({"verdict/refines",
                           std::string("optimized ok=") +
                               (a.ok ? "true" : "false") + " vs reference ok=" +
                               (b.ok ? "true" : "false")});
        if (faults != nullptr) {
            const CheckResult af = refines_spec(sys.program, sys.problem,
                                                sys.init, {faults});
            const CheckResult bf = reference::ref_refines_spec(
                sys.program, sys.problem, sys.init, faults);
            if (af.ok != bf.ok)
                out.push_back({"verdict/refines-with-faults",
                               std::string("optimized ok=") +
                                   (af.ok ? "true" : "false") +
                                   " vs reference ok=" +
                                   (bf.ok ? "true" : "false")});
        }
    }
    const ToleranceReport graded = check_tolerance(
        sys.program, sys.faults, sys.problem, sys.invariant, sys.grade);
    {
        const ToleranceReport refr = reference::ref_check_tolerance(
            sys.program, sys.faults, sys.problem, sys.invariant, sys.grade);
        if (graded.in_absence.ok != refr.in_absence.ok ||
            graded.in_presence.ok != refr.in_presence.ok ||
            graded.invariant_size != refr.invariant_size ||
            graded.span_size != refr.span_size) {
            std::ostringstream os;
            os << "optimized (absence=" << graded.in_absence.ok
               << ", presence=" << graded.in_presence.ok << ", |S|="
               << graded.invariant_size << ", |T|=" << graded.span_size
               << ") vs reference (absence=" << refr.in_absence.ok
               << ", presence=" << refr.in_presence.ok << ", |S|="
               << refr.invariant_size << ", |T|=" << refr.span_size << ")";
            out.push_back({"verdict/tolerance", os.str()});
        }
    }

    // -- witness replay oracles --------------------------------------------
    const ToleranceReport failsafe = check_failsafe(sys.program, sys.faults,
                                                    sys.problem, sys.invariant);
    validate_witness(sys, graded.in_absence.witness,
                     "tolerance/in_absence", out);
    validate_witness(sys, graded.in_presence.witness,
                     "tolerance/in_presence", out);
    validate_witness(sys, graded.deepest_trace(), "tolerance/deepest", out);
    validate_witness(sys, failsafe.in_presence.witness,
                     "failsafe/in_presence", out);
    const std::vector<WitnessStep> failsafe_deepest = failsafe.deepest_trace();
    validate_witness(sys, failsafe_deepest, "failsafe/deepest", out);

    // -- tolerance oracles -------------------------------------------------
    {
        // check_tolerance skips the span's closure for the masking and
        // fail-safe grades: the span is the node set of its own p [] F
        // graph. The definitional path re-proves it. refines_weakened
        // explores from T itself (every span state a root), so it must
        // agree on the verdict; refines_spec_on on check_tolerance's own
        // graph numbers nodes the same way, so it must also reproduce the
        // reason and witness byte for byte.
        const auto inv = std::make_shared<StateSet>(
            materialize(*sys.space, sys.invariant));
        const auto ts_pf = ExplorationCache::global().get_or_build(
            sys.program, &sys.faults, predicate_of(inv, sys.invariant.name()));
        for (const Tolerance grade : {Tolerance::FailSafe, Tolerance::Masking}) {
            const std::string where = to_string(grade);
            const ToleranceReport r = check_tolerance(
                sys.program, sys.faults, sys.problem, sys.invariant, grade);
            const CheckResult def =
                refines_weakened(sys.program, &sys.faults, sys.problem, grade,
                                 r.fault_span, sys.invariant);
            if (def.ok != r.in_presence.ok)
                out.push_back({"tolerance/presence-vs-refines",
                               where + ": in_presence ok=" +
                                   (r.in_presence.ok ? "true" : "false") +
                                   " but refines_weakened over the span ok=" +
                                   (def.ok ? "true" : "false") + " (" +
                                   def.reason + ")"});
            validate_witness(sys, def.witness,
                             "tolerance/presence-vs-refines", out);
            const CheckResult same_graph = refines_spec_on(
                *ts_pf, &sys.faults,
                grade == Tolerance::FailSafe ? sys.problem.failsafe_weakening()
                                             : sys.problem,
                r.fault_span);
            if (!same_result(same_graph, r.in_presence))
                out.push_back({"tolerance/presence-vs-refines",
                               where + ": in_presence '" +
                                   r.in_presence.reason +
                                   "' vs refines_spec_on with closure '" +
                                   same_graph.reason +
                                   "' (ok, reason or witness differ)"});
        }
    }
    {
        // The grades share one exploration cache and one memoized
        // invariant scan; neither may leak into a verdict. Forward order
        // against reverse order on a fresh predicate implementation (an
        // empty eval_bits slot) and a cleared cache.
        const Tolerance forward[] = {Tolerance::FailSafe,
                                     Tolerance::Nonmasking,
                                     Tolerance::Masking};
        ExplorationCache::global().clear();
        std::vector<ToleranceReport> first;
        for (const Tolerance grade : forward)
            first.push_back(check_tolerance(sys.program, sys.faults,
                                            sys.problem, sys.invariant, grade));
        ExplorationCache::global().clear();
        const Predicate fresh = sys.invariant.renamed(sys.invariant.name());
        for (std::size_t i = std::size(forward); i-- > 0;) {
            const ToleranceReport again = check_tolerance(
                sys.program, sys.faults, sys.problem, fresh, forward[i]);
            if (auto d = first_report_difference(first[i], again))
                out.push_back({"tolerance/grade-order",
                               to_string(forward[i]) +
                                   " differs between orders: " + *d});
        }
        ExplorationCache::global().clear();
    }

    // -- graded oracle -----------------------------------------------------
    {
        // Masking-distance game vs the explicit checker: the game quantifies
        // the same safety property over the same fault span, so d == inf
        // exactly when the fail-safe in-presence obligation holds. On a
        // finite distance the min-fault witness must replay over the raw
        // kernel and carry exactly `distance` fault steps.
        const MaskingDistanceResult game = masking_distance(
            sys.program, sys.faults, sys.problem, sys.invariant);
        if (game.masking != failsafe.in_presence.ok) {
            std::ostringstream os;
            os << "game says "
               << (game.masking ? "masking (distance inf)"
                                : "distance " + std::to_string(game.distance))
               << " but check_failsafe in-presence ok="
               << (failsafe.in_presence.ok ? "true" : "false") << " ("
               << failsafe.in_presence.reason << ")";
            out.push_back({"graded/game-vs-explicit", os.str()});
        } else if (!game.masking) {
            if (game.witness_faults() != game.distance)
                out.push_back({"graded/game-vs-explicit",
                               "witness carries " +
                                   std::to_string(game.witness_faults()) +
                                   " fault steps but the distance is " +
                                   std::to_string(game.distance)});
            if (game.witness.empty())
                out.push_back({"graded/game-vs-explicit",
                               "finite distance without a witness trace"});
            validate_witness(sys, game.witness, "graded/game-vs-explicit",
                             out);
        }
        ExplorationCache::global().clear();
    }

    // -- trace-checker oracles ---------------------------------------------
    if (failsafe.in_presence.ok && !failsafe_deepest.empty()) {
        // The exploration witness of a passing fail-safe query must itself
        // be safe when replayed through the offline trace checker.
        const RunResult run = witness_to_run(sys, failsafe_deepest);
        const TraceReport report =
            check_trace_safety(*sys.space, run, sys.safety);
        if (!report.ok())
            out.push_back({"trace/safety-vs-verdict",
                           "deepest exploration trace of a verified "
                           "fail-safe span violates safety at step " +
                               std::to_string(report.violations.front().step) +
                               ": " + report.violations.front().what});
    }

    // -- simulation oracles ------------------------------------------------
    if (options.include_sim && ts1.num_nodes() > 0 && options.sim_runs > 0) {
        RandomScheduler scheduler;
        const auto& roots = ts1.initial_nodes();
        for (std::size_t r = 0; r < options.sim_runs; ++r) {
            const NodeId root = roots[(r * 7919) % roots.size()];
            Simulator sim(sys.program, scheduler,
                          spec.seed ^ (0x51F7ULL + r));
            FaultInjector injector(sys.faults, 0.2, 4);
            if (faults != nullptr) sim.set_fault_injector(&injector);
            RunOptions run_options;
            run_options.max_steps = options.sim_steps;
            run_options.record_trace = true;
            const RunResult run = sim.run(ts1.state_of(root), run_options);
            check_run_against_graph(sys, ts1, run,
                                    "run " + std::to_string(r), out);
        }
    }
    if (options.include_sim && failsafe.in_presence.ok &&
        failsafe.invariant_size > 0 && options.sim_runs > 0) {
        // Fault-injected runs from invariant states stay inside the span;
        // a verified fail-safe span means the offline safety check on any
        // such recorded trace must be clean.
        std::vector<StateIndex> starts;
        const StateSet inv = materialize(*sys.space, sys.invariant);
        inv.for_each([&](StateIndex s) {
            if (starts.size() < options.sim_runs) starts.push_back(s);
        });
        RandomScheduler scheduler;
        for (std::size_t r = 0; r < starts.size(); ++r) {
            Simulator sim(sys.program, scheduler,
                          spec.seed ^ (0xFA57ULL + r));
            FaultInjector injector(sys.faults, 0.2, 4);
            if (faults != nullptr) sim.set_fault_injector(&injector);
            RunOptions run_options;
            run_options.max_steps = options.sim_steps;
            run_options.record_trace = true;
            const RunResult run = sim.run(starts[r], run_options);
            const TraceReport report =
                check_trace_safety(*sys.space, run, sys.safety);
            if (!report.ok()) {
                out.push_back(
                    {"trace/safety-vs-verdict",
                     "verified fail-safe span, but simulated run " +
                         std::to_string(r) + " from " +
                         sys.space->format(starts[r]) +
                         " violates safety at step " +
                         std::to_string(report.violations.front().step) +
                         ": " + report.violations.front().what});
                break;
            }
        }
    }

    // Leave no residue for the next campaign iteration.
    ExplorationCache::global().clear();
    return out;
}

}  // namespace dcft::fuzz
