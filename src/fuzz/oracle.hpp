// The differential oracle matrix.
//
// run_oracles(spec) builds the spec once and cross-checks every pair of
// redundant execution paths the repo maintains. A clean result is the
// empty vector; each Divergence names the oracle that fired plus a
// human-readable first difference. The oracle pairs:
//
//   graph/ref-vs-csr            RefTransitionSystem (seed-naive BFS) vs
//                               the CSR TransitionSystem at 1 thread:
//                               states, initial nodes, program edges and
//                               regenerated fault rows, terminality,
//                               witness paths.
//   graph/threads-1-vs-N        CSR exploration at 1 thread vs N threads
//                               (the determinism contract).
//   predicate/fill-vs-scan      eval_bits (word-algebra fill, per-state
//                               scan of opaque subtrees only) vs a loop
//                               over Predicate::interpret at every state,
//                               bit for bit including the padding, at 1
//                               and N threads, for every guard, init,
//                               invariant, bad-state and leads-to
//                               predicate.
//   predicate/bytecode-vs-interpret
//                               Predicate::eval (bytecode compiled on
//                               first use) vs Predicate::interpret at
//                               every state, for the same predicates.
//   cache/hit-shares-build      two ExplorationCache::get_or_build calls
//                               for the same key return the same object.
//   cache/cached-vs-fresh       the cached graph equals a directly
//                               constructed fresh exploration.
//   store/roundtrip             a dcft.graph snapshot of the canonical
//                               graph (GraphStore::save into a per-spec
//                               temp directory), mmap-adopted back, is
//                               bit-identical to the in-core build.
//   store/cached-vs-fresh       with DCFT_GRAPH_STORE pointed at that
//                               directory and the exploration cache
//                               cleared, get_or_build serves the adopted
//                               snapshot and it equals the fresh build.
//   span/identity-vs-explored   the program with an unconditional
//                               corrupt-any over every variable added to
//                               its faults (a full fault span, so an
//                               identity graph from every non-empty
//                               seed) vs the reference exploration: by
//                               state, canonical order, program and
//                               regenerated fault rows and every witness
//                               path; then the three grades (ok, reason,
//                               witness, deepest exploration witness) and
//                               the masking distance vs the same checkers
//                               on the reference graph in canonical
//                               numbering.
//   interner/sparse-vs-direct   exploration under DCFT_DIRECT_MAP_MAX=64
//                               (sparse interner forced at every size,
//                               at 1 and N threads) vs the default
//                               direct-mapped tier.
//   tolerance/presence-vs-refines
//                               for fail-safe and masking, check_tolerance's
//                               in_presence (which skips the span's
//                               closure, true by construction) vs the
//                               definitional refines_weakened over
//                               report.fault_span: same verdict, and the
//                               same ok/reason/witness as refines_spec_on
//                               with closure on check_tolerance's own
//                               p [] F graph (refines_weakened explores
//                               from the span, so its node numbering and
//                               witnesses differ).
//   tolerance/grade-order       the three grades run in reverse order on a
//                               fresh invariant implementation (empty
//                               eval_bits memo) and a cleared exploration
//                               cache reproduce the forward-order reports
//                               exactly.
//   graded/game-vs-explicit    masking_distance (layered product game on
//                               the recorded CSR edges) vs check_failsafe:
//                               distance inf iff the in-presence safety
//                               obligation holds; a finite distance comes
//                               with a replayable witness carrying exactly
//                               `distance` fault steps.
//   verdict/unreachable         check_unreachable at N threads, from a
//                               cleared exploration cache, vs
//                               first_bad_node on the serial graph: ok
//                               flag, reason and witness trace; the
//                               witness replays.
//   verdict/closed|reachable|converges|refines|refines-with-faults|
//   verdict/tolerance           the optimized verdict pipeline vs the
//                               ref_* reference pipeline (ok flags, state
//                               sets, invariant/span sizes).
//   sim/trace-edge, sim/deadlock
//                               every step of a recorded simulation trace
//                               (random scheduler, fault injection) is an
//                               edge of the explored graph; a deadlocked
//                               run ends on a terminal node.
//   witness/replay              every witness trace the checkers emit
//                               (counterexamples and exploration
//                               witnesses) replays over the kernel:
//                               consecutive states are connected by the
//                               named program/fault action and the
//                               formatted state matches.
//   trace/safety-vs-verdict     when the fail-safe in-presence obligation
//                               verifies, check_trace_safety finds no
//                               violation on fault-injected simulation
//                               runs from invariant states, nor on the
//                               verifier's own deepest exploration trace
//                               replayed as a RunResult.
//
// Everything is deterministic in (spec, options): simulator seeds derive
// from spec.seed, and the global exploration cache is cleared afterwards
// so campaign iterations cannot observe each other.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fuzz/spec.hpp"
#include "verify/reference.hpp"
#include "verify/transition_system.hpp"

namespace dcft::fuzz {

/// One observed disagreement between two redundant paths.
struct Divergence {
    std::string oracle;  ///< which pair fired, e.g. "graph/ref-vs-csr"
    std::string detail;  ///< first difference, human-readable
};

/// Knobs for one oracle run.
struct OracleOptions {
    unsigned threads = 4;       ///< N of the threads-1-vs-N pair
    bool include_sim = true;    ///< run the simulation-based oracles
    std::size_t sim_runs = 3;   ///< simulated runs per entry point
    std::size_t sim_steps = 160;  ///< max steps per simulated run
};

/// Runs the whole oracle matrix on one spec. Precondition: validate(spec).
std::vector<Divergence> run_oracles(const ProgramSpec& spec,
                                    const OracleOptions& options = {});

/// First difference between the reference and optimized explorations
/// (node states, initial nodes, edges, terminality, witness paths), or
/// nullopt when identical; by state on identity graphs whose node ids are
/// not canonical positions (first_identity_difference). Exposed for the
/// oracle unit tests.
std::optional<std::string> first_graph_difference(
    const reference::RefTransitionSystem& ref, const TransitionSystem& ts);

/// First difference between the reference exploration and an identity
/// graph from a partial seed, compared by state: the reference's node
/// order is the canonical order, so position r of the canonical replay
/// must hold the reference's node r; program and regenerated fault rows,
/// terminality and witness paths must agree state for state. nullopt when
/// identical. first_graph_difference delegates here for such graphs.
std::optional<std::string> first_identity_difference(
    const reference::RefTransitionSystem& ref, const TransitionSystem& ts);

/// First difference between two optimized explorations (used by the
/// thread-count, compile-gate, and cache oracles).
std::optional<std::string> first_ts_difference(const TransitionSystem& a,
                                               const TransitionSystem& b);

}  // namespace dcft::fuzz
