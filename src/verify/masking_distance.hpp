// Graded tolerance: the masking distance of p under F (Castro, D'Argenio,
// Demasi, Putruele — "Measuring Masking Fault-Tolerance").
//
// The boolean verdicts of check_tolerance say *whether* p masks F; the
// masking distance says *how many* fault occurrences p absorbs before the
// safety part of SPEC breaks. It is defined by a turn-based game between
// the nominal (fault-free) system and the system under faults: the
// verifier moves on program transitions, trying to keep every computation
// inside SPEC's safety part; the refuter moves on fault transitions,
// trying to drive some computation out of it. The value of the game is
//
//   d  =  min over all safety-violating computation prefixes of p [] F
//         (from the invariant) of the number of fault steps they contain,
//
// with d = infinity ("masking") when no prefix violates safety at all. A
// fault step that is itself the violating transition counts: a system that
// breaks on its very first fault has d = 1; d = 0 means the program
// violates safety with no fault at all (an immediate violation, already
// visible in the fault-free system).
//
// Product-game construction over the explored graph: the game positions are
// pairs (v, k) — v a node of the p [] F system explored from the
// invariant, k the number of refuter (fault) moves played so far. Because
// the nominal system is exactly the program-only subgraph, the product
// collapses into *layers*: verifier moves stay inside layer k, refuter
// moves step from layer k to layer k+1, and layer 0 is the fault-free
// system itself. The solver is the level-synchronous fixpoint the
// verifier already uses everywhere, specialized to this 0/1 edge
// weighting: close layer k under program edges (weight 0), then expand
// the regenerated fault rows (weight 1) to seed layer k+1. Each node is
// visited once, at its minimal fault distance, so the sweep is
// O(nodes + edges) no matter how large d is.
//
// Determinism contract: the solver runs on the program CSR edges and the
// regenerated fault rows of a TransitionSystem, which are bit-identical for
// every exploration thread count; layers are closed serially in canonical
// node-id order. The distance, the game-size counters, and the min-fault
// witness are therefore identical for every thread count (pinned by the
// masking-distance test, graded_smoke and the graded/game-vs-explicit
// fuzz oracle).
//
// Relation to the boolean pipeline (checked as a theorem by the tests):
// d = infinity  iff  the fail-safe in-presence obligation of
// check_tolerance holds — safety of SPEC over the whole fault span. The
// masking *grade* additionally demands liveness, so check_masking ok
// implies d = infinity but not conversely.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spec/problem_spec.hpp"
#include "verify/check_result.hpp"
#include "verify/transition_system.hpp"

namespace dcft {

/// Outcome of one masking-distance game.
struct MaskingDistanceResult {
    /// d = infinity: no computation of p [] F from the invariant violates
    /// the safety part of SPEC, however many faults occur.
    bool masking = false;
    /// The distance (min fault steps to a safety violation). Only
    /// meaningful when !masking.
    std::uint64_t distance = 0;
    /// Game positions visited (each graph node enters the game exactly
    /// once, at its minimal fault layer).
    std::uint64_t game_nodes = 0;
    /// Layers materialized = max fault distance reached + 1; layer 0 is
    /// the fault-free subgame.
    std::uint64_t game_layers = 0;
    /// Min-fault violating prefix (replayable, with action provenance);
    /// empty when masking. Contains exactly `distance` fault steps.
    std::vector<WitnessStep> witness;
    /// Human-readable summary: the violation and its witness, or the
    /// masking statement.
    std::string reason;

    /// Number of fault steps on the witness (== distance when !masking).
    std::uint64_t witness_faults() const;
};

/// Solves the masking-distance game on a pre-built, complete p [] F
/// system (its initial nodes are the invariant states). `safety` is the
/// safety part of the problem specification.
MaskingDistanceResult masking_distance_on(const TransitionSystem& ts_pf,
                                          const SafetySpec& safety);

/// Masking distance of p under f, for SPEC's safety part, from the
/// invariant. Shares the p [] F exploration with check_tolerance through
/// the process-wide ExplorationCache (the invariant is materialized the
/// same way, so the graph key is identical): after a verify grid this is
/// a pure graph replay.
MaskingDistanceResult masking_distance(const Program& p, const FaultClass& f,
                                       const ProblemSpec& spec,
                                       const Predicate& invariant);

}  // namespace dcft
