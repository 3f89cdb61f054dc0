// Catalog of the built-in example systems: one registry mapping a system
// name (+ size) to everything needed to verify and simulate it.
//
// It is a library concern because several programs share it — `dcft
// verify/simulate/list`, the grid benchmark worker, bench_verifier and
// the smoke tools — and they must agree exactly on what "token-ring 8"
// means, so their verdicts and persistent graph-store entries match.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gc/program.hpp"
#include "obs/run_report.hpp"
#include "runtime/estimate.hpp"
#include "spec/problem_spec.hpp"
#include "verify/tolerance_checker.hpp"

namespace dcft::apps {

/// One loaded system: program variants plus everything needed to verify
/// and simulate them.
struct SystemInstance {
    std::shared_ptr<const StateSpace> space;
    std::map<std::string, Program> variants;
    std::unique_ptr<FaultClass> faults;
    ProblemSpec spec;
    Predicate invariant;
    StateIndex initial = 0;
};

/// Builds the named system at `size` (0 = the system's default size).
/// Throws ContractError for a name outside catalog_names().
SystemInstance load_system(const std::string& name, int size);

/// The seed {init} of a reachable invariant as a state predicate: one
/// var == digit atom per variable, conjoined, so eval_bits fills it by
/// word algebra instead of testing every state. Named "init".
Predicate init_seed(const StateSpace& space, StateIndex init);

/// The catalog entries, in presentation order.
const std::vector<std::string>& catalog_names();

/// One ReportQuery from a tolerance verdict. Failing queries export the
/// counterexample of the first failing obligation; passing queries export
/// the exploration witness (BFS path to the deepest fault-span state).
obs::ReportQuery tolerance_query(const std::string& system,
                                 const std::string& variant,
                                 const std::string& grade,
                                 const ToleranceReport& report);

/// The graded verdict for one variant of a loaded system: the
/// masking-distance game result plus a fixed-seed Monte Carlo estimate,
/// already shaped as report blocks. Deterministic for a given (system,
/// variant, options) — including across exploration and Monte Carlo thread
/// counts — so `dcft verify --graded` emits byte-identical blocks on every
/// run.
struct GradedBlocks {
    obs::QueryMaskingDistance masking_distance;
    obs::QueryMonteCarlo monte_carlo;
    std::string game_reason;  ///< human-readable game verdict line
};

/// Computes the graded blocks for `variant` of `sys`. The defaulted
/// options are the catalog-standard estimate: 200 runs, base_seed 1,
/// per-step fault probability 0.1, 500-step budget.
GradedBlocks graded_blocks(const SystemInstance& sys, const Program& variant,
                           const ToleranceEstimateOptions& mc_options = {});

}  // namespace dcft::apps
