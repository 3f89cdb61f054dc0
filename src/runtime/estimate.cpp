#include "runtime/estimate.hpp"

#include <limits>

#include "common/check.hpp"
#include "obs/telemetry.hpp"

namespace dcft {

ToleranceEstimate estimate_tolerance(const Program& p, const FaultClass& f,
                                     const ProblemSpec& spec,
                                     const Predicate& invariant,
                                     StateIndex initial,
                                     const ToleranceEstimateOptions& options) {
    const obs::Span span("runtime/estimate_tolerance");
    obs::count("runtime/estimate_tolerance_queries");
    DCFT_EXPECTS(options.runs > 0,
                 "estimate_tolerance requires at least one run");

    Experiment ex;
    ex.program = &p;
    ex.initial = initial;
    ex.options.max_steps = options.max_steps;
    ex.base_seed = options.base_seed;
    ex.runs = options.runs;
    ex.threads = options.threads;
    ex.faults = &f;
    ex.fault_probability = options.fault_probability;
    // The injector's max_faults is a hard cap (0 = inject nothing); this
    // layer's 0 means "no cap" — the per-run step budget already bounds
    // fault counts, keeping Assumption 2's finiteness.
    ex.max_faults = options.max_faults == 0
                        ? std::numeric_limits<std::size_t>::max()
                        : options.max_faults;
    ex.safety = spec.safety();
    ex.corrector = invariant;

    ToleranceEstimate estimate;
    estimate.options = options;
    estimate.batch = run_experiment(ex);
    return estimate;
}

}  // namespace dcft
