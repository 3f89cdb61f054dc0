#include "verify/tolerance_checker.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "obs/telemetry.hpp"
#include "verify/exploration_cache.hpp"
#include "verify/fairness.hpp"
#include "verify/refinement.hpp"
#include "verify/state_set.hpp"

namespace dcft {

// One tolerance verdict needs the same two graphs over and over: the
// program-only system from the invariant (absence of faults) and the
// p [] F system from the invariant (presence of faults). The seed pipeline
// re-enumerated successors for each obligation — closure sweep, fault-span
// reachability, and a fresh exploration per refines_spec call. Here each
// graph is explored exactly once and every obligation is evaluated on the
// recorded CSR edges:
//
//   * the invariant is materialized into a bitset once, so every later
//     membership question is a word probe instead of a std::function call
//     (the name is preserved, so diagnostics are unchanged). eval_bits
//     memoizes the scan on the predicate, so the three grades of a grid
//     and masking_distance share one scan;
//   * the node set of the p [] F system *is* the canonical fault span (the
//     reachable closure of the invariant under program and fault steps),
//     so the span predicate falls out of the exploration for free, and
//     its closure in p [] F holds by construction — the in-presence
//     grades run only check_spec_on (safety + liveness);
//   * refines_spec_on replays closure/safety/liveness on the recorded
//     edges for the in-absence obligation — the successor sets are
//     identical to what fresh enumerations would produce, so all verdicts
//     match the definitional pipeline (cross-checked by the tolerance and
//     app test suites and the tolerance/presence-vs-refines fuzz oracle).
namespace {

ToleranceReport decide(const Program& p, const FaultClass& f,
                       const ProblemSpec& spec, const Predicate& invariant,
                       Tolerance grade) {
    const obs::Span span("verify/check_tolerance");
    obs::count("verify/tolerance_queries");
    const StateSpace& space = p.space();
    ToleranceReport report;

    // Materialize the invariant once; downstream checks probe bits.
    auto inv_states = [&] {
        const obs::Span mspan("verify/check_tolerance/materialize");
        return std::make_shared<StateSet>(
            materialize_parallel(space, invariant));
    }();
    const Predicate inv = predicate_of(inv_states, invariant.name());
    report.invariant_size = inv_states->count();

    // In the absence of faults: p refines SPEC from S. Both explorations
    // go through the process-wide cache, so the three grade queries of
    // `dcft verify` (and synthesis re-checks over unchanged programs)
    // build each distinct graph exactly once.
    ExplorationCache& cache = ExplorationCache::global();
    {
        const auto ts_p = cache.get_or_build(p, nullptr, inv);
        report.in_absence = refines_spec_on(*ts_p, nullptr, spec, inv);
    }

    // One exploration of p [] F from the invariant; its node set is the
    // canonical fault span T.
    const auto ts_pf_ptr = cache.get_or_build(p, &f, inv);
    const TransitionSystem& ts_pf = *ts_pf_ptr;
    auto span_states = std::make_shared<StateSet>(ts_pf.state_bits());
    report.fault_span = predicate_of(
        span_states, "span(" + p.name() + "," + f.name() + "," +
                         invariant.name() + ")");
    report.span_size = span_states->count();
    report.span_graph = ts_pf_ptr;

    // In the presence of faults, from T, on the same graph. T is the node
    // set of ts_pf, so T is closed in p [] F by construction and only the
    // safety and liveness obligations remain.
    switch (grade) {
        case Tolerance::Masking:
            report.in_presence = check_spec_on(ts_pf, &f, spec);
            break;
        case Tolerance::FailSafe:
            report.in_presence =
                check_spec_on(ts_pf, &f, spec.failsafe_weakening());
            break;
        case Tolerance::Nonmasking: {
            // Convergence T ~~> S on the recorded graph; the program-only
            // tail obligation 'p refines SPEC from S' is exactly the
            // absence-of-faults check already computed above.
            if (CheckResult r = check_reaches(ts_pf, inv, true); !r) {
                report.in_presence = CheckResult::failure(
                    "nonmasking: computations do not converge to " +
                        inv.name() + ": " + r.reason,
                    std::move(r.witness));
            } else {
                report.in_presence = report.in_absence;
            }
            break;
        }
    }
    return report;
}

}  // namespace

std::vector<WitnessStep> ToleranceReport::deepest_trace() const {
    if (span_graph == nullptr || span_graph->num_nodes() == 0) return {};
    return span_graph->witness_trace(
        span_graph->canonical_node(span_graph->num_nodes() - 1));
}

ToleranceReport check_tolerance(const Program& p, const FaultClass& f,
                                const ProblemSpec& spec,
                                const Predicate& invariant, Tolerance grade) {
    const MaterializeLog log;
    ToleranceReport report = decide(p, f, spec, invariant, grade);
    for (const MaterializeRecord& r : log.records()) {
        const auto& seen = report.materialized;
        if (std::none_of(seen.begin(), seen.end(),
                         [&](const MaterializeRecord& m) {
                             return m.predicate == r.predicate;
                         }))
            report.materialized.push_back(r);
    }
    return report;
}

ToleranceReport check_failsafe(const Program& p, const FaultClass& f,
                               const ProblemSpec& spec,
                               const Predicate& invariant) {
    return check_tolerance(p, f, spec, invariant, Tolerance::FailSafe);
}

ToleranceReport check_nonmasking(const Program& p, const FaultClass& f,
                                 const ProblemSpec& spec,
                                 const Predicate& invariant) {
    return check_tolerance(p, f, spec, invariant, Tolerance::Nonmasking);
}

ToleranceReport check_masking(const Program& p, const FaultClass& f,
                              const ProblemSpec& spec,
                              const Predicate& invariant) {
    return check_tolerance(p, f, spec, invariant, Tolerance::Masking);
}

}  // namespace dcft
