#include "apps/catalog.hpp"

#include "apps/alternating_bit.hpp"
#include "apps/barrier.hpp"
#include "apps/byzantine.hpp"
#include "apps/distributed_reset.hpp"
#include "apps/leader_election.hpp"
#include "apps/memory_access.hpp"
#include "apps/spanning_tree.hpp"
#include "apps/termination_detection.hpp"
#include "apps/tmr.hpp"
#include "apps/token_ring.hpp"
#include "verify/invariant.hpp"
#include "verify/masking_distance.hpp"

namespace dcft::apps {

Predicate init_seed(const StateSpace& space, StateIndex init) {
    std::vector<Predicate> digits;
    for (VarId v = 0; v < space.num_vars(); ++v)
        digits.push_back(Predicate::var_eq(space, v, space.get(init, v)));
    return Predicate::all_of(std::move(digits)).renamed("init");
}

SystemInstance load_system(const std::string& name, int size) {
    SystemInstance out;
    if (name == "memory") {
        auto sys = make_memory_access(size > 0 ? size : 3, 1);
        out.space = sys.space;
        out.variants.emplace("intolerant", sys.intolerant);
        out.variants.emplace("failsafe", sys.failsafe);
        out.variants.emplace("nonmasking", sys.nonmasking);
        out.variants.emplace("masking", sys.masking);
        out.faults = std::make_unique<FaultClass>(sys.page_fault);
        out.spec = sys.spec;
        out.invariant = sys.S;
        out.initial = sys.initial_state();
    } else if (name == "tmr") {
        auto sys = make_tmr(size > 0 ? size : 2);
        out.space = sys.space;
        out.variants.emplace("intolerant", sys.intolerant);
        out.variants.emplace("failsafe", sys.failsafe);
        out.variants.emplace("masking", sys.masking);
        out.faults = std::make_unique<FaultClass>(sys.corrupt_one_input);
        out.spec = sys.spec;
        out.invariant = sys.invariant;
        out.initial = sys.initial_state(0);
    } else if (name == "byzantine") {
        auto sys = make_byzantine(size > 0 ? size : 4, 1);
        out.space = sys.space;
        out.variants.emplace("intolerant", sys.intolerant);
        out.variants.emplace("failsafe", sys.failsafe);
        out.variants.emplace("masking", sys.masking);
        out.faults = std::make_unique<FaultClass>(sys.byzantine_fault);
        out.spec = sys.spec;
        out.initial = sys.initial_state(1);
        out.invariant = reachable_invariant(
            out.variants.at("masking"),
            init_seed(*out.space, out.initial));
    } else if (name == "token-ring") {
        const int n = size > 0 ? size : 4;
        auto sys = make_token_ring(n, n);
        out.space = sys.space;
        out.variants.emplace("ring", sys.ring);
        out.faults = std::make_unique<FaultClass>(sys.corrupt_any);
        out.spec = sys.spec;
        out.invariant = sys.legitimate;
        out.initial = sys.initial_state();
    } else if (name == "spanning-tree") {
        auto sys = make_spanning_tree(path_graph(size > 0 ? size : 4));
        out.space = sys.space;
        out.variants.emplace("tree", sys.program);
        out.faults = std::make_unique<FaultClass>(sys.corrupt_any);
        out.spec = sys.spec;
        out.invariant = sys.legitimate;
        out.initial = sys.legitimate_state();
    } else if (name == "election") {
        const int n = size > 0 ? size : 4;
        std::vector<int> parent(static_cast<std::size_t>(n), 0);
        for (int i = 1; i < n; ++i)
            parent[static_cast<std::size_t>(i)] = (i - 1) / 2;
        auto sys = make_leader_election(parent);
        out.space = sys.space;
        out.variants.emplace("election", sys.program);
        out.faults = std::make_unique<FaultClass>(sys.corrupt_any);
        out.spec = sys.spec;
        out.invariant = sys.legitimate;
        out.initial = sys.legitimate_state();
    } else if (name == "termination") {
        auto sys = make_termination_detection(size > 0 ? size : 3);
        out.space = sys.space;
        out.variants.emplace("probe", sys.system);
        out.faults = std::make_unique<FaultClass>(sys.spurious_activation);
        // Spec: the detector claim as a problem specification.
        LivenessSpec live;
        live.add(LeadsTo{sys.all_passive, sys.done});
        out.spec = ProblemSpec(
            "SPEC_termination",
            SafetySpec::never((sys.done && !sys.all_passive)
                                  .renamed("lying-done")),
            std::move(live));
        out.invariant = reachable_invariant(sys.system, sys.initial);
        out.initial = sys.initial_state(
            std::vector<bool>(static_cast<std::size_t>(sys.n), true));
    } else if (name == "barrier") {
        auto sys = make_barrier(size > 0 ? size : 4);
        out.space = sys.space;
        out.variants.emplace("trusting", sys.trusting);
        out.variants.emplace("rechecking", sys.rechecking);
        out.faults = std::make_unique<FaultClass>(sys.corrupt_witness);
        out.spec = sys.spec;
        out.initial = sys.initial_state();
        out.invariant = reachable_invariant(
            out.variants.at("rechecking"),
            init_seed(*out.space, out.initial));
    } else if (name == "abp") {
        auto sys = make_alternating_bit(size > 0 ? size : 2, 4);
        out.space = sys.space;
        out.variants.emplace("protocol", sys.protocol);
        out.faults = std::make_unique<FaultClass>(sys.loss);
        out.spec = sys.spec;
        out.initial = sys.initial_state();
        out.invariant = reachable_invariant(
            out.variants.at("protocol"),
            init_seed(*out.space, out.initial));
    } else if (name == "reset") {
        const int n = size > 0 ? size : 4;
        std::vector<int> parent(static_cast<std::size_t>(n), 0);
        for (int i = 1; i < n; ++i)
            parent[static_cast<std::size_t>(i)] = (i - 1) / 2;
        auto sys = make_distributed_reset(parent);
        out.space = sys.space;
        out.variants.emplace("reset", sys.system);
        out.faults = std::make_unique<FaultClass>(sys.corrupt_sessions);
        out.spec = sys.spec;
        out.initial = sys.initial_state();
        out.invariant = reachable_invariant(
            out.variants.at("reset"),
            init_seed(*out.space, out.initial));
    } else {
        throw ContractError("unknown system: " + name);
    }
    return out;
}

const std::vector<std::string>& catalog_names() {
    static const std::vector<std::string> names = {
        "memory",      "tmr",     "byzantine", "token-ring", "spanning-tree",
        "election",    "termination", "barrier", "reset",    "abp"};
    return names;
}

obs::ReportQuery tolerance_query(const std::string& system,
                                 const std::string& variant,
                                 const std::string& grade,
                                 const ToleranceReport& report) {
    obs::ReportQuery q;
    q.name = system + "/" + variant + "/" + grade;
    q.system = system;
    q.variant = variant;
    q.grade = grade;
    q.ok = report.ok();
    q.reason = report.reason();
    q.invariant_size = report.invariant_size;
    q.span_size = report.span_size;
    for (const MaterializeRecord& m : report.materialized)
        q.materialize.push_back({m.predicate, m.path, m.kcall_ops,
                                 m.states_scanned, m.memo_hit});
    if (!report.ok() && !report.counterexample().empty()) {
        q.witness_kind = "counterexample";
        q.witness = report.counterexample();
    } else if (report.ok()) {
        if (std::vector<WitnessStep> deepest = report.deepest_trace();
            !deepest.empty()) {
            q.witness_kind = "exploration";
            q.witness = std::move(deepest);
        }
    }
    return q;
}

namespace {

obs::QueryStatsBlock stats_block(const SummaryStats& stats) {
    obs::QueryStatsBlock block;
    block.count = stats.count();
    block.mean = stats.mean();  // NaN (→ null) when empty
    block.p50 = stats.p50();
    block.p90 = stats.p90();
    block.p99 = stats.p99();
    return block;
}

}  // namespace

GradedBlocks graded_blocks(const SystemInstance& sys, const Program& variant,
                           const ToleranceEstimateOptions& mc_options) {
    GradedBlocks out;

    const MaskingDistanceResult game =
        masking_distance(variant, *sys.faults, sys.spec, sys.invariant);
    out.masking_distance.masking = game.masking;
    out.masking_distance.distance = game.distance;
    out.masking_distance.game_nodes = game.game_nodes;
    out.masking_distance.game_layers = game.game_layers;
    out.masking_distance.witness_faults = game.witness_faults();
    out.game_reason = game.reason;

    const ToleranceEstimate est =
        estimate_tolerance(variant, *sys.faults, sys.spec, sys.invariant,
                           sys.initial, mc_options);
    out.monte_carlo.runs = est.batch.runs;
    out.monte_carlo.violated_runs = est.batch.violated_runs;
    out.monte_carlo.base_seed = est.options.base_seed;
    out.monte_carlo.fault_probability = est.options.fault_probability;
    out.monte_carlo.max_steps = est.options.max_steps;
    out.monte_carlo.max_faults = est.options.max_faults;
    out.monte_carlo.violation_rate = est.violation_rate();
    out.monte_carlo.time_to_violation = stats_block(est.time_to_violation());
    out.monte_carlo.time_to_recovery = stats_block(est.time_to_recovery());
    out.monte_carlo.faults_absorbed = stats_block(est.faults_absorbed());
    return out;
}

}  // namespace dcft::apps
