#include "apps/leader_election.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace dcft::apps {
namespace {

std::vector<std::vector<int>> children_of(const std::vector<int>& parent) {
    std::vector<std::vector<int>> children(parent.size());
    for (std::size_t i = 1; i < parent.size(); ++i)
        children[static_cast<std::size_t>(parent[i])].push_back(
            static_cast<int>(i));
    return children;
}

/// The value node i's aggregation rule assigns: max(own, children).
Term agg_target(const StateSpace& sp, const std::vector<VarId>& agg,
                const std::vector<int>& children, Value own_id) {
    std::vector<Term> terms{Term::constant(own_id)};
    for (int c : children)
        terms.push_back(Term::var(sp, agg[static_cast<std::size_t>(c)]));
    return Term::max(std::move(terms));
}

/// True subtree maxima. Because parent[i] < i, a single reverse sweep
/// folds every node into its parent after its own subtree is complete.
std::vector<Value> subtree_maxima(const std::vector<int>& parent,
                                  const std::vector<Value>& id) {
    std::vector<Value> maxima = id;
    for (std::size_t i = parent.size(); i-- > 1;)
        maxima[static_cast<std::size_t>(parent[i])] = std::max(
            maxima[static_cast<std::size_t>(parent[i])], maxima[i]);
    return maxima;
}

}  // namespace

StateIndex LeaderElectionSystem::legitimate_state() const {
    const std::vector<Value> maxima = subtree_maxima(parent, id);
    StateIndex s = 0;
    for (std::size_t i = 0; i < agg.size(); ++i) {
        s = space->set(s, agg[i], maxima[i]);
        s = space->set(s, ldr[i], true_leader);
    }
    return s;
}

LeaderElectionSystem make_leader_election(std::vector<int> parent,
                                          std::vector<Value> id) {
    const int n = static_cast<int>(parent.size());
    DCFT_EXPECTS(n >= 2, "need at least 2 nodes");
    DCFT_EXPECTS(parent[0] == 0, "node 0 must be the root");
    for (int i = 1; i < n; ++i)
        DCFT_EXPECTS(parent[static_cast<std::size_t>(i)] >= 0 &&
                         parent[static_cast<std::size_t>(i)] < i,
                     "parent[] must define a tree (parent[i] < i)");
    if (id.empty()) {
        id.resize(static_cast<std::size_t>(n));
        std::iota(id.begin(), id.end(), Value{0});
    }
    DCFT_EXPECTS(static_cast<int>(id.size()) == n, "one id per node");

    auto builder = std::make_shared<StateSpace>();
    std::vector<VarId> agg, ldr;
    for (int i = 0; i < n; ++i)
        agg.push_back(builder->add_variable("agg." + std::to_string(i), n));
    for (int i = 0; i < n; ++i)
        ldr.push_back(builder->add_variable("ldr." + std::to_string(i), n));
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;

    const auto children = children_of(parent);
    const std::vector<Value> maxima = subtree_maxima(parent, id);
    const Value leader = maxima[0];

    Program program(space, "leader-election(n=" + std::to_string(n) + ")");
    for (int i = 0; i < n; ++i) {
        const VarId ai = agg[static_cast<std::size_t>(i)];
        const Term target =
            agg_target(*space, agg, children[static_cast<std::size_t>(i)],
                       id[static_cast<std::size_t>(i)]);
        program.add_action(Action::assign_parallel(
            *space, "agg." + std::to_string(i),
            Predicate::compare(Term::var(*space, ai),
                               Predicate::NodeKind::kTermNe, target)
                .renamed("agg-stale." + std::to_string(i)),
            {{ai, target}}));
    }
    program.add_action(Action::assign_var(
        *space, "ldr.0",
        Predicate::vars_ne(*space, ldr[0], agg[0]).renamed("ldr-stale.0"),
        ldr[0], agg[0]));
    for (int i = 1; i < n; ++i) {
        const VarId li = ldr[static_cast<std::size_t>(i)];
        const VarId lp = ldr[static_cast<std::size_t>(
            parent[static_cast<std::size_t>(i)])];
        program.add_action(Action::assign_var(
            *space, "ldr." + std::to_string(i),
            Predicate::vars_ne(*space, li, lp)
                .renamed("ldr-stale." + std::to_string(i)),
            li, lp));
    }

    // Transient faults: any agg.i or ldr.i is corrupted to any value.
    FaultClass fault(space, "corrupt-election-state");
    {
        std::vector<VarId> all = agg;
        all.insert(all.end(), ldr.begin(), ldr.end());
        fault.add_action(Action::corrupt_any(*space, "corrupt",
                                             Predicate::top(), all));
    }

    std::vector<Predicate> agg_ok, ldr_ok;
    for (std::size_t i = 0; i < agg.size(); ++i)
        agg_ok.push_back(Predicate::var_eq(*space, agg[i], maxima[i]));
    for (const VarId v : ldr)
        ldr_ok.push_back(Predicate::var_eq(*space, v, leader));
    Predicate aggregation_correct =
        Predicate::all_of(std::move(agg_ok)).renamed("aggregation-correct");
    Predicate leader_agreed =
        Predicate::all_of(std::move(ldr_ok)).renamed("leader-agreed");
    Predicate legitimate =
        (aggregation_correct && leader_agreed).renamed("election-legitimate");

    SafetySpec safety = SafetySpec::closure(legitimate);
    LivenessSpec live;
    live.add_eventually(legitimate);
    ProblemSpec spec("SPEC_election", std::move(safety), std::move(live));

    return LeaderElectionSystem{space,
                                std::move(parent),
                                std::move(id),
                                std::move(program),
                                std::move(fault),
                                std::move(spec),
                                std::move(legitimate),
                                std::move(aggregation_correct),
                                std::move(leader_agreed),
                                leader,
                                std::move(agg),
                                std::move(ldr)};
}

}  // namespace dcft::apps
