#include "apps/distributed_reset.hpp"

#include "common/check.hpp"

namespace dcft::apps {

StateIndex DistributedResetSystem::initial_state() const {
    StateIndex s = 0;
    s = space->set(s, wc_var, 1);
    return s;  // sessions 0, req 0
}

DistributedResetSystem make_distributed_reset(std::vector<int> parent) {
    const int n = static_cast<int>(parent.size());
    DCFT_EXPECTS(n >= 2, "need at least two processes");
    DCFT_EXPECTS(parent[0] == 0, "node 0 must be the root");
    for (int i = 1; i < n; ++i)
        DCFT_EXPECTS(parent[static_cast<std::size_t>(i)] >= 0 &&
                         parent[static_cast<std::size_t>(i)] < i,
                     "parent[] must define a tree (parent[i] < i)");

    auto builder = std::make_shared<StateSpace>();
    std::vector<VarId> sn;
    for (int i = 0; i < n; ++i)
        sn.push_back(builder->add_variable("sn." + std::to_string(i), 3));
    const VarId wc = builder->add_variable("wc", 2);
    const VarId req = builder->add_variable("req", 2);
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;

    Predicate all_equal = Predicate::vars_eq(*space, sn[1], sn[0]);
    for (int i = 2; i < n; ++i)
        all_equal = all_equal &&
                    Predicate::vars_eq(*space, sn[static_cast<std::size_t>(i)],
                                       sn[0]);
    all_equal = all_equal.renamed("all-sessions-equal");
    const Predicate wc_set =
        Predicate::var_eq(*space, "wc", 1).renamed("wc");
    const Predicate req_set =
        Predicate::var_eq(*space, "req", 1).renamed("req");

    Program system(space, "distributed-reset(n=" + std::to_string(n) + ")");
    system.add_action(
        Action::assign_const(*space, "request", !req_set, "req", 1));
    system.add_action(Action::assign_parallel(
        *space, "start.0", req_set && wc_set,
        {{sn[0], Term::var(*space, sn[0]).plus(1, 3)},
         {wc, Term::constant(0)},
         {req, Term::constant(0)}}));
    for (int i = 1; i < n; ++i) {
        const VarId si = sn[static_cast<std::size_t>(i)];
        const VarId sp_var =
            sn[static_cast<std::size_t>(parent[static_cast<std::size_t>(i)])];
        system.add_action(Action::assign_var(
            *space, "adopt." + std::to_string(i),
            Predicate::vars_ne(*space, si, sp_var)
                .renamed("stale." + std::to_string(i)),
            si, sp_var));
    }
    system.add_action(Action::assign_const(
        *space, "complete.0", all_equal && !wc_set, "wc", 1));

    FaultClass fault(space, "corrupt-session");
    fault.add_action(
        Action::corrupt_any(*space, "corrupt", Predicate::top(), sn));

    // Safety: (i) the witness never lies; (ii) a wave never starts before
    // the previous one completed (sn.0 changes only from all-equal).
    SafetySpec safety = SafetySpec::conjunction(
        {SafetySpec::never((wc_set && !all_equal)
                               .renamed("lying-completion-witness")),
         SafetySpec("no-premature-wave", Predicate::bottom(),
                    [sn, all_equal](const StateSpace& sp, StateIndex from,
                                    StateIndex to) {
                        if (sp.get(from, sn[0]) == sp.get(to, sn[0]))
                            return false;
                        return !all_equal.eval(sp, from);
                    })},
        "SPEC_reset-safety");
    LivenessSpec live;
    // Every request is eventually followed by a completed wave. (The
    // target is wc alone: with back-to-back requests the "no pending
    // request" moment can be dodged forever, but a completion cannot.)
    live.add(LeadsTo{req_set, wc_set});
    ProblemSpec spec("SPEC_reset", std::move(safety), std::move(live));

    Predicate legitimate =
        (all_equal || !wc_set).renamed("witness-truthful");

    return DistributedResetSystem{space,
                                  std::move(parent),
                                  std::move(system),
                                  std::move(fault),
                                  std::move(spec),
                                  all_equal,
                                  wc_set,
                                  (wc_set && !req_set).renamed("wave-served"),
                                  std::move(legitimate),
                                  std::move(sn),
                                  wc,
                                  req};
}

}  // namespace dcft::apps
