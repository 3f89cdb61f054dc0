#include "apps/termination_detection.hpp"

#include "common/check.hpp"

namespace dcft::apps {
namespace {

constexpr Value kWhite = 0;
constexpr Value kBlack = 1;

}  // namespace

StateIndex TerminationDetectionSystem::initial_state(
    std::vector<bool> active) const {
    DCFT_EXPECTS(static_cast<int>(active.size()) == n,
                 "one activity flag per process");
    StateIndex s = 0;
    for (int i = 0; i < n; ++i) {
        s = space->set(s, active_var[static_cast<std::size_t>(i)],
                       active[static_cast<std::size_t>(i)] ? 1 : 0);
        s = space->set(s, colour_var[static_cast<std::size_t>(i)], kBlack);
    }
    s = space->set(s, token_var, 0);
    s = space->set(s, tcolour_var, kBlack);
    s = space->set(s, done_var, 0);
    return s;
}

TerminationDetectionSystem make_termination_detection(int n) {
    DCFT_EXPECTS(n >= 2, "need at least two processes");

    auto builder = std::make_shared<StateSpace>();
    std::vector<VarId> active, colour;
    for (int i = 0; i < n; ++i)
        active.push_back(
            builder->add_variable("active." + std::to_string(i), 2));
    for (int i = 0; i < n; ++i)
        colour.push_back(builder->add_variable(
            "colour." + std::to_string(i), {"white", "black"}));
    const VarId token = builder->add_variable("token", n);
    const VarId tcolour =
        builder->add_variable("tcolour", {"white", "black"});
    const VarId done = builder->add_variable("done", 2);
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;

    Program system(space, "termination-detection(n=" + std::to_string(n) +
                              ")");

    // --- The underlying diffusing computation. ---
    for (int i = 0; i < n; ++i) {
        const VarId ai = active[static_cast<std::size_t>(i)];
        const VarId ci = colour[static_cast<std::size_t>(i)];
        const std::string is = std::to_string(i);
        const Predicate is_active =
            Predicate::var_eq(*space, ai, 1).renamed("active." + is);
        system.add_action(
            Action::assign_const(*space, "passify." + is, is_active,
                                 "active." + is, 0));
        // Activate any other process; the sender turns black.
        std::vector<std::vector<Action::EffectForm::Assignment>> activations;
        for (int j = 0; j < n; ++j)
            if (j != i)
                activations.push_back(
                    {{active[static_cast<std::size_t>(j)], Term::constant(1)},
                     {ci, Term::constant(kBlack)}});
        system.add_action(Action::choose_parallel(
            *space, "activate." + is, is_active, std::move(activations)));
    }

    // --- The DFG probe. ---
    for (int i = 1; i < n; ++i) {
        const VarId ai = active[static_cast<std::size_t>(i)];
        const VarId ci = colour[static_cast<std::size_t>(i)];
        const std::string is = std::to_string(i);
        const Predicate holds_token_passive =
            (Predicate::var_eq(*space, token, i) &&
             Predicate::var_eq(*space, ai, 0))
                .renamed("token@" + is + "&&passive");
        // The token moves on; a black process blackens it
        // (tcolour := max(tcolour, colour.i)) and turns white.
        system.add_action(Action::assign_parallel(
            *space, "pass." + is, holds_token_passive,
            {{token, Term::constant(i - 1)},
             {tcolour, Term::max({Term::var(*space, tcolour),
                                  Term::var(*space, ci)})},
             {ci, Term::constant(kWhite)}}));
    }
    {
        const VarId a0 = active[0];
        const VarId c0 = colour[0];
        const Predicate at_initiator =
            (Predicate::var_eq(*space, token, 0) &&
             Predicate::var_eq(*space, a0, 0))
                .renamed("token@0&&passive");
        const Predicate probe_white =
            (Predicate::var_eq(*space, tcolour, kWhite) &&
             Predicate::var_eq(*space, c0, kWhite))
                .renamed("probe-white");
        const Predicate not_done =
            Predicate::var_eq(*space, done, 0).renamed("!done");
        system.add_action(Action::assign_const(
            *space, "judge.0", at_initiator && probe_white && not_done,
            "done", 1));
        system.add_action(Action::assign_parallel(
            *space, "retry.0", at_initiator && !probe_white,
            {{token, Term::constant(n - 1)},
             {tcolour, Term::constant(kWhite)},
             {c0, Term::constant(kWhite)}}));
    }

    // --- Fault: the environment re-activates a passive process. ---
    FaultClass fault(space, "spurious-activation");
    Predicate some_passive = Predicate::var_eq(*space, active[0], 0);
    for (std::size_t i = 1; i < active.size(); ++i)
        some_passive = some_passive || Predicate::var_eq(*space, active[i], 0);
    fault.add_action(Action::set_any(*space, "spuriously-activate",
                                     some_passive.renamed("some-passive"),
                                     active, 1));

    std::vector<Predicate> passive;
    for (const VarId a : active)
        passive.push_back(Predicate::var_eq(*space, a, 0));
    Predicate all_passive =
        Predicate::all_of(std::move(passive)).renamed("all-passive");
    Predicate done_pred =
        Predicate::var_eq(*space, "done", 1).renamed("done");

    // Any activity pattern.
    std::vector<Predicate> start{Predicate::var_eq(*space, token, 0),
                                 Predicate::var_eq(*space, tcolour, kBlack),
                                 Predicate::var_eq(*space, done, 0)};
    for (const VarId c : colour)
        start.push_back(Predicate::var_eq(*space, c, kBlack));
    Predicate initial = Predicate::all_of(std::move(start)).renamed("initial");

    return TerminationDetectionSystem{space,
                                      n,
                                      std::move(system),
                                      std::move(fault),
                                      std::move(all_passive),
                                      std::move(done_pred),
                                      std::move(initial),
                                      std::move(active),
                                      std::move(colour),
                                      token,
                                      tcolour,
                                      done};
}

}  // namespace dcft::apps
