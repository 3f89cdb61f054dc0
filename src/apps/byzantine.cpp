#include "apps/byzantine.hpp"

#include "common/check.hpp"

namespace dcft::apps {
namespace {

constexpr Value kBot = 2;  // d/out domain: {0, 1, bot}

/// The majority decision among the non-general d values as a term: 1 iff
/// #{d = 1} > floor(|d| / 2), i.e. min(1, max(0, #{d = 1} - floor)). Bot
/// abstains; a 0 majority, a tie and no majority all decide 0 (the classic
/// OM-style deterministic default: a tie needs an even number of voters, a
/// Byzantine general and f = 1, and then every process sees the same tie).
Term majority_term(const StateSpace& sp, const std::vector<VarId>& d) {
    const Value threshold = static_cast<Value>(d.size()) / 2;
    return Term::min(
        {Term::constant(1),
         Term::max({Term::constant(0),
                    Term::count(sp, d, 1).plus(-threshold)})});
}

/// No d value is bot: #{d = bot} = 0.
Predicate none_bot(const StateSpace& sp, const std::vector<VarId>& d) {
    return Predicate::compare(Term::count(sp, d, kBot),
                              Predicate::NodeKind::kTermEq,
                              Term::constant(0));
}

Predicate witness_pred(const StateSpace& sp, const std::vector<VarId>& dvars,
                       VarId dj, int j) {
    return (none_bot(sp, dvars) &&
            Predicate::compare(Term::var(sp, dj),
                               Predicate::NodeKind::kTermEq,
                               majority_term(sp, dvars)))
        .renamed("W." + std::to_string(j));
}

}  // namespace

Predicate ByzantineSystem::witness(int j) const {
    DCFT_EXPECTS(j >= 1 && j < num_processes, "witness: bad process index");
    return witness_pred(*space, d, d[static_cast<std::size_t>(j - 1)], j);
}

Predicate ByzantineSystem::detection(int j) const {
    DCFT_EXPECTS(j >= 1 && j < num_processes, "detection: bad process index");
    const StateSpace& sp = *space;
    const VarId dj = d[static_cast<std::size_t>(j - 1)];
    // corrdecn = d.g if !b.g, else the majority decision of the d.k.
    return Predicate::any_of(
               {Predicate::var_eq(sp, b_g, 0) && Predicate::vars_eq(sp, dj, d_g),
                Predicate::var_ne(sp, b_g, 0) &&
                    Predicate::compare(Term::var(sp, dj),
                                       Predicate::NodeKind::kTermEq,
                                       majority_term(sp, d))})
        .renamed("X." + std::to_string(j) + "(d.j==corrdecn)");
}

StateIndex ByzantineSystem::initial_state(Value general_decision) const {
    DCFT_EXPECTS(general_decision == 0 || general_decision == 1,
                 "general decision must be binary");
    StateIndex s = 0;
    s = space->set(s, d_g, general_decision);
    for (VarId v : d) s = space->set(s, v, kBot);
    for (VarId v : out) s = space->set(s, v, kBot);
    return s;  // all b flags are 0 by construction
}

ByzantineSystem make_byzantine(int n, int f) {
    DCFT_EXPECTS(n >= 2, "need a general and at least one non-general");
    DCFT_EXPECTS(f >= 0, "f must be nonnegative");

    auto builder = std::make_shared<StateSpace>();
    const VarId d_g = builder->add_variable("d.g", 2);
    const VarId b_g = builder->add_variable("b.g", 2);
    std::vector<VarId> d, out, b;
    for (int j = 1; j < n; ++j) {
        d.push_back(builder->add_variable("d." + std::to_string(j), 3));
        out.push_back(builder->add_variable("out." + std::to_string(j), 3));
        b.push_back(builder->add_variable("b." + std::to_string(j), 2));
    }
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;

    // Structured b-flag test (kVarEqConst): compiles to a word-level guard
    // bitset in the verifier. The display name is unchanged.
    auto honest = [&space](VarId bvar, const std::string& who) {
        return Predicate::var_eq(*space, bvar, 0).renamed("!b." + who);
    };

    // --- BYZ: arbitrary behaviour of processes whose b flag is set. ---
    // Modeled as program actions (the paper composes BYZ.j in parallel); a
    // Byzantine process rewrites its decision to 0/1 (a decision — never
    // back to bot) and its output to anything, including revoking it.
    Program byz(space, "BYZ");
    byz.add_action(Action::assign_choice(*space, "BYZ.g:d", !honest(b_g, "g"),
                                         d_g, {0, 1}));
    for (int j = 1; j < n; ++j) {
        const VarId dj = d[static_cast<std::size_t>(j - 1)];
        const VarId oj = out[static_cast<std::size_t>(j - 1)];
        const VarId bj = b[static_cast<std::size_t>(j - 1)];
        const std::string js = std::to_string(j);
        byz.add_action(Action::assign_choice(*space, "BYZ." + js + ":d",
                                             !honest(bj, js), dj, {0, 1}));
        byz.add_action(Action::assign_choice(*space, "BYZ." + js + ":out",
                                             !honest(bj, js), oj,
                                             {0, 1, kBot}));
    }

    // --- IB: the intolerant agreement program. ---
    Program ib(space, "IB");
    std::vector<Action> ib2_actions;  // kept for gating below
    for (int j = 1; j < n; ++j) {
        const VarId dj = d[static_cast<std::size_t>(j - 1)];
        const VarId oj = out[static_cast<std::size_t>(j - 1)];
        const VarId bj = b[static_cast<std::size_t>(j - 1)];
        const std::string js = std::to_string(j);
        Predicate hon = honest(bj, js);
        ib.add_action(Action::assign_var(
            *space, "IB1." + js,
            hon && Predicate::var_eq(*space, "d." + js, kBot), dj, d_g));
        Action ib2 = Action::assign_var(
            *space, "IB2." + js,
            hon && Predicate::var_ne(*space, "d." + js, kBot) &&
                Predicate::var_eq(*space, "out." + js, kBot),
            oj, dj);
        ib.add_action(ib2);
        ib2_actions.push_back(std::move(ib2));
    }

    // --- Fail-safe: gate each IB2.j with the witness of DB.j; masking
    // additionally adds the corrector actions CB1.j. ---
    Program failsafe_core(space, "IB+DB");
    Program masking_core(space, "IB+DB+CB");
    for (int j = 1; j < n; ++j) {
        const VarId dj = d[static_cast<std::size_t>(j - 1)];
        const VarId bj = b[static_cast<std::size_t>(j - 1)];
        const std::string js = std::to_string(j);
        Predicate hon = honest(bj, js);
        Predicate w = witness_pred(*space, d, dj, j);

        // IB1.j is part of DB.j's implementation (it establishes
        // d.k != bot at the neighbours); it stays as-is.
        failsafe_core.add_action(ib.action_named("IB1." + js));
        masking_core.add_action(ib.action_named("IB1." + js));

        Action gated =
            ib2_actions[static_cast<std::size_t>(j - 1)].restricted(w);
        failsafe_core.add_action(gated);
        masking_core.add_action(gated);

        // CB1.j :: all d non-bot /\ d.j != majority --> d.j := majority.
        const Term majority = majority_term(*space, d);
        const Predicate cb_guard =
            (none_bot(*space, d) &&
             Predicate::compare(Term::var(*space, dj),
                                Predicate::NodeKind::kTermNe, majority))
                .renamed("cb-guard." + js);
        masking_core.add_action(Action::assign_parallel(
            *space, "CB1." + js, hon && cb_guard, {{dj, majority}}));
    }

    Program intolerant = parallel(ib, byz).renamed("IB||BYZ");
    Program failsafe = parallel(failsafe_core, byz).renamed("DB;IB||BYZ");
    Program masking = parallel(masking_core, byz).renamed("DB;IB||CB||BYZ");

    // --- Fault: flip some b flag, at most f flips in total. ---
    std::vector<VarId> all_b = b;
    all_b.push_back(b_g);
    const Predicate under_budget =
        Predicate::compare(Term::count(*space, all_b, 1),
                           Predicate::NodeKind::kTermLt, Term::constant(f))
            .renamed("byz-count<" + std::to_string(f));
    FaultClass fault(space, "byzantine-fault(f=" + std::to_string(f) + ")");
    fault.add_action(Action::assign_const(
        *space, "BYZ-flip.g", under_budget && honest(b_g, "g"), "b.g", 1));
    for (int j = 1; j < n; ++j) {
        const std::string js = std::to_string(j);
        fault.add_action(Action::assign_const(
            *space, "BYZ-flip." + js,
            under_budget && honest(b[static_cast<std::size_t>(j - 1)], js),
            "b." + js, 1));
    }

    // --- SPEC_byz. ---
    std::vector<Predicate> honest_flags, honest_output;
    for (const VarId v : all_b)
        honest_flags.push_back(Predicate::var_eq(*space, v, 0));
    for (std::size_t i = 0; i < out.size(); ++i)
        honest_output.push_back(Predicate::var_ne(*space, b[i], 0) ||
                                Predicate::var_ne(*space, out[i], kBot));
    Predicate no_byzantine =
        Predicate::all_of(std::move(honest_flags)).renamed("no-byzantine");
    Predicate all_honest_output = Predicate::all_of(std::move(honest_output))
                                      .renamed("all-honest-output");
    const auto outv = out;
    const auto bv = b;
    SafetySpec safety(
        "byz-safety(validity&&agreement&&finality)", Predicate::bottom(),
        [outv, bv, d_g, b_g](const StateSpace& sp, StateIndex from,
                             StateIndex to) {
            for (std::size_t i = 0; i < outv.size(); ++i) {
                if (sp.get(from, bv[i]) != 0) continue;  // Byzantine: exempt
                const Value before = sp.get(from, outv[i]);
                const Value after = sp.get(to, outv[i]);
                if (after == before) continue;
                // finality: a non-Byzantine output, once set, never changes.
                if (before != kBot) return true;
                // validity: with an honest general, only d.g may be output.
                if (sp.get(from, b_g) == 0 && after != sp.get(from, d_g))
                    return true;
                // agreement: never differ from another honest output.
                for (std::size_t k = 0; k < outv.size(); ++k) {
                    if (k == i || sp.get(from, bv[k]) != 0) continue;
                    const Value other = sp.get(from, outv[k]);
                    if (other != kBot && other != after) return true;
                }
            }
            return false;
        });
    LivenessSpec live;
    live.add_eventually(all_honest_output);
    ProblemSpec spec("SPEC_byz", std::move(safety), std::move(live));

    return ByzantineSystem{space,
                           n,
                           f,
                           std::move(intolerant),
                           std::move(failsafe),
                           std::move(masking),
                           std::move(fault),
                           std::move(spec),
                           std::move(no_byzantine),
                           std::move(all_honest_output),
                           d_g,
                           b_g,
                           std::move(d),
                           std::move(out),
                           std::move(b)};
}

}  // namespace dcft::apps
