#include "apps/tmr.hpp"

#include <optional>

#include "common/check.hpp"

namespace dcft::apps {
namespace {

/// The majority value among the three inputs, if two or more agree.
std::optional<Value> majority(const StateSpace& sp, StateIndex s, VarId x,
                              VarId y, VarId z) {
    const Value a = sp.get(s, x), b = sp.get(s, y), c = sp.get(s, z);
    if (a == b || a == c) return a;
    if (b == c) return b;
    return std::nullopt;
}

}  // namespace

StateIndex TmrSystem::initial_state(Value value) const {
    StateIndex s = 0;
    s = space->set(s, x_var, value);
    s = space->set(s, y_var, value);
    s = space->set(s, z_var, value);
    s = space->set(s, out_var, bottom);
    return s;
}

TmrSystem make_tmr(Value domain) {
    DCFT_EXPECTS(domain >= 2, "TMR needs at least two input values");

    auto builder = std::make_shared<StateSpace>();
    const VarId x = builder->add_variable("x", domain);
    const VarId y = builder->add_variable("y", domain);
    const VarId z = builder->add_variable("z", domain);
    const VarId out = builder->add_variable("out", domain + 1);
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;
    const Value bottom = domain;

    auto var_equal = [space](VarId a, VarId b, std::string name) {
        return Predicate::vars_eq(*space, a, b).renamed(std::move(name));
    };

    const Predicate out_bot =
        Predicate::var_eq(*space, "out", bottom).renamed("out==bot");
    const Predicate dr_witness =
        (var_equal(x, y, "x==y") || var_equal(x, z, "x==z"))
            .renamed("Z_DR(x==y||x==z)");
    const Predicate all_agree =
        (var_equal(x, y, "x==y") && var_equal(y, z, "y==z"))
            .renamed("x==y==z");
    // The majority ("uncorrupted") value is x when x agrees with y or z,
    // else y when y == z; with no two inputs equal there is none.
    const Predicate x_uncor =
        (var_equal(x, y, "x==y") || var_equal(x, z, "x==z"))
            .renamed("X_DR(x==uncor)");
    const Predicate out_correct =
        ((x_uncor && var_equal(out, x, "out==x")) ||
         (var_equal(y, z, "y==z") && var_equal(out, y, "out==y")))
            .renamed("out==uncor");
    const Predicate invariant =
        (all_agree && (out_bot || var_equal(out, x, "out==x")))
            .renamed("S_tmr");

    // IR :: out = bot --> out := x
    Program ir(space, "IR");
    ir.add_action(Action::assign_var(*space, "IR1", out_bot, out, x));

    // DR has no state-changing actions of its own — it "merely evaluates"
    // its witness predicate; DR ; IR gates IR on that witness.
    Program dr(space, space->empty_varset(), "DR");
    Program failsafe = sequence(dr, dr_witness, ir).renamed("DR;IR");

    // CR: the corrector's actions (witness/correction predicate out==uncor).
    Program cr(space, "CR");
    cr.add_action(Action::assign_var(
        *space, "CR1",
        out_bot && (var_equal(y, z, "y==z") || var_equal(y, x, "y==x")), out,
        y));
    cr.add_action(Action::assign_var(
        *space, "CR2",
        out_bot && (var_equal(z, x, "z==x") || var_equal(z, y, "z==y")), out,
        z));

    Program masking = parallel(failsafe, cr).renamed("DR;IR||CR");

    // Fault: corrupts any one input to any different value; guarded on
    // "all inputs agree" so at most one input is corrupted at a time.
    FaultClass fault(space, "one-input-corruption");
    fault.add_action(
        Action::corrupt_any(*space, "corrupt-input", all_agree, {x, y, z}));

    // SPEC_io: out is only ever set to the majority (uncorrupted) value,
    // and is eventually set to it.
    SafetySpec never_wrong(
        "never-output-corrupted-value", Predicate::bottom(),
        [x, y, z, out](const StateSpace& sp, StateIndex from, StateIndex to) {
            const Value before = sp.get(from, out);
            const Value after = sp.get(to, out);
            if (after == before) return false;
            const auto maj = majority(sp, from, x, y, z);
            return !maj.has_value() || after != *maj;
        });
    LivenessSpec live;
    live.add_eventually(out_correct);
    ProblemSpec spec("SPEC_io", std::move(never_wrong), std::move(live));

    return TmrSystem{space,
                     std::move(ir),
                     std::move(failsafe),
                     std::move(masking),
                     std::move(cr),
                     std::move(fault),
                     std::move(spec),
                     dr_witness,
                     x_uncor,
                     all_agree,
                     out_bot,
                     out_correct,
                     invariant,
                     bottom,
                     x,
                     y,
                     z,
                     out};
}

}  // namespace dcft::apps
