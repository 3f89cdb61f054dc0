// Differential tests pinning the compiled exploration path (GuardCode
// bytecode, guard bitsets, stride-delta effects) to the interpreted
// Action/Predicate path. Every (state, action) of each system must agree
// on enabledness AND produce the identical successor sequence — order
// included — since the verifier's witness traces and the simulator's
// schedules both depend on successor order.
//
// Systems covered: token ring (structured guards/effects), Byzantine
// agreement (term comparisons, counts and parallel assignments), random
// term atoms and parallel statements on small spaces, and randomized
// guarded-command programs over >= 10k-state spaces that deliberately
// blend compilable forms with opaque lambdas (kCall / kGeneric
// fallbacks).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/barrier.hpp"
#include "apps/byzantine.hpp"
#include "apps/token_ring.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "gc/compiled.hpp"
#include "gc/state_space.hpp"
#include "verify/action_kernel.hpp"

namespace dcft {
namespace {

/// Compares the compiled action set against the interpreted actions at
/// every state (or a dense random sample when the space is larger than
/// `exhaustive_limit`): guard verdicts, guard bitsets, per-action
/// successor sequences, and whole-set successor sequences.
void expect_differential(const Program& program,
                         StateIndex exhaustive_limit = 1u << 17) {
    const auto space = program.space_ptr();
    const CompiledActionSet compiled(space, program.actions());
    compiled.ensure_guard_bits();

    const StateIndex n = space->num_states();
    Rng rng(0xD1FFULL + n);
    const bool exhaustive = n <= exhaustive_limit;
    const StateIndex probes = exhaustive ? n : exhaustive_limit;

    std::vector<StateIndex> got, want;
    for (StateIndex i = 0; i < probes; ++i) {
        const StateIndex s = exhaustive ? i : rng.below(n);
        // Whole-set order must match Program::successors exactly.
        got.clear();
        want.clear();
        compiled.successors(s, got);
        program.successors(s, want);
        ASSERT_EQ(got, want) << "program successors diverge at s=" << s;

        for (std::size_t a = 0; a < program.num_actions(); ++a) {
            const Action& ia = program.action(a);
            const CompiledAction& ca = compiled[a];
            const bool enabled = ia.guard().eval(*space, s);
            ASSERT_EQ(ca.enabled(s), enabled)
                << program.name() << "/" << ia.name() << " guard at s=" << s;
            ASSERT_EQ(ca.guard_bits().test(s), enabled)
                << program.name() << "/" << ia.name()
                << " guard bitset at s=" << s;
            if (!enabled) continue;
            got.clear();
            want.clear();
            ca.successors(s, got);
            ia.successors(*space, s, want);
            ASSERT_EQ(got, want)
                << program.name() << "/" << ia.name()
                << " successors diverge at s=" << s;
        }
    }
}

TEST(ActionKernelTest, TokenRingDifferential) {
    // 6^6 = 46656 states (>= 10k), fully structured: every guard should
    // compile without kCall fallbacks.
    auto sys = apps::make_token_ring(6, 6);
    const CompiledActionSet compiled(sys.ring.space_ptr(),
                                     sys.ring.actions());
    for (std::size_t a = 0; a < compiled.size(); ++a)
        EXPECT_TRUE(compiled[a].guard_fully_compiled())
            << sys.ring.action(a).name();
    expect_differential(sys.ring);
}

TEST(ActionKernelTest, TokenRingFaultDifferential) {
    auto sys = apps::make_token_ring(5, 5);
    // FaultClass actions go through the same compiled path.
    Program as_program(sys.ring.space_ptr(), "corrupt-as-program");
    for (const Action& a : sys.corrupt_any.actions())
        as_program.add_action(a);
    expect_differential(as_program);
}

TEST(ActionKernelTest, ByzantineDifferential) {
    // n=4: 4 * 18^3 = 23328 states (>= 10k); witnesses and correctors are
    // count/min/max term comparisons and parallel assignments, b-flag
    // guards are var==const leaves.
    auto sys = apps::make_byzantine(4, 1);
    expect_differential(sys.masking);
    expect_differential(sys.intolerant);
    Program faults(sys.space, "byz-faults-as-program");
    for (const Action& a : sys.byzantine_fault.actions())
        faults.add_action(a);
    expect_differential(faults);
}

TEST(ActionKernelTest, SetAnyDifferential) {
    // Barrier's flip-witness fault: set_any over the witness flags under an
    // or-of-var_eq guard — a guard bitset plus stride arithmetic, with no
    // kCall fallback.
    auto sys = apps::make_barrier(8);
    Program as_program(sys.space, "flip-witness-as-program");
    for (const Action& a : sys.corrupt_witness.actions())
        as_program.add_action(a);
    const CompiledActionSet compiled(sys.space, as_program.actions());
    ASSERT_EQ(compiled[0].effect_form().kind,
              Action::EffectForm::Kind::kSetAny);
    EXPECT_TRUE(compiled[0].guard_fully_compiled());
    expect_differential(as_program);
    // Only the flags that differ from the value are set, in order.
    const Action& flip = sys.corrupt_witness.actions()[0];
    const VarId w1 = sys.space->find("w.1");
    const VarId w3 = sys.space->find("w.3");
    StateIndex s = 0;
    for (const VarId v : flip.effect_form().vars) s = sys.space->set(s, v, 1);
    s = sys.space->set(sys.space->set(s, w1, 0), w3, 0);
    std::vector<StateIndex> succ;
    flip.successors(*sys.space, s, succ);
    EXPECT_EQ(succ, (std::vector<StateIndex>{sys.space->set(s, w1, 1),
                                             sys.space->set(s, w3, 1)}));
}

/// A random term of nesting depth <= `depth`: every Term kind, with
/// negative addends and constants so bounds and residues are exercised.
Term random_term(Rng& rng, const StateSpace& sp, int depth) {
    const VarId v = rng.below(sp.num_vars());
    switch (depth <= 0 ? rng.below(2) : rng.below(6)) {
        case 0:
            return Term::constant(static_cast<Value>(rng.below(7)) - 1);
        case 1:
            return Term::var(sp, v);
        case 2: {
            const Value m =
                rng.chance(0.5) ? 0 : static_cast<Value>(2 + rng.below(4));
            return random_term(rng, sp, depth - 1)
                .plus(static_cast<Value>(rng.below(7)) - 3, m);
        }
        case 3:
        case 4: {
            std::vector<Term> ts;
            const std::size_t k = 1 + rng.below(3);
            for (std::size_t i = 0; i < k; ++i)
                ts.push_back(random_term(rng, sp, depth - 1));
            return rng.chance(0.5) ? Term::min(std::move(ts))
                                   : Term::max(std::move(ts));
        }
        default: {
            std::vector<VarId> vars;
            const std::size_t k = 1 + rng.below(sp.num_vars());
            for (std::size_t i = 0; i < k; ++i)
                vars.push_back(rng.below(sp.num_vars()));
            return Term::count(sp, std::move(vars),
                               static_cast<Value>(rng.below(4)));
        }
    }
}

/// A random parallel assignment to 1-3 distinct variables; a term whose
/// bounds leave the variable's domain is reduced mod the domain.
std::vector<Action::EffectForm::Assignment> random_assignments(
    Rng& rng, const StateSpace& sp) {
    std::vector<Action::EffectForm::Assignment> out;
    const std::size_t k = 1 + rng.below(3);
    for (std::size_t i = 0; i < k; ++i) {
        const VarId v = rng.below(sp.num_vars());
        bool dup = false;
        for (const auto& a : out) dup = dup || a.var == v;
        if (dup) continue;
        const Value dom = sp.variable(v).domain_size;
        Term t = random_term(rng, sp, 2);
        if (t.lo() < 0 || t.hi() >= dom) t = t.plus(0, dom);
        out.push_back({v, std::move(t)});
    }
    return out;
}

/// Random guarded-command program over a >= 10k-state space. Mixes every
/// structured effect form with opaque guards and generic effects so the
/// differential covers fallback seams, not just the fast paths.
Program random_program(std::uint64_t seed) {
    Rng rng(seed);
    // 4 variables, domains in [3, 10]; resample until >= 10k states.
    std::vector<Value> domains;
    StateIndex states = 0;
    while (states < 10000) {
        domains.clear();
        states = 1;
        for (int i = 0; i < 4; ++i) {
            const Value d = static_cast<Value>(3 + rng.below(8));
            domains.push_back(d);
            states *= static_cast<StateIndex>(d);
        }
    }
    auto builder = std::make_shared<StateSpace>();
    for (std::size_t i = 0; i < domains.size(); ++i)
        builder->add_variable("v" + std::to_string(i), domains[i]);
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;

    auto random_guard = [&]() -> Predicate {
        const VarId a = rng.below(4), b = rng.below(4);
        const Value ca = static_cast<Value>(
            rng.below(static_cast<std::uint64_t>(domains[a])));
        switch (rng.below(8)) {
            case 0: return Predicate::top();
            case 1: return Predicate::var_eq(*space, a, ca);
            case 2: return Predicate::var_ne(*space, a, ca);
            case 3: return Predicate::vars_eq(*space, a, b);
            case 4: return Predicate::vars_ne(*space, a, b);
            case 5:
                return Predicate::var_eq(*space, a, ca) ||
                       Predicate::vars_ne(*space, a, b);
            case 6:
                return Predicate::compare(
                    Term::count(*space, {a, b}, ca), Predicate::NodeKind::kTermLt,
                    Term::max({Term::var(*space, b), Term::constant(1)}));
            default:
                // Opaque: structurally invisible, forces kCall fallback.
                return Predicate(
                    "opaque", [a, ca](const StateSpace& sp, StateIndex s) {
                        return (sp.get(s, a) + 1) % 3 !=
                               static_cast<Value>(ca % 3);
                    });
        }
    };

    Program p(space, "random-" + std::to_string(seed));
    const std::size_t num_actions = 4 + rng.below(5);
    for (std::size_t i = 0; i < num_actions; ++i) {
        const std::string name = "a" + std::to_string(i);
        Predicate g = random_guard();
        if (rng.chance(0.3)) g = g && random_guard();
        if (rng.chance(0.2)) g = !g;
        const VarId tv = rng.below(4);
        const Value dom = domains[tv];
        const Value tc =
            static_cast<Value>(rng.below(static_cast<std::uint64_t>(dom)));
        switch (rng.below(9)) {
            case 0:
                p.add_action(Action::assign_const(
                    *space, name, std::move(g), "v" + std::to_string(tv),
                    tc));
                break;
            case 1:
                p.add_action(Action::assign_var(*space, name, std::move(g),
                                                tv, rng.below(4)));
                break;
            case 2:
                p.add_action(Action::assign_add_mod(
                    *space, name, std::move(g), tv, tv,
                    static_cast<Value>(1 + rng.below(3)), dom));
                break;
            case 3:
                p.add_action(Action::assign_choice(
                    *space, name, std::move(g), tv,
                    {0, tc, static_cast<Value>(dom - 1)}));
                break;
            case 4:
                p.add_action(Action::corrupt_any(*space, name, std::move(g),
                                                 {tv, rng.below(4)}));
                break;
            case 5:
                p.add_action(Action::skip(name, std::move(g)));
                break;
            case 6:
            case 7: {
                // Parallel assignment (one branch) or a choice of them.
                const std::size_t n_branches = tv == 0 ? 1 : 1 + rng.below(3);
                std::vector<std::vector<Action::EffectForm::Assignment>> bs;
                for (std::size_t k = 0; k < n_branches; ++k)
                    bs.push_back(random_assignments(rng, *space));
                p.add_action(Action::choose_parallel(*space, name,
                                                     std::move(g),
                                                     std::move(bs)));
                break;
            }
            default:
                // Generic effect: opaque value computation (kGeneric).
                p.add_action(Action::assign(
                    *space, name, std::move(g), "v" + std::to_string(tv),
                    [tv, dom](const StateSpace& sp, StateIndex s) {
                        return (sp.get(s, tv) * 2 + 1) % dom;
                    }));
                break;
        }
    }
    return p;
}

class ActionKernelRandomTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ActionKernelRandomTest, RandomProgramDifferential) {
    expect_differential(random_program(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActionKernelRandomTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

TEST(ActionKernelTest, GuardBitsMatchPerStateEval) {
    // fill_guard_bits word-algebra (periodic fills, tile replication, word
    // and/or/not) against a plain per-state scan, on guards chosen to hit
    // every lowering: small-stride var==c (tile path), top-variable var==c
    // (range path), connectives, and an opaque leaf.
    auto sys = apps::make_token_ring(6, 6);
    const auto space = sys.ring.space_ptr();
    const auto cs = compile_space(space);
    const std::vector<Predicate> guards = {
        Predicate::var_eq(*space, VarId{0}, 3),
        Predicate::var_eq(*space, VarId{5}, 2),
        Predicate::vars_eq(*space, VarId{0}, VarId{5}),
        Predicate::var_ne(*space, VarId{2}, 0) &&
            Predicate::vars_ne(*space, VarId{1}, VarId{3}),
        !Predicate::var_eq(*space, VarId{4}, 1),
        Predicate::var_eq(*space, VarId{1}, 1) ||
            Predicate("odd-sum",
                      [](const StateSpace& sp, StateIndex s) {
                          Value sum = 0;
                          for (VarId v = 0; v < sp.num_vars(); ++v)
                              sum += sp.get(s, v);
                          return sum % 2 == 1;
                      }),
    };
    BitVec bits(space->num_states());
    for (const Predicate& g : guards) {
        fill_guard_bits(*cs, g, bits);
        for (StateIndex s = 0; s < space->num_states(); ++s)
            ASSERT_EQ(bits.test(s), g.eval(*space, s))
                << g.name() << " at s=" << s;
    }
}

/// Small space for the term tests: three short domains plus one wider
/// than the per-value set budget of fill_guard_bits (64 values), so
/// comparisons hit the per-value algebra, the var-vs-const union and the
/// bytecode-scan fallback.
std::shared_ptr<const StateSpace> term_space() {
    auto builder = std::make_shared<StateSpace>();
    builder->add_variable("a", 3);
    builder->add_variable("b", 4);
    builder->add_variable("c", 5);
    builder->add_variable("big", 70);
    builder->freeze();
    return builder;
}

/// GuardCode::eval == Predicate::eval and fill_guard_bits == eval_bits at
/// every state of the space.
void expect_guard_agrees(const std::shared_ptr<const StateSpace>& space,
                         const Predicate& g) {
    const auto cs = compile_space(space);
    const GuardCode code(*cs, g);
    ASSERT_EQ(code.num_opaque_ops(), 0u) << g.name();
    BitVec bits(space->num_states());
    fill_guard_bits(*cs, g, bits);
    EXPECT_EQ(bits, eval_bits(*space, g)) << g.name();
    for (StateIndex s = 0; s < space->num_states(); ++s)
        ASSERT_EQ(code.eval(*cs, s), g.eval(*space, s))
            << g.name() << " at s=" << s;
}

TEST(ActionKernelTest, TermAtomsMatchPredicateEval) {
    const auto space = term_space();
    const StateSpace& sp = *space;
    using NK = Predicate::NodeKind;
    const NK ops[] = {NK::kTermEq, NK::kTermNe, NK::kTermLt, NK::kTermLe};
    const Term a = Term::var(sp, 0), b = Term::var(sp, 1);
    const Term c = Term::var(sp, 2), big = Term::var(sp, 3);
    // Every term kind, each fill path: per-value sets (small terms), the
    // direct union (big vs a constant, either side), the scan (big vs a
    // variable, a wide shifted term).
    const std::vector<std::pair<Term, Term>> fixed = {
        {a, Term::constant(1)},
        {Term::constant(2), c},
        {big, Term::constant(40)},
        {Term::constant(65), big},
        {big, c},
        {big.plus(3), Term::constant(10)},
        {b.plus(2), c},
        {b.plus(3, 4), a.plus(-1, 3)},
        {Term::min({Term::constant(3), Term::min({a, b}).plus(1)}), c},
        {Term::max({Term::constant(2), b, c}), c},
        {Term::count(sp, {0, 1, 2}, 1), Term::constant(1)},
        {Term::count(sp, {0, 1, 2}, 2), Term::count(sp, {1, 2}, 0)},
        {Term::min({Term::constant(1),
                    Term::max({Term::constant(0),
                               Term::count(sp, {0, 1, 2}, 1).plus(-1)})}),
         a},
    };
    for (const auto& [x, y] : fixed)
        for (const NK op : ops)
            expect_guard_agrees(space, Predicate::compare(x, op, y));
    // Random atoms, also under connectives with the classic leaves.
    Rng rng(0x7E45ULL);
    for (int i = 0; i < 60; ++i) {
        const NK op = ops[rng.below(4)];
        Predicate g = Predicate::compare(random_term(rng, sp, 2), op,
                                         random_term(rng, sp, 2));
        if (rng.chance(0.3)) g = g && Predicate::var_ne(sp, VarId{1}, 2);
        if (rng.chance(0.3)) g = !g || Predicate::vars_eq(sp, 0, 1);
        expect_guard_agrees(space, g);
    }
}

TEST(ActionKernelTest, ParallelAssignmentsMatchInterpretedEffects) {
    const auto space = term_space();
    const StateSpace& sp = *space;
    const auto cs = compile_space(space);
    Rng rng(0xA551ULL);
    std::vector<StateIndex> got, want;
    for (int i = 0; i < 40; ++i) {
        std::vector<std::vector<Action::EffectForm::Assignment>> branches;
        const std::size_t k = 1 + rng.below(3);
        for (std::size_t j = 0; j < k; ++j)
            branches.push_back(random_assignments(rng, sp));
        const Predicate guard = Predicate::compare(
            random_term(rng, sp, 1), Predicate::NodeKind::kTermLe,
            random_term(rng, sp, 1));
        const Action act = k == 1 && rng.chance(0.5)
                               ? Action::assign_parallel(sp, "p", guard,
                                                         branches[0])
                               : Action::choose_parallel(sp, "p", guard,
                                                         branches);
        ASSERT_EQ(act.effect_form().kind, Action::EffectForm::Kind::kParallel);
        const CompiledAction compiled(cs, act);
        for (StateIndex s = 0; s < sp.num_states(); ++s) {
            ASSERT_EQ(compiled.enabled(s), act.enabled(sp, s));
            if (!act.enabled(sp, s)) continue;
            got.clear();
            want.clear();
            compiled.successors(s, got);
            act.successors(sp, s, want);
            ASSERT_EQ(got, want) << "action " << i << " at s=" << s;
        }
    }
}

TEST(ActionKernelTest, ParallelAssignmentReadsThePreState) {
    // a, b := b, a and c := c + a: every right-hand side sees the state
    // before the statement, in both the interpreted and compiled paths.
    const auto space = term_space();
    const StateSpace& sp = *space;
    const Action swap = Action::choose_parallel(
        sp, "swap", Predicate::top(),
        {{{0, Term::var(sp, 1).plus(0, 3)}, {1, Term::var(sp, 0)}},
         {{2, Term::var(sp, 2).plus(0, 5)}, {0, Term::constant(2)},
          {3, Term::var(sp, 0).plus(Term::var(sp, 2).hi())}}});
    StateIndex s = 0;
    s = sp.set(s, 0, 1);
    s = sp.set(s, 1, 2);
    s = sp.set(s, 2, 3);
    StateIndex swapped = sp.set(sp.set(s, 0, 2), 1, 1);
    StateIndex second = sp.set(sp.set(s, 0, 2), 3, 1 + 4);
    std::vector<StateIndex> got;
    swap.successors(sp, s, got);
    EXPECT_EQ(got, (std::vector<StateIndex>{swapped, second}));
    got.clear();
    CompiledAction(compile_space(space), swap).successors(s, got);
    EXPECT_EQ(got, (std::vector<StateIndex>{swapped, second}));
    // A term that may leave the target's domain is refused.
    EXPECT_THROW(Action::assign_parallel(sp, "bad", Predicate::top(),
                                         {{0, Term::var(sp, 1)}}),
                 ContractError);
    EXPECT_THROW(Action::assign_parallel(
                     sp, "twice", Predicate::top(),
                     {{0, Term::constant(1)}, {0, Term::constant(2)}}),
                 ContractError);
}

}  // namespace
}  // namespace dcft
