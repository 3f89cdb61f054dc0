// Whole-space materialization (gc/fill.hpp, eval_bits) and the counting
// atom `#{i : P_i} op k`: the evaluation function generated from the
// atom's fields (Predicate::interpret) is the oracle; the guard bytecode,
// Predicate::eval and the word-algebra fill must agree with it at every
// state, padding bits included.
#include "gc/fill.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "obs/proc_stats.hpp"
#include "verify/action_kernel.hpp"

namespace dcft {
namespace {

using NK = Predicate::NodeKind;

constexpr NK kOps[] = {NK::kTermEq, NK::kTermNe, NK::kTermLt, NK::kTermLe};

/// A random mixed-radix space: 2-5 variables, domains 2-7 (mostly not
/// powers of two), at most a few thousand states.
std::shared_ptr<const StateSpace> random_space(Rng& rng) {
    auto sp = std::make_shared<StateSpace>();
    const std::uint64_t vars = 2 + rng.below(4);
    for (std::uint64_t i = 0; i < vars; ++i)
        sp->add_variable("v" + std::to_string(i),
                         static_cast<Value>(2 + rng.below(6)));
    sp->freeze();
    return sp;
}

/// A random compound operand: an and/or/not over var-vs-const,
/// var-vs-var and term-comparison atoms.
Predicate random_operand(Rng& rng, const StateSpace& sp, int depth) {
    const VarId a = static_cast<VarId>(rng.below(sp.num_vars()));
    const VarId b = static_cast<VarId>(rng.below(sp.num_vars()));
    if (depth > 0 && rng.chance(0.6)) {
        const Predicate l = random_operand(rng, sp, depth - 1);
        const Predicate r = random_operand(rng, sp, depth - 1);
        switch (rng.below(3)) {
            case 0: return l && r;
            case 1: return l || r;
            default: return !l;
        }
    }
    const Value c =
        static_cast<Value>(rng.below(static_cast<std::uint64_t>(
            sp.variable(a).domain_size)));
    switch (rng.below(4)) {
        case 0: return Predicate::var_eq(sp, a, c);
        case 1: return Predicate::var_ne(sp, a, c);
        case 2: return Predicate::vars_ne(sp, a, b);
        default:
            return Predicate::compare(Term::var(sp, a), kOps[rng.below(4)],
                                      Term::var(sp, b).plus(1, 3));
    }
}

/// p's fill (at 1 and 3 threads), eval_bits, guard bytecode and
/// Predicate::eval against Predicate::interpret at every state, and the
/// padding above |space| clear.
void expect_fill_matches_eval(const std::shared_ptr<const StateSpace>& sp,
                              const Predicate& p) {
    const auto cs = compile_space(sp);
    const StateIndex n = sp->num_states();
    BitVec want(n);
    for (StateIndex s = 0; s < n; ++s)
        if (p.interpret(*sp, s)) want.set(s);
    for (const unsigned threads : {1u, 3u}) {
        BitVec got(n);
        fill_guard_bits(*cs, p, got, threads);
        ASSERT_EQ(got, want) << p.name() << " at " << threads << " threads";
    }
    ASSERT_EQ(eval_bits(*sp, p.renamed(p.name())), want) << p.name();
    const GuardCode code(*cs, p);
    for (StateIndex s = 0; s < n; ++s) {
        ASSERT_EQ(code.eval(*cs, s), want.test(s)) << p.name() << " at " << s;
        ASSERT_EQ(p.eval(*sp, s), want.test(s)) << p.name() << " at " << s;
    }
}

TEST(CountingAtomTest, LambdaBytecodeAndFillAgreeOnRandomSpaces) {
    Rng rng(25);
    for (int round = 0; round < 40; ++round) {
        const auto sp = random_space(rng);
        const std::uint64_t operands = 1 + rng.below(9);
        std::vector<Predicate> ps;
        for (std::uint64_t i = 0; i < operands; ++i)
            ps.push_back(random_operand(rng, *sp, 2));
        const Value n = static_cast<Value>(operands);
        for (const NK op : kOps)
            for (Value k = -1; k <= n + 1; ++k)
                expect_fill_matches_eval(sp, Predicate::count(ps, op, k));
    }
}

/// A random predicate over every node kind the fill handles: var/const
/// and var/var atoms, comparisons over count/min/max/+k mod m terms,
/// counting atoms, n-ary and binary connectives, set-backed and opaque
/// leaves.
Predicate random_predicate(Rng& rng, const std::shared_ptr<const StateSpace>& sp,
                           int depth) {
    const StateSpace& s = *sp;
    auto var = [&] { return static_cast<VarId>(rng.below(s.num_vars())); };
    if (depth > 0 && rng.chance(0.5)) {
        std::vector<Predicate> kids;
        const std::uint64_t k = 1 + rng.below(4);
        for (std::uint64_t i = 0; i < k; ++i)
            kids.push_back(random_predicate(rng, sp, depth - 1));
        switch (rng.below(4)) {
            case 0: return Predicate::all_of(kids);
            case 1: return Predicate::any_of(kids);
            case 2: return !kids[0];
            default:
                return Predicate::count(
                    kids, kOps[rng.below(4)],
                    static_cast<Value>(rng.below(k + 3)) - 1);
        }
    }
    const VarId a = var(), b = var();
    const Value c = static_cast<Value>(
        rng.below(static_cast<std::uint64_t>(s.variable(a).domain_size)));
    switch (rng.below(7)) {
        case 0: return Predicate::var_eq(s, a, c);
        case 1: return Predicate::vars_eq(s, a, b);
        case 2:
            return Predicate::compare(Term::count(s, {a, b, var()}, c),
                                      kOps[rng.below(4)],
                                      Term::var(s, b).plus(-1));
        case 3:
            return Predicate::compare(
                Term::min({Term::var(s, a), Term::var(s, b).plus(2, 5)}),
                kOps[rng.below(4)],
                Term::max({Term::var(s, var()), Term::constant(c)}));
        case 4: {
            auto bits = std::make_shared<BitVec>(s.num_states());
            for (StateIndex i = 0; i < s.num_states(); i += 1 + rng.below(97))
                bits->set(i);
            return Predicate::from_bits("backed", bits);
        }
        case 5:
            return Predicate("opaque", [a, c](const StateSpace& sp,
                                              StateIndex i) {
                return (sp.get(i, a) + static_cast<Value>(i % 3)) % 2 == c % 2;
            });
        default: return Predicate::var_ne(s, a, c);
    }
}

TEST(FillTest, MultiBlockSpacesMatchEval) {
    // Spaces of several fill blocks (2^15 states each) with a partial
    // last block, so every fill runs at block offsets other than 0: tile
    // and range digit patterns, level sets, counting levels, backed word
    // copies and opaque scans, at 1 and 3 threads.
    Rng rng(2025);
    for (int round = 0; round < 12; ++round) {
        auto sp = std::make_shared<StateSpace>();
        std::uint64_t states = 1;
        while (sp->num_vars() < 3 || states < 70000) {
            const Value dom = static_cast<Value>(2 + rng.below(8));
            sp->add_variable("v" + std::to_string(sp->num_vars()), dom);
            states *= static_cast<std::uint64_t>(dom);
        }
        sp->freeze();
        for (int i = 0; i < 6; ++i)
            expect_fill_matches_eval(sp, random_predicate(rng, sp, 2));
    }
}

TEST(CountingAtomTest, EvaluationCountsTheHoldingOperands) {
    const auto sp = make_space({Variable{"a", 3, {}}, Variable{"b", 3, {}},
                                Variable{"c", 3, {}}});
    std::vector<Predicate> zero;
    for (VarId v = 0; v < 3; ++v) zero.push_back(Predicate::var_eq(*sp, v, 0));
    const Predicate exactly_one = Predicate::count(zero, NK::kTermEq, 1);
    EXPECT_EQ(exactly_one.name(), "#{a==0,b==0,c==0}==1");
    EXPECT_EQ(exactly_one.node_kind(), NK::kCount);
    EXPECT_EQ(exactly_one.node_count_op(), NK::kTermEq);
    EXPECT_EQ(exactly_one.node_value(), 1);
    EXPECT_EQ(exactly_one.node_operands().size(), 3u);
    for (StateIndex s = 0; s < sp->num_states(); ++s) {
        int zeros = 0;
        for (VarId v = 0; v < 3; ++v) zeros += sp->get(s, v) == 0 ? 1 : 0;
        EXPECT_EQ(exactly_one.eval(*sp, s), zeros == 1) << s;
        EXPECT_EQ(Predicate::count(zero, NK::kTermLt, 2).eval(*sp, s),
                  zeros < 2);
    }
    EXPECT_THROW(Predicate::count({}, NK::kTermEq, 0), ContractError);
    EXPECT_THROW(Predicate::count(zero, NK::kAnd, 0), ContractError);
}

TEST(FillTest, NaryConnectivesAndImplicationFillByWordAlgebra) {
    const auto sp = make_space({Variable{"a", 5, {}}, Variable{"b", 3, {}},
                                Variable{"c", 7, {}}});
    const Predicate a1 = Predicate::var_eq(*sp, 0, 1);
    const Predicate b2 = Predicate::var_ne(*sp, 1, 2);
    const Predicate ac = Predicate::vars_eq(*sp, 0, 2);
    const Predicate all = Predicate::all_of({a1, b2, ac});
    const Predicate any = Predicate::any_of({a1, b2, ac});
    const Predicate imp = implies(a1, ac);
    EXPECT_EQ(all.name(), "(a==1 && b!=2 && a==c)");
    EXPECT_EQ(any.name(), "(a==1 || b!=2 || a==c)");
    EXPECT_EQ(Predicate::all_of({a1}).name(), a1.name());
    const auto cs = compile_space(sp);
    for (const Predicate& p : {all, any, imp}) {
        expect_fill_matches_eval(sp, p);
        BitVec bits(sp->num_states());
        EXPECT_EQ(fill_guard_bits(*cs, p, bits).kcall_ops, 0u) << p.name();
    }
}

TEST(FillTest, OnlyOpaqueSubtreesAreScannedPerState) {
    const auto sp = make_space({Variable{"a", 5, {}}, Variable{"b", 6, {}}});
    const Predicate opaque("odd-sum", [](const StateSpace& s, StateIndex i) {
        return (s.get(i, 0) + s.get(i, 1)) % 2 == 1;
    });
    const Predicate mixed = Predicate::var_eq(*sp, 0, 2) || opaque;
    const auto cs = compile_space(sp);
    BitVec bits(sp->num_states());
    const FillStats word = fill_guard_bits(*cs, mixed, bits);
    EXPECT_EQ(word.kcall_ops, 1u);
    EXPECT_EQ(word.states_scanned, sp->num_states());
    EXPECT_FALSE(word.root_scanned);
    const FillStats scan = fill_guard_bits(*cs, opaque, bits);
    EXPECT_TRUE(scan.root_scanned);
    expect_fill_matches_eval(sp, mixed);
    expect_fill_matches_eval(sp, Predicate::count({opaque, mixed},
                                                  NK::kTermEq, 1));
}

TEST(FillTest, PeakCountsLevelsAndTemporaries) {
    const auto sp = make_space({Variable{"a", 4, {}}, Variable{"b", 4, {}},
                                Variable{"c", 4, {}}});
    const Predicate leaf = Predicate::var_eq(*sp, 0, 1);
    const Predicate pair = Predicate::vars_ne(*sp, 0, 1);
    EXPECT_EQ(fill_peak_bitsets(leaf), 1u);
    EXPECT_EQ(fill_peak_bitsets(pair), 3u);             // out + two digits
    EXPECT_EQ(fill_peak_bitsets(leaf && pair), 4u);     // out + pair's 3
    EXPECT_EQ(fill_peak_bitsets(Predicate::all_of({leaf, leaf, leaf})), 2u);
    // k = 2 keeps levels 0..2 beside the operand's fill.
    EXPECT_EQ(fill_peak_bitsets(Predicate::count({pair, leaf, pair},
                                                 NK::kTermEq, 2)),
              3u + 3u);
    EXPECT_EQ(fill_peak_bitsets(Predicate::count({leaf}, NK::kTermLt, 0)), 1u);
    // Comparison of two count terms: each term's 4 levels, then two
    // temporaries beside both.
    const Term count_a = Term::count(*sp, {0, 1, 2}, 1);
    const Term count_b = Term::count(*sp, {0, 1, 2}, 2);
    EXPECT_EQ(fill_peak_bitsets(Predicate::compare(count_a, NK::kTermLt,
                                                   count_b)),
              1u + 4u + 4u + 2u);
}

TEST(FillTest, TemporariesAreBlockSizedPerWorker) {
    // Every temporary is one block of 2^15 states (4 KiB) per worker,
    // whatever the size of the space; a space smaller than a block pays
    // for its own size only.
    const auto sp = make_space({Variable{"a", 4, {}}, Variable{"b", 4, {}},
                                Variable{"c", 4, {}}});
    const Predicate p = Predicate::count(
        {Predicate::vars_ne(*sp, 0, 1), Predicate::var_eq(*sp, 2, 0)},
        NK::kTermEq, 1);
    const std::uint64_t peak = fill_peak_bitsets(p);
    EXPECT_EQ(peak, 2u + 3u);
    EXPECT_EQ(fill_temp_bytes(64, p, 1), peak * 8);
    EXPECT_EQ(fill_temp_bytes(std::uint64_t{1} << 40, p, 1), peak * 4096);
    EXPECT_EQ(fill_temp_bytes(std::uint64_t{1} << 40, p, 4), 4 * peak * 4096);
}

TEST(FillTest, RefusalCountsTheRememberedBitsAndTheCopy) {
    // A space whose bitset fits in physical RAM once but not twice:
    // eval_bits keeps its fill and returns a copy, so it refuses before
    // allocating, naming the state count and the bitset size.
    const std::uint64_t ram = obs::host_info().total_ram_bytes;
    if (ram == 0) GTEST_SKIP() << "physical RAM unknown";
    auto sp = std::make_shared<StateSpace>();
    std::uint64_t states = 1;
    int i = 0;
    while (states / 8 <= ram / 2)
        sp->add_variable("v" + std::to_string(i++), 2), states *= 2;
    sp->freeze();
    ASSERT_LE(states / 8, ram);
    try {
        eval_bits(*sp, Predicate::var_eq(*sp, 0, 1));
        FAIL() << "expected a refusal";
    } catch (const ContractError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("state space too large: " +
                            std::to_string(states) + " states need a " +
                            std::to_string(states / 8) + "-byte bitset"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("bytes of fill temporaries"), std::string::npos)
            << what;
    }
}

}  // namespace
}  // namespace dcft
