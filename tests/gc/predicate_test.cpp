#include "gc/predicate.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/check.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> space2x3() {
    return make_space({Variable{"a", 2, {}}, Variable{"b", 3, {}}});
}

TEST(PredicateTest, TopAndBottom) {
    auto sp = space2x3();
    for (StateIndex s = 0; s < sp->num_states(); ++s) {
        EXPECT_TRUE(Predicate::top().eval(*sp, s));
        EXPECT_FALSE(Predicate::bottom().eval(*sp, s));
    }
    EXPECT_EQ(Predicate::top().name(), "true");
    EXPECT_EQ(Predicate::bottom().name(), "false");
}

TEST(PredicateTest, DefaultConstructedIsTop) {
    auto sp = space2x3();
    Predicate p;
    EXPECT_TRUE(p.eval(*sp, 0));
}

TEST(PredicateTest, VarEq) {
    auto sp = space2x3();
    const Predicate p = Predicate::var_eq(*sp, "b", 2);
    for (StateIndex s = 0; s < sp->num_states(); ++s)
        EXPECT_EQ(p.eval(*sp, s), sp->get(s, 1) == 2);
}

TEST(PredicateTest, VarEqOutOfDomainThrows) {
    auto sp = space2x3();
    EXPECT_THROW(Predicate::var_eq(*sp, "b", 3), ContractError);
    EXPECT_THROW(Predicate::var_eq(*sp, "nope", 0), ContractError);
}

TEST(PredicateTest, BooleanAlgebraIsPointwise) {
    auto sp = space2x3();
    const Predicate a = Predicate::var_eq(*sp, "a", 1);
    const Predicate b = Predicate::var_eq(*sp, "b", 0);
    for (StateIndex s = 0; s < sp->num_states(); ++s) {
        const bool av = a.eval(*sp, s), bv = b.eval(*sp, s);
        EXPECT_EQ((a && b).eval(*sp, s), av && bv);
        EXPECT_EQ((a || b).eval(*sp, s), av || bv);
        EXPECT_EQ((!a).eval(*sp, s), !av);
        EXPECT_EQ(implies(a, b).eval(*sp, s), !av || bv);
    }
}

TEST(PredicateTest, DeMorgan) {
    auto sp = space2x3();
    const Predicate a = Predicate::var_eq(*sp, "a", 0);
    const Predicate b = Predicate::var_eq(*sp, "b", 1);
    EXPECT_TRUE(equivalent(*sp, !(a && b), (!a) || (!b)));
    EXPECT_TRUE(equivalent(*sp, !(a || b), (!a) && (!b)));
}

TEST(PredicateTest, ImpliesEverywhere) {
    auto sp = space2x3();
    const Predicate narrow =
        Predicate::var_eq(*sp, "a", 1) && Predicate::var_eq(*sp, "b", 1);
    const Predicate wide = Predicate::var_eq(*sp, "a", 1);
    EXPECT_TRUE(implies_everywhere(*sp, narrow, wide));
    EXPECT_FALSE(implies_everywhere(*sp, wide, narrow));
    EXPECT_TRUE(implies_everywhere(*sp, Predicate::bottom(), narrow));
    EXPECT_TRUE(implies_everywhere(*sp, narrow, Predicate::top()));
}

TEST(PredicateTest, CountSatisfying) {
    auto sp = space2x3();
    EXPECT_EQ(count_satisfying(*sp, Predicate::top()), 6u);
    EXPECT_EQ(count_satisfying(*sp, Predicate::bottom()), 0u);
    EXPECT_EQ(count_satisfying(*sp, Predicate::var_eq(*sp, "a", 0)), 3u);
    EXPECT_EQ(count_satisfying(*sp, Predicate::var_ne(*sp, "b", 1)), 4u);
}

TEST(PredicateTest, NamesComposeReadably) {
    auto sp = space2x3();
    const Predicate a = Predicate::var_eq(*sp, "a", 0);
    EXPECT_EQ(a.name(), "a==0");
    EXPECT_EQ((!a).name(), "!a==0");
    EXPECT_EQ((a && a).name(), "(a==0 && a==0)");
    EXPECT_EQ(a.renamed("fresh").name(), "fresh");
}

TEST(PredicateTest, RenamedPreservesSemantics) {
    auto sp = space2x3();
    const Predicate a = Predicate::var_eq(*sp, "a", 0);
    EXPECT_TRUE(equivalent(*sp, a, a.renamed("other")));
}

TEST(PredicateTest, NullFunctionRejected) {
    EXPECT_THROW(Predicate("bad", nullptr), ContractError);
}

/// An opaque predicate that counts its evaluations.
Predicate counting(std::shared_ptr<std::atomic<std::uint64_t>> calls) {
    return Predicate("odd-b", [calls](const StateSpace& sp, StateIndex s) {
        calls->fetch_add(1, std::memory_order_relaxed);
        return sp.get(s, 1) % 2 == 1;
    });
}

TEST(PredicateTest, EvalBitsMemoHitReturnsIdenticalBits) {
    auto sp = space2x3();
    auto calls = std::make_shared<std::atomic<std::uint64_t>>(0);
    const Predicate p = counting(calls);
    const BitVec first = eval_bits(*sp, p);
    EXPECT_EQ(calls->load(), sp->num_states());
    const Predicate copy = p;  // copies share the memo slot
    EXPECT_EQ(eval_bits(*sp, copy, 4), first);
    EXPECT_EQ(calls->load(), sp->num_states());  // no second scan
    for (StateIndex s = 0; s < sp->num_states(); ++s)
        EXPECT_EQ(first.test(s), p.eval(*sp, s));
    // renamed() builds a fresh implementation with an empty slot.
    calls->store(0);
    EXPECT_EQ(eval_bits(*sp, p.renamed("again")), first);
    EXPECT_EQ(calls->load(), sp->num_states());
}

TEST(PredicateTest, EvalBitsMemoIsKeyedBySpaceUid) {
    auto sp = space2x3();
    // A copy is extensionally the same space under a fresh uid, and a
    // wider space differs outright: neither may be served the slot of sp.
    auto twin = std::make_shared<StateSpace>(*sp);
    auto wide = make_space({Variable{"a", 2, {}}, Variable{"b", 5, {}}});
    ASSERT_NE(twin->uid(), sp->uid());
    auto calls = std::make_shared<std::atomic<std::uint64_t>>(0);
    const Predicate p = counting(calls);
    const BitVec on_sp = eval_bits(*sp, p);
    const BitVec on_wide = eval_bits(*wide, p);
    EXPECT_EQ(on_wide.size_bits(), wide->num_states());
    for (StateIndex s = 0; s < wide->num_states(); ++s)
        EXPECT_EQ(on_wide.test(s), wide->get(s, 1) % 2 == 1);
    EXPECT_EQ(eval_bits(*twin, p), on_sp);
    EXPECT_EQ(calls->load(), 2 * sp->num_states() + wide->num_states());
    // The slot holds the last space only: sp is scanned again.
    EXPECT_EQ(eval_bits(*sp, p), on_sp);
    EXPECT_EQ(calls->load(), 3 * sp->num_states() + wide->num_states());
}

TEST(PredicateTest, EvalBitsMemoIsThreadSafe) {
    auto sp = make_space({Variable{"a", 64, {}}, Variable{"b", 64, {}}});
    auto calls = std::make_shared<std::atomic<std::uint64_t>>(0);
    const Predicate p = counting(calls);
    constexpr int kThreads = 8;
    std::vector<BitVec> got(kThreads);
    std::vector<std::thread> workers;
    for (int i = 0; i < kThreads; ++i)
        workers.emplace_back([&, i] { got[i] = eval_bits(*sp, p, 2); });
    for (auto& w : workers) w.join();
    for (int i = 1; i < kThreads; ++i) EXPECT_EQ(got[i], got[0]);
    EXPECT_EQ(got[0].popcount(), sp->num_states() / 2);
    EXPECT_EQ(calls->load(), sp->num_states());  // one shared scan
}

/// Predicate::eval against Predicate::interpret at every state of sp.
void expect_eval_matches_interpret(const StateSpace& sp, const Predicate& p) {
    for (StateIndex s = 0; s < sp.num_states(); ++s)
        ASSERT_EQ(p.eval(sp, s), p.interpret(sp, s)) << p.name() << " at " << s;
}

TEST(PredicateEvalTest, BytecodeMatchesTheEvaluationFunction) {
    // Leaf runs (connectives and counting atoms over variable atoms only),
    // short-circuit jumps over mixed operands, and a set-backed leaf.
    auto sp = make_space({Variable{"a", 3, {}}, Variable{"b", 5, {}},
                          Variable{"c", 2, {}}, Variable{"d", 3, {}}});
    const Predicate a1 = Predicate::var_eq(*sp, "a", 1);
    const Predicate b4 = Predicate::var_ne(*sp, "b", 4);
    const Predicate ad = Predicate::vars_eq(*sp, 0, 3);
    const Predicate bc = Predicate::vars_ne(*sp, 1, 2);
    auto bits = std::make_shared<BitVec>(sp->num_states());
    for (StateIndex s = 0; s < sp->num_states(); s += 7) bits->set(s);
    const Predicate backed = Predicate::from_bits("every-7th", bits);
    const Predicate lt = Predicate::compare(
        Term::var(*sp, 1), Predicate::NodeKind::kTermLt,
        Term::var(*sp, 0).plus(1, 3));
    for (const Predicate& p :
         {Predicate::all_of({a1, b4, ad, bc}), Predicate::any_of({a1, b4, ad}),
          Predicate::count({a1, b4, ad, bc}, Predicate::NodeKind::kTermEq, 2),
          Predicate::count({a1, bc}, Predicate::NodeKind::kTermLe, 0),
          Predicate::all_of({a1 || lt, !backed, Predicate::any_of({ad, bc})}),
          Predicate::any_of({a1 && b4, lt, backed && !bc}),
          Predicate::count({a1 && b4, lt, backed, ad},
                           Predicate::NodeKind::kTermNe, 1),
          implies(lt, a1 || (ad && !b4))})
        expect_eval_matches_interpret(*sp, p);
}

TEST(PredicateEvalTest, TooDeepForBytecodeFallsBackToTheFunction) {
    auto sp = space2x3();
    const Predicate a1 = Predicate::var_eq(*sp, "a", 1);
    // A counting atom over 70 compound operands needs 70 stack slots, more
    // than the bytecode's 64: it compiles to a call of itself, which eval
    // must not run (that would recurse forever).
    std::vector<Predicate> ops(70, !a1);
    expect_eval_matches_interpret(
        *sp, Predicate::count(ops, Predicate::NodeKind::kTermEq, 70));
    // A term nested 70 deep does not compile at all.
    Term t = Term::var(*sp, 1);
    for (int i = 0; i < 70; ++i) t = Term::min({Term::var(*sp, 0), t});
    expect_eval_matches_interpret(
        *sp, Predicate::compare(t, Predicate::NodeKind::kTermEq,
                                Term::constant(0)));
}

TEST(PredicateEvalTest, AnotherSpaceUsesTheFunction) {
    // The bytecode is compiled for the first space a predicate is
    // evaluated in; a copy of that space has a fresh uid and is served by
    // the evaluation function, with the same answers.
    auto sp = space2x3();
    const StateSpace copy = *sp;
    ASSERT_NE(copy.uid(), sp->uid());
    const Predicate p = Predicate::all_of(
        {Predicate::var_ne(*sp, "a", 0), Predicate::var_ne(*sp, "b", 1)});
    for (StateIndex s = 0; s < sp->num_states(); ++s) {
        ASSERT_EQ(p.eval(*sp, s), p.interpret(*sp, s));
        ASSERT_EQ(p.eval(copy, s), p.interpret(copy, s));
    }
}

TEST(PredicateEvalTest, FirstEvaluationsRaceSafely) {
    auto sp = make_space({Variable{"a", 64, {}}, Variable{"b", 64, {}}});
    const Predicate p = Predicate::count(
        {Predicate::var_eq(*sp, "a", 3), Predicate::vars_eq(*sp, 0, 1),
         Predicate::var_ne(*sp, "b", 5)},
        Predicate::NodeKind::kTermEq, 1);
    constexpr int kThreads = 8;
    std::vector<std::uint64_t> held(kThreads, 0);
    std::vector<std::thread> workers;
    for (int i = 0; i < kThreads; ++i)
        workers.emplace_back([&, i] {
            for (StateIndex s = 0; s < sp->num_states(); ++s)
                held[i] += p.eval(*sp, s) ? 1 : 0;
        });
    for (auto& w : workers) w.join();
    std::uint64_t want = 0;
    for (StateIndex s = 0; s < sp->num_states(); ++s)
        want += p.interpret(*sp, s) ? 1 : 0;
    for (int i = 0; i < kThreads; ++i) EXPECT_EQ(held[i], want);
}

}  // namespace
}  // namespace dcft
