// The alternating-bit protocol: masking tolerant to loss and duplication,
// not tolerant to corruption — channel fault classes meet the paper's
// tolerance taxonomy.
#include "apps/alternating_bit.hpp"

#include <gtest/gtest.h>

#include "runtime/simulator.hpp"
#include "verify/fairness.hpp"
#include "verify/invariant.hpp"
#include "verify/refinement.hpp"
#include "verify/tolerance_checker.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

using apps::AlternatingBitSystem;
using apps::make_alternating_bit;

Predicate start_state(const AlternatingBitSystem& sys) {
    const StateIndex init = sys.initial_state();
    return Predicate("init", [init](const StateSpace&, StateIndex s) {
        return s == init;
    });
}

TEST(AlternatingBitTest, RefinesSpecOverReliableChannels) {
    auto sys = make_alternating_bit();
    const Predicate inv =
        reachable_invariant(sys.protocol, start_state(sys));
    EXPECT_TRUE(refines_spec(sys.protocol, sys.spec, inv).ok);
}

TEST(AlternatingBitTest, PhaseInvariantHoldsOnReachableStates) {
    auto sys = make_alternating_bit();
    const Predicate inv =
        reachable_invariant(sys.protocol, start_state(sys));
    EXPECT_TRUE(implies_everywhere(*sys.space, inv, sys.in_sync));
}

TEST(AlternatingBitTest, MaskingTolerantToMessageLoss) {
    auto sys = make_alternating_bit();
    const Predicate inv =
        reachable_invariant(sys.protocol, start_state(sys));
    const ToleranceReport r =
        check_masking(sys.protocol, sys.loss, sys.spec, inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST(AlternatingBitTest, MaskingTolerantToDuplication) {
    auto sys = make_alternating_bit();
    const Predicate inv =
        reachable_invariant(sys.protocol, start_state(sys));
    const ToleranceReport r =
        check_masking(sys.protocol, sys.duplication, sys.spec, inv);
    EXPECT_TRUE(r.ok()) << r.reason();
}

TEST(AlternatingBitTest, NotEvenFailsafeUnderCorruption) {
    // The classic limit: without checksums (a detector!), a flipped bit
    // makes a retransmission look like a fresh message — duplicate
    // delivery, a safety violation.
    auto sys = make_alternating_bit();
    const Predicate inv =
        reachable_invariant(sys.protocol, start_state(sys));
    const ToleranceReport r =
        check_failsafe(sys.protocol, sys.corruption, sys.spec, inv);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.reason().find("safety violated"), std::string::npos);
}

TEST(AlternatingBitTest, StreamKeepsFlowing) {
    auto sys = make_alternating_bit();
    const Predicate inv =
        reachable_invariant(sys.protocol, start_state(sys));
    const TransitionSystem ts(sys.protocol, nullptr, inv);
    // delivered also advances round the window, not just sent.
    for (Value c = 0; c < sys.window_mod; ++c) {
        EXPECT_TRUE(
            check_leads_to(
                ts, Predicate::var_eq(*sys.space, "delivered", c),
                Predicate::var_eq(*sys.space, "delivered",
                                  (c + 1) % sys.window_mod),
                false)
                .ok)
            << c;
    }
}

TEST(AlternatingBitTest, SimulatedDeliveryUnderHeavyLoss) {
    auto sys = make_alternating_bit();
    RandomScheduler scheduler;
    Simulator sim(sys.protocol, scheduler, 21);
    FaultInjector injector(sys.loss, 0.3, 10);
    sim.set_fault_injector(&injector);
    RunOptions options;
    options.max_steps = 4000;
    options.stop_when = Predicate(
        "wrapped", [sent = sys.sent](const StateSpace& sp, StateIndex s) {
            return sp.get(s, sent) == 3;
        });
    const RunResult run = sim.run(sys.initial_state(), options);
    EXPECT_TRUE(run.stopped_early);  // three messages through, despite loss
    EXPECT_GT(run.fault_steps, 0u);
}

TEST(AlternatingBitTest, ParameterSweep) {
    for (int capacity : {1, 2, 3}) {
        for (int window : {2, 4}) {
            auto sys = make_alternating_bit(capacity, window);
            const Predicate inv =
                reachable_invariant(sys.protocol, start_state(sys));
            EXPECT_TRUE(
                check_masking(sys.protocol, sys.loss, sys.spec, inv).ok())
                << "capacity=" << capacity << " window=" << window;
        }
    }
}

TEST(AlternatingBitTest, BadParametersRejected) {
    EXPECT_THROW(make_alternating_bit(0, 4), ContractError);
    EXPECT_THROW(make_alternating_bit(2, 1), ContractError);
}


TEST(AlternatingBitTest, ChannelGuardsMatchTheOpaqueLambdas) {
    // The channel statements stay opaque (queue shifts); their guards are
    // structured. The oracles are the lambdas they replaced.
    auto sys = make_alternating_bit(2, 3);
    const auto space = sys.space;
    for (const Channel& ch : {sys.data, sys.acks}) {
        const VarId v = ch.var();
        const Predicate empty(ch.name() + ".empty",
                              [v](const StateSpace& sp, StateIndex s) {
                                  return sp.get(s, v) == 0;
                              });
        const Predicate full(ch.name() + ".full",
                             [ch](const StateSpace& sp, StateIndex s) {
                                 return ch.full(sp, s);
                             });
        test::expect_same_guard(space, ch.is_empty(), empty);
        test::expect_same_guard(space, ch.is_full(), full);
        test::expect_same_guard(space, ch.nonempty(), !empty);
        test::expect_same_guard(
            space, ch.duplicate("dup").guard(),
            Predicate(ch.name() + ".nonempty&&!full",
                      [ch](const StateSpace& sp, StateIndex s) {
                          return !ch.empty(sp, s) && !ch.full(sp, s);
                      }));
    }
    for (const Action& a : sys.protocol.actions())
        EXPECT_EQ(GuardCode(*compile_space(space), a.guard()).num_opaque_ops(),
                  0u)
            << a.name();
}

TEST(AlternatingBitMigrationTest, PhaseInvariantMatchesTheOpaqueLambda) {
    const AlternatingBitSystem sys = make_alternating_bit(6, 4);  // catalog
    const VarId sbit = sys.sbit, rbit = sys.rbit, sent = sys.sent,
                delivered = sys.delivered;
    const Value m = 4;
    test::expect_same_guard(
        sys.space, sys.in_sync,
        Predicate("abp-phase-invariant", [=](const StateSpace& sp,
                                             StateIndex s) {
            const bool same = sp.get(s, sbit) == sp.get(s, rbit);
            const Value d = sp.get(s, delivered);
            const Value n = sp.get(s, sent);
            return same ? d == n : d == (n + 1) % m;
        }));
    EXPECT_EQ(sys.in_sync.name(), "abp-phase-invariant");
}

}  // namespace
}  // namespace dcft
