#include "runtime/fault_injector.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> counter_space() {
    return make_space({Variable{"v", 4, {}}});
}

FaultClass bump_fault(std::shared_ptr<const StateSpace> sp) {
    FaultClass f(sp, "F");
    f.add_action(Action::assign_const(
        *sp, "bump", Predicate::var_eq(*sp, "v", 0), "v", 3));
    return f;
}

TEST(FaultInjectorTest, ZeroProbabilityNeverFires) {
    auto sp = counter_space();
    const FaultClass f = bump_fault(sp);
    FaultInjector inj(f, 0.0, 100);
    Rng rng(1);
    for (std::size_t step = 0; step < 100; ++step)
        EXPECT_FALSE(inj.maybe_inject(*sp, 0, step, rng).has_value());
    EXPECT_EQ(inj.faults_injected(), 0u);
}

TEST(FaultInjectorTest, CertainProbabilityFiresWhenEnabled) {
    auto sp = counter_space();
    const FaultClass f = bump_fault(sp);
    FaultInjector inj(f, 1.0, 100);
    Rng rng(1);
    const auto hit = inj.maybe_inject(*sp, 0, 0, rng);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(sp->get(*hit, 0), 3);
    EXPECT_EQ(inj.faults_injected(), 1u);
}

TEST(FaultInjectorTest, DisabledFaultDoesNotFire) {
    auto sp = counter_space();
    const FaultClass f = bump_fault(sp);
    FaultInjector inj(f, 1.0, 100);
    Rng rng(1);
    // Fault guard requires v == 0; state v == 1 disables it.
    EXPECT_FALSE(inj.maybe_inject(*sp, 1, 0, rng).has_value());
}

TEST(FaultInjectorTest, BudgetIsRespected) {
    auto sp = counter_space();
    FaultClass f(sp, "F");
    f.add_action(
        Action::assign_const(*sp, "any", Predicate::top(), "v", 2));
    FaultInjector inj(f, 1.0, 3);
    Rng rng(1);
    std::size_t fired = 0;
    for (std::size_t step = 0; step < 50; ++step)
        if (inj.maybe_inject(*sp, 0, step, rng)) ++fired;
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(inj.faults_injected(), 3u);
}

TEST(FaultInjectorTest, ResetRestoresBudget) {
    auto sp = counter_space();
    FaultClass f(sp, "F");
    f.add_action(
        Action::assign_const(*sp, "any", Predicate::top(), "v", 2));
    FaultInjector inj(f, 1.0, 1);
    Rng rng(1);
    EXPECT_TRUE(inj.maybe_inject(*sp, 0, 0, rng).has_value());
    EXPECT_FALSE(inj.maybe_inject(*sp, 0, 1, rng).has_value());
    inj.reset();
    EXPECT_TRUE(inj.maybe_inject(*sp, 0, 2, rng).has_value());
}

TEST(FaultInjectorTest, ScriptedFaultFiresAtItsStep) {
    auto sp = counter_space();
    const FaultClass f = bump_fault(sp);
    FaultInjector inj(f, 0.0, 10);
    inj.schedule(5, 0);
    Rng rng(1);
    for (std::size_t step = 0; step < 5; ++step)
        EXPECT_FALSE(inj.maybe_inject(*sp, 0, step, rng).has_value());
    const auto hit = inj.maybe_inject(*sp, 0, 5, rng);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(sp->get(*hit, 0), 3);
}

TEST(FaultInjectorTest, ScheduleOutOfRangeThrows) {
    auto sp = counter_space();
    const FaultClass f = bump_fault(sp);
    FaultInjector inj(f, 0.0, 10);
    EXPECT_THROW(inj.schedule(1, 7), ContractError);
}

TEST(FaultInjectorTest, NondeterministicFaultPicksSomeBranch) {
    auto sp = counter_space();
    FaultClass f(sp, "F");
    f.add_action(Action::nondet(
        "fork", Predicate::top(),
        [](const StateSpace& space, StateIndex s,
           std::vector<StateIndex>& out) {
            out.push_back(space.set(s, 0, 1));
            out.push_back(space.set(s, 0, 2));
        }));
    FaultInjector inj(f, 1.0, 100);
    Rng rng(7);
    bool saw1 = false, saw2 = false;
    for (std::size_t step = 0; step < 100; ++step) {
        const auto hit = inj.maybe_inject(*sp, 0, step, rng);
        ASSERT_TRUE(hit.has_value());
        if (sp->get(*hit, 0) == 1) saw1 = true;
        if (sp->get(*hit, 0) == 2) saw2 = true;
    }
    EXPECT_TRUE(saw1);
    EXPECT_TRUE(saw2);
}

TEST(FaultInjectorTest, EnabledFaultWithoutSuccessorIsNamed) {
    // stick-y is enabled everywhere but has no successor at y == 0. Random
    // and scripted injection both raise the same named ContractError.
    auto sp = make_space({Variable{"y", 2, {}}});
    FaultClass f(sp, "F");
    f.add_action(Action::set_any(*sp, "stick-y", Predicate::top(), {0}, 0));
    const auto expect_named = [&](FaultInjector& inj) {
        Rng rng(1);
        try {
            inj.maybe_inject(*sp, 0, 0, rng);
            FAIL() << "expected a ContractError";
        } catch (const ContractError& e) {
            EXPECT_NE(std::string(e.what()).find(
                          "enabled action 'stick-y' produced no successor"),
                      std::string::npos)
                << e.what();
        }
    };
    FaultInjector random(f, 1.0, 10);
    expect_named(random);
    FaultInjector scripted(f, 0.0, 10);
    scripted.schedule(0, 0);
    expect_named(scripted);
}

}  // namespace
}  // namespace dcft
