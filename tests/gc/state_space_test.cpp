#include "gc/state_space.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> small_space() {
    return make_space({Variable{"a", 2, {}}, Variable{"b", 3, {}},
                       Variable{"c", 5, {}}});
}

TEST(StateSpaceTest, NumStatesIsDomainProduct) {
    auto sp = small_space();
    EXPECT_EQ(sp->num_states(), 2u * 3u * 5u);
    EXPECT_EQ(sp->num_vars(), 3u);
}

TEST(StateSpaceTest, EncodeDecodeRoundTrip) {
    auto sp = small_space();
    for (Value a = 0; a < 2; ++a)
        for (Value b = 0; b < 3; ++b)
            for (Value c = 0; c < 5; ++c) {
                const std::vector<Value> values{a, b, c};
                const StateIndex s = sp->encode(values);
                EXPECT_EQ(sp->decode(s), values);
            }
}

TEST(StateSpaceTest, EncodeIsBijective) {
    auto sp = small_space();
    std::vector<bool> seen(sp->num_states(), false);
    for (Value a = 0; a < 2; ++a)
        for (Value b = 0; b < 3; ++b)
            for (Value c = 0; c < 5; ++c) {
                const StateIndex s = sp->encode({{a, b, c}});
                ASSERT_LT(s, sp->num_states());
                EXPECT_FALSE(seen[s]);
                seen[s] = true;
            }
}

TEST(StateSpaceTest, GetReadsEncodedValue) {
    auto sp = small_space();
    const StateIndex s = sp->encode({{1, 2, 4}});
    EXPECT_EQ(sp->get(s, 0), 1);
    EXPECT_EQ(sp->get(s, 1), 2);
    EXPECT_EQ(sp->get(s, 2), 4);
}

TEST(StateSpaceTest, SetUpdatesOneVariableOnly) {
    auto sp = small_space();
    const StateIndex s = sp->encode({{1, 2, 4}});
    const StateIndex t = sp->set(s, 1, 0);
    EXPECT_EQ(sp->get(t, 0), 1);
    EXPECT_EQ(sp->get(t, 1), 0);
    EXPECT_EQ(sp->get(t, 2), 4);
    // Original state is unchanged (value semantics).
    EXPECT_EQ(sp->get(s, 1), 2);
}

TEST(StateSpaceTest, SetToSameValueIsIdentity) {
    auto sp = small_space();
    const StateIndex s = sp->encode({{0, 1, 3}});
    EXPECT_EQ(sp->set(s, 2, 3), s);
}

TEST(StateSpaceTest, SetOutOfDomainThrows) {
    auto sp = small_space();
    EXPECT_THROW(sp->set(0, 0, 2), ContractError);
    EXPECT_THROW(sp->set(0, 0, -1), ContractError);
}

TEST(StateSpaceTest, FindByName) {
    auto sp = small_space();
    EXPECT_EQ(sp->find("a"), 0u);
    EXPECT_EQ(sp->find("c"), 2u);
    EXPECT_TRUE(sp->has_variable("b"));
    EXPECT_FALSE(sp->has_variable("zz"));
    EXPECT_THROW(sp->find("zz"), ContractError);
}

TEST(StateSpaceTest, DuplicateVariableNameRejected) {
    StateSpace sp;
    sp.add_variable("x", 2);
    EXPECT_THROW(sp.add_variable("x", 3), ContractError);
}

TEST(StateSpaceTest, EmptyDomainRejected) {
    StateSpace sp;
    EXPECT_THROW(sp.add_variable("x", 0), ContractError);
}

TEST(StateSpaceTest, UseBeforeFreezeRejected) {
    StateSpace sp;
    sp.add_variable("x", 2);
    EXPECT_THROW(sp.num_states(), ContractError);
    EXPECT_THROW(sp.get(0, 0), ContractError);
}

TEST(StateSpaceTest, AddAfterFreezeRejected) {
    StateSpace sp;
    sp.add_variable("x", 2);
    sp.freeze();
    EXPECT_THROW(sp.add_variable("y", 2), ContractError);
    EXPECT_THROW(sp.freeze(), ContractError);
}

TEST(StateSpaceTest, OverflowingSpaceRejected) {
    StateSpace sp;
    sp.add_variable("v0", 1'000'000'000);
    sp.add_variable("v1", 1'000'000'000);
    EXPECT_THROW(sp.add_variable("v2", 1'000'000'000), ContractError);
}

TEST(StateSpaceTest, ProjectionAgreesWithVarEquality) {
    auto sp = small_space();
    const VarSet ab = sp->varset({"a", "b"});
    for (StateIndex s = 0; s < sp->num_states(); ++s)
        for (StateIndex t = 0; t < sp->num_states(); ++t) {
            const bool same_ab =
                sp->get(s, 0) == sp->get(t, 0) && sp->get(s, 1) == sp->get(t, 1);
            EXPECT_EQ(sp->project(s, ab) == sp->project(t, ab), same_ab);
        }
}

TEST(StateSpaceTest, ProjectionOntoFullSetIsInjective) {
    auto sp = small_space();
    const VarSet all = sp->full_varset();
    for (StateIndex s = 0; s < sp->num_states(); ++s)
        EXPECT_EQ(sp->project(s, all), s);
}

TEST(StateSpaceTest, ProjectionOntoEmptySetIsConstant) {
    auto sp = small_space();
    const VarSet none = sp->empty_varset();
    for (StateIndex s = 0; s < sp->num_states(); ++s)
        EXPECT_EQ(sp->project(s, none), 0u);
}

TEST(StateSpaceTest, FormatUsesValueNames) {
    auto sp = make_space({Variable{"flag", 0, {"off", "on"}},
                          Variable{"n", 3, {}}});
    const StateIndex s = sp->encode({{1, 2}});
    EXPECT_EQ(sp->format(s), "{flag=on, n=2}");
}

TEST(VarSetTest, BasicMembership) {
    VarSet vs(4);
    EXPECT_EQ(vs.count(), 0u);
    vs.add(1);
    vs.add(3);
    EXPECT_TRUE(vs.contains(1));
    EXPECT_FALSE(vs.contains(0));
    EXPECT_EQ(vs.count(), 2u);
    EXPECT_EQ(vs.members(), (std::vector<VarId>{1, 3}));
}

TEST(VarSetTest, UnionAndComplement) {
    VarSet a(3), b(3);
    a.add(0);
    b.add(2);
    const VarSet u = a.unioned(b);
    EXPECT_TRUE(u.contains(0));
    EXPECT_FALSE(u.contains(1));
    EXPECT_TRUE(u.contains(2));
    const VarSet c = u.complement();
    EXPECT_FALSE(c.contains(0));
    EXPECT_TRUE(c.contains(1));
}

TEST(VarSetTest, AddOutOfRangeThrows) {
    VarSet vs(2);
    EXPECT_THROW(vs.add(2), ContractError);
}

}  // namespace
}  // namespace dcft
