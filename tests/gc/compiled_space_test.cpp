// Differential tests pinning CompiledSpace (multiply/shift mixed-radix
// arithmetic) to StateSpace (plain divmod): for every valid (state, var,
// value), get/set/set_digit/unpack must agree bit-for-bit, across small
// exhaustive spaces, randomized spaces with awkward domain mixes, and a
// >2^32-state space that exercises the non-fast fallback.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "gc/compiled.hpp"
#include "gc/state_space.hpp"

namespace dcft {
namespace {

std::shared_ptr<const StateSpace> space_with_domains(
    const std::vector<Value>& domains) {
    auto builder = std::make_shared<StateSpace>();
    for (std::size_t i = 0; i < domains.size(); ++i)
        builder->add_variable("v" + std::to_string(i), domains[i]);
    builder->freeze();
    return builder;
}

/// Differential check of every CompiledSpace entry point at state s.
void check_state(const StateSpace& sp, const CompiledSpace& cs,
                 StateIndex s) {
    std::vector<Value> digits(cs.num_vars());
    cs.unpack(s, digits);
    for (VarId v = 0; v < cs.num_vars(); ++v) {
        const Value expect = sp.get(s, v);
        ASSERT_EQ(cs.get(s, v), expect) << "get s=" << s << " v=" << v;
        ASSERT_EQ(digits[v], expect) << "unpack s=" << s << " v=" << v;
        // The v-line index is s with digit v cut out.
        const StateIndex stride = cs.stride(v);
        const StateIndex dom = static_cast<StateIndex>(cs.domain(v));
        const StateIndex line = s / (stride * dom) * stride + s % stride;
        ASSERT_EQ(cs.line_index(s, v), line) << "line s=" << s << " v=" << v;
        ASSERT_LT(line, cs.num_states() / dom);
        for (Value c = 0; c < cs.domain(v); ++c) {
            const StateIndex expect_set = sp.set(s, v, c);
            ASSERT_EQ(cs.set(s, v, c), expect_set)
                << "set s=" << s << " v=" << v << " c=" << c;
            ASSERT_EQ(cs.set_digit(s, v, expect, c), expect_set)
                << "set_digit s=" << s << " v=" << v << " c=" << c;
            ASSERT_EQ(cs.line_index(expect_set, v), line)
                << "line of set s=" << s << " v=" << v << " c=" << c;
        }
    }
}

TEST(CompiledSpaceTest, ExhaustiveSmallMixedRadix) {
    // Domains deliberately mix 1 (identity), powers of two (mask path),
    // and odd sizes (magic-multiply path); the top variable exercises the
    // mod-identity shortcut.
    const auto sp = space_with_domains({3, 1, 4, 7, 2, 5});
    const CompiledSpace cs(*sp);
    EXPECT_TRUE(cs.fast());
    ASSERT_EQ(cs.num_states(), sp->num_states());
    for (StateIndex s = 0; s < sp->num_states(); ++s) check_state(*sp, cs, s);
}

TEST(CompiledSpaceTest, StridesMatchDeclarationOrderProducts) {
    const auto sp = space_with_domains({4, 3, 5, 2});
    const CompiledSpace cs(*sp);
    StateIndex expect = 1;
    for (VarId v = 0; v < cs.num_vars(); ++v) {
        EXPECT_EQ(cs.stride(v), expect) << "v=" << v;
        EXPECT_EQ(cs.domain(v), sp->variable(v).domain_size);
        expect *= static_cast<StateIndex>(cs.domain(v));
    }
    EXPECT_EQ(cs.num_states(), expect);
}

TEST(CompiledSpaceTest, RandomizedSpacesDifferential) {
    Rng meta(0xC0DE5EEDULL);
    for (int round = 0; round < 24; ++round) {
        const std::size_t n_vars = 2 + meta.below(7);
        std::vector<Value> domains;
        StateIndex states = 1;
        for (std::size_t i = 0; i < n_vars; ++i) {
            // Weighted mix: tiny domains dominate real models, but keep
            // some large ones so strides stress the 32-bit Lemire bound.
            const Value d = meta.chance(0.15)
                                ? static_cast<Value>(1 + meta.below(2))
                                : static_cast<Value>(2 + meta.below(15));
            if (states * static_cast<StateIndex>(d) > (StateIndex{1} << 22))
                break;
            domains.push_back(d);
            states *= static_cast<StateIndex>(d);
        }
        if (domains.size() < 2) domains = {3, 5};
        const auto sp = space_with_domains(domains);
        const CompiledSpace cs(*sp);
        ASSERT_EQ(cs.num_states(), sp->num_states());

        Rng rng(0xABCD0000ULL + static_cast<std::uint64_t>(round));
        for (int i = 0; i < 512; ++i)
            check_state(*sp, cs, rng.below(sp->num_states()));
        // Boundary states are where stride/carry bugs live.
        check_state(*sp, cs, 0);
        check_state(*sp, cs, sp->num_states() - 1);
    }
}

TEST(CompiledSpaceTest, HugeSpaceFallbackDifferential) {
    // 13^9 ≈ 1.06e10 > 2^32: the Lemire fast path must disengage and the
    // divmod fallback must still agree with StateSpace everywhere probed.
    const auto sp =
        space_with_domains({13, 13, 13, 13, 13, 13, 13, 13, 13});
    const CompiledSpace cs(*sp);
    EXPECT_FALSE(cs.fast());
    ASSERT_EQ(cs.num_states(), sp->num_states());
    Rng rng(0xB16ULL);
    for (int i = 0; i < 256; ++i) {
        const StateIndex s = rng.below(sp->num_states());
        for (VarId v = 0; v < cs.num_vars(); ++v) {
            ASSERT_EQ(cs.get(s, v), sp->get(s, v));
            const Value c = static_cast<Value>(rng.below(13));
            ASSERT_EQ(cs.set(s, v, c), sp->set(s, v, c));
        }
    }
    check_state(*sp, cs, sp->num_states() - 1);
}

TEST(CompiledSpaceTest, CompileSpaceKeepsSpaceAlive) {
    std::shared_ptr<const CompiledSpace> cs;
    {
        auto sp = space_with_domains({3, 4, 5});
        cs = compile_space(sp);
    }  // the only external reference to the space dies here
    EXPECT_EQ(cs->num_states(), 60u);
    EXPECT_EQ(cs->space().num_states(), 60u);
    EXPECT_EQ(cs->get(59, 2), 4);
}

}  // namespace
}  // namespace dcft
