// Oracle checks for catalog actions rewritten from opaque lambdas to the
// structured guarded-command forms. Each app test keeps the lambda it
// replaced as the oracle; these helpers compare the structured guard and
// statement against it at every state of an instance, through both the
// interpreted path (Predicate::interpret, Action::successors) and the
// compiled ones (Predicate::eval and GuardCode, fill_guard_bits and
// eval_bits, CompiledAction).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "gc/action.hpp"
#include "gc/compiled.hpp"
#include "verify/action_kernel.hpp"

namespace dcft::test {

/// The structured predicate equals the oracle at every state —
/// interpreted, as bytecode (Predicate::eval and a GuardCode on the
/// kernel's space) and as a whole-space bitset, filled by word
/// algebra alone (eval_bits on a fresh copy, so its memo is empty) — and
/// compiles with no kCall.
inline void expect_same_guard(const std::shared_ptr<const StateSpace>& space,
                              const Predicate& got, const Predicate& oracle) {
    const auto cs = compile_space(space);
    const GuardCode code(*cs, got);
    EXPECT_EQ(code.num_opaque_ops(), 0u) << got.name();
    BitVec bits(space->num_states());
    const FillStats stats = fill_guard_bits(*cs, got, bits);
    EXPECT_EQ(stats.kcall_ops, 0u) << got.name();
    EXPECT_EQ(eval_bits(*space, got.renamed(got.name())), bits) << got.name();
    for (StateIndex s = 0; s < space->num_states(); ++s) {
        const bool want = oracle.eval(*space, s);
        ASSERT_EQ(got.interpret(*space, s), want) << got.name() << " at " << s;
        ASSERT_EQ(got.eval(*space, s), want) << got.name() << " at " << s;
        ASSERT_EQ(code.eval(*cs, s), want) << got.name() << " at " << s;
        ASSERT_EQ(bits.test(s), want) << got.name() << " bits at " << s;
    }
}

/// The structured action has the oracle's guard and, at every state the
/// oracle enables, the oracle's successor sequence — interpreted and
/// compiled. Its statement must be structured (not kGeneric).
inline void expect_same_action(const std::shared_ptr<const StateSpace>& space,
                               const Action& got, const Action& oracle) {
    EXPECT_NE(got.effect_form().kind, Action::EffectForm::Kind::kGeneric)
        << got.name();
    expect_same_guard(space, got.guard(), oracle.guard());
    const CompiledAction compiled(compile_space(space), got);
    std::vector<StateIndex> want, interpreted, kernel;
    for (StateIndex s = 0; s < space->num_states(); ++s) {
        if (!oracle.enabled(*space, s)) continue;
        want.clear();
        interpreted.clear();
        kernel.clear();
        oracle.successors(*space, s, want);
        got.successors(*space, s, interpreted);
        compiled.successors(s, kernel);
        ASSERT_EQ(interpreted, want) << got.name() << " at " << s;
        ASSERT_EQ(kernel, want) << got.name() << " compiled at " << s;
    }
}

}  // namespace dcft::test
