// Integer terms over the variables of a state space.
//
// The paper's guards compare values and its statements assign them
// (Section 2.1). A Term is the small expression language both need: a
// constant, a variable, `t + k` (optionally `mod m`), the minimum or
// maximum of terms, and the count `#{v in vars : v = c}` — the threshold
// shape of majority votes and fault budgets. Terms are the operands of
// the comparison atoms of Predicate::compare and the right-hand sides of
// the parallel assignments of Action::assign_parallel; the action-kernel
// compiler (verify/action_kernel.hpp) lowers them to digit-read bytecode.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gc/state_space.hpp"

namespace dcft {

/// An integer-valued expression over the variables of one StateSpace.
///
/// Value-semantic (shared immutable implementation). Every term knows the
/// bounds [lo(), hi()] of its value over all states, computed at
/// construction from the variable domains.
class Term {
public:
    enum class Kind : std::uint8_t {
        kConst,  ///< value()
        kVar,    ///< the value of var()
        kAdd,    ///< operands()[0] + value(), reduced mod modulus() when > 0
        kMin,    ///< the least of operands()
        kMax,    ///< the greatest of operands()
        kCount,  ///< #{v in vars() : v == value()}
    };

    /// The constant 0.
    Term();
    /// The constant c.
    static Term constant(Value c);
    /// The value of variable v.
    static Term var(const StateSpace& space, VarId v);
    /// The least / greatest of `ts` (at least one term).
    static Term min(std::vector<Term> ts);
    static Term max(std::vector<Term> ts);
    /// How many of `vars` currently hold the value c.
    static Term count(const StateSpace& space, std::vector<VarId> vars,
                      Value c);

    /// `*this + k`, or `(*this + k) mod m` (the non-negative residue)
    /// when m > 0.
    Term plus(Value k, Value m = 0) const;

    Value eval(const StateSpace& space, StateIndex s) const;

    Kind kind() const;
    /// kConst: the constant; kAdd: the addend; kCount: the counted value.
    Value value() const;
    /// kAdd: the modulus (0 = none).
    Value modulus() const;
    /// kVar: the variable.
    VarId var() const;
    /// kCount: the counted variables.
    std::span<const VarId> vars() const;
    /// kAdd / kMin / kMax: the operand terms.
    std::span<const Term> operands() const;

    /// Least and greatest value the term takes over every state.
    Value lo() const;
    Value hi() const;

    /// Printable form, e.g. `min(3,(min(dist.0,dist.2)+1))`.
    const std::string& text() const;

private:
    struct Impl;
    static Term extremum(Kind kind, std::vector<Term> ts);
    explicit Term(std::shared_ptr<const Impl> impl) : impl_(std::move(impl)) {}
    std::shared_ptr<const Impl> impl_;
};

}  // namespace dcft
