// Bytecode for structured predicates and terms.
//
// A structured Predicate (or Term) lowers to a small postfix program over
// the digit reads of a CompiledSpace: no std::function dispatch, and each
// variable read is a multiply/shift instead of the two divides of
// StateSpace::get. Predicate::eval runs a predicate's bytecode, compiled on
// first use; the action kernel (verify/action_kernel.hpp) runs its guards'
// bytecode on the exploration's CompiledSpace. Opaque subtrees become kCall
// ops that invoke their own evaluation function; set-backed leaves test
// their bits.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitvec.hpp"
#include "gc/compiled.hpp"
#include "gc/predicate.hpp"
#include "gc/term.hpp"

namespace dcft {

/// Postfix bytecode for one Term: digit reads and integer arithmetic on a
/// small value stack, no std::function dispatch.
class TermCode {
public:
    /// Compiles t. Throws ContractError when the term nests deeper than
    /// the value stack (kMaxStack).
    explicit TermCode(const Term& t);

    /// The value of the term at state s.
    Value eval(const CompiledSpace& cs, StateIndex s) const {
        // Single-op terms (a variable or a constant) skip the stack.
        if (ops_.size() == 1) {
            if (ops_[0].k == Op::K::kVar) return cs.get(s, ops_[0].var);
            if (ops_[0].k == Op::K::kConst) return ops_[0].value;
        }
        return eval_stack(cs, s);
    }

private:
    struct Op {
        enum class K : std::uint8_t {
            kConst,  ///< push value
            kVar,    ///< push the digit of var
            kAdd,    ///< top += value
            kMod,    ///< top = non-negative residue of top mod value
            kMin,    ///< pop two, push the lesser
            kMax,    ///< pop two, push the greater
            kCount,  ///< push #{v in count_vars_[begin, end) : v == value}
        };
        K k;
        VarId var = 0;
        Value value = 0;
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    static constexpr int kMaxStack = 64;

    Value eval_stack(const CompiledSpace& cs, StateIndex s) const;

    std::vector<Op> ops_;
    std::vector<VarId> count_vars_;
};

/// Postfix bytecode for one guard predicate. Compiled from the structural
/// metadata of a Predicate; opaque subtrees become kCall ops.
class GuardCode {
public:
    /// Compiles p. Every structured node lowers to a dedicated op; kOpaque
    /// (and pathological nesting deeper than the eval stack) lowers to
    /// kCall on the subtree, which simply invokes Predicate::eval.
    GuardCode(const CompiledSpace& cs, const Predicate& p);

    /// Evaluates the guard at state s without std::function dispatch on
    /// any structured node.
    bool eval(const CompiledSpace& cs, StateIndex s) const {
        return eval(cs, cs.space(), s);
    }
    /// The same, with kCall ops evaluated against `space` (the space cs
    /// was built from, or one with its uid).
    bool eval(const CompiledSpace& cs, const StateSpace& space,
              StateIndex s) const;

    /// The program is a single kCall of the compiled predicate itself: it
    /// is opaque, or nests deeper than the eval stack.
    bool calls_root() const {
        return ops_.size() == 1 && ops_[0].k == Op::K::kCall;
    }

    /// Number of kCall fallback ops (0 = fully compiled).
    std::size_t num_opaque_ops() const { return opaque_.size(); }

private:
    struct Op {
        enum class K : std::uint8_t {
            kTrue,
            kFalse,
            kVarEqConst,
            kVarNeConst,
            kVarEqVar,
            kVarNeVar,
            kCompare,   ///< comparison atom: compares_[idx]
            kTestBits,  ///< set-backed leaf: bits[idx].test(s)
            kCall,      ///< opaque leaf: opaque[idx].eval(space, s)
            kAndThen,  ///< top false: jump to idx keeping it; else pop
            kOrElse,   ///< top true: jump to idx keeping it; else pop
            kNot,
            kCount,  ///< pop idx bools, push compares(cmp, #true, value)
            // A connective or counting atom whose operands are all
            // variable atoms, as one op over leaves_[idx, idx + len):
            kAllLeaves,    ///< push whether every leaf holds
            kAnyLeaves,    ///< push whether some leaf holds
            kCountLeaves,  ///< push compares(cmp, #leaves holding, value)
        };
        K k;
        VarId var = 0;
        VarId var2 = 0;
        Value value = 0;
        std::uint32_t idx = 0;
        std::uint32_t len = 0;
        Predicate::NodeKind cmp = Predicate::NodeKind::kTermEq;
    };

    /// A variable atom (kVarEqConst/NeConst/EqVar/NeVar) of a leaf run.
    struct Leaf {
        Predicate::NodeKind kind;
        VarId var;
        VarId var2;
        Value value;
        bool holds(const CompiledSpace& cs, StateIndex s) const;
    };

    /// The value of a kAllLeaves / kAnyLeaves / kCountLeaves op.
    bool eval_leaves(const Op& op, const CompiledSpace& cs,
                     StateIndex s) const;

    /// A lowered comparison atom `a op b` (op: a Predicate::kTerm* kind).
    struct Compare {
        Predicate::NodeKind op;
        TermCode a;
        TermCode b;
        bool eval(const CompiledSpace& cs, StateIndex s) const;
    };

    static constexpr int kMaxStack = 64;

    std::vector<Op> ops_;
    std::vector<Leaf> leaves_;
    std::vector<Compare> compares_;
    std::vector<std::shared_ptr<const BitVec>> bits_;
    std::vector<Predicate> opaque_;
};

}  // namespace dcft
