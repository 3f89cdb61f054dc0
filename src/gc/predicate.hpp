// State predicates (Section 2.1 of the paper).
//
// A state predicate is a boolean expression over the variables of a
// program; the paper uses predicates and the sets of states they
// characterize interchangeably. Predicate wraps an evaluation function plus
// a printable name, and provides the boolean algebra (&&, ||, !, implies)
// the paper's constructions use.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bitvec.hpp"
#include "gc/state_space.hpp"
#include "gc/term.hpp"

namespace dcft {

/// A state predicate over a StateSpace.
///
/// Value-semantic and cheap to copy (shared immutable implementation).
/// Predicates are pure: evaluation must not depend on anything but the
/// state. A default-constructed Predicate is `top()` (true everywhere).
///
/// A predicate may additionally be *set-backed*: built from (or composed
/// out of) an explicit bit vector over the packed state indices. The bulk
/// paths of the verifier (materialization, implication checks, counting)
/// detect backed predicates and run word-level set algebra instead of
/// per-state std::function calls; the boolean operators on two backed
/// predicates produce a backed result eagerly in O(|space|/64).
class Predicate {
public:
    using Fn = std::function<bool(const StateSpace&, StateIndex)>;

    /// Structural shape of a predicate, retained alongside the evaluation
    /// function wherever it is known. The action-kernel compiler
    /// (verify/action_kernel.hpp) lowers structured predicates to a small
    /// bytecode evaluated without std::function dispatch; kOpaque nodes
    /// (arbitrary lambdas) fall back to calling `eval`. Structure never
    /// affects semantics — `eval` is always the source of truth, and the
    /// differential tests pin bytecode == eval on every state.
    enum class NodeKind : std::uint8_t {
        kTrue,        ///< constant true
        kFalse,       ///< constant false
        kVarEqConst,  ///< var(node_var) == node_value
        kVarNeConst,  ///< var(node_var) != node_value
        kVarEqVar,    ///< var(node_var) == var(node_var2)
        kVarNeVar,    ///< var(node_var) != var(node_var2)
        kTermEq,      ///< node_terms()[0] == node_terms()[1]
        kTermNe,      ///< node_terms()[0] != node_terms()[1]
        kTermLt,      ///< node_terms()[0] <  node_terms()[1]
        kTermLe,      ///< node_terms()[0] <= node_terms()[1]
        kAnd,         ///< conjunction of node_operands()
        kOr,          ///< disjunction of node_operands()
        kNot,         ///< negation of node_operands()[0]
        kBacked,      ///< set-backed: backing_bits()->test(s)
        kOpaque,      ///< arbitrary function; evaluate via eval()
    };

    /// The predicate `true`.
    Predicate();

    /// Named predicate from an evaluation function (kOpaque).
    Predicate(std::string name, Fn fn);

    /// Predicate backed by an explicit bit vector: holds at state s iff
    /// bits->test(s). `bits` must cover the packed index range of every
    /// space the predicate is evaluated against.
    static Predicate from_bits(std::string name,
                               std::shared_ptr<const BitVec> bits);

    /// The constant predicates.
    static Predicate top();
    static Predicate bottom();

    /// var == value, var resolved now against `space`.
    static Predicate var_eq(const StateSpace& space, std::string_view var,
                            Value value);
    /// var != value.
    static Predicate var_ne(const StateSpace& space, std::string_view var,
                            Value value);
    /// var == value / var != value by VarId (structured, compilable).
    static Predicate var_eq(const StateSpace& space, VarId var, Value value);
    static Predicate var_ne(const StateSpace& space, VarId var, Value value);
    /// var(a) == var(b) / var(a) != var(b) — the guard shape of
    /// neighbour-comparing protocols (token rings, spanning trees).
    static Predicate vars_eq(const StateSpace& space, VarId a, VarId b);
    static Predicate vars_ne(const StateSpace& space, VarId a, VarId b);
    /// The comparison atom `a op b` over terms, op one of kTermEq,
    /// kTermNe, kTermLt, kTermLe — the guard shape of threshold tests
    /// (`#{d = 1} > k`), fault budgets and aggregation rules
    /// (`agg.i != max(...)`). Named after the terms, e.g. `x<(y+1)`.
    static Predicate compare(const Term& a, NodeKind op, const Term& b);
    /// `x op y` for a comparison kind op (kTermEq/Ne/Lt/Le).
    static bool compares(NodeKind op, Value x, Value y);

    bool eval(const StateSpace& space, StateIndex s) const;
    bool operator()(const StateSpace& space, StateIndex s) const {
        return eval(space, s);
    }

    const std::string& name() const;

    /// The backing bit vector when this predicate is set-backed (built by
    /// from_bits, or composed from backed operands); null otherwise.
    const std::shared_ptr<const BitVec>& backing_bits() const;

    // -- structural introspection (for the action-kernel compiler) --------
    NodeKind node_kind() const;
    /// First variable of a kVar* node.
    VarId node_var() const;
    /// Second variable of a kVarEqVar / kVarNeVar node.
    VarId node_var2() const;
    /// Constant of a kVarEqConst / kVarNeConst node.
    Value node_value() const;
    /// Operand predicates of kAnd / kOr / kNot nodes (empty otherwise).
    std::span<const Predicate> node_operands() const;
    /// The two terms of a kTerm* comparison atom (empty otherwise).
    std::span<const Term> node_terms() const;

    /// Returns a copy carrying a different display name.
    Predicate renamed(std::string name) const;

    friend Predicate operator&&(const Predicate& a, const Predicate& b);
    friend Predicate operator||(const Predicate& a, const Predicate& b);
    friend Predicate operator!(const Predicate& a);
    friend BitVec eval_bits(const StateSpace& space, const Predicate& p,
                            unsigned n_threads);

private:
    struct Impl;

    /// Stamps structural metadata onto a freshly built (sole-owner) impl.
    void set_node(NodeKind kind, std::vector<Predicate> kids);

    std::shared_ptr<const Impl> impl_;
};

/// a => b (pointwise).
Predicate implies(const Predicate& a, const Predicate& b);

/// Evaluates p at every state of the space into a bit vector — each
/// predicate evaluated exactly once per state, chunked across up to
/// n_threads workers (0 = default_verifier_threads(); results are
/// identical for every thread count). Backed predicates are copied in
/// O(|space|/64) without re-evaluation.
///
/// The scan of a non-backed predicate is memoized in one slot on its
/// shared implementation (so on every copy of p), keyed by space.uid():
/// asking again for the same space copies the remembered bits, asking for
/// another space rescans and replaces them. Thread-safe; concurrent
/// callers share one scan. Relies on the purity contract above.
///
/// Throws ContractError, before allocating, when the bitset (|space|/8
/// bytes) would exceed the host's physical RAM.
BitVec eval_bits(const StateSpace& space, const Predicate& p,
                 unsigned n_threads = 1);

/// True iff a => b holds at every state of the space (exhaustive check;
/// word-level when both predicates are set-backed).
bool implies_everywhere(const StateSpace& space, const Predicate& a,
                        const Predicate& b);

/// True iff a and b hold at exactly the same states (exhaustive check;
/// word-level when both predicates are set-backed).
bool equivalent(const StateSpace& space, const Predicate& a,
                const Predicate& b);

/// Number of states satisfying p (popcount when p is set-backed).
StateIndex count_satisfying(const StateSpace& space, const Predicate& p);

}  // namespace dcft
