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
    /// function wherever it is known. Structured predicates lower to a
    /// small bytecode (gc/guard_code.hpp) evaluated without std::function
    /// dispatch — by `eval` and by the action kernel — and fill by word
    /// algebra (gc/fill.hpp); kOpaque nodes (arbitrary lambdas) fall back
    /// to their evaluation function. Structure never affects semantics —
    /// the evaluation function (`interpret`) is the source of truth, and
    /// the differential tests pin bytecode == fill == interpret on every
    /// state.
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
        kCount,       ///< #{i : node_operands()[i]} node_count_op() node_value()
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
    /// The conjunction / disjunction of `ps` (at least one) as one n-ary
    /// kAnd / kOr node, evaluated left to right with short-circuit. Named
    /// `(p0 && p1 && ...)` / `(p0 || p1 || ...)`; a single operand is
    /// returned as is.
    static Predicate all_of(std::vector<Predicate> ps);
    static Predicate any_of(std::vector<Predicate> ps);
    /// The counting atom `#{i : ps[i]} op k`: how many of the predicates
    /// hold, compared with k (op one of kTermEq/Ne/Lt/Le) — the
    /// predicate-level threshold guard ("exactly one process privileged",
    /// "fewer than k flags raised"). Its evaluation function is generated
    /// from these fields. Named `#{p0,p1,...}op k`.
    static Predicate count(std::vector<Predicate> ps, NodeKind op, Value k);

    /// Whether the predicate holds at s. A structured predicate runs its
    /// bytecode (gc/guard_code.hpp), compiled on its first evaluation for
    /// the space of that evaluation; opaque and set-backed predicates, and
    /// evaluations in any other space, call the evaluation function.
    bool eval(const StateSpace& space, StateIndex s) const;
    bool operator()(const StateSpace& space, StateIndex s) const {
        return eval(space, s);
    }
    /// The evaluation function itself, bypassing the bytecode: structured
    /// nodes interpret their operands the same way, down to the leaves.
    /// The naive oracle (verify/reference) and the differential tests
    /// compare the compiled paths against it.
    bool interpret(const StateSpace& space, StateIndex s) const;

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
    /// Constant of a kVarEqConst / kVarNeConst node; k of a kCount node.
    Value node_value() const;
    /// Comparison (kTermEq/Ne/Lt/Le) of a kCount node.
    NodeKind node_count_op() const;
    /// Operand predicates of kAnd / kOr / kNot / kCount nodes (empty
    /// otherwise).
    std::span<const Predicate> node_operands() const;
    /// The two terms of a kTerm* comparison atom (empty otherwise).
    std::span<const Term> node_terms() const;

    /// Returns a copy carrying a different display name.
    Predicate renamed(std::string name) const;

    friend Predicate operator&&(const Predicate& a, const Predicate& b);
    friend Predicate operator||(const Predicate& a, const Predicate& b);
    friend Predicate operator!(const Predicate& a);
    friend Predicate implies(const Predicate& a, const Predicate& b);
    friend BitVec eval_bits(const StateSpace& space, const Predicate& p,
                            unsigned n_threads);

private:
    struct Impl;

    /// all_of / any_of: the n-ary kAnd / kOr node over ps.
    static Predicate connective(std::vector<Predicate> ps, NodeKind kind);

    /// Stamps structural metadata onto a freshly built (sole-owner) impl.
    void set_node(NodeKind kind, std::vector<Predicate> kids);

    std::shared_ptr<const Impl> impl_;
};

/// a => b (pointwise).
Predicate implies(const Predicate& a, const Predicate& b);

/// The set of states satisfying p, as a bit vector over the packed
/// indices — the one materialization path of the verifier. Backed
/// predicates are copied in O(|space|/64); every other predicate is
/// filled by fill_guard_bits (gc/fill.hpp): word algebra over its
/// structure, with only its opaque subtrees evaluated per state, chunked
/// across up to n_threads workers (0 = default_verifier_threads(); results
/// are identical for every thread count).
///
/// The fill of a non-backed predicate is memoized in one slot on its
/// shared implementation (so on every copy of p), keyed by space.uid():
/// asking again for the same space copies the remembered bits, asking for
/// another space refills and replaces them. Thread-safe; concurrent
/// callers share one fill. Relies on the purity contract above.
///
/// Throws ContractError, before allocating, when the remembered bits, the
/// returned copy and the fill's temporaries (fill_temp_bytes) would
/// exceed the host's physical RAM.
BitVec eval_bits(const StateSpace& space, const Predicate& p,
                 unsigned n_threads = 1);

/// How eval_bits produced one predicate's bits (run reports).
struct MaterializeRecord {
    std::string predicate;
    /// "backed" (copied from the predicate's own bits), "word_algebra"
    /// (filled from structure) or "per_state_scan" (an opaque predicate).
    std::string path;
    /// Subtrees evaluated per state (FillStats::kcall_ops).
    std::uint64_t kcall_ops = 0;
    /// States this call evaluated one by one (0 on a memo hit).
    std::uint64_t states_scanned = 0;
    /// Served from eval_bits' memo; path and kcall_ops describe the fill
    /// that filled it.
    bool memo_hit = false;
};

/// Collects a MaterializeRecord for every eval_bits call on the creating
/// thread while alive (nested logs: the innermost collects).
class MaterializeLog {
public:
    MaterializeLog();
    ~MaterializeLog();
    MaterializeLog(const MaterializeLog&) = delete;
    MaterializeLog& operator=(const MaterializeLog&) = delete;

    const std::vector<MaterializeRecord>& records() const { return records_; }
    /// Appends to the innermost live log of this thread, if any.
    static void note(MaterializeRecord record);

private:
    std::vector<MaterializeRecord> records_;
    MaterializeLog* outer_;
};

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
