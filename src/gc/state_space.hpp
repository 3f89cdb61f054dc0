// Finite-domain variables and packed program states.
//
// The paper (Section 2.1) defines a program over variables with predefined
// nonempty domains; a state assigns each variable a value from its domain.
// We represent a state as a single mixed-radix index (StateIndex) into the
// product of the variable domains. This makes the whole state space
// enumerable, states hashable and O(1)-copyable, and single-variable
// updates cheap — the representation the explicit-state verifier relies on.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dcft {

/// Value of a variable. Values are always in [0, domain_size).
using Value = std::int64_t;

/// A packed program state: a mixed-radix index into the product of the
/// variable domains of a StateSpace.
using StateIndex = std::uint64_t;

/// Identifier of a variable within a StateSpace (its declaration order).
using VarId = std::size_t;

/// A finite-domain program variable.
///
/// `value_names`, when non-empty, gives a printable name to each value;
/// it is used only for formatting and does not affect semantics.
struct Variable {
    std::string name;
    Value domain_size = 0;
    std::vector<std::string> value_names;  ///< optional, size == domain_size
};

/// A set of variables of one StateSpace, used for projections (Section 2.2.1
/// of the paper: the projection of a state of p' on p keeps only p's
/// variables).
class VarSet {
public:
    VarSet() = default;
    explicit VarSet(std::size_t universe_size) : bits_(universe_size, false) {}

    void add(VarId v);
    bool contains(VarId v) const;
    std::size_t universe_size() const { return bits_.size(); }
    std::size_t count() const;
    /// Variables in the set, in increasing VarId order.
    std::vector<VarId> members() const;

    /// Set union; both sets must share a universe size.
    VarSet unioned(const VarSet& other) const;
    /// Complement within the universe.
    VarSet complement() const;

private:
    std::vector<bool> bits_;
};

/// The product space of a fixed set of finite-domain variables.
///
/// Immutable once `freeze()` is called (adding variables after freezing, or
/// using encode/decode before freezing, is a contract violation). Programs
/// hold a shared_ptr<const StateSpace>, so a space outlives every program,
/// predicate, and transition system built over it.
class StateSpace {
public:
    StateSpace();

    /// Copies take a *fresh* uid: a copy is a distinct object whose
    /// identity must not alias the original in identity-keyed caches
    /// (verify/exploration_cache.hpp). Moves carry the uid along — the
    /// moved-from object is dead, so its identity transfers.
    StateSpace(const StateSpace& other);
    StateSpace& operator=(const StateSpace& other);
    StateSpace(StateSpace&&) noexcept = default;
    StateSpace& operator=(StateSpace&&) noexcept = default;

    /// Process-unique, monotonically increasing identity of this object.
    /// Never reused — unlike the address of a destroyed space, which the
    /// allocator may hand to an unrelated new space (the ABA hazard the
    /// exploration cache's stale-hit regression test pins).
    std::uint64_t uid() const { return uid_; }

    /// Declares a variable with values {0, ..., domain_size-1}. Throws
    /// ContractError when the product of the domain sizes so far would no
    /// longer fit a 64-bit state index.
    VarId add_variable(std::string name, Value domain_size);

    /// Declares a variable whose values are named (domain size = #names).
    VarId add_variable(std::string name, std::vector<std::string> value_names);

    /// Finishes construction. Must be called exactly once.
    void freeze();
    bool frozen() const { return frozen_; }

    std::size_t num_vars() const { return vars_.size(); }
    const Variable& variable(VarId v) const;

    /// VarId of the variable with the given name; throws if absent.
    VarId find(std::string_view name) const;
    bool has_variable(std::string_view name) const;

    /// Total number of states (product of domain sizes). Requires frozen.
    StateIndex num_states() const;

    /// Value of variable v in state s.
    Value get(StateIndex s, VarId v) const;

    /// State equal to s except that variable v holds `value`.
    StateIndex set(StateIndex s, VarId v, Value value) const;

    /// Packs a full assignment (one value per variable, declaration order).
    StateIndex encode(std::span<const Value> values) const;

    /// Unpacks a state into one value per variable.
    std::vector<Value> decode(StateIndex s) const;

    /// Mixed-radix index of the projection of s onto `vars` (the projected
    /// sub-space orders variables by increasing VarId). Two states agree on
    /// `vars` iff their projections are equal.
    StateIndex project(StateIndex s, const VarSet& vars) const;

    /// Human-readable rendering, e.g. "{x=2, ok=true}".
    std::string format(StateIndex s) const;

    /// An empty VarSet sized to this space.
    VarSet empty_varset() const { return VarSet(num_vars()); }
    /// A VarSet containing every variable of this space.
    VarSet full_varset() const;
    /// A VarSet from variable names (each must exist).
    VarSet varset(std::initializer_list<std::string_view> names) const;

private:
    static std::uint64_t next_uid();

    std::uint64_t uid_ = 0;
    std::vector<Variable> vars_;
    std::vector<StateIndex> strides_;  ///< strides_[v] = prod of domains < v
    StateIndex num_states_ = 1;
    bool frozen_ = false;
};

/// Convenience: builds and freezes a space in one expression.
std::shared_ptr<const StateSpace> make_space(std::vector<Variable> vars);

}  // namespace dcft
