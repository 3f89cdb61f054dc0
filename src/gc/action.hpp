// Guarded-command actions (Section 2.1 of the paper).
//
// An action is `name :: guard --> statement`; executing the statement
// atomically updates zero or more variables. We allow the statement to be
// nondeterministic (a set of successor states) because the paper's fault
// actions — e.g. a Byzantine process "executing arbitrarily
// nondeterministic actions" — need it; program actions are usually
// deterministic.
//
// Actions carry provenance: `base()` records the action of an underlying
// program that this action encapsulates or restricts. Provenance is what
// lets the verifier check the paper's *encapsulates* relation and identify,
// per Theorem 3.4, which detector corresponds to which base action.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gc/predicate.hpp"
#include "gc/state_space.hpp"

namespace dcft {

/// One guarded-command action.
///
/// Value-semantic (shared immutable implementation). The successor set of
/// an enabled action must be nonempty and must not depend on anything but
/// the state.
class Action {
public:
    /// Deterministic statement: maps the current state to the next state.
    using DetEffect = std::function<StateIndex(const StateSpace&, StateIndex)>;

    /// Nondeterministic statement: appends every possible next state.
    using NondetEffect = std::function<void(const StateSpace&, StateIndex,
                                            std::vector<StateIndex>&)>;

    /// Extra statement st' of an encapsulating action g/\g' --> st||st'.
    /// Receives the state *before* st (the paper: st' may read the initial
    /// values of variables used by st) and the state after st, and returns
    /// the final state. Must not change variables st changed.
    using ExtraEffect = std::function<StateIndex(
        const StateSpace&, StateIndex before, StateIndex after)>;

    /// Structural shape of a statement, retained alongside the effect
    /// function wherever it is known. The action-kernel compiler
    /// (verify/action_kernel.hpp) lowers structured effects to divmod-free
    /// stride arithmetic on packed indices; kGeneric effects (arbitrary
    /// lambdas) fall back to calling the std::function. Structure never
    /// affects semantics: for structured kinds the interpreted effect is
    /// itself generated from these fields, so compiled and interpreted
    /// paths produce identical successor sequences.
    struct EffectForm {
        enum class Kind : std::uint8_t {
            kGeneric,       ///< arbitrary effect; call the function
            kSkip,          ///< s' = s
            kAssignConst,   ///< var := value
            kAssignVar,     ///< var := var2
            kAssignAddMod,  ///< var := (var2 + value) mod modulus
            kAssignChoice,  ///< var := c for each c in choices (nondet)
            kCorruptAny,    ///< each v in vars := each c != cur (nondet)
            kSetAny,        ///< each v in vars with v != value := value
            kParallel,      ///< for each branch, in order: its assignments
                            ///< at once, every right-hand side read in the
                            ///< pre-state (one branch = deterministic)
        };
        /// `var := value` inside a kParallel branch.
        struct Assignment {
            VarId var = 0;
            Term value;
        };
        Kind kind = Kind::kGeneric;
        VarId var = 0;             ///< assigned variable (kAssign*)
        VarId var2 = 0;            ///< source variable (kAssignVar/AddMod)
        Value value = 0;           ///< constant / addend / kSetAny value
        Value modulus = 0;         ///< modulus of kAssignAddMod
        std::vector<Value> choices;  ///< kAssignChoice targets, in order
        std::vector<VarId> vars;     ///< kCorruptAny/kSetAny victims, in order
        /// kParallel alternatives, in order; each assigns distinct variables.
        std::vector<std::vector<Assignment>> branches;
    };

    /// Deterministic action.
    Action(std::string name, Predicate guard, DetEffect effect);

    /// Nondeterministic action.
    static Action nondet(std::string name, Predicate guard,
                         NondetEffect effect);

    /// `name :: guard --> var := value_of(state)`.
    static Action assign(const StateSpace& space, std::string name,
                         Predicate guard, std::string_view var,
                         std::function<Value(const StateSpace&, StateIndex)>
                             value_of);

    /// `name :: guard --> var := constant`.
    static Action assign_const(const StateSpace& space, std::string name,
                               Predicate guard, std::string_view var,
                               Value value);

    /// `name :: guard --> var := src` (structured, compilable).
    static Action assign_var(const StateSpace& space, std::string name,
                             Predicate guard, VarId var, VarId src);

    /// `name :: guard --> var := (src + addend) mod modulus` — the
    /// increment shape of token-passing protocols. `var == src` is the
    /// common self-increment case.
    static Action assign_add_mod(const StateSpace& space, std::string name,
                                 Predicate guard, VarId var, VarId src,
                                 Value addend, Value modulus);

    /// Nondeterministic `name :: guard --> var := c` for each c in
    /// `choices`, in the given order (structured, compilable).
    static Action assign_choice(const StateSpace& space, std::string name,
                                Predicate guard, VarId var,
                                std::vector<Value> choices);

    /// Nondeterministic corruption: for each v in `vars` (in order), for
    /// each value c != current value of v (ascending), emits the state
    /// with v := c. The successor shape of the paper's transient faults.
    static Action corrupt_any(const StateSpace& space, std::string name,
                              Predicate guard, std::vector<VarId> vars);

    /// Nondeterministic `name :: guard --> v := value` for each v in
    /// `vars` (in order) whose current value differs from `value` — a
    /// fault that sets any one of a group of flags. The guard must imply
    /// that some v differs, so an enabled action has a successor.
    static Action set_any(const StateSpace& space, std::string name,
                          Predicate guard, std::vector<VarId> vars,
                          Value value);

    /// `name :: guard --> v1, ..., vk := t1, ..., tk`: the paper's
    /// parallel assignment. Every t_i is evaluated in the state before the
    /// statement; the variables must be distinct, and each term's bounds
    /// (Term::lo/hi) must lie in its variable's domain.
    static Action assign_parallel(const StateSpace& space, std::string name,
                                  Predicate guard,
                                  std::vector<EffectForm::Assignment> assigns);

    /// Nondeterministic choice over parallel assignments: one successor
    /// per branch, in the given order (each branch as assign_parallel).
    static Action choose_parallel(
        const StateSpace& space, std::string name, Predicate guard,
        std::vector<std::vector<EffectForm::Assignment>> branches);

    /// Skip action (self-loop); useful for stutter modelling in tests.
    static Action skip(std::string name, Predicate guard);

    const std::string& name() const;
    const Predicate& guard() const;

    /// Structural shape of the statement (kGeneric when unknown).
    const EffectForm& effect_form() const;

    bool enabled(const StateSpace& space, StateIndex s) const;

    /// Appends the successors of s under this action. Appends nothing when
    /// the action is disabled at s. Postcondition: an enabled action
    /// appends at least one successor.
    void successors(const StateSpace& space, StateIndex s,
                    std::vector<StateIndex>& out) const;

    /// Convenience for the common deterministic case: the unique successor.
    /// Precondition: enabled(s) and the action is deterministic at s.
    StateIndex apply(const StateSpace& space, StateIndex s) const;

    /// The raw statement: appends the successors of s WITHOUT checking the
    /// guard. Precondition: enabled(space, s). Used by callers that have
    /// already consulted a bulk enabled-bitset (verify/action_kernel.hpp).
    void apply_effect(const StateSpace& space, StateIndex s,
                      std::vector<StateIndex>& out) const;

    /// The paper's /\-composition for actions: Z /\ (g --> st) is
    /// (Z /\ g --> st). The result records this action as its base.
    Action restricted(const Predicate& z) const;

    /// The paper's encapsulation shape: from base action g --> st, builds
    /// g /\ g' --> st || st'. The result records `*this` as its base.
    Action encapsulated(std::string name, const Predicate& extra_guard,
                        ExtraEffect extra_effect) const;

    /// Returns a copy with a different name (provenance preserved).
    Action renamed(std::string name) const;

    /// Whether this action was built by restricted()/encapsulated().
    bool has_base() const;

    /// The base action this one restricts/encapsulates (one level).
    /// Precondition: has_base().
    Action base() const;

    /// The deepest base in the provenance chain (this action if none).
    Action root_base() const;

    /// Identity of the shared implementation; two Action values denote the
    /// same action iff their ids are equal. Used to relate components back
    /// to base-program actions (Theorems 3.4/3.6).
    const void* id() const;

private:
    struct Impl;
    explicit Action(std::shared_ptr<const Impl> impl) : impl_(std::move(impl)) {}
    std::shared_ptr<const Impl> impl_;
};

}  // namespace dcft
