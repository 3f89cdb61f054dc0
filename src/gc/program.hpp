// Programs and fault classes (Sections 2.1 and 2.3 of the paper).
//
// A program is a set of variables and a finite set of actions. In dcft a
// Program holds a shared StateSpace plus its actions; a program may use
// only a subset of the space's variables (`vars()`), which is what makes
// the paper's projections (p' onto p) and the *encapsulates* relation
// expressible when a transformed program p' adds variables to p.
//
// A fault class (Section 2.3) is "a set of actions over the variables of
// p" — structurally identical to a program, but its actions are exempt
// from fairness and may occur only finitely often in a computation. We
// give it its own type so APIs cannot confuse the two roles.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gc/action.hpp"
#include "gc/state_space.hpp"

namespace dcft {

/// A guarded-command program over a shared StateSpace.
class Program {
public:
    /// Program using every variable of the space.
    explicit Program(std::shared_ptr<const StateSpace> space,
                     std::string name = "");

    /// Program whose own variables are `vars` (a subset of the space).
    Program(std::shared_ptr<const StateSpace> space, VarSet vars,
            std::string name);

    void add_action(Action action);

    const std::string& name() const { return name_; }
    const StateSpace& space() const { return *space_; }
    std::shared_ptr<const StateSpace> space_ptr() const { return space_; }

    std::span<const Action> actions() const { return actions_; }
    std::size_t num_actions() const { return actions_.size(); }
    const Action& action(std::size_t i) const;

    /// The action with the given name; throws if absent or ambiguous.
    const Action& action_named(std::string_view name) const;

    /// The variables of this program (used for projection in refinement
    /// and encapsulation checks).
    const VarSet& vars() const { return vars_; }

    /// True if any action of this program can change variable v from some
    /// state (semantic, exhaustive over the space).
    bool writes(VarId v) const;

    /// All successors of s under the actions of this program.
    void successors(StateIndex s, std::vector<StateIndex>& out) const;

    /// True iff no action of this program is enabled at s — the final
    /// states of the paper's maximal finite computations.
    bool is_terminal(StateIndex s) const;

    /// Returns a copy with a different name.
    Program renamed(std::string name) const;

private:
    std::shared_ptr<const StateSpace> space_;
    VarSet vars_;
    std::string name_;
    std::vector<Action> actions_;
};

/// A class of fault actions for a program (Section 2.3). Fault actions are
/// not subject to fairness and occur finitely often (Assumption 2).
class FaultClass {
public:
    explicit FaultClass(std::shared_ptr<const StateSpace> space,
                        std::string name = "F");

    void add_action(Action action);

    const std::string& name() const { return name_; }
    const StateSpace& space() const { return *space_; }
    std::shared_ptr<const StateSpace> space_ptr() const { return space_; }
    std::span<const Action> actions() const { return actions_; }
    bool empty() const { return actions_.empty(); }

    /// All successors of s under the fault actions.
    void successors(StateIndex s, std::vector<StateIndex>& out) const;

private:
    std::shared_ptr<const StateSpace> space_;
    std::string name_;
    std::vector<Action> actions_;
};

}  // namespace dcft
