// Bounded FIFO channels over the guarded-command kernel.
//
// The paper's programs communicate through shared variables; its systems
// (and the authors' application list) also cover message-passing designs.
// A Channel packs a bounded queue of small values into ONE finite-domain
// variable of the state space — contents and length together — so
// channel systems stay inside the explicit-state framework: sends,
// receives, and the classic channel faults (loss, duplication,
// corruption) are ordinary actions, checkable like everything else.
//
// Encoding: a queue [v0(head), v1, ..., v_{L-1}] with values in
// {0..d-1}, L <= capacity, is the integer offset(L) + sum v_i * d^i,
// where offset(L) = 1 + d + ... + d^{L-1}. The variable's domain is
// offset(capacity+1).
#pragma once

#include <functional>
#include <string>

#include "gc/action.hpp"
#include "gc/predicate.hpp"
#include "gc/program.hpp"
#include "gc/state_space.hpp"

namespace dcft {

/// A bounded FIFO channel living in one variable of a StateSpace.
///
/// Construct channels while building the space (before freeze()); use the
/// accessors and action factories after.
class Channel {
public:
    /// Declares the backing variable `name` on `builder`.
    Channel(StateSpace& builder, std::string name, int capacity,
            Value value_domain);

    const std::string& name() const { return name_; }
    VarId var() const { return var_; }
    int capacity() const { return capacity_; }
    Value value_domain() const { return value_domain_; }

    // --- State accessors. ---
    int size(const StateSpace& space, StateIndex s) const;
    bool empty(const StateSpace& space, StateIndex s) const;
    bool full(const StateSpace& space, StateIndex s) const;
    /// Precondition: !empty.
    Value front(const StateSpace& space, StateIndex s) const;
    /// Precondition: !full.
    StateIndex push(const StateSpace& space, StateIndex s, Value v) const;
    /// Precondition: !empty.
    StateIndex pop(const StateSpace& space, StateIndex s) const;

    // --- Predicates. ---
    Predicate is_empty() const;
    Predicate is_full() const;
    Predicate nonempty() const;

    // --- Action factories. ---
    /// `name :: guard /\ !full --> push(value_of(state))`.
    Action send(std::string name, const Predicate& guard,
                std::function<Value(const StateSpace&, StateIndex)>
                    value_of) const;

    /// `name :: guard /\ !empty --> s' = on_receive(pop(s), front(s))`.
    /// on_receive gets the state with the message already popped, plus the
    /// received value, and returns the final state.
    Action receive(std::string name, const Predicate& guard,
                   std::function<StateIndex(const StateSpace&, StateIndex,
                                            Value)>
                       on_receive) const;

    // --- Fault factories (the classic channel fault classes). ---
    /// Drops the head message.
    Action lose(std::string name) const;
    /// Re-enqueues a copy of the head at the tail (needs room).
    Action duplicate(std::string name) const;
    /// Replaces the head with any different value (nondeterministic).
    Action corrupt(std::string name) const;

private:
    std::string name_;
    VarId var_;
    int capacity_;
    Value value_domain_;
    std::vector<StateIndex> offset_;  ///< offset_[L], L = 0..capacity
    Term var_term_;  ///< the backing variable, for the structured guards

    StateIndex encode_raw(const std::vector<Value>& queue) const;
    std::vector<Value> decode_raw(StateIndex raw) const;
    StateIndex raw(const StateSpace& space, StateIndex s) const;
};

}  // namespace dcft
