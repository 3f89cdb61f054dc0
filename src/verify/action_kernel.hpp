// Compiled action kernels: guard bytecode + divmod-free effects.
//
// Interpreting a guarded command through Action/Predicate pays three
// indirections per successor: a std::function guard (often a tree of
// captured lambdas), a std::function effect, and mixed-radix divmod inside
// StateSpace::set.
// This layer compiles a guarded command once per exploration:
//
//   * guards with structural metadata (Predicate::NodeKind) lower to
//     GuardCode (gc/guard_code.hpp), a small postfix bytecode over
//     CompiledSpace digit reads — no std::function dispatch; the terms of
//     comparison atoms and of parallel assignments lower to TermCode, a
//     value bytecode; opaque subtrees fall back to a kCall op that invokes
//     Predicate::eval for just that subtree;
//   * the whole-space *guard bitset* is the guard's fill_guard_bits
//     (gc/fill.hpp, the routine eval_bits materializes every state
//     predicate with), so the BFS inner loop tests one bit per
//     (state, action);
//   * effects with structural metadata (Action::EffectForm) become
//     stride-delta arithmetic on the packed index; kGeneric effects call
//     the original statement.
//
// This is the only execution path of the verifier. It agrees with the
// Action/Predicate semantics by construction (structured effects generate
// their interpreted lambda from the same fields; guards always agree with
// Predicate::eval): the differential tests pin successor sequences
// bit-for-bit, and verify/reference explores with Action::successors as
// the naive oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "gc/action.hpp"
#include "gc/compiled.hpp"
#include "gc/fill.hpp"
#include "gc/guard_code.hpp"
#include "gc/predicate.hpp"
#include "gc/program.hpp"

namespace dcft {

class CompiledAction;

/// Line marks of the corrupt-any line rule (DESIGN.md, "Exploration").
/// A kCorruptAny action enabled at s sends s, for each victim v, to every
/// other state of line(s, v) = {s[v:=c] : c in dom(v)}. Once one state of
/// a line has been expanded with such an action enabled, every state of
/// the line is interned, so a later expansion may count those successors
/// instead of interning them again. One bit per (variable, line) — a
/// marked line is fully interned whichever action marked it — indexed by
/// CompiledSpace::line_index. Serial exploration only.
class LineMarks {
public:
    /// Marks for every variable of domain > 1 that some kCorruptAny action
    /// of `faults` corrupts. All bits start clear.
    LineMarks(const CompiledSpace& cs, std::span<const CompiledAction> faults);

    /// Whether any variable has marks (false: the rule never applies).
    bool any() const { return any_; }

    /// Marks the v-line through s, the source of an enabled kCorruptAny
    /// action that corrupts v. Returns true iff it was marked already; the
    /// line's dom(v)-1 successors of s then count as skipped.
    bool covered(StateIndex s, VarId v) {
        BitVec& lines = lines_[v];
        if (lines.size_bits() == 0 ||
            lines.test_and_set(cs_.line_index(s, v)))
            return false;
        skipped_ += static_cast<std::uint64_t>(cs_.domain(v) - 1);
        return true;
    }

    /// Fault successors counted, not interned, because their line was
    /// marked (telemetry: verify/interner/fault_successors_skipped).
    std::uint64_t skipped() const { return skipped_; }

private:
    const CompiledSpace& cs_;
    std::vector<BitVec> lines_;  ///< per variable; empty = no marks
    std::uint64_t skipped_ = 0;
    bool any_ = false;
};

/// One compiled guarded command.
class CompiledAction {
public:
    CompiledAction(std::shared_ptr<const CompiledSpace> cs, Action action);

    const Action& action() const { return action_; }

    /// Guard via bytecode (no std::function dispatch on structured nodes).
    bool enabled(StateIndex s) const { return guard_.eval(*cs_, s); }

    /// One successor record: (action index within its set, target state).
    using Rec = std::pair<std::uint32_t, StateIndex>;

    /// Appends the successors of s. Precondition: enabled(s). Structured
    /// effects run on CompiledSpace stride arithmetic; kGeneric effects
    /// call the original statement. The successor sequence is identical
    /// to Action::successors at every enabled state. Explorations reach
    /// the same arithmetic as records through CompiledActionSet::expand.
    void successors(StateIndex s, std::vector<StateIndex>& out) const {
        append(s, 0, out, nullptr);
    }

    /// Whole-space enabled bitset; built on first call (single-threaded),
    /// read-only afterwards. Callers that will read concurrently must call
    /// ensure_guard_bits() from one thread first.
    const BitVec& guard_bits() const;

    /// Builds the guard bitset now (idempotent). Call before sharing this
    /// object across exploration workers.
    void ensure_guard_bits() const;

    /// Whether the guard compiled without kCall fallbacks.
    bool guard_fully_compiled() const { return guard_.num_opaque_ops() == 0; }

    /// Number of kCall fallback ops in the compiled guard (telemetry:
    /// verify/kernel/kcall_fallbacks; 0 = fully compiled).
    std::size_t guard_opaque_ops() const { return guard_.num_opaque_ops(); }

    /// The cached structural effect form (kGeneric = opaque effect). The
    /// identity sweep (BatchKernel) lowers most non-generic forms to flat
    /// stride arithmetic.
    const Action::EffectForm& effect_form() const { return form_; }

private:
    friend class CompiledActionSet;

    static void put(std::vector<StateIndex>& out, std::uint32_t,
                    StateIndex t) {
        out.push_back(t);
    }
    static void put(std::vector<Rec>& out, std::uint32_t a, StateIndex t) {
        out.emplace_back(a, t);
    }

    /// The successor arithmetic of every statement form, written once for
    /// both output shapes (put). With `marks`, a kCorruptAny effect leaves
    /// out each victim whose line through s is already covered
    /// (LineMarks::covered) and marks the others. Defined inline: this is
    /// the per-edge hot path of every exploration (millions of calls per
    /// build) and must not pay a cross-TU call. The effect form is cached
    /// by value at construction for the same reason.
    template <class Out>
    void append(StateIndex s, std::uint32_t a, Out& out,
                LineMarks* marks) const {
        using EK = Action::EffectForm::Kind;
        const CompiledSpace& cs = *cs_;
        switch (form_.kind) {
            case EK::kSkip:
                put(out, a, s);
                return;
            case EK::kAssignConst:
                put(out, a, cs.set(s, form_.var, form_.value));
                return;
            case EK::kAssignVar:
                put(out, a, cs.set(s, form_.var, cs.get(s, form_.var2)));
                return;
            case EK::kAssignAddMod:
                put(out, a,
                    cs.set(s, form_.var,
                           (cs.get(s, form_.var2) + form_.value) %
                               form_.modulus));
                return;
            case EK::kAssignChoice: {
                const Value cur = cs.get(s, form_.var);
                for (const Value c : form_.choices)
                    put(out, a, cs.set_digit(s, form_.var, cur, c));
                return;
            }
            case EK::kCorruptAny: {
                for (const VarId v : form_.vars) {
                    if (marks != nullptr && marks->covered(s, v)) continue;
                    const Value cur = cs.get(s, v);
                    const Value dom = cs.domain(v);
                    for (Value c = 0; c < dom; ++c)
                        if (c != cur)
                            put(out, a, cs.set_digit(s, v, cur, c));
                }
                return;
            }
            case EK::kSetAny: {
                for (const VarId v : form_.vars) {
                    const Value cur = cs.get(s, v);
                    if (cur != form_.value)
                        put(out, a, cs.set_digit(s, v, cur, form_.value));
                }
                return;
            }
            case EK::kParallel: {
                // Every right-hand side reads s (the pre-state); the
                // variables of a branch are distinct, so each digit of t
                // still equals its digit in s.
                for (const auto& branch : branches_) {
                    StateIndex t = s;
                    for (const CompiledAssign& asg : branch)
                        t = cs.set_digit(t, asg.var, cs.get(s, asg.var),
                                         asg.value.eval(cs, s));
                    put(out, a, t);
                }
                return;
            }
            case EK::kGeneric:
            default:
                if constexpr (std::is_same_v<Out, std::vector<StateIndex>>) {
                    action_.apply_effect(cs.space(), s, out);
                } else {
                    // The opaque statement writes plain targets.
                    thread_local std::vector<StateIndex> opaque;
                    opaque.clear();
                    action_.apply_effect(cs.space(), s, opaque);
                    for (const StateIndex t : opaque) put(out, a, t);
                }
                return;
        }
    }

    struct CompiledAssign {
        VarId var;
        TermCode value;
    };

    std::shared_ptr<const CompiledSpace> cs_;
    Action action_;
    Action::EffectForm form_;  ///< cached copy — no accessor call per edge
    /// kParallel branches with their right-hand sides lowered.
    std::vector<std::vector<CompiledAssign>> branches_;
    GuardCode guard_;
    mutable std::unique_ptr<BitVec> guard_bits_;  // lazy, built once
};

/// A compiled set of actions over one space (a program's actions, or a
/// fault class's). Successor enumeration preserves the interpreted
/// iteration order: actions in declaration order, each action's
/// successors in its own order.
class CompiledActionSet {
public:
    CompiledActionSet(std::shared_ptr<const StateSpace> space,
                      std::span<const Action> actions);

    /// Shares an existing compiled space (e.g. the program's) instead of
    /// building a new one.
    CompiledActionSet(std::shared_ptr<const CompiledSpace> cs,
                      std::span<const Action> actions);

    const CompiledSpace& cspace() const { return *cs_; }
    std::shared_ptr<const CompiledSpace> cspace_ptr() const { return cs_; }

    std::span<const CompiledAction> actions() const { return actions_; }
    std::size_t size() const { return actions_.size(); }
    bool empty() const { return actions_.empty(); }
    const CompiledAction& operator[](std::size_t i) const {
        return actions_[i];
    }

    using Rec = CompiledAction::Rec;

    /// The per-state expander every exploration runs on. Tests each
    /// action's guard — a probe of gbits[a] where that bitset is set, the
    /// guard bytecode otherwise (an empty `gbits`: bytecode throughout) —
    /// and appends each enabled action's successors to `recs` as
    /// (action, target) records: actions in declaration order, each
    /// action's successors in statement order. With `marks`, kCorruptAny
    /// effects apply the line rule (LineMarks). Returns the number of
    /// records appended.
    ///
    /// Defined out of line, like successors(): one call per state, and in
    /// its own unit the compiler inlines the per-edge appends. At -O3 it
    /// declined to inside the explorer's unit, and fault-row regeneration
    /// on ring n=7 took 1.7x as long with this inline (at -O2 the two
    /// placements measure alike).
    std::uint32_t expand(StateIndex s, std::span<const BitVec* const> gbits,
                         std::vector<Rec>& recs,
                         LineMarks* marks = nullptr) const;

    /// Guard-checked successors of s under every action, in order —
    /// matches Program::successors / FaultClass::successors exactly.
    void successors(StateIndex s, std::vector<StateIndex>& out) const;

    /// Precomputes every action's whole-space guard bitset (idempotent;
    /// call single-threaded before concurrent exploration).
    void ensure_guard_bits() const;

private:
    /// The loop behind expand() and successors().
    template <class Out>
    void append(StateIndex s, std::span<const BitVec* const> gbits, Out& out,
                LineMarks* marks) const;

    std::shared_ptr<const CompiledSpace> cs_;
    std::vector<CompiledAction> actions_;
};

/// Compiled program + optional fault class sharing one CompiledSpace —
/// the unit the transition-system builder and the fixpoint loops consume.
class CompiledProgram {
public:
    /// Compiles `program` and, when non-null, `faults` over one shared
    /// CompiledSpace.
    CompiledProgram(const Program& program, const FaultClass* faults);

    const CompiledSpace& cspace() const { return *cs_; }
    std::shared_ptr<const CompiledSpace> cspace_ptr() const { return cs_; }
    const CompiledActionSet& program_actions() const { return program_; }
    bool has_faults() const { return faults_ != nullptr; }
    const CompiledActionSet& fault_actions() const { return *faults_; }
    /// Shared handle on the fault actions, so a consumer can keep them
    /// (and their guard bitsets) alive without the program's.
    std::shared_ptr<const CompiledActionSet> fault_actions_ptr() const {
        return faults_;
    }

    /// Precomputes all guard bitsets (program + faults).
    void ensure_guard_bits() const;

private:
    std::shared_ptr<const CompiledSpace> cs_;
    CompiledActionSet program_;
    std::shared_ptr<const CompiledActionSet> faults_;
};

}  // namespace dcft
