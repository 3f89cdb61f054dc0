// Serializable program specifications for the differential fuzzer.
//
// The fuzzer cannot generate Program/Predicate/Action values directly:
// those are opaque (std::function effects, shared immutable impls) and
// therefore neither comparable, nor mutable for shrinking, nor storable in
// a regression corpus. Instead the fuzzer works on ProgramSpec — a plain
// data AST covering the *structured* subset of the guarded-command kernel
// (every Predicate::NodeKind, every Action::EffectForm kind, plus the
// bounded-channel actions and the classic channel faults). A spec is:
//
//   * buildable — build() lowers it to a real StateSpace / Program /
//     FaultClass / ProblemSpec, deterministically;
//   * serializable — fuzz/spec_json.hpp round-trips it byte-identically,
//     which is what makes minimized reproducers pinnable as corpus files;
//   * mutable — the delta-debugging shrinker (fuzz/shrinker.hpp) edits the
//     AST (drop actions, shrink domains, simplify predicates) and re-checks
//     validity with validate() before re-running the oracles.
//
// Variable identities: plain variables get VarId = their index in `vars`;
// channel j's backing variable is VarId vars.size() + j (channels are
// declared after the plain variables, in order). Predicates range over
// plain variables only — channel contents are observed through the
// channel's own predicates (emptiness guards baked into channel actions).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "gc/channel.hpp"
#include "gc/program.hpp"
#include "spec/problem_spec.hpp"

namespace dcft::fuzz {

/// One finite-domain variable of a generated program.
struct VarDecl {
    std::string name;
    Value domain = 2;  ///< >= 2 so corruption always has a target value

    friend bool operator==(const VarDecl&, const VarDecl&) = default;
};

/// One bounded FIFO channel (packs into one extra backing variable).
struct ChannelDecl {
    std::string name;
    int capacity = 1;
    Value value_domain = 2;

    friend bool operator==(const ChannelDecl&, const ChannelDecl&) = default;
};

/// An integer term over the plain variables of a spec. Mirrors Term::Kind.
struct TermNode {
    enum class Kind : std::uint8_t {
        kConst,  ///< value
        kVar,    ///< var(var)
        kAdd,    ///< kids[0] + value, reduced mod modulus when > 0
        kMin,    ///< the least of kids (>= 1)
        kMax,    ///< the greatest of kids (>= 1)
        kCount,  ///< #{v in vars : v == value}
    };
    Kind kind = Kind::kConst;
    std::size_t var = 0;
    Value value = 0;
    Value modulus = 0;
    std::vector<std::size_t> vars;
    std::vector<TermNode> kids;

    friend bool operator==(const TermNode&, const TermNode&) = default;
};

/// Comparison of a kCompare / kCount predicate node: 0 ==, 1 !=, 2 <, 3 <=
/// (Predicate::NodeKind kTermEq/Ne/Lt/Le).
constexpr int kNumCompareOps = 4;

/// A predicate expression over the plain variables of a spec. Mirrors
/// Predicate::NodeKind minus kBacked/kOpaque (which are not serializable).
struct PredNode {
    enum class Kind : std::uint8_t {
        kTrue,
        kFalse,
        kVarEqConst,  ///< var(var) == value
        kVarNeConst,  ///< var(var) != value
        kVarEqVar,    ///< var(var) == var(var2)
        kVarNeVar,    ///< var(var) != var(var2)
        kAnd,         ///< conjunction of kids (>= 1)
        kOr,          ///< disjunction of kids (>= 1)
        kNot,         ///< negation of kids[0]
        kCompare,     ///< terms[0] cmp terms[1]
        kCount,       ///< #{i : kids[i]} cmp value (kids >= 1)
    };
    Kind kind = Kind::kTrue;
    std::size_t var = 0;
    std::size_t var2 = 0;
    Value value = 0;
    int cmp = 0;  ///< kCompare / kCount: see kNumCompareOps
    std::vector<PredNode> kids;
    std::vector<TermNode> terms;  ///< kCompare: exactly two

    friend bool operator==(const PredNode&, const PredNode&) = default;
};

/// `var := value` inside a kParallel branch.
struct AssignNode {
    std::size_t var = 0;
    TermNode value;

    friend bool operator==(const AssignNode&, const AssignNode&) = default;
};

/// A statement shape. Mirrors Action::EffectForm plus the channel action
/// and channel fault factories of gc/channel.hpp.
struct EffectNode {
    enum class Kind : std::uint8_t {
        kSkip,           ///< no-op (self loop)
        kAssignConst,    ///< var := value
        kAssignVar,      ///< var := var2   (needs dom(var2) <= dom(var))
        kAssignAddMod,   ///< var := (var2 + value) mod modulus
        kAssignChoice,   ///< var := c for each c in choices (nondet)
        kCorruptAny,     ///< each v in vars := any other value (nondet)
        kSetAny,         ///< each v in vars with v != value := value
        kChanSendConst,  ///< channels[chan].send(value)
        kChanRecvToVar,  ///< var := received value mod dom(var)
        kChanLose,       ///< channel fault: drop head (guard must be true)
        kChanDuplicate,  ///< channel fault: duplicate head (guard true)
        kChanCorrupt,    ///< channel fault: corrupt head (guard true,
                         ///< needs value_domain >= 2)
        kParallel,       ///< one successor per branch: its assignments at
                         ///< once (distinct variables, term bounds inside
                         ///< each variable's domain); one branch =
                         ///< assign_parallel, more = choose_parallel
    };
    Kind kind = Kind::kSkip;
    std::size_t var = 0;
    std::size_t var2 = 0;
    Value value = 0;
    Value modulus = 1;
    std::vector<Value> choices;
    std::vector<std::size_t> vars;
    std::size_t chan = 0;
    std::vector<std::vector<AssignNode>> branches;  ///< kParallel

    friend bool operator==(const EffectNode&, const EffectNode&) = default;
};

/// One guarded-command action of a spec.
struct ActionDecl {
    std::string name;
    PredNode guard;
    EffectNode effect;

    friend bool operator==(const ActionDecl&, const ActionDecl&) = default;
};

/// A complete differential-fuzzing instance: program + fault class +
/// initial/invariant/bad predicates + an optional leads-to obligation +
/// the tolerance grade to query. Plain data; compare, copy, serialize,
/// mutate freely.
struct ProgramSpec {
    std::string name = "fuzz";
    std::uint64_t seed = 0;
    int grade = 0;  ///< 0 = failsafe, 1 = nonmasking, 2 = masking

    std::vector<VarDecl> vars;
    std::vector<ChannelDecl> channels;
    std::vector<ActionDecl> actions;
    std::vector<ActionDecl> fault_actions;

    PredNode init;
    PredNode invariant;
    PredNode bad;

    bool has_leads = false;
    PredNode leads_from;
    PredNode leads_to;

    friend bool operator==(const ProgramSpec&, const ProgramSpec&) = default;
};

/// Checks every structural invariant build() relies on (index ranges,
/// domain bounds, factory preconditions such as dom(src) <= dom(var) for
/// kAssignVar, nonempty choice lists, unique action names, channel-fault
/// guards being kTrue). Returns true iff the spec is buildable; on failure
/// stores a message in *error when non-null. Never throws.
bool validate(const ProgramSpec& spec, std::string* error = nullptr);

/// Total number of states of the spec's space: the product of the plain
/// variable domains and each channel's packed domain.
std::uint64_t num_states(const ProgramSpec& spec);

/// A spec lowered to real kernel objects. All members are built over the
/// one shared `space`.
struct BuiltSystem {
    std::shared_ptr<const StateSpace> space;
    std::vector<Channel> channels;
    Program program;
    FaultClass faults;  ///< possibly empty (no fault actions)
    Predicate init;
    Predicate invariant;
    Predicate bad;
    SafetySpec safety;    ///< never(bad)
    ProblemSpec problem;  ///< safety + the optional leads-to obligation
    Tolerance grade = Tolerance::FailSafe;

    /// The fault class as the nullable pointer the verifier APIs take
    /// (nullptr when the spec has no fault actions).
    const FaultClass* faults_ptr() const {
        return faults.empty() ? nullptr : &faults;
    }
};

/// Lowers a *validated* spec (precondition: validate(spec)) to kernel
/// objects. Deterministic: equal specs build semantically identical
/// systems (fresh space identity, same behavior).
BuiltSystem build(const ProgramSpec& spec);

/// Builds the Predicate of one node against a built space. `spec_vars` is
/// the number of plain variables (for range assertions in debug builds).
Predicate build_predicate(const StateSpace& space, const PredNode& node);

/// Builds the Term of one node against a built space.
Term build_term(const StateSpace& space, const TermNode& node);

/// The bounds [lo, hi] build_term(node) will have (Term::lo/hi), computed
/// from the spec's domains; precondition: the node's indices are valid.
std::pair<Value, Value> term_bounds(const ProgramSpec& spec,
                                    const TermNode& node);

/// One-line human-readable summary ("3 vars, 1 channel, 5+2 actions,
/// 384 states, grade masking, seed 42") for logs and finding reports.
std::string describe(const ProgramSpec& spec);

/// Grade int -> Tolerance (0 failsafe / 1 nonmasking / 2 masking).
Tolerance grade_of(int grade);

}  // namespace dcft::fuzz
