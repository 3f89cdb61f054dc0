#include "fuzz/spec.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"

namespace dcft::fuzz {

namespace {

bool uses_channel(const EffectNode& e) {
    using K = EffectNode::Kind;
    switch (e.kind) {
        case K::kChanSendConst:
        case K::kChanRecvToVar:
        case K::kChanLose:
        case K::kChanDuplicate:
        case K::kChanCorrupt:
            return true;
        default:
            return false;
    }
}

bool is_channel_fault(const EffectNode& e) {
    using K = EffectNode::Kind;
    return e.kind == K::kChanLose || e.kind == K::kChanDuplicate ||
           e.kind == K::kChanCorrupt;
}

bool fail(std::string* error, std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
}

bool validate_term(const ProgramSpec& spec, const TermNode& t,
                   const std::string& where, std::string* error) {
    using K = TermNode::Kind;
    const std::size_t nv = spec.vars.size();
    switch (t.kind) {
        case K::kConst:
            break;
        case K::kVar:
            if (t.var >= nv)
                return fail(error, where + ": term variable out of range");
            break;
        case K::kAdd:
            if (t.kids.size() != 1)
                return fail(error, where + ": term + needs exactly one kid");
            if (t.modulus < 0)
                return fail(error, where + ": negative term modulus");
            break;
        case K::kMin:
        case K::kMax:
            if (t.kids.empty())
                return fail(error, where + ": min/max needs at least one kid");
            break;
        case K::kCount:
            if (t.vars.empty())
                return fail(error, where + ": count needs a variable");
            for (std::size_t v : t.vars)
                if (v >= nv)
                    return fail(error, where + ": counted variable out of range");
            break;
    }
    for (const TermNode& kid : t.kids)
        if (!validate_term(spec, kid, where, error)) return false;
    return true;
}

Predicate::NodeKind compare_kind(int cmp) {
    using NK = Predicate::NodeKind;
    static constexpr NK kinds[kNumCompareOps] = {NK::kTermEq, NK::kTermNe,
                                                 NK::kTermLt, NK::kTermLe};
    return kinds[cmp];
}

bool validate_pred(const ProgramSpec& spec, const PredNode& n,
                   const std::string& where, std::string* error) {
    using K = PredNode::Kind;
    const std::size_t nv = spec.vars.size();
    if ((n.kind == K::kCompare || n.kind == K::kCount) &&
        (n.cmp < 0 || n.cmp >= kNumCompareOps))
        return fail(error, where + ": unknown comparison");
    switch (n.kind) {
        case K::kTrue:
        case K::kFalse:
            break;
        case K::kVarEqConst:
        case K::kVarNeConst:
            if (n.var >= nv)
                return fail(error, where + ": predicate variable out of range");
            if (n.value < 0 || n.value >= spec.vars[n.var].domain)
                return fail(error, where + ": predicate constant out of domain");
            break;
        case K::kVarEqVar:
        case K::kVarNeVar:
            if (n.var >= nv || n.var2 >= nv)
                return fail(error, where + ": predicate variable out of range");
            break;
        case K::kAnd:
        case K::kOr:
            if (n.kids.empty())
                return fail(error, where + ": and/or needs at least one kid");
            break;
        case K::kNot:
            if (n.kids.size() != 1)
                return fail(error, where + ": not needs exactly one kid");
            break;
        case K::kCompare:
            if (n.terms.size() != 2)
                return fail(error, where + ": comparison needs two terms");
            for (const TermNode& t : n.terms)
                if (!validate_term(spec, t, where, error)) return false;
            break;
        case K::kCount:
            if (n.kids.empty())
                return fail(error, where + ": count needs an operand");
            break;
    }
    for (const PredNode& kid : n.kids)
        if (!validate_pred(spec, kid, where, error)) return false;
    return true;
}

bool validate_action(const ProgramSpec& spec, const ActionDecl& a,
                     const std::string& where, std::string* error) {
    if (a.name.empty()) return fail(error, where + ": empty action name");
    if (!validate_pred(spec, a.guard, where + "/" + a.name + "/guard", error))
        return false;

    const EffectNode& e = a.effect;
    const std::string at = where + "/" + a.name;
    const std::size_t nv = spec.vars.size();
    using K = EffectNode::Kind;

    if (uses_channel(e)) {
        if (e.chan >= spec.channels.size())
            return fail(error, at + ": channel index out of range");
        if (is_channel_fault(e) && a.guard.kind != PredNode::Kind::kTrue)
            return fail(error, at + ": channel-fault guard must be true");
    }
    switch (e.kind) {
        case K::kSkip:
            break;
        case K::kAssignConst:
            if (e.var >= nv)
                return fail(error, at + ": assigned variable out of range");
            if (e.value < 0 || e.value >= spec.vars[e.var].domain)
                return fail(error, at + ": assigned constant out of domain");
            break;
        case K::kAssignVar:
            if (e.var >= nv || e.var2 >= nv)
                return fail(error, at + ": variable out of range");
            if (spec.vars[e.var2].domain > spec.vars[e.var].domain)
                return fail(error,
                            at + ": assign_var source domain exceeds target");
            break;
        case K::kAssignAddMod:
            if (e.var >= nv || e.var2 >= nv)
                return fail(error, at + ": variable out of range");
            if (e.modulus < 1 || e.modulus > spec.vars[e.var].domain)
                return fail(error, at + ": modulus out of [1, dom(var)]");
            if (e.value < 0)
                return fail(error, at + ": negative addend");
            break;
        case K::kAssignChoice:
            if (e.var >= nv)
                return fail(error, at + ": variable out of range");
            if (e.choices.empty())
                return fail(error, at + ": empty choice list");
            for (Value c : e.choices)
                if (c < 0 || c >= spec.vars[e.var].domain)
                    return fail(error, at + ": choice out of domain");
            break;
        case K::kCorruptAny:
            if (e.vars.empty())
                return fail(error, at + ": empty corruption victim list");
            for (std::size_t v : e.vars) {
                if (v >= nv)
                    return fail(error, at + ": victim variable out of range");
                if (spec.vars[v].domain < 2)
                    return fail(error, at + ": victim domain must be >= 2");
            }
            break;
        case K::kSetAny:
            if (e.vars.empty())
                return fail(error, at + ": empty set_any variable list");
            for (std::size_t v : e.vars) {
                if (v >= nv)
                    return fail(error, at + ": set_any variable out of range");
                if (e.value < 0 || e.value >= spec.vars[v].domain)
                    return fail(error, at + ": set_any value out of domain");
            }
            break;
        case K::kChanSendConst:
            if (e.value < 0 || e.value >= spec.channels[e.chan].value_domain)
                return fail(error, at + ": sent value out of channel domain");
            break;
        case K::kChanRecvToVar:
            if (e.var >= nv)
                return fail(error, at + ": receive target out of range");
            break;
        case K::kChanLose:
        case K::kChanDuplicate:
            break;
        case K::kChanCorrupt:
            if (spec.channels[e.chan].value_domain < 2)
                return fail(error,
                            at + ": corrupt needs channel value domain >= 2");
            break;
        case K::kParallel:
            if (e.branches.empty())
                return fail(error, at + ": parallel needs a branch");
            for (const auto& branch : e.branches) {
                if (branch.empty())
                    return fail(error, at + ": empty parallel branch");
                std::unordered_set<std::size_t> assigned;
                for (const AssignNode& asg : branch) {
                    if (asg.var >= nv)
                        return fail(error, at + ": assigned variable out of range");
                    if (!assigned.insert(asg.var).second)
                        return fail(error, at + ": variable assigned twice");
                    if (!validate_term(spec, asg.value, at, error))
                        return false;
                    const auto [lo, hi] = term_bounds(spec, asg.value);
                    if (lo < 0 || hi >= spec.vars[asg.var].domain)
                        return fail(error, at + ": term bounds outside the domain");
                }
            }
            break;
    }
    return true;
}

/// Packed domain of one channel: 1 + d + d^2 + ... + d^capacity.
std::uint64_t channel_domain(const ChannelDecl& c) {
    std::uint64_t dom = 0;
    std::uint64_t pow = 1;
    for (int l = 0; l <= c.capacity; ++l) {
        dom += pow;
        pow *= static_cast<std::uint64_t>(c.value_domain);
    }
    return dom;
}

Action build_action(const BuiltSystem& sys, const ActionDecl& a) {
    const StateSpace& space = *sys.space;
    const Predicate guard = build_predicate(space, a.guard);
    const EffectNode& e = a.effect;
    using K = EffectNode::Kind;
    switch (e.kind) {
        case K::kSkip:
            return Action::skip(a.name, guard);
        case K::kAssignConst:
            return Action::assign_const(space, a.name, guard,
                                        sys.space->variable(e.var).name,
                                        e.value);
        case K::kAssignVar:
            return Action::assign_var(space, a.name, guard, e.var, e.var2);
        case K::kAssignAddMod:
            return Action::assign_add_mod(space, a.name, guard, e.var, e.var2,
                                          e.value, e.modulus);
        case K::kAssignChoice:
            return Action::assign_choice(space, a.name, guard, e.var,
                                         e.choices);
        case K::kCorruptAny:
            return Action::corrupt_any(space, a.name, guard, e.vars);
        case K::kSetAny: {
            // set_any needs a guard implying that some variable differs
            // from the value; conjoin that, so every guard is valid.
            std::vector<VarId> vars(e.vars.begin(), e.vars.end());
            Predicate differs = Predicate::var_ne(space, vars[0], e.value);
            for (std::size_t k = 1; k < vars.size(); ++k)
                differs = differs || Predicate::var_ne(space, vars[k], e.value);
            return Action::set_any(space, a.name, guard && differs,
                                   std::move(vars), e.value);
        }
        case K::kChanSendConst: {
            const Value v = e.value;
            return sys.channels[e.chan].send(
                a.name, guard,
                [v](const StateSpace&, StateIndex) { return v; });
        }
        case K::kChanRecvToVar: {
            const VarId var = e.var;
            const Value dom = space.variable(var).domain_size;
            return sys.channels[e.chan].receive(
                a.name, guard,
                [var, dom](const StateSpace& sp, StateIndex s, Value v) {
                    return sp.set(s, var, v % dom);
                });
        }
        case K::kChanLose:
            return sys.channels[e.chan].lose(a.name);
        case K::kChanDuplicate:
            return sys.channels[e.chan].duplicate(a.name);
        case K::kChanCorrupt:
            return sys.channels[e.chan].corrupt(a.name);
        case K::kParallel: {
            std::vector<std::vector<Action::EffectForm::Assignment>> branches;
            for (const auto& branch : e.branches) {
                branches.emplace_back();
                for (const AssignNode& asg : branch)
                    branches.back().push_back(
                        {static_cast<VarId>(asg.var),
                         build_term(space, asg.value)});
            }
            if (branches.size() == 1)
                return Action::assign_parallel(space, a.name, guard,
                                               std::move(branches[0]));
            return Action::choose_parallel(space, a.name, guard,
                                           std::move(branches));
        }
    }
    DCFT_ASSERT(false, "unreachable effect kind");
    return Action::skip(a.name, guard);
}

}  // namespace

bool validate(const ProgramSpec& spec, std::string* error) {
    if (spec.name.empty()) return fail(error, "empty spec name");
    if (spec.grade < 0 || spec.grade > 2)
        return fail(error, "grade must be 0 (failsafe), 1 (nonmasking) or "
                           "2 (masking)");
    if (spec.vars.empty())
        return fail(error, "spec needs at least one plain variable");
    for (const VarDecl& v : spec.vars) {
        if (v.name.empty()) return fail(error, "empty variable name");
        if (v.domain < 2)
            return fail(error, "variable " + v.name + ": domain must be >= 2");
    }
    for (const ChannelDecl& c : spec.channels) {
        if (c.name.empty()) return fail(error, "empty channel name");
        if (c.capacity < 1)
            return fail(error, "channel " + c.name + ": capacity must be >= 1");
        if (c.value_domain < 1)
            return fail(error,
                        "channel " + c.name + ": value domain must be >= 1");
    }
    std::unordered_set<std::string> names;
    for (const VarDecl& v : spec.vars)
        if (!names.insert(v.name).second)
            return fail(error, "duplicate variable name " + v.name);
    for (const ChannelDecl& c : spec.channels)
        if (!names.insert(c.name).second)
            return fail(error, "duplicate channel/variable name " + c.name);

    std::unordered_set<std::string> action_names;
    for (const ActionDecl& a : spec.actions) {
        if (!validate_action(spec, a, "actions", error)) return false;
        if (!action_names.insert(a.name).second)
            return fail(error, "duplicate action name " + a.name);
    }
    for (const ActionDecl& a : spec.fault_actions) {
        if (!validate_action(spec, a, "fault_actions", error)) return false;
        if (!action_names.insert(a.name).second)
            return fail(error, "duplicate action name " + a.name);
    }

    const std::string preds[] = {"init", "invariant", "bad"};
    const PredNode* nodes[] = {&spec.init, &spec.invariant, &spec.bad};
    for (std::size_t i = 0; i < 3; ++i)
        if (!validate_pred(spec, *nodes[i], preds[i], error)) return false;
    if (spec.has_leads) {
        if (!validate_pred(spec, spec.leads_from, "leads_from", error))
            return false;
        if (!validate_pred(spec, spec.leads_to, "leads_to", error))
            return false;
    }
    return true;
}

std::uint64_t num_states(const ProgramSpec& spec) {
    std::uint64_t n = 1;
    for (const VarDecl& v : spec.vars)
        n *= static_cast<std::uint64_t>(v.domain);
    for (const ChannelDecl& c : spec.channels) n *= channel_domain(c);
    return n;
}

Predicate build_predicate(const StateSpace& space, const PredNode& node) {
    using K = PredNode::Kind;
    switch (node.kind) {
        case K::kTrue:
            return Predicate::top();
        case K::kFalse:
            return Predicate::bottom();
        case K::kVarEqConst:
            return Predicate::var_eq(space, node.var, node.value);
        case K::kVarNeConst:
            return Predicate::var_ne(space, node.var, node.value);
        case K::kVarEqVar:
            return Predicate::vars_eq(space, node.var, node.var2);
        case K::kVarNeVar:
            return Predicate::vars_ne(space, node.var, node.var2);
        case K::kAnd: {
            Predicate p = build_predicate(space, node.kids.front());
            for (std::size_t i = 1; i < node.kids.size(); ++i)
                p = p && build_predicate(space, node.kids[i]);
            return p;
        }
        case K::kOr: {
            Predicate p = build_predicate(space, node.kids.front());
            for (std::size_t i = 1; i < node.kids.size(); ++i)
                p = p || build_predicate(space, node.kids[i]);
            return p;
        }
        case K::kNot:
            return !build_predicate(space, node.kids.front());
        case K::kCompare:
            return Predicate::compare(build_term(space, node.terms[0]),
                                      compare_kind(node.cmp),
                                      build_term(space, node.terms[1]));
        case K::kCount: {
            std::vector<Predicate> kids;
            for (const PredNode& kid : node.kids)
                kids.push_back(build_predicate(space, kid));
            return Predicate::count(std::move(kids), compare_kind(node.cmp),
                                    node.value);
        }
    }
    DCFT_ASSERT(false, "unreachable predicate kind");
    return Predicate::top();
}

Term build_term(const StateSpace& space, const TermNode& node) {
    using K = TermNode::Kind;
    std::vector<Term> kids;
    for (const TermNode& kid : node.kids)
        kids.push_back(build_term(space, kid));
    switch (node.kind) {
        case K::kConst:
            return Term::constant(node.value);
        case K::kVar:
            return Term::var(space, node.var);
        case K::kAdd:
            return kids[0].plus(node.value, node.modulus);
        case K::kMin:
            return Term::min(std::move(kids));
        case K::kMax:
            return Term::max(std::move(kids));
        case K::kCount:
            return Term::count(
                space, std::vector<VarId>(node.vars.begin(), node.vars.end()),
                node.value);
    }
    DCFT_ASSERT(false, "unreachable term kind");
    return Term();
}

std::pair<Value, Value> term_bounds(const ProgramSpec& spec,
                                    const TermNode& node) {
    using K = TermNode::Kind;
    switch (node.kind) {
        case K::kConst:
            return {node.value, node.value};
        case K::kVar:
            return {0, spec.vars[node.var].domain - 1};
        case K::kAdd: {
            if (node.modulus > 0) return {0, node.modulus - 1};
            const auto [lo, hi] = term_bounds(spec, node.kids[0]);
            return {lo + node.value, hi + node.value};
        }
        case K::kMin:
        case K::kMax: {
            const bool is_min = node.kind == K::kMin;
            auto [lo, hi] = term_bounds(spec, node.kids[0]);
            for (std::size_t i = 1; i < node.kids.size(); ++i) {
                const auto [l, h] = term_bounds(spec, node.kids[i]);
                lo = is_min ? std::min(lo, l) : std::max(lo, l);
                hi = is_min ? std::min(hi, h) : std::max(hi, h);
            }
            return {lo, hi};
        }
        case K::kCount:
            return {0, static_cast<Value>(node.vars.size())};
    }
    return {0, 0};
}

BuiltSystem build(const ProgramSpec& spec) {
    std::string error;
    DCFT_ASSERT(validate(spec, &error), "build() on invalid spec: " + error);

    StateSpace builder;
    for (const VarDecl& v : spec.vars) builder.add_variable(v.name, v.domain);
    std::vector<Channel> channels;
    channels.reserve(spec.channels.size());
    for (const ChannelDecl& c : spec.channels)
        channels.emplace_back(builder, c.name, c.capacity, c.value_domain);
    builder.freeze();
    auto space = std::make_shared<const StateSpace>(std::move(builder));

    BuiltSystem sys{space,
                    std::move(channels),
                    Program(space, spec.name),
                    FaultClass(space, spec.name + ".faults"),
                    build_predicate(*space, spec.init).renamed("init"),
                    build_predicate(*space, spec.invariant).renamed("S"),
                    build_predicate(*space, spec.bad).renamed("bad"),
                    SafetySpec(),
                    ProblemSpec(),
                    grade_of(spec.grade)};

    for (const ActionDecl& a : spec.actions)
        sys.program.add_action(build_action(sys, a));
    for (const ActionDecl& a : spec.fault_actions)
        sys.faults.add_action(build_action(sys, a));

    sys.safety = SafetySpec::never(sys.bad);
    LivenessSpec liveness;
    if (spec.has_leads)
        liveness.add(LeadsTo{
            build_predicate(*space, spec.leads_from).renamed("P"),
            build_predicate(*space, spec.leads_to).renamed("Q")});
    sys.problem = ProblemSpec(spec.name + ".spec", sys.safety,
                              std::move(liveness));
    return sys;
}

std::string describe(const ProgramSpec& spec) {
    std::ostringstream os;
    os << spec.vars.size() << " vars";
    if (!spec.channels.empty())
        os << ", " << spec.channels.size() << " channel"
           << (spec.channels.size() == 1 ? "" : "s");
    os << ", " << spec.actions.size() << "+" << spec.fault_actions.size()
       << " actions, " << num_states(spec) << " states, grade "
       << to_string(grade_of(spec.grade)) << ", seed " << spec.seed;
    return os.str();
}

Tolerance grade_of(int grade) {
    switch (grade) {
        case 1:
            return Tolerance::Nonmasking;
        case 2:
            return Tolerance::Masking;
        default:
            return Tolerance::FailSafe;
    }
}

}  // namespace dcft::fuzz
