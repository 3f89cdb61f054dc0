#include "gc/action.hpp"

#include "common/check.hpp"

namespace dcft {

struct Action::Impl {
    std::string name;
    Predicate guard;
    NondetEffect effect;
    std::shared_ptr<const Impl> base;  // provenance chain
    /// Structural shape of `effect` (kGeneric when unknown). For
    /// structured kinds, `effect` is generated from these fields, so the
    /// two can never disagree.
    EffectForm form;
};

namespace {

Action::NondetEffect lift(Action::DetEffect det) {
    return [det = std::move(det)](const StateSpace& sp, StateIndex s,
                                  std::vector<StateIndex>& out) {
        out.push_back(det(sp, s));
    };
}

}  // namespace

Action::Action(std::string name, Predicate guard, DetEffect effect) {
    DCFT_EXPECTS(effect != nullptr, "Action requires a statement");
    impl_ = std::make_shared<Impl>(Impl{std::move(name), std::move(guard),
                                        lift(std::move(effect)), nullptr});
}

Action Action::nondet(std::string name, Predicate guard, NondetEffect effect) {
    DCFT_EXPECTS(effect != nullptr, "Action requires a statement");
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard), std::move(effect), nullptr}));
}

Action Action::assign(
    const StateSpace& space, std::string name, Predicate guard,
    std::string_view var,
    std::function<Value(const StateSpace&, StateIndex)> value_of) {
    DCFT_EXPECTS(value_of != nullptr, "assign requires a value function");
    const VarId id = space.find(var);
    return Action(std::move(name), std::move(guard),
                  [id, value_of = std::move(value_of)](const StateSpace& sp,
                                                       StateIndex s) {
                      return sp.set(s, id, value_of(sp, s));
                  });
}

Action Action::assign_const(const StateSpace& space, std::string name,
                            Predicate guard, std::string_view var,
                            Value value) {
    const VarId id = space.find(var);
    DCFT_EXPECTS(value >= 0 && value < space.variable(id).domain_size,
                 "assign_const: value out of domain");
    EffectForm form;
    form.kind = EffectForm::Kind::kAssignConst;
    form.var = id;
    form.value = value;
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard),
        lift([id, value](const StateSpace& sp, StateIndex s) {
            return sp.set(s, id, value);
        }),
        nullptr, std::move(form)}));
}

Action Action::assign_var(const StateSpace& space, std::string name,
                          Predicate guard, VarId var, VarId src) {
    DCFT_EXPECTS(var < space.num_vars() && src < space.num_vars(),
                 "assign_var: variable out of range");
    DCFT_EXPECTS(space.variable(src).domain_size <=
                     space.variable(var).domain_size,
                 "assign_var: source domain exceeds target domain");
    EffectForm form;
    form.kind = EffectForm::Kind::kAssignVar;
    form.var = var;
    form.var2 = src;
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard),
        lift([var, src](const StateSpace& sp, StateIndex s) {
            return sp.set(s, var, sp.get(s, src));
        }),
        nullptr, std::move(form)}));
}

Action Action::assign_add_mod(const StateSpace& space, std::string name,
                              Predicate guard, VarId var, VarId src,
                              Value addend, Value modulus) {
    DCFT_EXPECTS(var < space.num_vars() && src < space.num_vars(),
                 "assign_add_mod: variable out of range");
    DCFT_EXPECTS(modulus > 0 && modulus <= space.variable(var).domain_size,
                 "assign_add_mod: modulus out of target domain");
    DCFT_EXPECTS(addend >= 0, "assign_add_mod: addend must be non-negative");
    EffectForm form;
    form.kind = EffectForm::Kind::kAssignAddMod;
    form.var = var;
    form.var2 = src;
    form.value = addend;
    form.modulus = modulus;
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard),
        lift([var, src, addend, modulus](const StateSpace& sp, StateIndex s) {
            return sp.set(s, var, (sp.get(s, src) + addend) % modulus);
        }),
        nullptr, std::move(form)}));
}

Action Action::assign_choice(const StateSpace& space, std::string name,
                             Predicate guard, VarId var,
                             std::vector<Value> choices) {
    DCFT_EXPECTS(var < space.num_vars(), "assign_choice: variable out of range");
    DCFT_EXPECTS(!choices.empty(), "assign_choice: requires at least one value");
    for (Value c : choices)
        DCFT_EXPECTS(c >= 0 && c < space.variable(var).domain_size,
                     "assign_choice: value out of domain");
    EffectForm form;
    form.kind = EffectForm::Kind::kAssignChoice;
    form.var = var;
    form.choices = choices;
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard),
        [var, choices = std::move(choices)](const StateSpace& sp, StateIndex s,
                                            std::vector<StateIndex>& out) {
            for (Value c : choices) out.push_back(sp.set(s, var, c));
        },
        nullptr, std::move(form)}));
}

Action Action::corrupt_any(const StateSpace& space, std::string name,
                           Predicate guard, std::vector<VarId> vars) {
    DCFT_EXPECTS(!vars.empty(), "corrupt_any: requires at least one variable");
    bool some_choice = false;
    for (VarId v : vars) {
        DCFT_EXPECTS(v < space.num_vars(), "corrupt_any: variable out of range");
        some_choice = some_choice || space.variable(v).domain_size > 1;
    }
    DCFT_EXPECTS(some_choice,
                 "corrupt_any: every variable has a singleton domain");
    EffectForm form;
    form.kind = EffectForm::Kind::kCorruptAny;
    form.vars = vars;
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard),
        [vars = std::move(vars)](const StateSpace& sp, StateIndex s,
                                 std::vector<StateIndex>& out) {
            for (VarId v : vars) {
                const Value cur = sp.get(s, v);
                const Value dom = sp.variable(v).domain_size;
                for (Value c = 0; c < dom; ++c)
                    if (c != cur) out.push_back(sp.set(s, v, c));
            }
        },
        nullptr, std::move(form)}));
}

Action Action::set_any(const StateSpace& space, std::string name,
                       Predicate guard, std::vector<VarId> vars, Value value) {
    DCFT_EXPECTS(!vars.empty(), "set_any: requires at least one variable");
    for (VarId v : vars) {
        DCFT_EXPECTS(v < space.num_vars(), "set_any: variable out of range");
        DCFT_EXPECTS(value >= 0 && value < space.variable(v).domain_size,
                     "set_any: value out of domain");
    }
    EffectForm form;
    form.kind = EffectForm::Kind::kSetAny;
    form.vars = vars;
    form.value = value;
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard),
        [vars = std::move(vars), value](const StateSpace& sp, StateIndex s,
                                        std::vector<StateIndex>& out) {
            for (VarId v : vars)
                if (sp.get(s, v) != value) out.push_back(sp.set(s, v, value));
        },
        nullptr, std::move(form)}));
}

Action Action::assign_parallel(const StateSpace& space, std::string name,
                               Predicate guard,
                               std::vector<EffectForm::Assignment> assigns) {
    std::vector<std::vector<EffectForm::Assignment>> branches;
    branches.push_back(std::move(assigns));
    return choose_parallel(space, std::move(name), std::move(guard),
                           std::move(branches));
}

Action Action::choose_parallel(
    const StateSpace& space, std::string name, Predicate guard,
    std::vector<std::vector<EffectForm::Assignment>> branches) {
    DCFT_EXPECTS(!branches.empty(),
                 "choose_parallel: requires at least one branch");
    for (const auto& branch : branches) {
        DCFT_EXPECTS(!branch.empty(),
                     "assign_parallel: requires at least one assignment");
        for (std::size_t i = 0; i < branch.size(); ++i) {
            const VarId v = branch[i].var;
            DCFT_EXPECTS(v < space.num_vars(),
                         "assign_parallel: variable out of range");
            DCFT_EXPECTS(branch[i].value.lo() >= 0 &&
                             branch[i].value.hi() <
                                 space.variable(v).domain_size,
                         "assign_parallel: term may leave the domain of " +
                             space.variable(v).name);
            for (std::size_t j = 0; j < i; ++j)
                DCFT_EXPECTS(branch[j].var != v,
                             "assign_parallel: variable assigned twice");
        }
    }
    EffectForm form;
    form.kind = EffectForm::Kind::kParallel;
    form.branches = branches;
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard),
        [branches = std::move(branches)](const StateSpace& sp, StateIndex s,
                                         std::vector<StateIndex>& out) {
            for (const auto& branch : branches) {
                StateIndex t = s;
                for (const EffectForm::Assignment& a : branch)
                    t = sp.set(t, a.var, a.value.eval(sp, s));
                out.push_back(t);
            }
        },
        nullptr, std::move(form)}));
}

Action Action::skip(std::string name, Predicate guard) {
    EffectForm form;
    form.kind = EffectForm::Kind::kSkip;
    return Action(std::make_shared<Impl>(Impl{
        std::move(name), std::move(guard),
        lift([](const StateSpace&, StateIndex s) { return s; }),
        nullptr, std::move(form)}));
}

const std::string& Action::name() const { return impl_->name; }
const Predicate& Action::guard() const { return impl_->guard; }

const Action::EffectForm& Action::effect_form() const { return impl_->form; }

bool Action::enabled(const StateSpace& space, StateIndex s) const {
    return impl_->guard.eval(space, s);
}

void Action::successors(const StateSpace& space, StateIndex s,
                        std::vector<StateIndex>& out) const {
    if (!enabled(space, s)) return;
    const std::size_t before = out.size();
    impl_->effect(space, s, out);
    DCFT_ASSERT(out.size() > before,
                "enabled action '" + impl_->name + "' produced no successor");
}

void Action::apply_effect(const StateSpace& space, StateIndex s,
                          std::vector<StateIndex>& out) const {
    const std::size_t before = out.size();
    impl_->effect(space, s, out);
    DCFT_ASSERT(out.size() > before,
                "enabled action '" + impl_->name + "' produced no successor");
}

StateIndex Action::apply(const StateSpace& space, StateIndex s) const {
    DCFT_EXPECTS(enabled(space, s), "Action::apply on a disabled action");
    std::vector<StateIndex> succ;
    impl_->effect(space, s, succ);
    DCFT_EXPECTS(succ.size() == 1,
                 "Action::apply on a nondeterministic action");
    return succ[0];
}

Action Action::restricted(const Predicate& z) const {
    auto impl = std::make_shared<Impl>(*impl_);
    impl->name = "(" + z.name() + " /\\ " + impl_->name + ")";
    impl->guard = z && impl_->guard;
    impl->base = impl_;
    return Action(std::move(impl));
}

Action Action::encapsulated(std::string name, const Predicate& extra_guard,
                            ExtraEffect extra_effect) const {
    DCFT_EXPECTS(extra_effect != nullptr,
                 "encapsulated requires an extra statement");
    auto base = impl_;
    auto impl = std::make_shared<Impl>();
    impl->name = std::move(name);
    impl->guard = base->guard && extra_guard;
    impl->effect = [base, extra = std::move(extra_effect)](
                       const StateSpace& sp, StateIndex s,
                       std::vector<StateIndex>& out) {
        std::vector<StateIndex> mid;
        base->effect(sp, s, mid);
        for (StateIndex m : mid) out.push_back(extra(sp, s, m));
    };
    impl->base = base;
    return Action(std::move(impl));
}

Action Action::renamed(std::string name) const {
    auto impl = std::make_shared<Impl>(*impl_);
    impl->name = std::move(name);
    return Action(std::move(impl));
}

bool Action::has_base() const { return impl_->base != nullptr; }

Action Action::base() const {
    DCFT_EXPECTS(has_base(), "Action::base on an action without provenance");
    return Action(impl_->base);
}

Action Action::root_base() const {
    auto cur = impl_;
    while (cur->base) cur = cur->base;
    return Action(std::move(cur));
}

const void* Action::id() const { return impl_.get(); }

}  // namespace dcft
