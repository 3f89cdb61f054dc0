#include "fuzz/shrinker.hpp"

#include <algorithm>
#include <utility>

namespace dcft::fuzz {

namespace {

using K = PredNode::Kind;
using E = EffectNode::Kind;

bool effect_uses_channel(const EffectNode& e, std::size_t chan) {
    switch (e.kind) {
        case E::kChanSendConst:
        case E::kChanRecvToVar:
        case E::kChanLose:
        case E::kChanDuplicate:
        case E::kChanCorrupt:
            return e.chan == chan;
        default:
            return false;
    }
}

void mark_term_vars(const TermNode& t, std::vector<bool>& used) {
    if (t.kind == TermNode::Kind::kVar && t.var < used.size())
        used[t.var] = true;
    for (std::size_t v : t.vars)
        if (v < used.size()) used[v] = true;
    for (const TermNode& kid : t.kids) mark_term_vars(kid, used);
}

void mark_pred_vars(const PredNode& n, std::vector<bool>& used) {
    for (const TermNode& t : n.terms) mark_term_vars(t, used);
    switch (n.kind) {
        case K::kVarEqConst:
        case K::kVarNeConst:
            if (n.var < used.size()) used[n.var] = true;
            break;
        case K::kVarEqVar:
        case K::kVarNeVar:
            if (n.var < used.size()) used[n.var] = true;
            if (n.var2 < used.size()) used[n.var2] = true;
            break;
        default:
            break;
    }
    for (const PredNode& kid : n.kids) mark_pred_vars(kid, used);
}

void mark_effect_vars(const EffectNode& e, std::vector<bool>& used) {
    switch (e.kind) {
        case E::kAssignConst:
        case E::kAssignChoice:
        case E::kChanRecvToVar:
            if (e.var < used.size()) used[e.var] = true;
            break;
        case E::kAssignVar:
        case E::kAssignAddMod:
            if (e.var < used.size()) used[e.var] = true;
            if (e.var2 < used.size()) used[e.var2] = true;
            break;
        case E::kCorruptAny:
        case E::kSetAny:
            for (std::size_t v : e.vars)
                if (v < used.size()) used[v] = true;
            break;
        case E::kParallel:
            for (const auto& branch : e.branches)
                for (const AssignNode& asg : branch) {
                    if (asg.var < used.size()) used[asg.var] = true;
                    mark_term_vars(asg.value, used);
                }
            break;
        default:
            break;
    }
}

void remap_term_var(TermNode& t, std::size_t removed) {
    if (t.var > removed) --t.var;
    for (std::size_t& v : t.vars)
        if (v > removed) --v;
    for (TermNode& kid : t.kids) remap_term_var(kid, removed);
}

void remap_pred_var(PredNode& n, std::size_t removed) {
    if (n.var > removed) --n.var;
    if (n.var2 > removed) --n.var2;
    for (TermNode& t : n.terms) remap_term_var(t, removed);
    for (PredNode& kid : n.kids) remap_pred_var(kid, removed);
}

void remap_effect_var(EffectNode& e, std::size_t removed) {
    if (e.var > removed) --e.var;
    if (e.var2 > removed) --e.var2;
    for (std::size_t& v : e.vars)
        if (v > removed) --v;
    for (auto& branch : e.branches)
        for (AssignNode& asg : branch) {
            if (asg.var > removed) --asg.var;
            remap_term_var(asg.value, removed);
        }
}

void remap_spec_vars(ProgramSpec& s, std::size_t removed) {
    for (ActionDecl& a : s.actions) {
        remap_pred_var(a.guard, removed);
        remap_effect_var(a.effect, removed);
    }
    for (ActionDecl& a : s.fault_actions) {
        remap_pred_var(a.guard, removed);
        remap_effect_var(a.effect, removed);
    }
    remap_pred_var(s.init, removed);
    remap_pred_var(s.invariant, removed);
    remap_pred_var(s.bad, removed);
    remap_pred_var(s.leads_from, removed);
    remap_pred_var(s.leads_to, removed);
}

/// Clamps constants referencing variable `var` after its domain shrank to
/// `dom` (values are reduced mod dom, the smallest behavior-adjacent clamp
/// that keeps the node valid).
void clamp_pred(PredNode& n, std::size_t var, Value dom) {
    if ((n.kind == K::kVarEqConst || n.kind == K::kVarNeConst) &&
        n.var == var && n.value >= dom)
        n.value = n.value % dom;
    for (PredNode& kid : n.kids) clamp_pred(kid, var, dom);
}

void clamp_effect(EffectNode& e, std::size_t var, Value dom) {
    switch (e.kind) {
        case E::kAssignConst:
            if (e.var == var && e.value >= dom) e.value = e.value % dom;
            break;
        case E::kSetAny:
            if (std::find(e.vars.begin(), e.vars.end(), var) != e.vars.end() &&
                e.value >= dom)
                e.value = e.value % dom;
            break;
        case E::kAssignAddMod:
            if (e.var == var && e.modulus > dom) e.modulus = dom;
            break;
        case E::kAssignChoice:
            if (e.var == var) {
                std::vector<Value> kept;
                for (Value c : e.choices)
                    if (c < dom) kept.push_back(c);
                e.choices = std::move(kept);  // may become empty -> invalid,
                                              // filtered by validate()
            }
            break;
        default:
            break;
    }
}

void clamp_spec(ProgramSpec& s, std::size_t var, Value dom) {
    for (ActionDecl& a : s.actions) {
        clamp_pred(a.guard, var, dom);
        clamp_effect(a.effect, var, dom);
    }
    for (ActionDecl& a : s.fault_actions) {
        clamp_pred(a.guard, var, dom);
        clamp_effect(a.effect, var, dom);
    }
    clamp_pred(s.init, var, dom);
    clamp_pred(s.invariant, var, dom);
    clamp_pred(s.bad, var, dom);
    clamp_pred(s.leads_from, var, dom);
    clamp_pred(s.leads_to, var, dom);
}

/// Structural simplifications of one predicate node, largest first:
/// `true`, then each kid of an and/or/not/count (hoisted), then each kid
/// replaced by its own simplifications.
void pred_simplifications(const PredNode& n, std::vector<PredNode>& out) {
    if (n.kind != K::kTrue) out.push_back(PredNode{});  // -> true
    if (n.kind == K::kAnd || n.kind == K::kOr || n.kind == K::kNot ||
        n.kind == K::kCount) {
        for (const PredNode& kid : n.kids) out.push_back(kid);
        for (std::size_t i = 0; i < n.kids.size(); ++i) {
            std::vector<PredNode> kid_simpler;
            pred_simplifications(n.kids[i], kid_simpler);
            for (PredNode& replacement : kid_simpler) {
                PredNode copy = n;
                copy.kids[i] = std::move(replacement);
                out.push_back(std::move(copy));
            }
        }
    }
}

/// Emits one candidate per simplification of the predicate at `site`.
template <typename Setter>
void add_pred_candidates(const ProgramSpec& spec, const PredNode& site,
                         const Setter& set, std::vector<ProgramSpec>& out) {
    std::vector<PredNode> simpler;
    pred_simplifications(site, simpler);
    for (PredNode& replacement : simpler) {
        ProgramSpec candidate = spec;
        set(candidate, std::move(replacement));
        out.push_back(std::move(candidate));
    }
}

}  // namespace

std::vector<ProgramSpec> shrink_candidates(const ProgramSpec& spec) {
    std::vector<ProgramSpec> out;

    // 1. Drop fault actions (cheapest wins first: whole behaviors vanish).
    for (std::size_t i = 0; i < spec.fault_actions.size(); ++i) {
        ProgramSpec c = spec;
        c.fault_actions.erase(c.fault_actions.begin() +
                              static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(c));
    }

    // 2. Drop program actions.
    for (std::size_t i = 0; i < spec.actions.size(); ++i) {
        ProgramSpec c = spec;
        c.actions.erase(c.actions.begin() + static_cast<std::ptrdiff_t>(i));
        out.push_back(std::move(c));
    }

    // 3. Drop the leads-to obligation.
    if (spec.has_leads) {
        ProgramSpec c = spec;
        c.has_leads = false;
        c.leads_from = PredNode{};
        c.leads_to = PredNode{};
        out.push_back(std::move(c));
    }

    // 4. Drop channels, along with every action that uses them.
    for (std::size_t ch = 0; ch < spec.channels.size(); ++ch) {
        ProgramSpec c = spec;
        c.channels.erase(c.channels.begin() + static_cast<std::ptrdiff_t>(ch));
        auto drop_users = [ch](std::vector<ActionDecl>& actions) {
            std::vector<ActionDecl> kept;
            for (ActionDecl& a : actions) {
                if (effect_uses_channel(a.effect, ch)) continue;
                if (a.effect.chan > ch) --a.effect.chan;
                kept.push_back(std::move(a));
            }
            actions = std::move(kept);
        };
        drop_users(c.actions);
        drop_users(c.fault_actions);
        out.push_back(std::move(c));
    }

    // 5. Drop unreferenced plain variables (remapping all indices).
    if (spec.vars.size() > 1) {
        std::vector<bool> used(spec.vars.size(), false);
        for (const ActionDecl& a : spec.actions) {
            mark_pred_vars(a.guard, used);
            mark_effect_vars(a.effect, used);
        }
        for (const ActionDecl& a : spec.fault_actions) {
            mark_pred_vars(a.guard, used);
            mark_effect_vars(a.effect, used);
        }
        mark_pred_vars(spec.init, used);
        mark_pred_vars(spec.invariant, used);
        mark_pred_vars(spec.bad, used);
        if (spec.has_leads) {
            mark_pred_vars(spec.leads_from, used);
            mark_pred_vars(spec.leads_to, used);
        }
        for (std::size_t v = 0; v < spec.vars.size(); ++v) {
            if (used[v]) continue;
            ProgramSpec c = spec;
            c.vars.erase(c.vars.begin() + static_cast<std::ptrdiff_t>(v));
            remap_spec_vars(c, v);
            out.push_back(std::move(c));
        }
    }

    // 6. Shrink variable domains (one step at a time, clamping constants).
    for (std::size_t v = 0; v < spec.vars.size(); ++v) {
        if (spec.vars[v].domain <= 2) continue;
        ProgramSpec c = spec;
        const Value dom = --c.vars[v].domain;
        clamp_spec(c, v, dom);
        out.push_back(std::move(c));
    }

    // 7. Shrink channel value domains and capacities.
    for (std::size_t ch = 0; ch < spec.channels.size(); ++ch) {
        if (spec.channels[ch].value_domain > 2) {
            ProgramSpec c = spec;
            const Value dom = --c.channels[ch].value_domain;
            auto clamp_sends = [ch, dom](std::vector<ActionDecl>& actions) {
                for (ActionDecl& a : actions)
                    if (a.effect.kind == E::kChanSendConst &&
                        a.effect.chan == ch && a.effect.value >= dom)
                        a.effect.value = a.effect.value % dom;
            };
            clamp_sends(c.actions);
            clamp_sends(c.fault_actions);
            out.push_back(std::move(c));
        }
        if (spec.channels[ch].capacity > 1) {
            ProgramSpec c = spec;
            --c.channels[ch].capacity;
            out.push_back(std::move(c));
        }
    }

    // 8. Thin choice lists and corruption victim lists.
    auto thin_lists = [&out, &spec](const std::vector<ActionDecl>& actions,
                                    bool fault_list) {
        for (std::size_t i = 0; i < actions.size(); ++i) {
            const EffectNode& e = actions[i].effect;
            if (e.kind == E::kAssignChoice && e.choices.size() > 1) {
                for (std::size_t j = 0; j < e.choices.size(); ++j) {
                    ProgramSpec c = spec;
                    auto& target = fault_list ? c.fault_actions : c.actions;
                    target[i].effect.choices.erase(
                        target[i].effect.choices.begin() +
                        static_cast<std::ptrdiff_t>(j));
                    out.push_back(std::move(c));
                }
            }
            if ((e.kind == E::kCorruptAny || e.kind == E::kSetAny) &&
                e.vars.size() > 1) {
                for (std::size_t j = 0; j < e.vars.size(); ++j) {
                    ProgramSpec c = spec;
                    auto& target = fault_list ? c.fault_actions : c.actions;
                    target[i].effect.vars.erase(
                        target[i].effect.vars.begin() +
                        static_cast<std::ptrdiff_t>(j));
                    out.push_back(std::move(c));
                }
            }
        }
    };
    thin_lists(spec.actions, false);
    thin_lists(spec.fault_actions, true);

    // 9. Simplify predicate trees toward `true`, site by site.
    for (std::size_t i = 0; i < spec.actions.size(); ++i)
        add_pred_candidates(spec, spec.actions[i].guard,
                            [i](ProgramSpec& c, PredNode p) {
                                c.actions[i].guard = std::move(p);
                            },
                            out);
    for (std::size_t i = 0; i < spec.fault_actions.size(); ++i)
        add_pred_candidates(spec, spec.fault_actions[i].guard,
                            [i](ProgramSpec& c, PredNode p) {
                                c.fault_actions[i].guard = std::move(p);
                            },
                            out);
    add_pred_candidates(spec, spec.init,
                        [](ProgramSpec& c, PredNode p) {
                            c.init = std::move(p);
                        },
                        out);
    add_pred_candidates(spec, spec.invariant,
                        [](ProgramSpec& c, PredNode p) {
                            c.invariant = std::move(p);
                        },
                        out);
    add_pred_candidates(spec, spec.bad,
                        [](ProgramSpec& c, PredNode p) {
                            c.bad = std::move(p);
                        },
                        out);
    if (spec.has_leads) {
        add_pred_candidates(spec, spec.leads_from,
                            [](ProgramSpec& c, PredNode p) {
                                c.leads_from = std::move(p);
                            },
                            out);
        add_pred_candidates(spec, spec.leads_to,
                            [](ProgramSpec& c, PredNode p) {
                                c.leads_to = std::move(p);
                            },
                            out);
    }

    // 10. Flatten the grade to the simplest query.
    if (spec.grade != 0) {
        ProgramSpec c = spec;
        c.grade = 0;
        out.push_back(std::move(c));
    }
    return out;
}

ProgramSpec shrink(const ProgramSpec& spec, const StillDiverges& still_diverges,
                   std::size_t max_accepts) {
    ProgramSpec current = spec;
    for (std::size_t accepts = 0; accepts < max_accepts; ++accepts) {
        bool reduced = false;
        for (ProgramSpec& candidate : shrink_candidates(current)) {
            if (!validate(candidate)) continue;
            if (!still_diverges(candidate)) continue;
            current = std::move(candidate);
            reduced = true;
            break;
        }
        if (!reduced) break;
    }
    return current;
}

}  // namespace dcft::fuzz
