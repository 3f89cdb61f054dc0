#include "fuzz/generator.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dcft::fuzz {

namespace {

/// Random term of the given maximum depth: constants, variables,
/// `t + k` (mod m or not), min/max and counts, all over small ranges.
TermNode gen_term(Rng& rng, const ProgramSpec& spec, int depth) {
    using K = TermNode::Kind;
    TermNode t;
    const std::size_t nv = spec.vars.size();
    const std::uint64_t roll = rng.below(depth <= 0 ? 3 : 6);
    if (roll == 0) {
        t.kind = K::kConst;
        t.value = static_cast<Value>(rng.below(6)) - 1;
    } else if (roll == 1) {
        t.kind = K::kVar;
        t.var = rng.below(nv);
    } else if (roll == 2) {
        t.kind = K::kCount;
        const std::uint64_t k = 1 + rng.below(std::min<std::size_t>(nv, 4));
        for (std::uint64_t i = 0; i < k; ++i) t.vars.push_back(rng.below(nv));
        t.value = static_cast<Value>(rng.below(3));
    } else if (roll == 3) {
        t.kind = K::kAdd;
        t.value = static_cast<Value>(rng.below(4)) - 1;
        t.modulus = rng.chance(0.5) ? 0 : static_cast<Value>(1 + rng.below(4));
        t.kids.push_back(gen_term(rng, spec, depth - 1));
    } else {
        t.kind = roll == 4 ? K::kMin : K::kMax;
        const std::uint64_t k = 1 + rng.below(3);
        for (std::uint64_t i = 0; i < k; ++i)
            t.kids.push_back(gen_term(rng, spec, depth - 1));
    }
    return t;
}

/// A random term whose values all lie in [0, dom): wrapped mod dom when
/// its bounds leave that range.
TermNode gen_term_within(Rng& rng, const ProgramSpec& spec, Value dom) {
    TermNode t = gen_term(rng, spec, 2);
    const auto [lo, hi] = term_bounds(spec, t);
    if (lo >= 0 && hi < dom) return t;
    TermNode wrap;
    wrap.kind = TermNode::Kind::kAdd;
    wrap.modulus = dom;
    wrap.kids.push_back(std::move(t));
    return wrap;
}

/// Random parallel statement: one branch (assign_parallel) or, with
/// `choice`, two or three (choose_parallel); each branch assigns 1-3
/// distinct variables.
EffectNode gen_parallel(Rng& rng, const ProgramSpec& spec, bool choice) {
    EffectNode e;
    e.kind = EffectNode::Kind::kParallel;
    const std::size_t nv = spec.vars.size();
    const std::uint64_t branches = choice ? 2 + rng.below(2) : 1;
    for (std::uint64_t b = 0; b < branches; ++b) {
        std::vector<AssignNode> branch;
        const std::uint64_t k = 1 + rng.below(std::min<std::size_t>(nv, 3));
        const std::size_t first = rng.below(nv);
        for (std::uint64_t i = 0; i < k; ++i) {
            const std::size_t v = (first + i) % nv;
            branch.push_back(
                AssignNode{v, gen_term_within(rng, spec, spec.vars[v].domain)});
        }
        e.branches.push_back(std::move(branch));
    }
    return e;
}

/// Random predicate leaf over the plain variables.
PredNode gen_leaf(Rng& rng, const ProgramSpec& spec) {
    PredNode n;
    const std::size_t nv = spec.vars.size();
    // Weighted choice: var comparisons dominate; constants are rare (they
    // collapse the predicate and mostly test degenerate paths).
    const std::uint64_t roll = rng.below(12);
    if (roll >= 10) {
        n.kind = PredNode::Kind::kCompare;
        n.cmp = static_cast<int>(rng.below(kNumCompareOps));
        n.terms.push_back(gen_term(rng, spec, 2));
        n.terms.push_back(gen_term(rng, spec, 1));
    } else if (roll == 0) {
        n.kind = PredNode::Kind::kTrue;
    } else if (roll == 1) {
        n.kind = PredNode::Kind::kFalse;
    } else if (roll < 5 || nv < 2) {
        n.kind = rng.chance(0.5) ? PredNode::Kind::kVarEqConst
                                 : PredNode::Kind::kVarNeConst;
        n.var = rng.below(nv);
        n.value = static_cast<Value>(rng.below(
            static_cast<std::uint64_t>(spec.vars[n.var].domain)));
    } else {
        n.kind = rng.chance(0.5) ? PredNode::Kind::kVarEqVar
                                 : PredNode::Kind::kVarNeVar;
        n.var = rng.below(nv);
        n.var2 = rng.below(nv);
        if (n.var2 == n.var) n.var2 = (n.var + 1) % nv;
    }
    return n;
}

/// Random predicate tree of the given maximum depth.
PredNode gen_pred(Rng& rng, const ProgramSpec& spec, int depth) {
    if (depth <= 0 || !rng.chance(0.45)) return gen_leaf(rng, spec);
    PredNode n;
    const std::uint64_t roll = rng.below(4);
    if (roll == 3) {
        // Counting atom, with k from -1 to |operands| + 1.
        n.kind = PredNode::Kind::kCount;
        n.cmp = static_cast<int>(rng.below(kNumCompareOps));
        const std::uint64_t k = 1 + rng.below(4);
        for (std::uint64_t i = 0; i < k; ++i)
            n.kids.push_back(gen_pred(rng, spec, depth - 1));
        n.value = static_cast<Value>(rng.below(k + 3)) - 1;
    } else if (roll == 2) {
        n.kind = PredNode::Kind::kNot;
        n.kids.push_back(gen_pred(rng, spec, depth - 1));
    } else {
        n.kind = roll == 0 ? PredNode::Kind::kAnd : PredNode::Kind::kOr;
        n.kids.push_back(gen_pred(rng, spec, depth - 1));
        n.kids.push_back(gen_pred(rng, spec, depth - 1));
    }
    return n;
}

/// Random program-action effect (deterministic shapes dominate; channel
/// sends/receives appear when a channel exists).
EffectNode gen_program_effect(Rng& rng, const ProgramSpec& spec) {
    EffectNode e;
    const std::size_t nv = spec.vars.size();
    const bool chans = !spec.channels.empty();
    const std::uint64_t roll = rng.below(chans ? 13 : 10);
    if (roll == (chans ? 12u : 9u)) {
        e = gen_parallel(rng, spec, rng.chance(0.3));
    } else if (roll == 0) {
        e.kind = EffectNode::Kind::kSkip;
    } else if (roll <= 3) {
        e.kind = EffectNode::Kind::kAssignConst;
        e.var = rng.below(nv);
        e.value = static_cast<Value>(rng.below(
            static_cast<std::uint64_t>(spec.vars[e.var].domain)));
    } else if (roll <= 5) {
        e.kind = EffectNode::Kind::kAssignAddMod;
        e.var = rng.below(nv);
        e.var2 = rng.chance(0.6) ? e.var : rng.below(nv);
        e.value = static_cast<Value>(1 + rng.below(3));
        e.modulus = static_cast<Value>(
            1 + rng.below(static_cast<std::uint64_t>(spec.vars[e.var].domain)));
    } else if (roll == 6) {
        // assign_var needs dom(src) <= dom(var): pick src first, then a
        // target whose domain is at least as large.
        std::size_t src = rng.below(nv);
        std::size_t var = rng.below(nv);
        if (spec.vars[src].domain > spec.vars[var].domain)
            std::swap(src, var);
        e.kind = EffectNode::Kind::kAssignVar;
        e.var = var;
        e.var2 = src;
    } else if (roll <= 8) {
        e.kind = EffectNode::Kind::kAssignChoice;
        e.var = rng.below(nv);
        const auto dom = static_cast<std::uint64_t>(spec.vars[e.var].domain);
        const std::uint64_t k = 1 + rng.below(std::min<std::uint64_t>(dom, 3));
        for (std::uint64_t i = 0; i < k; ++i)
            e.choices.push_back(static_cast<Value>(rng.below(dom)));
    } else if (roll <= 10) {
        e.kind = EffectNode::Kind::kChanSendConst;
        e.chan = rng.below(spec.channels.size());
        e.value = static_cast<Value>(rng.below(
            static_cast<std::uint64_t>(spec.channels[e.chan].value_domain)));
    } else {
        e.kind = EffectNode::Kind::kChanRecvToVar;
        e.chan = rng.below(spec.channels.size());
        e.var = rng.below(nv);
    }
    return e;
}

/// Random fault-action effect (the nondeterministic shapes of the paper's
/// fault classes: transient corruption, arbitrary choice, channel faults).
EffectNode gen_fault_effect(Rng& rng, const ProgramSpec& spec) {
    EffectNode e;
    const std::size_t nv = spec.vars.size();
    const bool chans = !spec.channels.empty();
    const std::uint64_t roll = rng.below(chans ? 7 : 5);
    if (roll == (chans ? 6u : 4u)) {
        e = gen_parallel(rng, spec, /*choice=*/true);
    } else if (roll <= 2) {
        // Random nonempty victim subset (all generated domains are >= 2):
        // transient corruption, or a flag-raising set_any to 0 or 1.
        e.kind = rng.chance(0.25) ? EffectNode::Kind::kSetAny
                                  : EffectNode::Kind::kCorruptAny;
        for (std::size_t v = 0; v < nv; ++v)
            if (rng.chance(0.5)) e.vars.push_back(v);
        if (e.vars.empty()) e.vars.push_back(rng.below(nv));
        if (e.kind == EffectNode::Kind::kSetAny)
            e.value = static_cast<Value>(rng.below(2));
    } else if (roll == 3) {
        e.kind = EffectNode::Kind::kAssignChoice;
        e.var = rng.below(nv);
        const auto dom = static_cast<std::uint64_t>(spec.vars[e.var].domain);
        const std::uint64_t k = 1 + rng.below(std::min<std::uint64_t>(dom, 3));
        for (std::uint64_t i = 0; i < k; ++i)
            e.choices.push_back(static_cast<Value>(rng.below(dom)));
    } else {
        e.chan = rng.below(spec.channels.size());
        const std::uint64_t which = rng.below(3);
        if (which == 0) {
            e.kind = EffectNode::Kind::kChanLose;
        } else if (which == 1) {
            e.kind = EffectNode::Kind::kChanDuplicate;
        } else if (spec.channels[e.chan].value_domain >= 2) {
            e.kind = EffectNode::Kind::kChanCorrupt;
        } else {
            e.kind = EffectNode::Kind::kChanLose;
        }
    }
    return e;
}

}  // namespace

ProgramSpec generate_spec(std::uint64_t seed, const GeneratorConfig& config) {
    Rng rng(seed);
    ProgramSpec spec;
    spec.seed = seed;
    spec.name = "fuzz-" + std::to_string(seed);
    spec.grade = static_cast<int>(rng.below(3));

    // Variables under the state-space budget.
    std::uint64_t budget = std::max<std::uint64_t>(config.max_states, 4);
    const std::size_t want_vars =
        1 + rng.below(std::max<std::size_t>(config.max_vars, 1));
    for (std::size_t i = 0; i < want_vars && budget >= 2; ++i) {
        const auto span = static_cast<std::uint64_t>(
            std::max<Value>(config.max_domain, 2) - 1);
        std::uint64_t dom = 2 + rng.below(span);
        dom = std::min(dom, budget);
        if (dom < 2) break;
        spec.vars.push_back(
            VarDecl{"v" + std::to_string(i), static_cast<Value>(dom)});
        budget /= dom;
    }
    if (spec.vars.empty()) spec.vars.push_back(VarDecl{"v0", 2});

    // Optionally one channel, if the remaining budget can pack it.
    if (rng.chance(config.channel_probability)) {
        const int capacity = 1 + static_cast<int>(rng.below(2));
        const Value value_domain = 2 + static_cast<Value>(rng.below(2));
        ChannelDecl c{"ch0", capacity, value_domain};
        ChannelDecl fallback{"ch0", 1, 2};  // packed domain 3
        for (const ChannelDecl& candidate : {c, fallback}) {
            std::uint64_t dom = 0, pow = 1;
            for (int l = 0; l <= candidate.capacity; ++l) {
                dom += pow;
                pow *= static_cast<std::uint64_t>(candidate.value_domain);
            }
            if (dom <= budget) {
                spec.channels.push_back(candidate);
                budget /= dom;
                break;
            }
        }
    }

    // Program actions.
    const std::size_t num_actions =
        1 + rng.below(std::max<std::size_t>(config.max_actions, 1));
    for (std::size_t i = 0; i < num_actions; ++i) {
        ActionDecl a;
        a.name = "a" + std::to_string(i);
        a.guard = gen_pred(rng, spec, 2);
        a.effect = gen_program_effect(rng, spec);
        spec.actions.push_back(std::move(a));
    }

    // Fault actions (possibly none: the no-fault verifier paths are a
    // differential surface of their own).
    const std::size_t num_faults = rng.below(config.max_fault_actions + 1);
    for (std::size_t i = 0; i < num_faults; ++i) {
        ActionDecl a;
        a.name = "f" + std::to_string(i);
        a.effect = gen_fault_effect(rng, spec);
        // Channel faults require a true guard (their factories carry the
        // emptiness guards internally); other faults get a random one.
        using K = EffectNode::Kind;
        const bool chan_fault = a.effect.kind == K::kChanLose ||
                                a.effect.kind == K::kChanDuplicate ||
                                a.effect.kind == K::kChanCorrupt;
        a.guard = chan_fault ? PredNode{} : gen_pred(rng, spec, 1);
        spec.fault_actions.push_back(std::move(a));
    }

    // Specification predicates. init is biased toward nonempty sets so
    // explorations usually have work to do; the occasional empty init
    // exercises the zero-node paths.
    spec.init = rng.chance(0.3) ? PredNode{} : gen_pred(rng, spec, 2);
    spec.invariant = gen_pred(rng, spec, 2);
    spec.bad = gen_pred(rng, spec, 1);
    if (rng.chance(0.5)) {
        spec.has_leads = true;
        spec.leads_from = gen_pred(rng, spec, 1);
        spec.leads_to = gen_pred(rng, spec, 1);
    }

    std::string error;
    DCFT_ASSERT(validate(spec, &error), "generated spec invalid: " + error);
    return spec;
}

}  // namespace dcft::fuzz
