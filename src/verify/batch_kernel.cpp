#include "verify/batch_kernel.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace dcft {

namespace {

/// Whether BatchKernel::lower has a flat form for statements of `kind`.
bool lowers(Action::EffectForm::Kind kind) {
    using EK = Action::EffectForm::Kind;
    return kind != EK::kGeneric && kind != EK::kSetAny &&
           kind != EK::kParallel;
}

}  // namespace

BatchCoverage batch_coverage(const CompiledProgram& cp) {
    using EK = Action::EffectForm::Kind;
    BatchCoverage cov;
    std::size_t lowered = 0;  // actions BatchKernel::lower accepts
    auto scan = [&](const CompiledActionSet& set) {
        for (const CompiledAction& a : set.actions()) {
            ++cov.actions;
            const bool guard_ok = a.guard_fully_compiled();
            const EK kind = a.effect_form().kind;
            const bool effect_ok = kind != EK::kGeneric;
            cov.kcall_ops += a.guard_opaque_ops();
            if (guard_ok) ++cov.fully_compiled;
            if (effect_ok) ++cov.structured_effects;
            if (guard_ok && effect_ok) ++cov.batchable_actions;
            if (guard_ok && lowers(kind)) ++lowered;
        }
    };
    scan(cp.program_actions());
    if (cp.has_faults()) scan(cp.fault_actions());
    cov.batchable = cp.cspace().fast() && lowered == cov.actions &&
                    cp.program_actions().size() <= 64 &&
                    (!cp.has_faults() || cp.fault_actions().size() <= 64);
    return cov;
}

bool BatchKernel::lower(const CompiledAction& ka, const CompiledSpace& cs,
                        const BitVec* gbits, Spec& out) {
    using EK = Action::EffectForm::Kind;
    const Action::EffectForm& f = ka.effect_form();
    if (!lowers(f.kind) || gbits == nullptr) return false;
    out.kind = f.kind;
    out.var = f.var;
    out.gw = gbits->data();
    // Unified table form for the single-successor kinds (see Spec): the
    // table is indexed by the current digit of `src`, so it has dom(src)
    // entries — a handful of hot int64s per action.
    auto fill_tab = [&](VarId src, auto nv_of) {
        out.src = src;
        const Value dom = cs.num_vars() == 0 ? 1 : cs.domain(src);
        out.tab.resize(static_cast<std::size_t>(dom));
        for (Value x = 0; x < dom; ++x)
            out.tab[static_cast<std::size_t>(x)] = nv_of(x);
    };
    switch (f.kind) {
        case EK::kSkip:
            // stride stays 0: target(s) = s regardless of the table value.
            fill_tab(0, [](Value x) { return x; });
            out.max_succ = 1;
            break;
        case EK::kAssignConst:
            out.stride = static_cast<std::int64_t>(cs.stride(f.var));
            fill_tab(f.var, [&](Value) { return f.value; });
            out.max_succ = 1;
            break;
        case EK::kAssignVar:
            out.stride = static_cast<std::int64_t>(cs.stride(f.var));
            fill_tab(f.var2, [](Value x) { return x; });
            out.max_succ = 1;
            break;
        case EK::kAssignAddMod:
            out.stride = static_cast<std::int64_t>(cs.stride(f.var));
            // Precomputed with C++ truncated-division semantics — the
            // per-edge result is bit-identical to CompiledAction's
            // (d[var2] + value) % modulus.
            fill_tab(f.var2,
                     [&](Value x) { return (x + f.value) % f.modulus; });
            out.max_succ = 1;
            break;
        case EK::kAssignChoice:
            out.stride = static_cast<std::int64_t>(cs.stride(f.var));
            out.choices = f.choices;
            out.max_succ = static_cast<std::uint32_t>(f.choices.size());
            break;
        case EK::kCorruptAny: {
            std::uint32_t total = 0;
            out.corrupt.reserve(f.vars.size());
            for (const VarId v : f.vars) {
                const Value dom = cs.domain(v);
                out.corrupt.push_back(
                    {v, static_cast<std::int64_t>(cs.stride(v)), dom});
                total += static_cast<std::uint32_t>(dom - 1);
            }
            out.max_succ = total;
            break;
        }
        default:
            return false;
    }
    return true;
}

BatchKernel::BatchKernel(const CompiledProgram& cp,
                         std::span<const BitVec* const> prog_gbits,
                         std::span<const BitVec* const> fault_gbits)
    : cs_(cp.cspace()) {
    const auto pacts = cp.program_actions().actions();
    const auto facts = cp.has_faults() ? cp.fault_actions().actions()
                                       : std::span<const CompiledAction>{};
    if (!cs_.fast() || pacts.size() > 64 || facts.size() > 64) return;
    prog_.resize(pacts.size());
    for (std::size_t a = 0; a < pacts.size(); ++a)
        if (!lower(pacts[a], cs_, prog_gbits[a], prog_[a])) return;
    fault_.resize(facts.size());
    for (std::size_t a = 0; a < facts.size(); ++a)
        if (!lower(facts[a], cs_, fault_gbits[a], fault_[a])) return;
    doms_.resize(cs_.num_vars());
    for (VarId v = 0; v < doms_.size(); ++v) doms_[v] = cs_.domain(v);
    batchable_ = true;
}

std::pair<std::uint64_t, std::uint64_t> BatchKernel::count_edges(
    StateIndex begin, StateIndex end) const {
    DCFT_EXPECTS((begin & 63) == 0 && begin <= end,
                 "BatchKernel::count_edges: misaligned range");
    auto count = [&](const std::vector<Spec>& specs) {
        std::uint64_t total = 0;
        const std::uint64_t wb = begin >> 6;
        const std::uint64_t we = end >> 6;
        const unsigned tail = static_cast<unsigned>(end & 63);
        for (const Spec& k : specs) {
            std::uint64_t pop = 0;
            for (std::uint64_t w = wb; w < we; ++w)
                pop += static_cast<std::uint64_t>(std::popcount(k.gw[w]));
            if (tail != 0)
                pop += static_cast<std::uint64_t>(std::popcount(
                    k.gw[we] & ((std::uint64_t{1} << tail) - 1)));
            total += pop * k.max_succ;
        }
        return total;
    };
    return {count(prog_), count(fault_)};
}

void BatchKernel::sweep(StateIndex begin, StateIndex end,
                        SweepSlice out) const {
    using EK = Action::EffectForm::Kind;
    DCFT_EXPECTS(batchable_ && (begin & 63) == 0,
                 "BatchKernel::sweep: not batchable or misaligned");
    const std::size_t nv = doms_.size();
    // Padded to one element so d[Spec::src] is always a valid read even
    // for a zero-variable space (kSkip lowers to src = 0).
    std::vector<Value> digits(std::max<std::size_t>(nv, 1), 0);
    cs_.unpack(begin, {digits.data(), nv});
    Value* d = digits.data();
    const Value* dom = doms_.data();

    const std::size_t np = prog_.size();
    std::uint64_t pw[64];  // per-block cached guard words
    std::uint64_t pcur = out.prog_cursor;

    // Emits the successors of action k (index a) at state s. Edge order
    // per state is actions in declaration order, each action's successors
    // in statement order — identical to CompiledActionSet::expand.
    auto emit = [&](const Spec& k, std::uint32_t a, StateIndex s, Edge* edges,
                    std::uint64_t& cur) {
        switch (k.kind) {
            case EK::kAssignChoice: {
                const Value c0 = d[k.var];
                for (const Value c : k.choices)
                    edges[cur++] =
                        Edge{a, static_cast<NodeId>(
                                    s + static_cast<StateIndex>(
                                            static_cast<std::int64_t>(c - c0) *
                                            k.stride))};
                return;
            }
            case EK::kCorruptAny: {
                for (const Spec::CorruptVar& cv : k.corrupt) {
                    const Value c0 = d[cv.v];
                    // base = s with digit cv.v zeroed; then walk the digit.
                    StateIndex t = s + static_cast<StateIndex>(
                                           -static_cast<std::int64_t>(c0) *
                                           cv.stride);
                    for (Value c = 0; c < cv.dom;
                         ++c, t += static_cast<StateIndex>(cv.stride))
                        if (c != c0)
                            edges[cur++] = Edge{a, static_cast<NodeId>(t)};
                }
                return;
            }
            default:
                // Unified det table (see Spec): one tiny-table load, a
                // multiply, an add — mirrors CompiledSpace::set_digit via
                // two's-complement wraparound, so the result is exact.
                edges[cur++] = Edge{
                    a, static_cast<NodeId>(
                           s + static_cast<StateIndex>(
                                   static_cast<std::int64_t>(k.tab[d[k.src]] -
                                                             d[k.var]) *
                                   k.stride))};
                return;
        }
    };

    StateIndex s = begin;
    for (std::uint64_t w = begin >> 6; s < end; ++w) {
        for (std::size_t a = 0; a < np; ++a) pw[a] = prog_[a].gw[w];
        const unsigned lim =
            static_cast<unsigned>(std::min<StateIndex>(64, end - s));
        for (unsigned bit = 0; bit < lim; ++bit, ++s) {
            std::uint64_t m = 0;
            for (std::size_t a = 0; a < np; ++a)
                m |= ((pw[a] >> bit) & 1u) << a;
            while (m != 0) {
                const unsigned a = static_cast<unsigned>(std::countr_zero(m));
                m &= m - 1;
                emit(prog_[a], a, s, out.prog_edges, pcur);
            }
            out.prog_offsets[s + 1] = pcur;
            // Odometer: amortized O(1) digit maintenance for s+1.
            for (std::size_t v = 0; v < nv; ++v) {
                if (++d[v] < dom[v]) break;
                d[v] = 0;
            }
        }
    }
}

}  // namespace dcft
