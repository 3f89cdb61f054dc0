#include "synth/add_nonmasking.hpp"

#include <deque>
#include <unordered_map>

#include "common/check.hpp"
#include "gc/composition.hpp"
#include "gc/compiled.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "verify/fault_span.hpp"

namespace dcft {
namespace {

constexpr std::size_t kMaxReportedUnrecoverable = 16;

/// Enumerates the candidate-recovery neighbours of `u` in the *reverse*
/// direction: states s (differing from u in exactly one writable variable)
/// such that the recovery transition s -> u is admissible. Digit
/// extraction and substitution run on the CompiledSpace's divmod-free fast
/// path (set_digit is a single stride-delta add).
template <typename Fn>
void for_each_recovery_pred(const StateSpace& space, const CompiledSpace& cs,
                            const std::vector<VarId>& writable,
                            const SafetySpec* safety, StateIndex u, Fn&& fn) {
    for (VarId v : writable) {
        const Value current = cs.get(u, v);
        const Value domain = space.variable(v).domain_size;
        for (Value c = 0; c < domain; ++c) {
            if (c == current) continue;
            const StateIndex s = cs.set_digit(u, v, current, c);
            if (safety != nullptr &&
                (!safety->transition_allowed(space, s, u) ||
                 !safety->state_allowed(space, u)))
                continue;
            fn(s);
        }
    }
}

}  // namespace

NonmaskingSynthesis add_nonmasking(const Program& p, const FaultClass& f,
                                   const Predicate& invariant,
                                   const NonmaskingOptions& opts) {
    const obs::Span synth_span("synth/fixpoint");
    if (obs::progress_enabled()) obs::progress_phase("synth/fixpoint");
    obs::count("synth/fixpoint/syntheses");
    const StateSpace& space = p.space();
    const FaultSpan span =
        compute_fault_span(p, f, opts.span_from.value_or(invariant));

    std::vector<VarId> writable;
    if (opts.writable.empty()) {
        writable = p.vars().members();
    } else {
        for (const auto& name : opts.writable) writable.push_back(space.find(name));
    }

    // Compile the space once per synthesis; the ranking fixpoint below
    // does one get/set_digit pair per (state, writable var, value) triple.
    const std::shared_ptr<const CompiledSpace> cspace =
        compile_space(p.space_ptr());

    // Multi-source backward BFS from the invariant along admissible
    // recovery transitions, restricted to the fault span. next_hop[s] is
    // the chosen recovery successor of s (one rank closer to S). The seed
    // membership test is bulk-evaluated once instead of calling the
    // invariant's eval per span state.
    auto next_hop = std::make_shared<std::unordered_map<StateIndex, StateIndex>>();
    StateSet ranked(space.num_states());
    std::deque<StateIndex> frontier;
    const BitVec inv_bits = eval_bits(space, invariant);
    span.states->for_each([&](StateIndex s) {
        if (inv_bits.test(s)) {
            ranked.insert(s);
            frontier.push_back(s);
        }
    });
    while (!frontier.empty()) {
        const StateIndex u = frontier.front();
        frontier.pop_front();
        for_each_recovery_pred(space, *cspace, writable, opts.safety, u,
                               [&](StateIndex s) {
                                   if (!span.states->contains(s)) return;
                                   if (ranked.contains(s)) return;
                                   ranked.insert(s);
                                   next_hop->emplace(s, u);
                                   frontier.push_back(s);
                               });
    }

    NonmaskingSynthesis result{
        Program(p.space_ptr(), p.vars(), ""),
        Program(p.space_ptr(), p.vars(), "corrector(" + p.name() + ")"),
        span.predicate,
        true,
        {}};

    std::uint64_t unrecoverable_total = 0;
    span.states->for_each([&](StateIndex s) {
        if (ranked.contains(s)) return;
        result.complete = false;
        ++unrecoverable_total;
        if (result.unrecoverable.size() < kMaxReportedUnrecoverable)
            result.unrecoverable.push_back(s);
    });
    obs::count("synth/fixpoint/ranked_states", ranked.count());
    obs::count("synth/fixpoint/unrecoverable_states", unrecoverable_total);

    // The corrector: guard = span /\ !S /\ has-a-hop; statement follows one
    // hop (single_step) or the whole path to S (atomic reset).
    const bool single_step = opts.single_step;
    Predicate guard(
        "span&&!(" + invariant.name() + ")",
        [span_states = span.states, invariant, next_hop](
            const StateSpace& sp, StateIndex s) {
            return span_states->contains(s) && !invariant.eval(sp, s) &&
                   next_hop->count(s) != 0;
        });
    Action correct(
        "CR:" + p.name(), std::move(guard),
        [next_hop, invariant, single_step](const StateSpace& sp,
                                           StateIndex s) -> StateIndex {
            StateIndex cur = s;
            for (;;) {
                auto it = next_hop->find(cur);
                DCFT_ASSERT(it != next_hop->end(),
                            "corrector fired without a recovery hop");
                cur = it->second;
                if (single_step || invariant.eval(sp, cur)) return cur;
            }
        });
    result.corrector.add_action(correct);

    Program base = opts.freeze_program_outside_invariant
                       ? restrict_program(invariant, p)
                       : p;
    result.program = parallel(base, result.corrector);
    result.program =
        result.program.renamed("nonmasking(" + p.name() + ")");
    return result;
}

}  // namespace dcft
