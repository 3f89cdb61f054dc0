#include "verify/closure.hpp"

#include <memory>

#include "common/bitvec.hpp"
#include "obs/progress.hpp"
#include "verify/action_kernel.hpp"

namespace dcft {
namespace {

CheckResult check_preserved_by(const StateSpace& space,
                               std::span<const Action> actions,
                               const Predicate& s, const char* what) {
    if (obs::progress_enabled()) obs::progress_phase("closure");
    // Evaluate the predicate exactly once per state, then test membership
    // of every successor with bit probes instead of repeated evaluation.
    // Guards and effects run compiled (bytecode + stride arithmetic).
    const BitVec s_bits = eval_bits(space, s);
    // Non-owning alias: the set lives only inside this call.
    const CompiledActionSet compiled(
        std::shared_ptr<const StateSpace>(std::shared_ptr<void>{}, &space),
        actions);
    std::vector<StateIndex> succ;
    CheckResult result = CheckResult::success();
    s_bits.for_each_set([&](std::uint64_t st_raw) {
        if (!result.ok) return;
        const StateIndex st = static_cast<StateIndex>(st_raw);
        for (std::size_t ai = 0; ai < actions.size(); ++ai) {
            const CompiledAction& ka = compiled[ai];
            if (!ka.enabled(st)) continue;
            succ.clear();
            ka.successors(st, succ);
            for (StateIndex t : succ) {
                if (!s_bits.test(t)) {
                    result = CheckResult::failure(
                        std::string(what) + ": predicate " + s.name() +
                        " not preserved by action '" + actions[ai].name() +
                        "' from " + space.format(st) + " to " +
                        space.format(t));
                    return;
                }
            }
        }
    });
    return result;
}

}  // namespace

CheckResult check_closed(const Program& p, const Predicate& s) {
    return check_preserved_by(p.space(), p.actions(), s,
                              ("closed in " + p.name()).c_str());
}

CheckResult check_preserved(const FaultClass& f, const Predicate& s) {
    return check_preserved_by(f.space(), f.actions(), s,
                              ("preserved by " + f.name()).c_str());
}

}  // namespace dcft
