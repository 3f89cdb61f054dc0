#include "verify/action_kernel.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "obs/telemetry.hpp"

namespace dcft {

// ---------------------------------------------------------------------------
// LineMarks
// ---------------------------------------------------------------------------

LineMarks::LineMarks(const CompiledSpace& cs,
                     std::span<const CompiledAction> faults)
    : cs_(cs), lines_(cs.num_vars()) {
    for (const CompiledAction& a : faults) {
        const Action::EffectForm& f = a.effect_form();
        if (f.kind != Action::EffectForm::Kind::kCorruptAny) continue;
        for (const VarId v : f.vars) {
            const Value dom = cs.domain(v);
            if (dom < 2 || lines_[v].size_bits() != 0) continue;
            lines_[v] = BitVec(cs.num_states() /
                               static_cast<StateIndex>(dom));
            any_ = true;
        }
    }
}

// ---------------------------------------------------------------------------
// CompiledAction
// ---------------------------------------------------------------------------

CompiledAction::CompiledAction(std::shared_ptr<const CompiledSpace> cs,
                               Action action)
    : cs_(std::move(cs)),
      action_(std::move(action)),
      form_(action_.effect_form()),
      guard_(*cs_, action_.guard()) {
    for (const auto& branch : form_.branches) {
        branches_.emplace_back();
        for (const Action::EffectForm::Assignment& a : branch)
            branches_.back().push_back(CompiledAssign{a.var, TermCode(a.value)});
    }
    obs::count("verify/compile/actions");
    if (!guard_fully_compiled())
        obs::count("verify/compile/opaque_guard_fallbacks");
}

const BitVec& CompiledAction::guard_bits() const {
    ensure_guard_bits();
    return *guard_bits_;
}

void CompiledAction::ensure_guard_bits() const {
    if (guard_bits_ != nullptr) return;
    const obs::Span span("verify/compile/guard_bits");
    auto bits = std::make_unique<BitVec>(cs_->num_states());
    const FillStats stats = fill_guard_bits(*cs_, action_.guard(), *bits);
    if (stats.kcall_ops != 0)
        obs::count("verify/compile/guard_bits_scans", stats.kcall_ops);
    guard_bits_ = std::move(bits);
    obs::count("verify/compile/guard_bits_built");
}

// ---------------------------------------------------------------------------
// CompiledActionSet / CompiledProgram
// ---------------------------------------------------------------------------

CompiledActionSet::CompiledActionSet(std::shared_ptr<const StateSpace> space,
                                     std::span<const Action> actions)
    : CompiledActionSet(compile_space(std::move(space)), actions) {}

CompiledActionSet::CompiledActionSet(std::shared_ptr<const CompiledSpace> cs,
                                     std::span<const Action> actions)
    : cs_(std::move(cs)) {
    DCFT_EXPECTS(cs_ != nullptr, "CompiledActionSet: null compiled space");
    actions_.reserve(actions.size());
    for (const Action& a : actions) actions_.emplace_back(cs_, a);
}

template <class Out>
void CompiledActionSet::append(StateIndex s,
                               std::span<const BitVec* const> gbits, Out& out,
                               LineMarks* marks) const {
    for (std::uint32_t a = 0; a < actions_.size(); ++a) {
        const CompiledAction& ka = actions_[a];
        const BitVec* gb = gbits.empty() ? nullptr : gbits[a];
        if (gb != nullptr ? !gb->test(s) : !ka.enabled(s)) continue;
        ka.append(s, a, out, marks);
    }
}

std::uint32_t CompiledActionSet::expand(StateIndex s,
                                        std::span<const BitVec* const> gbits,
                                        std::vector<Rec>& recs,
                                        LineMarks* marks) const {
    const std::size_t before = recs.size();
    append(s, gbits, recs, marks);
    return static_cast<std::uint32_t>(recs.size() - before);
}

void CompiledActionSet::successors(StateIndex s,
                                   std::vector<StateIndex>& out) const {
    append(s, {}, out, nullptr);
}

void CompiledActionSet::ensure_guard_bits() const {
    for (const CompiledAction& a : actions_) a.ensure_guard_bits();
}

CompiledProgram::CompiledProgram(const Program& program,
                                 const FaultClass* faults)
    : cs_(compile_space(program.space_ptr())),
      program_(cs_, program.actions()) {
    if (faults != nullptr) {
        DCFT_EXPECTS(&faults->space() == &program.space(),
                     "CompiledProgram: fault class over a different space");
        faults_ =
            std::make_shared<const CompiledActionSet>(cs_, faults->actions());
    }
}

void CompiledProgram::ensure_guard_bits() const {
    program_.ensure_guard_bits();
    if (faults_ != nullptr) faults_->ensure_guard_bits();
}

}  // namespace dcft
