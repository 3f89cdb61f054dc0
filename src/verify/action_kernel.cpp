#include "verify/action_kernel.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"
#include "obs/telemetry.hpp"

namespace dcft {

// ---------------------------------------------------------------------------
// GuardCode: compile + eval
// ---------------------------------------------------------------------------

namespace {

using NK = Predicate::NodeKind;

}  // namespace

GuardCode::GuardCode(const CompiledSpace& cs, const Predicate& p) {
    (void)cs;
    int depth = 0;
    int max_depth = 0;
    auto push_op = [&](Op op, int pops) {
        depth -= pops;
        ++depth;
        max_depth = std::max(max_depth, depth);
        ops_.push_back(op);
    };
    // Recursive lambda over predicate structure.
    auto emit = [&](auto&& self, const Predicate& q) -> void {
        Op op{};
        switch (q.node_kind()) {
            case NK::kTrue:
                op.k = Op::K::kTrue;
                push_op(op, 0);
                return;
            case NK::kFalse:
                op.k = Op::K::kFalse;
                push_op(op, 0);
                return;
            case NK::kVarEqConst:
            case NK::kVarNeConst:
                op.k = q.node_kind() == NK::kVarEqConst ? Op::K::kVarEqConst
                                                        : Op::K::kVarNeConst;
                op.var = q.node_var();
                op.value = q.node_value();
                push_op(op, 0);
                return;
            case NK::kVarEqVar:
            case NK::kVarNeVar:
                op.k = q.node_kind() == NK::kVarEqVar ? Op::K::kVarEqVar
                                                      : Op::K::kVarNeVar;
                op.var = q.node_var();
                op.var2 = q.node_var2();
                push_op(op, 0);
                return;
            case NK::kBacked:
                op.k = Op::K::kTestBits;
                op.idx = static_cast<std::uint32_t>(bits_.size());
                bits_.push_back(q.backing_bits());
                push_op(op, 0);
                return;
            case NK::kAnd:
            case NK::kOr: {
                const auto kids = q.node_operands();
                DCFT_ASSERT(kids.size() >= 2, "GuardCode: malformed node");
                self(self, kids[0]);
                for (std::size_t i = 1; i < kids.size(); ++i) {
                    self(self, kids[i]);
                    Op conn{};
                    conn.k = q.node_kind() == NK::kAnd ? Op::K::kAnd
                                                       : Op::K::kOr;
                    push_op(conn, 2);
                }
                return;
            }
            case NK::kNot: {
                const auto kids = q.node_operands();
                DCFT_ASSERT(kids.size() == 1, "GuardCode: malformed not");
                self(self, kids[0]);
                Op n{};
                n.k = Op::K::kNot;
                push_op(n, 1);
                return;
            }
            case NK::kOpaque:
            default:
                op.k = Op::K::kCall;
                op.idx = static_cast<std::uint32_t>(opaque_.size());
                opaque_.push_back(q);
                push_op(op, 0);
                return;
        }
    };
    emit(emit, p);
    if (max_depth > kMaxStack) {
        // Pathological nesting: fall back to one opaque call on the root.
        ops_.clear();
        bits_.clear();
        opaque_.clear();
        opaque_.push_back(p);
        Op op{};
        op.k = Op::K::kCall;
        op.idx = 0;
        ops_.push_back(op);
    }
    DCFT_ASSERT(!ops_.empty(), "GuardCode: empty program");
}

bool GuardCode::eval(const CompiledSpace& cs, StateIndex s) const {
    // Single-op guards (the common case: one comparison, one bitset test)
    // skip the stack machine entirely.
    if (ops_.size() == 1) {
        const Op& op = ops_[0];
        switch (op.k) {
            case Op::K::kTrue:
                return true;
            case Op::K::kFalse:
                return false;
            case Op::K::kVarEqConst:
                return cs.get(s, op.var) == op.value;
            case Op::K::kVarNeConst:
                return cs.get(s, op.var) != op.value;
            case Op::K::kVarEqVar:
                return cs.get(s, op.var) == cs.get(s, op.var2);
            case Op::K::kVarNeVar:
                return cs.get(s, op.var) != cs.get(s, op.var2);
            case Op::K::kTestBits:
                return bits_[op.idx]->test(s);
            case Op::K::kCall:
                return opaque_[op.idx].eval(cs.space(), s);
            default:
                break;
        }
    }
    bool stack[kMaxStack];
    int top = -1;
    for (const Op& op : ops_) {
        switch (op.k) {
            case Op::K::kTrue:
                stack[++top] = true;
                break;
            case Op::K::kFalse:
                stack[++top] = false;
                break;
            case Op::K::kVarEqConst:
                stack[++top] = cs.get(s, op.var) == op.value;
                break;
            case Op::K::kVarNeConst:
                stack[++top] = cs.get(s, op.var) != op.value;
                break;
            case Op::K::kVarEqVar:
                stack[++top] = cs.get(s, op.var) == cs.get(s, op.var2);
                break;
            case Op::K::kVarNeVar:
                stack[++top] = cs.get(s, op.var) != cs.get(s, op.var2);
                break;
            case Op::K::kTestBits:
                stack[++top] = bits_[op.idx]->test(s);
                break;
            case Op::K::kCall:
                stack[++top] = opaque_[op.idx].eval(cs.space(), s);
                break;
            case Op::K::kAnd:
                stack[top - 1] = stack[top - 1] && stack[top];
                --top;
                break;
            case Op::K::kOr:
                stack[top - 1] = stack[top - 1] || stack[top];
                --top;
                break;
            case Op::K::kNot:
                stack[top] = !stack[top];
                break;
        }
    }
    DCFT_ASSERT(top == 0, "GuardCode: unbalanced program");
    return stack[0];
}

// ---------------------------------------------------------------------------
// fill_guard_bits: word-level materialization from predicate structure
// ---------------------------------------------------------------------------

namespace {

/// Sets bits [begin, end) of bv (word-level).
void set_range(BitVec& bv, std::uint64_t begin, std::uint64_t end) {
    if (begin >= end) return;
    BitVec::Word* words = bv.data();
    const std::uint64_t wb = begin >> 6;
    const std::uint64_t we = (end - 1) >> 6;
    const BitVec::Word mb = ~BitVec::Word{0} << (begin & 63);
    const BitVec::Word me =
        ~BitVec::Word{0} >> (63 - ((end - 1) & 63));
    if (wb == we) {
        words[wb] |= mb & me;
        return;
    }
    words[wb] |= mb;
    for (std::uint64_t w = wb + 1; w < we; ++w) words[w] = ~BitVec::Word{0};
    words[we] |= me;
}

/// ORs the periodic pattern var==c into `out` (out not cleared here).
///
/// The pattern repeats with period stride*domain bits. For long periods a
/// handful of word-level range fills suffice; for short periods (small
/// strides — the common low-order variables) that would degenerate into
/// millions of sub-word fills, so instead one word-aligned tile of
/// lcm(period, 64) bits is materialized once and OR-replicated across the
/// output, one word copy per output word.
void or_var_eq(const CompiledSpace& cs, VarId v, Value c, BitVec& out) {
    const std::uint64_t t = static_cast<std::uint64_t>(cs.stride(v));
    const std::uint64_t d = static_cast<std::uint64_t>(cs.domain(v));
    const std::uint64_t n = cs.num_states();
    const std::uint64_t period = t * d;
    const std::uint64_t begin = static_cast<std::uint64_t>(c) * t;
    if (begin >= n) return;
    if (n / period <= 64) {
        for (std::uint64_t base = begin; base < n; base += period)
            set_range(out, base, std::min(base + t, n));
        return;
    }
    // Many short periods. lcm(period, 64) bits is a whole number of
    // periods *and* of words, so the word sequence of the pattern repeats
    // with that tile; n / period > 64 implies the tile fits inside n.
    const std::uint64_t tile_words = period / std::gcd<std::uint64_t>(period, 64);
    const std::uint64_t tile_bits = tile_words * 64;
    BitVec tile(tile_bits);
    for (std::uint64_t base = begin; base < tile_bits; base += period)
        set_range(tile, base, std::min(base + t, tile_bits));
    BitVec::Word* wout = out.data();
    const BitVec::Word* wt = tile.data();
    const std::uint64_t full_words = n >> 6;
    std::uint64_t k = 0;
    for (std::uint64_t w = 0; w < full_words; ++w) {
        wout[w] |= wt[k];
        if (++k == tile_words) k = 0;
    }
    // Final partial word: keep the padding bits above n clear.
    if ((n & 63) != 0)
        wout[full_words] |=
            wt[k] & (~BitVec::Word{0} >> (64 - (n & 63)));
}

/// Per-state fallback scan of an unstructured subtree (out not cleared).
void or_scan(const CompiledSpace& cs, const Predicate& p, BitVec& out) {
    obs::count("verify/compile/guard_bits_scans");
    const StateSpace& sp = cs.space();
    const std::uint64_t n = cs.num_states();
    for (StateIndex s = 0; s < n; ++s)
        if (p.eval(sp, s)) out.set(s);
}

void fill_rec(const CompiledSpace& cs, const Predicate& p, BitVec& out) {
    const std::uint64_t n = cs.num_states();
    switch (p.node_kind()) {
        case NK::kTrue:
            out.set_all();
            return;
        case NK::kFalse:
            out.clear_all();
            return;
        case NK::kBacked: {
            const auto& b = p.backing_bits();
            if (b != nullptr && b->size_bits() == n) {
                out = *b;
                return;
            }
            out.clear_all();
            or_scan(cs, p, out);
            return;
        }
        case NK::kVarEqConst:
            out.clear_all();
            or_var_eq(cs, p.node_var(), p.node_value(), out);
            return;
        case NK::kVarNeConst:
            out.clear_all();
            or_var_eq(cs, p.node_var(), p.node_value(), out);
            out.complement();
            return;
        case NK::kVarEqVar:
        case NK::kVarNeVar: {
            out.clear_all();
            BitVec ta(n), tb(n);
            const Value da = cs.domain(p.node_var());
            const Value db = cs.domain(p.node_var2());
            const Value dmin = std::min(da, db);
            for (Value c = 0; c < dmin; ++c) {
                ta.clear_all();
                or_var_eq(cs, p.node_var(), c, ta);
                tb.clear_all();
                or_var_eq(cs, p.node_var2(), c, tb);
                ta &= tb;
                out |= ta;
            }
            if (p.node_kind() == NK::kVarNeVar) out.complement();
            return;
        }
        case NK::kAnd:
        case NK::kOr: {
            const auto kids = p.node_operands();
            DCFT_ASSERT(kids.size() >= 2, "fill_guard_bits: malformed node");
            fill_rec(cs, kids[0], out);
            BitVec tmp(n);
            for (std::size_t i = 1; i < kids.size(); ++i) {
                fill_rec(cs, kids[i], tmp);
                if (p.node_kind() == NK::kAnd)
                    out &= tmp;
                else
                    out |= tmp;
            }
            return;
        }
        case NK::kNot: {
            const auto kids = p.node_operands();
            DCFT_ASSERT(kids.size() == 1, "fill_guard_bits: malformed not");
            fill_rec(cs, kids[0], out);
            out.complement();
            return;
        }
        case NK::kOpaque:
        default:
            out.clear_all();
            or_scan(cs, p, out);
            return;
    }
}

}  // namespace

void fill_guard_bits(const CompiledSpace& cs, const Predicate& p,
                     BitVec& out) {
    DCFT_EXPECTS(out.size_bits() == cs.num_states(),
                 "fill_guard_bits: bitset/universe size mismatch");
    fill_rec(cs, p, out);
}

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
    fill_guard_bits(*cs_, action_.guard(), *bits);
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

void CompiledActionSet::successors(StateIndex s,
                                   std::vector<StateIndex>& out) const {
    for (const CompiledAction& a : actions_)
        if (a.enabled(s)) a.successors(s, out);
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
