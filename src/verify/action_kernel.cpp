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
using TK = Term::Kind;

}  // namespace

// ---------------------------------------------------------------------------
// TermCode: compile + eval
// ---------------------------------------------------------------------------

TermCode::TermCode(const Term& t) {
    int depth = 0;
    int max_depth = 0;
    auto push_op = [&](Op op, int pops) {
        depth += 1 - pops;
        max_depth = std::max(max_depth, depth);
        ops_.push_back(op);
    };
    auto emit = [&](auto&& self, const Term& u) -> void {
        Op op{};
        switch (u.kind()) {
            case TK::kConst:
                op.k = Op::K::kConst;
                op.value = u.value();
                push_op(op, 0);
                return;
            case TK::kVar:
                op.k = Op::K::kVar;
                op.var = u.var();
                push_op(op, 0);
                return;
            case TK::kAdd:
                self(self, u.operands()[0]);
                op.k = Op::K::kAdd;
                op.value = u.value();
                push_op(op, 1);
                if (u.modulus() > 0) {
                    Op mod{};
                    mod.k = Op::K::kMod;
                    mod.value = u.modulus();
                    push_op(mod, 1);
                }
                return;
            case TK::kMin:
            case TK::kMax: {
                const auto kids = u.operands();
                self(self, kids[0]);
                op.k = u.kind() == TK::kMin ? Op::K::kMin : Op::K::kMax;
                for (std::size_t i = 1; i < kids.size(); ++i) {
                    self(self, kids[i]);
                    push_op(op, 2);
                }
                return;
            }
            case TK::kCount:
                op.k = Op::K::kCount;
                op.value = u.value();
                op.begin = static_cast<std::uint32_t>(count_vars_.size());
                count_vars_.insert(count_vars_.end(), u.vars().begin(),
                                   u.vars().end());
                op.end = static_cast<std::uint32_t>(count_vars_.size());
                push_op(op, 0);
                return;
        }
    };
    emit(emit, t);
    DCFT_EXPECTS(max_depth <= kMaxStack,
                 "TermCode: term nests too deeply: " + t.text());
}

Value TermCode::eval_stack(const CompiledSpace& cs, StateIndex s) const {
    Value stack[kMaxStack];
    int top = -1;
    for (const Op& op : ops_) {
        switch (op.k) {
            case Op::K::kConst:
                stack[++top] = op.value;
                break;
            case Op::K::kVar:
                stack[++top] = cs.get(s, op.var);
                break;
            case Op::K::kAdd:
                stack[top] += op.value;
                break;
            case Op::K::kMod:
                stack[top] = ((stack[top] % op.value) + op.value) % op.value;
                break;
            case Op::K::kMin:
                stack[top - 1] = std::min(stack[top - 1], stack[top]);
                --top;
                break;
            case Op::K::kMax:
                stack[top - 1] = std::max(stack[top - 1], stack[top]);
                --top;
                break;
            case Op::K::kCount: {
                Value n = 0;
                for (std::uint32_t i = op.begin; i < op.end; ++i)
                    n += cs.get(s, count_vars_[i]) == op.value ? 1 : 0;
                stack[++top] = n;
                break;
            }
        }
    }
    DCFT_ASSERT(top == 0, "TermCode: unbalanced program");
    return stack[0];
}

bool GuardCode::Compare::eval(const CompiledSpace& cs, StateIndex s) const {
    return Predicate::compares(op, a.eval(cs, s), b.eval(cs, s));
}

// ---------------------------------------------------------------------------
// GuardCode: compile + eval
// ---------------------------------------------------------------------------

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
            case NK::kTermEq:
            case NK::kTermNe:
            case NK::kTermLt:
            case NK::kTermLe: {
                const auto terms = q.node_terms();
                op.k = Op::K::kCompare;
                op.idx = static_cast<std::uint32_t>(compares_.size());
                compares_.push_back(Compare{q.node_kind(), TermCode(terms[0]),
                                            TermCode(terms[1])});
                push_op(op, 0);
                return;
            }
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
        compares_.clear();
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
            case Op::K::kCompare:
                return compares_[op.idx].eval(cs, s);
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
            case Op::K::kCompare:
                stack[++top] = compares_[op.idx].eval(cs, s);
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

/// Per-state fallback scan of a subtree, on its guard bytecode (out not
/// cleared).
void or_scan(const CompiledSpace& cs, const Predicate& p, BitVec& out) {
    obs::count("verify/compile/guard_bits_scans");
    const GuardCode code(cs, p);
    const std::uint64_t n = cs.num_states();
    for (StateIndex s = 0; s < n; ++s)
        if (code.eval(cs, s)) out.set(s);
}

/// Largest value range of a term that fill_guard_bits decomposes into
/// per-value sets; wider terms are scanned per state.
constexpr Value kMaxTermValues = 64;

/// The whole-space level sets of a term: eq[i] = {s : t(s) = lo + i}.
struct ValueSets {
    Value lo = 0;
    std::vector<BitVec> eq;

    Value hi() const { return lo + static_cast<Value>(eq.size()) - 1; }
};

/// Builds the level sets of t with word algebra only. False when t or one
/// of its subterms ranges over more than kMaxTermValues values.
bool value_sets(const CompiledSpace& cs, const Term& t, ValueSets& out) {
    const std::uint64_t n = cs.num_states();
    if (t.hi() - t.lo() + 1 > kMaxTermValues) return false;
    if (t.kind() == TK::kAdd && t.modulus() == 0) {
        // A shift: the operand's sets, relabelled.
        if (!value_sets(cs, t.operands()[0], out)) return false;
        out.lo += t.value();
        return true;
    }
    out.lo = t.lo();
    out.eq.assign(static_cast<std::size_t>(t.hi() - t.lo() + 1), BitVec(n));
    switch (t.kind()) {
        case TK::kConst:
            out.eq[0].set_all();
            return true;
        case TK::kVar:
            for (Value x = 0; x < cs.domain(t.var()); ++x)
                or_var_eq(cs, t.var(), x, out.eq[static_cast<std::size_t>(x)]);
            return true;
        case TK::kAdd: {
            ValueSets sub;
            if (!value_sets(cs, t.operands()[0], sub)) return false;
            const Value m = t.modulus();
            for (Value x = sub.lo; x <= sub.hi(); ++x) {
                const Value y = (((x + t.value()) % m) + m) % m;
                out.eq[static_cast<std::size_t>(y)] |=
                    sub.eq[static_cast<std::size_t>(x - sub.lo)];
            }
            return true;
        }
        case TK::kMin:
        case TK::kMax: {
            // Sweep x downwards keeping ge[i] = {s : t_i(s) >= x}; the
            // extremum is >= x on the intersection (min) or union (max),
            // and equals x where that holds at x but not at x + 1.
            const auto kids = t.operands();
            std::vector<ValueSets> sub(kids.size());
            Value top = t.lo();
            for (std::size_t i = 0; i < kids.size(); ++i) {
                if (!value_sets(cs, kids[i], sub[i])) return false;
                top = std::max(top, sub[i].hi());
            }
            std::vector<BitVec> ge(kids.size(), BitVec(n));
            BitVec prev(n), cur(n);
            for (Value x = top; x >= t.lo(); --x) {
                for (std::size_t i = 0; i < kids.size(); ++i)
                    if (x >= sub[i].lo && x <= sub[i].hi())
                        ge[i] |= sub[i].eq[static_cast<std::size_t>(
                            x - sub[i].lo)];
                cur = ge[0];
                for (std::size_t i = 1; i < kids.size(); ++i) {
                    if (t.kind() == TK::kMin)
                        cur &= ge[i];
                    else
                        cur |= ge[i];
                }
                if (x <= t.hi()) {
                    BitVec& eq = out.eq[static_cast<std::size_t>(x - t.lo())];
                    eq = cur;
                    eq.subtract(prev);
                }
                std::swap(prev, cur);
            }
            return true;
        }
        case TK::kCount: {
            // After folding in each variable, eq[j] holds the states where
            // exactly j of the variables so far equal the value.
            out.eq[0].set_all();
            BitVec hit(n), moved(n);
            std::size_t seen = 0;
            for (const VarId v : t.vars()) {
                ++seen;
                if (t.value() < 0 || t.value() >= cs.domain(v)) continue;
                hit.clear_all();
                or_var_eq(cs, v, t.value(), hit);
                for (std::size_t j = seen; j >= 1; --j) {
                    moved = out.eq[j - 1];
                    moved &= hit;
                    out.eq[j].subtract(hit);
                    out.eq[j] |= moved;
                }
                out.eq[0].subtract(hit);
            }
            return true;
        }
    }
    return false;
}

/// Fills the comparison atom p (out overwritten): per-value set algebra
/// over both terms' level sets, a direct union of digit patterns for a
/// variable against a constant, a bytecode scan otherwise.
void fill_compare(const CompiledSpace& cs, const Predicate& p, BitVec& out) {
    const NK op = p.node_kind();
    const Term& a = p.node_terms()[0];
    const Term& b = p.node_terms()[1];
    out.clear_all();
    if ((a.kind() == TK::kVar && b.kind() == TK::kConst) ||
        (a.kind() == TK::kConst && b.kind() == TK::kVar)) {
        const bool var_left = a.kind() == TK::kVar;
        const VarId v = var_left ? a.var() : b.var();
        const Value c = var_left ? b.value() : a.value();
        for (Value x = 0; x < cs.domain(v); ++x)
            if (var_left ? Predicate::compares(op, x, c)
                         : Predicate::compares(op, c, x))
                or_var_eq(cs, v, x, out);
        return;
    }
    ValueSets sa, sb;
    if (!value_sets(cs, a, sa) || !value_sets(cs, b, sb)) {
        or_scan(cs, p, out);
        return;
    }
    BitVec tmp(cs.num_states());
    if (op == NK::kTermEq || op == NK::kTermNe) {
        for (Value x = std::max(sa.lo, sb.lo); x <= std::min(sa.hi(), sb.hi());
             ++x) {
            tmp = sa.eq[static_cast<std::size_t>(x - sa.lo)];
            tmp &= sb.eq[static_cast<std::size_t>(x - sb.lo)];
            out |= tmp;
        }
        if (op == NK::kTermNe) out.complement();
        return;
    }
    // a < y (or a <= y) on a growing prefix union of a's level sets,
    // intersected with b = y for each y.
    BitVec below(cs.num_states());
    Value next = sa.lo;  // a's next level not yet in `below`
    for (Value y = sb.lo; y <= sb.hi(); ++y) {
        const Value bound = op == NK::kTermLt ? y - 1 : y;
        for (; next <= std::min(bound, sa.hi()); ++next)
            below |= sa.eq[static_cast<std::size_t>(next - sa.lo)];
        tmp = sb.eq[static_cast<std::size_t>(y - sb.lo)];
        tmp &= below;
        out |= tmp;
    }
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
        case NK::kTermEq:
        case NK::kTermNe:
        case NK::kTermLt:
        case NK::kTermLe:
            fill_compare(cs, p, out);
            return;
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
