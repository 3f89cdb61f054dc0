#include "gc/guard_code.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dcft {

namespace {

using NK = Predicate::NodeKind;
using TK = Term::Kind;

bool is_var_atom(const Predicate& p) {
    const NK k = p.node_kind();
    return k == NK::kVarEqConst || k == NK::kVarNeConst ||
           k == NK::kVarEqVar || k == NK::kVarNeVar;
}

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
        const NK kind = q.node_kind();
        const auto kids = q.node_operands();
        if ((kind == NK::kCount || kind == NK::kAnd || kind == NK::kOr) &&
            std::all_of(kids.begin(), kids.end(), is_var_atom)) {
            // Every operand a variable atom: one leaf-run op.
            op.k = kind == NK::kCount ? Op::K::kCountLeaves
                   : kind == NK::kAnd ? Op::K::kAllLeaves
                                      : Op::K::kAnyLeaves;
            op.idx = static_cast<std::uint32_t>(leaves_.size());
            op.len = static_cast<std::uint32_t>(kids.size());
            op.value = q.node_value();
            op.cmp = q.node_count_op();
            for (const Predicate& kid : kids)
                leaves_.push_back(Leaf{kid.node_kind(), kid.node_var(),
                                       kid.node_var2(), kid.node_value()});
            push_op(op, 0);
            return;
        }
        switch (kind) {
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
            case NK::kCount: {
                for (const Predicate& kid : kids) self(self, kid);
                op.k = Op::K::kCount;
                op.idx = static_cast<std::uint32_t>(kids.size());
                op.value = q.node_value();
                op.cmp = q.node_count_op();
                push_op(op, static_cast<int>(kids.size()));
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
                // Short-circuit: each operand after the first is guarded
                // by a jump past the rest once the result is decided.
                DCFT_ASSERT(kids.size() >= 2, "GuardCode: malformed node");
                self(self, kids[0]);
                std::vector<std::size_t> jumps;
                for (std::size_t i = 1; i < kids.size(); ++i) {
                    Op jump{};
                    jump.k = q.node_kind() == NK::kAnd ? Op::K::kAndThen
                                                       : Op::K::kOrElse;
                    jumps.push_back(ops_.size());
                    ops_.push_back(jump);
                    --depth;  // falls through with the operand popped
                    self(self, kids[i]);
                }
                for (const std::size_t j : jumps)
                    ops_[j].idx = static_cast<std::uint32_t>(ops_.size());
                return;
            }
            case NK::kNot: {
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

bool GuardCode::Leaf::holds(const CompiledSpace& cs, StateIndex s) const {
    switch (kind) {
        case NK::kVarEqConst:
            return cs.get(s, var) == value;
        case NK::kVarNeConst:
            return cs.get(s, var) != value;
        case NK::kVarEqVar:
            return cs.get(s, var) == cs.get(s, var2);
        default:
            return cs.get(s, var) != cs.get(s, var2);
    }
}

bool GuardCode::eval_leaves(const Op& op, const CompiledSpace& cs,
                            StateIndex s) const {
    const Leaf* first = leaves_.data() + op.idx;
    const Leaf* last = first + op.len;
    if (op.k == Op::K::kCountLeaves) {
        Value holding = 0;
        for (const Leaf* l = first; l != last; ++l)
            holding += l->holds(cs, s) ? 1 : 0;
        return Predicate::compares(op.cmp, holding, op.value);
    }
    const bool all = op.k == Op::K::kAllLeaves;
    for (const Leaf* l = first; l != last; ++l)
        if (l->holds(cs, s) != all) return !all;
    return all;
}

bool GuardCode::eval(const CompiledSpace& cs, const StateSpace& space,
                     StateIndex s) const {
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
                return opaque_[op.idx].eval(space, s);
            case Op::K::kAllLeaves:
            case Op::K::kAnyLeaves:
            case Op::K::kCountLeaves:
                return eval_leaves(op, cs, s);
            default:
                break;
        }
    }
    bool stack[kMaxStack];
    int top = -1;
    for (std::size_t pc = 0; pc < ops_.size(); ++pc) {
        const Op& op = ops_[pc];
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
                stack[++top] = opaque_[op.idx].eval(space, s);
                break;
            case Op::K::kAndThen:
                if (!stack[top])
                    pc = op.idx - 1;
                else
                    --top;
                break;
            case Op::K::kOrElse:
                if (stack[top])
                    pc = op.idx - 1;
                else
                    --top;
                break;
            case Op::K::kNot:
                stack[top] = !stack[top];
                break;
            case Op::K::kAllLeaves:
            case Op::K::kAnyLeaves:
            case Op::K::kCountLeaves:
                stack[++top] = eval_leaves(op, cs, s);
                break;
            case Op::K::kCount: {
                top -= static_cast<int>(op.idx);
                Value holding = 0;
                for (std::uint32_t i = 1; i <= op.idx; ++i)
                    holding += stack[top + static_cast<int>(i)] ? 1 : 0;
                stack[++top] = Predicate::compares(op.cmp, holding, op.value);
                break;
            }
        }
    }
    DCFT_ASSERT(top == 0, "GuardCode: unbalanced program");
    return stack[0];
}

}  // namespace dcft
