#include "gc/predicate.hpp"

#include <atomic>
#include <mutex>
#include <optional>

#include "common/check.hpp"
#include "gc/fill.hpp"
#include "gc/guard_code.hpp"
#include "obs/proc_stats.hpp"
#include "obs/telemetry.hpp"

namespace dcft {

struct Predicate::Impl {
    /// eval_bits' one-slot memo: the whole-space bits of the predicate
    /// over the space whose uid is `space_uid`. Sound because predicates
    /// are pure and a uid names one frozen space for the life of the
    /// process. A copied Impl (renamed()) starts with an empty slot.
    struct ScanMemo {
        ScanMemo() = default;
        ScanMemo(const ScanMemo&) {}
        ScanMemo& operator=(const ScanMemo&) = delete;

        std::mutex mutex;
        std::uint64_t space_uid = 0;
        std::shared_ptr<const BitVec> bits;
        FillStats stats;  ///< what the fill of `bits` did
    };

    /// eval's bytecode, compiled for the first space the predicate is
    /// evaluated in (set once). `space_uid` is 0 and `code` empty when the
    /// predicate does not compile to anything but a call of itself.
    struct Compiled {
        std::uint64_t space_uid = 0;
        std::optional<CompiledSpace> cs;
        std::optional<GuardCode> code;
    };
    struct CodeSlot {
        CodeSlot() = default;
        CodeSlot(const CodeSlot&) {}
        CodeSlot& operator=(const CodeSlot&) = delete;

        std::mutex mutex;
        std::atomic<const Compiled*> ready{nullptr};
        std::unique_ptr<const Compiled> owned;
    };

    std::string name;
    Fn fn;
    /// Non-null iff the predicate is set-backed; then for every valid s,
    /// fn(space, s) == bits->test(s).
    std::shared_ptr<const BitVec> bits;
    /// Structural metadata (see Predicate::NodeKind). `fn` remains the
    /// semantic source of truth; structure is a compilation hint only.
    NodeKind kind = NodeKind::kOpaque;
    VarId var = 0;
    VarId var2 = 0;
    Value value = 0;
    std::vector<Predicate> kids;
    std::vector<Term> terms{};
    /// Comparison of a kCount node (its k is `value`).
    NodeKind count_op = NodeKind::kTermEq;
    /// Filled by eval_bits for non-backed predicates.
    mutable ScanMemo memo{};
    /// Filled by the first eval of a structured predicate.
    mutable CodeSlot code{};

    /// Compiles self (whose impl this is) for `space` into the code slot,
    /// once; returns the slot's contents. Kept out of line so that eval
    /// stays a short function.
    [[gnu::noinline]] const Compiled* compile(const Predicate& self,
                                              const StateSpace& space) const {
        const std::lock_guard<std::mutex> lock(code.mutex);
        if (const Compiled* c = code.ready.load(std::memory_order_relaxed))
            return c;
        auto built = std::make_unique<Compiled>();
        built->cs.emplace(space);
        try {
            GuardCode g(*built->cs, self);
            if (!g.calls_root()) {
                built->code.emplace(std::move(g));
                built->space_uid = space.uid();
            }
        } catch (const ContractError&) {
            // A term nests deeper than TermCode's stack: interpret.
        }
        code.owned = std::move(built);
        code.ready.store(code.owned.get(), std::memory_order_release);
        return code.owned.get();
    }
};

namespace {

/// Evaluation function of a set-backed predicate.
Predicate::Fn bits_fn(std::shared_ptr<const BitVec> bits) {
    return [bits = std::move(bits)](const StateSpace&, StateIndex s) {
        DCFT_EXPECTS(s < bits->size_bits(),
                     "set-backed Predicate: state out of range");
        return bits->test(s);
    };
}

/// Both operands set-backed over the same universe? Then word-level
/// composition applies.
const BitVec* backed_pair(const Predicate& a, const Predicate& b) {
    const auto& ba = a.backing_bits();
    const auto& bb = b.backing_bits();
    if (ba && bb && ba->size_bits() == bb->size_bits()) return ba.get();
    return nullptr;
}

}  // namespace

Predicate::Predicate()
    : impl_(std::make_shared<Impl>(
          Impl{"true", [](const StateSpace&, StateIndex) { return true; },
               nullptr, NodeKind::kTrue, 0, 0, 0, {}})) {}

Predicate::Predicate(std::string name, Fn fn) {
    DCFT_EXPECTS(fn != nullptr, "Predicate requires an evaluation function");
    impl_ = std::make_shared<Impl>(
        Impl{std::move(name), std::move(fn), nullptr, NodeKind::kOpaque, 0, 0,
             0, {}});
}

Predicate Predicate::from_bits(std::string name,
                               std::shared_ptr<const BitVec> bits) {
    DCFT_EXPECTS(bits != nullptr, "Predicate::from_bits requires bits");
    Predicate out;
    out.impl_ = std::make_shared<Impl>(
        Impl{std::move(name), bits_fn(bits), std::move(bits),
             NodeKind::kBacked, 0, 0, 0, {}});
    return out;
}

Predicate Predicate::top() { return Predicate(); }

Predicate Predicate::bottom() {
    Predicate out("false",
                  [](const StateSpace&, StateIndex) { return false; });
    const_cast<Impl*>(out.impl_.get())->kind = NodeKind::kFalse;
    return out;
}

Predicate Predicate::var_eq(const StateSpace& space, std::string_view var,
                            Value value) {
    return var_eq(space, space.find(var), value);
}

Predicate Predicate::var_ne(const StateSpace& space, std::string_view var,
                            Value value) {
    return var_ne(space, space.find(var), value);
}

Predicate Predicate::var_eq(const StateSpace& space, VarId var, Value value) {
    DCFT_EXPECTS(value >= 0 && value < space.variable(var).domain_size,
                 "var_eq: value out of domain");
    Predicate out(space.variable(var).name + "==" + std::to_string(value),
                  [var, value](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, var) == value;
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = NodeKind::kVarEqConst;
    impl->var = var;
    impl->value = value;
    return out;
}

Predicate Predicate::var_ne(const StateSpace& space, VarId var, Value value) {
    DCFT_EXPECTS(value >= 0 && value < space.variable(var).domain_size,
                 "var_ne: value out of domain");
    Predicate out(space.variable(var).name + "!=" + std::to_string(value),
                  [var, value](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, var) != value;
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = NodeKind::kVarNeConst;
    impl->var = var;
    impl->value = value;
    return out;
}

Predicate Predicate::vars_eq(const StateSpace& space, VarId a, VarId b) {
    DCFT_EXPECTS(a < space.num_vars() && b < space.num_vars(),
                 "vars_eq: variable out of range");
    Predicate out(space.variable(a).name + "==" + space.variable(b).name,
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, a) == sp.get(s, b);
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = NodeKind::kVarEqVar;
    impl->var = a;
    impl->var2 = b;
    return out;
}

Predicate Predicate::vars_ne(const StateSpace& space, VarId a, VarId b) {
    DCFT_EXPECTS(a < space.num_vars() && b < space.num_vars(),
                 "vars_ne: variable out of range");
    Predicate out(space.variable(a).name + "!=" + space.variable(b).name,
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return sp.get(s, a) != sp.get(s, b);
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = NodeKind::kVarNeVar;
    impl->var = a;
    impl->var2 = b;
    return out;
}

namespace {

/// The symbol of a comparison kind (kTermEq/Ne/Lt/Le); `who` names the
/// factory in the error for any other kind.
const char* comparison_symbol(Predicate::NodeKind op, const char* who) {
    switch (op) {
        case Predicate::NodeKind::kTermEq: return "==";
        case Predicate::NodeKind::kTermNe: return "!=";
        case Predicate::NodeKind::kTermLt: return "<";
        case Predicate::NodeKind::kTermLe: return "<=";
        default:
            throw ContractError(std::string(who) + ": not a comparison kind");
    }
}

}  // namespace

Predicate Predicate::compare(const Term& a, NodeKind op, const Term& b) {
    const char* sym = comparison_symbol(op, "Predicate::compare");
    Predicate out(a.text() + sym + b.text(),
                  [a, op, b](const StateSpace& sp, StateIndex s) {
                      return compares(op, a.eval(sp, s), b.eval(sp, s));
                  });
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->kind = op;
    impl->terms = {a, b};
    return out;
}

Predicate Predicate::connective(std::vector<Predicate> ps, NodeKind kind) {
    DCFT_EXPECTS(!ps.empty(), "Predicate::all_of/any_of: requires an operand");
    if (ps.size() == 1) return ps[0];
    const bool all = kind == NodeKind::kAnd;
    std::string name = "(";
    for (std::size_t i = 0; i < ps.size(); ++i)
        name += (i == 0 ? "" : all ? " && " : " || ") + ps[i].name();
    name += ")";
    Predicate out(std::move(name),
                  [ps, all](const StateSpace& sp, StateIndex s) {
                      for (const Predicate& q : ps)
                          if (q.interpret(sp, s) != all) return !all;
                      return all;
                  });
    out.set_node(kind, std::move(ps));
    return out;
}

Predicate Predicate::all_of(std::vector<Predicate> ps) {
    return connective(std::move(ps), NodeKind::kAnd);
}

Predicate Predicate::any_of(std::vector<Predicate> ps) {
    return connective(std::move(ps), NodeKind::kOr);
}

Predicate Predicate::count(std::vector<Predicate> ps, NodeKind op,
                           Value k) {
    DCFT_EXPECTS(!ps.empty(), "Predicate::count: requires an operand");
    const char* sym = comparison_symbol(op, "Predicate::count");
    std::string name = "#{";
    for (std::size_t i = 0; i < ps.size(); ++i)
        name += (i == 0 ? "" : ",") + ps[i].name();
    name += std::string("}") + sym + std::to_string(k);
    Predicate out(std::move(name),
                  [ps, op, k](const StateSpace& sp, StateIndex s) {
                      Value holding = 0;
                      for (const Predicate& q : ps)
                          if (q.interpret(sp, s)) ++holding;
                      return compares(op, holding, k);
                  });
    out.set_node(NodeKind::kCount, std::move(ps));
    Impl* impl = const_cast<Impl*>(out.impl_.get());
    impl->value = k;
    impl->count_op = op;
    return out;
}

bool Predicate::compares(NodeKind op, Value x, Value y) {
    switch (op) {
        case NodeKind::kTermEq: return x == y;
        case NodeKind::kTermNe: return x != y;
        case NodeKind::kTermLt: return x < y;
        default: return x <= y;
    }
}

bool Predicate::eval(const StateSpace& space, StateIndex s) const {
    const Impl& t = *impl_;
    switch (t.kind) {
        case NodeKind::kTrue:
            return true;
        case NodeKind::kFalse:
            return false;
        case NodeKind::kBacked:
            return t.bits->test(s);
        case NodeKind::kOpaque:
            return t.fn(space, s);
        default:
            break;
    }
    const Impl::Compiled* c = t.code.ready.load(std::memory_order_acquire);
    if (c == nullptr) c = t.compile(*this, space);
    if (c->space_uid == space.uid()) return c->code->eval(*c->cs, space, s);
    return t.fn(space, s);
}

bool Predicate::interpret(const StateSpace& space, StateIndex s) const {
    return impl_->fn(space, s);
}

const std::string& Predicate::name() const { return impl_->name; }

const std::shared_ptr<const BitVec>& Predicate::backing_bits() const {
    return impl_->bits;
}

Predicate Predicate::renamed(std::string name) const {
    Predicate out = *this;
    out.impl_ = std::make_shared<Impl>(
        Impl{std::move(name), impl_->fn, impl_->bits, impl_->kind,
             impl_->var, impl_->var2, impl_->value, impl_->kids,
             impl_->terms, impl_->count_op});
    return out;
}

void Predicate::set_node(NodeKind kind, std::vector<Predicate> kids) {
    // Only ever called on a predicate just built inside this translation
    // unit, before it escapes: impl_ has a single owner, so mutating
    // through const_cast is safe.
    Impl* impl = const_cast<Impl*>(impl_.get());
    impl->kind = kind;
    impl->kids = std::move(kids);
}

Predicate::NodeKind Predicate::node_kind() const { return impl_->kind; }
VarId Predicate::node_var() const { return impl_->var; }
VarId Predicate::node_var2() const { return impl_->var2; }
Value Predicate::node_value() const { return impl_->value; }
Predicate::NodeKind Predicate::node_count_op() const {
    return impl_->count_op;
}
std::span<const Predicate> Predicate::node_operands() const {
    return impl_->kids;
}
std::span<const Term> Predicate::node_terms() const { return impl_->terms; }

Predicate operator&&(const Predicate& a, const Predicate& b) {
    std::string name = "(" + a.name() + " && " + b.name() + ")";
    if (backed_pair(a, b) != nullptr) {
        auto bits = std::make_shared<BitVec>(*a.backing_bits());
        *bits &= *b.backing_bits();
        return Predicate::from_bits(std::move(name), std::move(bits));
    }
    Predicate out(std::move(name),
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return a.interpret(sp, s) && b.interpret(sp, s);
                  });
    out.set_node(Predicate::NodeKind::kAnd, {a, b});
    return out;
}

Predicate operator||(const Predicate& a, const Predicate& b) {
    std::string name = "(" + a.name() + " || " + b.name() + ")";
    if (backed_pair(a, b) != nullptr) {
        auto bits = std::make_shared<BitVec>(*a.backing_bits());
        *bits |= *b.backing_bits();
        return Predicate::from_bits(std::move(name), std::move(bits));
    }
    Predicate out(std::move(name),
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return a.interpret(sp, s) || b.interpret(sp, s);
                  });
    out.set_node(Predicate::NodeKind::kOr, {a, b});
    return out;
}

Predicate operator!(const Predicate& a) {
    std::string name = "!" + a.name();
    if (a.backing_bits() != nullptr) {
        auto bits = std::make_shared<BitVec>(a.backing_bits()->complemented());
        return Predicate::from_bits(std::move(name), std::move(bits));
    }
    Predicate out(std::move(name),
                  [a](const StateSpace& sp, StateIndex s) {
                      return !a.interpret(sp, s);
                  });
    out.set_node(Predicate::NodeKind::kNot, {a});
    return out;
}

Predicate implies(const Predicate& a, const Predicate& b) {
    std::string name = "(" + a.name() + " => " + b.name() + ")";
    if (backed_pair(a, b) != nullptr) {
        auto bits = std::make_shared<BitVec>(a.backing_bits()->complemented());
        *bits |= *b.backing_bits();
        return Predicate::from_bits(std::move(name), std::move(bits));
    }
    Predicate out(std::move(name),
                  [a, b](const StateSpace& sp, StateIndex s) {
                      return !a.interpret(sp, s) || b.interpret(sp, s);
                  });
    out.set_node(Predicate::NodeKind::kOr, {!a, b});
    return out;
}

BitVec eval_bits(const StateSpace& space, const Predicate& p,
                 unsigned n_threads) {
    const StateIndex n = space.num_states();
    MaterializeRecord record{p.name(), "backed", 0, 0, false};
    // Backed fast path: the answer already exists as words.
    if (const auto& bits = p.backing_bits();
        bits != nullptr && bits->size_bits() == n) {
        obs::count("verify/predicate_eval/backed_hits");
        MaterializeLog::note(std::move(record));
        return *bits;
    }
    // Fill at most once per (predicate, space): concurrent callers wait
    // for the fill in flight and then share its bits.
    Predicate::Impl::ScanMemo& memo = p.impl_->memo;
    const std::lock_guard<std::mutex> lock(memo.mutex);
    const bool hit = memo.bits != nullptr && memo.space_uid == space.uid();
    if (hit) {
        obs::count("verify/predicate_eval/memo_hits");
    } else {
        const obs::Span span("verify/predicate_eval");
        // Refuse a fill the host could never hold, rather than let an
        // allocation end the process with bad_alloc: the remembered bits,
        // the caller's copy and the temporaries the fill keeps at once.
        static const std::uint64_t ram_bytes =
            obs::host_info().total_ram_bytes;
        const std::uint64_t bytes = (n + BitVec::kWordBits - 1) /
                                    BitVec::kWordBits * sizeof(std::uint64_t);
        const std::uint64_t temps = fill_temp_bytes(n, p, n_threads);
        if (ram_bytes != 0 &&
            (bytes > ram_bytes / 2 || 2 * bytes + temps > ram_bytes))
            throw ContractError(
                "state space too large: " + std::to_string(n) +
                " states need a " + std::to_string(bytes) +
                "-byte bitset to evaluate predicate " + p.name() +
                " (twice, plus " + std::to_string(temps) +
                " bytes of fill temporaries), more than " +
                std::to_string(ram_bytes) + " bytes of physical RAM");
        auto out = std::make_shared<BitVec>(n);
        const CompiledSpace cs(space);
        memo.stats = fill_guard_bits(cs, p, *out, n_threads);
        memo.space_uid = space.uid();
        memo.bits = std::move(out);
        obs::count(memo.stats.root_scanned ? "verify/predicate_eval/bulk_scans"
                                           : "verify/predicate_eval/word_fills");
        obs::count("verify/predicate_eval/states_scanned",
                   memo.stats.states_scanned);
        record.states_scanned = memo.stats.states_scanned;
    }
    record.path = memo.stats.root_scanned ? "per_state_scan" : "word_algebra";
    record.kcall_ops = memo.stats.kcall_ops;
    record.memo_hit = hit;
    MaterializeLog::note(std::move(record));
    return *memo.bits;
}

namespace {
thread_local MaterializeLog* innermost_log = nullptr;
}  // namespace

MaterializeLog::MaterializeLog() : outer_(innermost_log) {
    innermost_log = this;
}

MaterializeLog::~MaterializeLog() { innermost_log = outer_; }

void MaterializeLog::note(MaterializeRecord record) {
    if (innermost_log != nullptr)
        innermost_log->records_.push_back(std::move(record));
}

bool implies_everywhere(const StateSpace& space, const Predicate& a,
                        const Predicate& b) {
    const StateIndex n = space.num_states();
    const auto& ba = a.backing_bits();
    const auto& bb = b.backing_bits();
    if (ba && bb && ba->size_bits() == n && bb->size_bits() == n)
        return ba->is_subset_of(*bb);
    for (StateIndex s = 0; s < n; ++s)
        if (a.eval(space, s) && !b.eval(space, s)) return false;
    return true;
}

bool equivalent(const StateSpace& space, const Predicate& a,
                const Predicate& b) {
    const StateIndex n = space.num_states();
    const auto& ba = a.backing_bits();
    const auto& bb = b.backing_bits();
    if (ba && bb && ba->size_bits() == n && bb->size_bits() == n)
        return *ba == *bb;
    for (StateIndex s = 0; s < n; ++s)
        if (a.eval(space, s) != b.eval(space, s)) return false;
    return true;
}

StateIndex count_satisfying(const StateSpace& space, const Predicate& p) {
    if (const auto& bits = p.backing_bits();
        bits != nullptr && bits->size_bits() == space.num_states())
        return bits->popcount();
    StateIndex n = 0;
    for (StateIndex s = 0; s < space.num_states(); ++s)
        if (p.eval(space, s)) ++n;
    return n;
}

}  // namespace dcft
