#include "gc/term.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dcft {

struct Term::Impl {
    Kind kind = Kind::kConst;
    Value value = 0;
    Value modulus = 0;
    VarId var = 0;
    std::vector<VarId> vars;
    std::vector<Term> operands;
    Value lo = 0;
    Value hi = 0;
    std::string text;
};

Term::Term() : Term(constant(0)) {}

Term Term::constant(Value c) {
    auto impl = std::make_shared<Impl>();
    impl->kind = Kind::kConst;
    impl->value = c;
    impl->lo = impl->hi = c;
    impl->text = std::to_string(c);
    return Term(std::move(impl));
}

Term Term::var(const StateSpace& space, VarId v) {
    DCFT_EXPECTS(v < space.num_vars(), "Term::var: variable out of range");
    auto impl = std::make_shared<Impl>();
    impl->kind = Kind::kVar;
    impl->var = v;
    impl->lo = 0;
    impl->hi = space.variable(v).domain_size - 1;
    impl->text = space.variable(v).name;
    return Term(std::move(impl));
}

Term Term::extremum(Kind kind, std::vector<Term> ts) {
    DCFT_EXPECTS(!ts.empty(), "Term::min/max: requires at least one term");
    const bool is_min = kind == Kind::kMin;
    auto impl = std::make_shared<Impl>();
    impl->kind = kind;
    impl->lo = ts[0].lo();
    impl->hi = ts[0].hi();
    impl->text = is_min ? "min(" : "max(";
    for (std::size_t i = 0; i < ts.size(); ++i) {
        impl->lo = is_min ? std::min(impl->lo, ts[i].lo())
                          : std::max(impl->lo, ts[i].lo());
        impl->hi = is_min ? std::min(impl->hi, ts[i].hi())
                          : std::max(impl->hi, ts[i].hi());
        impl->text += (i == 0 ? "" : ",") + ts[i].text();
    }
    impl->text += ")";
    impl->operands = std::move(ts);
    return Term(std::move(impl));
}

Term Term::min(std::vector<Term> ts) {
    return extremum(Kind::kMin, std::move(ts));
}

Term Term::max(std::vector<Term> ts) {
    return extremum(Kind::kMax, std::move(ts));
}

Term Term::count(const StateSpace& space, std::vector<VarId> vars, Value c) {
    DCFT_EXPECTS(!vars.empty(), "Term::count: requires at least one variable");
    auto impl = std::make_shared<Impl>();
    impl->kind = Kind::kCount;
    impl->value = c;
    impl->lo = 0;
    impl->hi = static_cast<Value>(vars.size());
    impl->text = "#{";
    for (std::size_t i = 0; i < vars.size(); ++i) {
        DCFT_EXPECTS(vars[i] < space.num_vars(),
                     "Term::count: variable out of range");
        impl->text += (i == 0 ? "" : ",") + space.variable(vars[i]).name;
    }
    impl->text += "=" + std::to_string(c) + "}";
    impl->vars = std::move(vars);
    return Term(std::move(impl));
}

Term Term::plus(Value k, Value m) const {
    DCFT_EXPECTS(m >= 0, "Term::plus: modulus must be non-negative");
    auto impl = std::make_shared<Impl>();
    impl->kind = Kind::kAdd;
    impl->value = k;
    impl->modulus = m;
    impl->operands = {*this};
    if (m > 0) {
        impl->lo = 0;
        impl->hi = m - 1;
        impl->text = "(" + text() + "+" + std::to_string(k) + ")%" +
                     std::to_string(m);
    } else {
        impl->lo = lo() + k;
        impl->hi = hi() + k;
        impl->text = "(" + text() + "+" + std::to_string(k) + ")";
    }
    return Term(std::move(impl));
}

Value Term::eval(const StateSpace& space, StateIndex s) const {
    const Impl& t = *impl_;
    switch (t.kind) {
        case Kind::kConst:
            return t.value;
        case Kind::kVar:
            return space.get(s, t.var);
        case Kind::kAdd: {
            const Value x = t.operands[0].eval(space, s) + t.value;
            return t.modulus > 0 ? ((x % t.modulus) + t.modulus) % t.modulus
                                 : x;
        }
        case Kind::kMin: {
            Value best = t.operands[0].eval(space, s);
            for (std::size_t i = 1; i < t.operands.size(); ++i)
                best = std::min(best, t.operands[i].eval(space, s));
            return best;
        }
        case Kind::kMax: {
            Value best = t.operands[0].eval(space, s);
            for (std::size_t i = 1; i < t.operands.size(); ++i)
                best = std::max(best, t.operands[i].eval(space, s));
            return best;
        }
        case Kind::kCount: {
            Value n = 0;
            for (VarId v : t.vars)
                if (space.get(s, v) == t.value) ++n;
            return n;
        }
    }
    return 0;
}

Term::Kind Term::kind() const { return impl_->kind; }
Value Term::value() const { return impl_->value; }
Value Term::modulus() const { return impl_->modulus; }
VarId Term::var() const { return impl_->var; }
std::span<const VarId> Term::vars() const { return impl_->vars; }
std::span<const Term> Term::operands() const { return impl_->operands; }
Value Term::lo() const { return impl_->lo; }
Value Term::hi() const { return impl_->hi; }
const std::string& Term::text() const { return impl_->text; }

}  // namespace dcft
