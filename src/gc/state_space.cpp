#include "gc/state_space.hpp"

#include <atomic>
#include <limits>

#include "common/check.hpp"

namespace dcft {

std::uint64_t StateSpace::next_uid() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

StateSpace::StateSpace() : uid_(next_uid()) {}

StateSpace::StateSpace(const StateSpace& other)
    : uid_(next_uid()),
      vars_(other.vars_),
      strides_(other.strides_),
      num_states_(other.num_states_),
      frozen_(other.frozen_) {}

StateSpace& StateSpace::operator=(const StateSpace& other) {
    if (this == &other) return *this;
    uid_ = next_uid();  // new content, new identity
    vars_ = other.vars_;
    strides_ = other.strides_;
    num_states_ = other.num_states_;
    frozen_ = other.frozen_;
    return *this;
}

void VarSet::add(VarId v) {
    DCFT_EXPECTS(v < bits_.size(), "VarSet::add: variable out of range");
    bits_[v] = true;
}

bool VarSet::contains(VarId v) const {
    return v < bits_.size() && bits_[v];
}

std::size_t VarSet::count() const {
    std::size_t n = 0;
    for (bool b : bits_) n += b ? 1 : 0;
    return n;
}

std::vector<VarId> VarSet::members() const {
    std::vector<VarId> out;
    for (VarId v = 0; v < bits_.size(); ++v)
        if (bits_[v]) out.push_back(v);
    return out;
}

VarSet VarSet::unioned(const VarSet& other) const {
    DCFT_EXPECTS(bits_.size() == other.bits_.size(),
                 "VarSet::unioned: mismatched universes");
    VarSet out(bits_.size());
    for (VarId v = 0; v < bits_.size(); ++v)
        out.bits_[v] = bits_[v] || other.bits_[v];
    return out;
}

VarSet VarSet::complement() const {
    VarSet out(bits_.size());
    for (VarId v = 0; v < bits_.size(); ++v) out.bits_[v] = !bits_[v];
    return out;
}

VarId StateSpace::add_variable(std::string name, Value domain_size) {
    DCFT_EXPECTS(!frozen_, "StateSpace::add_variable after freeze");
    DCFT_EXPECTS(domain_size > 0, "variable domain must be nonempty");
    DCFT_EXPECTS(!has_variable(name), "duplicate variable name: " + name);
    // Checked on the running product, so an absurd size is refused after
    // ~64 variables instead of after declaring all of them.
    const auto domain = static_cast<StateIndex>(domain_size);
    DCFT_EXPECTS(
        num_states_ <= std::numeric_limits<StateIndex>::max() / domain,
        "state space too large for a 64-bit index");
    strides_.push_back(num_states_);
    num_states_ *= domain;
    vars_.push_back(Variable{std::move(name), domain_size, {}});
    return vars_.size() - 1;
}

VarId StateSpace::add_variable(std::string name,
                               std::vector<std::string> value_names) {
    DCFT_EXPECTS(!value_names.empty(), "named domain must be nonempty");
    const auto id = add_variable(std::move(name),
                                 static_cast<Value>(value_names.size()));
    vars_[id].value_names = std::move(value_names);
    return id;
}

void StateSpace::freeze() {
    DCFT_EXPECTS(!frozen_, "StateSpace::freeze called twice");
    DCFT_EXPECTS(!vars_.empty(), "StateSpace must declare >= 1 variable");
    frozen_ = true;
}

const Variable& StateSpace::variable(VarId v) const {
    DCFT_EXPECTS(v < vars_.size(), "variable id out of range");
    return vars_[v];
}

VarId StateSpace::find(std::string_view name) const {
    for (VarId v = 0; v < vars_.size(); ++v)
        if (vars_[v].name == name) return v;
    throw ContractError("StateSpace::find: no variable named '" +
                        std::string(name) + "'");
}

bool StateSpace::has_variable(std::string_view name) const {
    for (const auto& var : vars_)
        if (var.name == name) return true;
    return false;
}

StateIndex StateSpace::num_states() const {
    DCFT_EXPECTS(frozen_, "StateSpace must be frozen");
    return num_states_;
}

Value StateSpace::get(StateIndex s, VarId v) const {
    DCFT_EXPECTS(frozen_, "StateSpace must be frozen");
    DCFT_EXPECTS(v < vars_.size(), "variable id out of range");
    return static_cast<Value>(
        (s / strides_[v]) % static_cast<StateIndex>(vars_[v].domain_size));
}

StateIndex StateSpace::set(StateIndex s, VarId v, Value value) const {
    DCFT_EXPECTS(frozen_, "StateSpace must be frozen");
    DCFT_EXPECTS(v < vars_.size(), "variable id out of range");
    DCFT_EXPECTS(value >= 0 && value < vars_[v].domain_size,
                 "value out of domain for variable " + vars_[v].name);
    const Value old = get(s, v);
    return s + (static_cast<StateIndex>(value) - static_cast<StateIndex>(old)) *
                   strides_[v];
}

StateIndex StateSpace::encode(std::span<const Value> values) const {
    DCFT_EXPECTS(frozen_, "StateSpace must be frozen");
    DCFT_EXPECTS(values.size() == vars_.size(),
                 "encode: one value per variable required");
    StateIndex s = 0;
    for (VarId v = 0; v < vars_.size(); ++v) {
        DCFT_EXPECTS(values[v] >= 0 && values[v] < vars_[v].domain_size,
                     "encode: value out of domain for " + vars_[v].name);
        s += static_cast<StateIndex>(values[v]) * strides_[v];
    }
    return s;
}

std::vector<Value> StateSpace::decode(StateIndex s) const {
    DCFT_EXPECTS(frozen_, "StateSpace must be frozen");
    std::vector<Value> values(vars_.size());
    for (VarId v = 0; v < vars_.size(); ++v) values[v] = get(s, v);
    return values;
}

StateIndex StateSpace::project(StateIndex s, const VarSet& vars) const {
    DCFT_EXPECTS(frozen_, "StateSpace must be frozen");
    DCFT_EXPECTS(vars.universe_size() == vars_.size(),
                 "project: VarSet from a different space");
    StateIndex out = 0;
    StateIndex stride = 1;
    for (VarId v = 0; v < vars_.size(); ++v) {
        if (!vars.contains(v)) continue;
        out += static_cast<StateIndex>(get(s, v)) * stride;
        stride *= static_cast<StateIndex>(vars_[v].domain_size);
    }
    return out;
}

std::string StateSpace::format(StateIndex s) const {
    std::string out = "{";
    for (VarId v = 0; v < vars_.size(); ++v) {
        if (v > 0) out += ", ";
        out += vars_[v].name;
        out += '=';
        const Value value = get(s, v);
        if (!vars_[v].value_names.empty())
            out += vars_[v].value_names[static_cast<std::size_t>(value)];
        else
            out += std::to_string(value);
    }
    out += '}';
    return out;
}

VarSet StateSpace::full_varset() const {
    VarSet out(num_vars());
    for (VarId v = 0; v < num_vars(); ++v) out.add(v);
    return out;
}

VarSet StateSpace::varset(
    std::initializer_list<std::string_view> names) const {
    VarSet out(num_vars());
    for (auto name : names) out.add(find(name));
    return out;
}

std::shared_ptr<const StateSpace> make_space(std::vector<Variable> vars) {
    auto space = std::make_shared<StateSpace>();
    for (auto& var : vars) {
        if (var.value_names.empty())
            space->add_variable(std::move(var.name), var.domain_size);
        else
            space->add_variable(std::move(var.name),
                                std::move(var.value_names));
    }
    space->freeze();
    return space;
}

}  // namespace dcft
