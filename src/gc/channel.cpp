#include "gc/channel.hpp"

#include "common/check.hpp"

namespace dcft {

Channel::Channel(StateSpace& builder, std::string name, int capacity,
                 Value value_domain)
    : name_(std::move(name)), capacity_(capacity),
      value_domain_(value_domain) {
    DCFT_EXPECTS(capacity >= 1, "channel capacity must be >= 1");
    DCFT_EXPECTS(value_domain >= 1, "channel value domain must be >= 1");
    offset_.resize(static_cast<std::size_t>(capacity) + 2);
    offset_[0] = 0;
    StateIndex power = 1;  // d^L
    for (int length = 0; length <= capacity; ++length) {
        offset_[static_cast<std::size_t>(length) + 1] =
            offset_[static_cast<std::size_t>(length)] + power;
        power *= static_cast<StateIndex>(value_domain);
    }
    const StateIndex domain =
        offset_[static_cast<std::size_t>(capacity) + 1];
    var_ = builder.add_variable(name_, static_cast<Value>(domain));
    var_term_ = Term::var(builder, var_);
}

StateIndex Channel::encode_raw(const std::vector<Value>& queue) const {
    DCFT_ASSERT(static_cast<int>(queue.size()) <= capacity_,
                "channel overflow");
    StateIndex raw = offset_[queue.size()];
    StateIndex power = 1;
    for (Value v : queue) {
        DCFT_ASSERT(v >= 0 && v < value_domain_, "channel value out of range");
        raw += static_cast<StateIndex>(v) * power;
        power *= static_cast<StateIndex>(value_domain_);
    }
    return raw;
}

std::vector<Value> Channel::decode_raw(StateIndex raw) const {
    int length = 0;
    while (raw >= offset_[static_cast<std::size_t>(length) + 1]) ++length;
    StateIndex payload = raw - offset_[static_cast<std::size_t>(length)];
    std::vector<Value> queue(static_cast<std::size_t>(length));
    for (int i = 0; i < length; ++i) {
        queue[static_cast<std::size_t>(i)] = static_cast<Value>(
            payload % static_cast<StateIndex>(value_domain_));
        payload /= static_cast<StateIndex>(value_domain_);
    }
    return queue;
}

StateIndex Channel::raw(const StateSpace& space, StateIndex s) const {
    return static_cast<StateIndex>(space.get(s, var_));
}

int Channel::size(const StateSpace& space, StateIndex s) const {
    return static_cast<int>(decode_raw(raw(space, s)).size());
}

bool Channel::empty(const StateSpace& space, StateIndex s) const {
    return raw(space, s) == 0;  // offset(0) == 0, unique empty encoding
}

bool Channel::full(const StateSpace& space, StateIndex s) const {
    return size(space, s) == capacity_;
}

Value Channel::front(const StateSpace& space, StateIndex s) const {
    const auto queue = decode_raw(raw(space, s));
    DCFT_EXPECTS(!queue.empty(), "Channel::front on empty channel");
    return queue.front();
}

StateIndex Channel::push(const StateSpace& space, StateIndex s,
                         Value v) const {
    auto queue = decode_raw(raw(space, s));
    DCFT_EXPECTS(static_cast<int>(queue.size()) < capacity_,
                 "Channel::push on full channel");
    queue.push_back(v);
    return space.set(s, var_, static_cast<Value>(encode_raw(queue)));
}

StateIndex Channel::pop(const StateSpace& space, StateIndex s) const {
    auto queue = decode_raw(raw(space, s));
    DCFT_EXPECTS(!queue.empty(), "Channel::pop on empty channel");
    queue.erase(queue.begin());
    return space.set(s, var_, static_cast<Value>(encode_raw(queue)));
}

Predicate Channel::is_empty() const {
    return Predicate::compare(var_term_, Predicate::NodeKind::kTermEq,
                              Term::constant(0))
        .renamed(name_ + ".empty");
}

Predicate Channel::is_full() const {
    // The full queues are the raw values [offset(capacity), domain).
    return Predicate::compare(
               Term::constant(static_cast<Value>(
                   offset_[static_cast<std::size_t>(capacity_)])),
               Predicate::NodeKind::kTermLe, var_term_)
        .renamed(name_ + ".full");
}

Predicate Channel::nonempty() const {
    return (!is_empty()).renamed(name_ + ".nonempty");
}

Action Channel::send(std::string name, const Predicate& guard,
                     std::function<Value(const StateSpace&, StateIndex)>
                         value_of) const {
    DCFT_EXPECTS(value_of != nullptr, "send requires a value function");
    Channel self = *this;
    return Action(std::move(name), guard && !is_full(),
                  [self, value_of = std::move(value_of)](
                      const StateSpace& sp, StateIndex s) {
                      return self.push(sp, s, value_of(sp, s));
                  });
}

Action Channel::receive(std::string name, const Predicate& guard,
                        std::function<StateIndex(const StateSpace&,
                                                 StateIndex, Value)>
                            on_receive) const {
    DCFT_EXPECTS(on_receive != nullptr, "receive requires a handler");
    Channel self = *this;
    return Action(std::move(name), guard && nonempty(),
                  [self, on_receive = std::move(on_receive)](
                      const StateSpace& sp, StateIndex s) {
                      const Value v = self.front(sp, s);
                      return on_receive(sp, self.pop(sp, s), v);
                  });
}

Action Channel::lose(std::string name) const {
    Channel self = *this;
    return Action(std::move(name), nonempty(),
                  [self](const StateSpace& sp, StateIndex s) {
                      return self.pop(sp, s);
                  });
}

Action Channel::duplicate(std::string name) const {
    Channel self = *this;
    Predicate can = (!is_empty() && !is_full())
                        .renamed(name_ + ".nonempty&&!full");
    return Action(std::move(name), std::move(can),
                  [self](const StateSpace& sp, StateIndex s) {
                      return self.push(sp, s, self.front(sp, s));
                  });
}

Action Channel::corrupt(std::string name) const {
    Channel self = *this;
    DCFT_EXPECTS(value_domain_ >= 2,
                 "corrupt requires >= 2 channel values");
    return Action::nondet(
        std::move(name), nonempty(),
        [self](const StateSpace& sp, StateIndex s,
               std::vector<StateIndex>& out) {
            auto queue = self.decode_raw(self.raw(sp, s));
            const Value old = queue.front();
            for (Value v = 0; v < self.value_domain(); ++v) {
                if (v == old) continue;
                queue.front() = v;
                out.push_back(sp.set(
                    s, self.var(),
                    static_cast<Value>(self.encode_raw(queue))));
            }
        });
}

}  // namespace dcft
