#include "obs/telemetry.hpp"

#include <chrono>

#include "common/env.hpp"
#include "obs/trace.hpp"

namespace dcft::obs {
namespace {

/// Sets or clears one gate, resolving the other from the environment
/// first so the programmatic value is the one that sticks.
void set_gate(unsigned gate, bool on) {
    unsigned cur = detail::gates();
    while (!detail::gate_word.compare_exchange_weak(
        cur, on ? cur | gate : cur & ~gate, std::memory_order_relaxed)) {
    }
}

}  // namespace

unsigned detail::resolve_gates() {
    unsigned env = kGatesResolved;
    if (env_flag_enabled("DCFT_TELEMETRY")) env |= kTelemetryGate;
    if (env_flag_enabled("DCFT_TRACE")) env |= kTraceGate;
    unsigned expected = 0;
    // First resolver publishes; a concurrent set_* (or resolver) wins.
    if (gate_word.compare_exchange_strong(expected, env,
                                          std::memory_order_relaxed))
        return env;
    return expected;
}

void set_enabled(bool on) { set_gate(detail::kTelemetryGate, on); }

void set_trace_enabled(bool on) { set_gate(detail::kTraceGate, on); }

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Registry& Registry::global() {
    static Registry* registry = new Registry();  // never destroyed
    return *registry;
}

Counter& Registry::counter(std::string_view path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(path);
    if (it == counters_.end()) {
        it = counters_
                 .emplace(std::string(path), std::make_unique<Counter>())
                 .first;
    }
    return *it->second;
}

Timer& Registry::timer(std::string_view path) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = timers_.find(path);
    if (it == timers_.end()) {
        it = timers_
                 .emplace(std::string(path),
                          std::make_unique<Timer>(
                              detail::intern_event_name(path)))
                 .first;
    }
    return *it->second;
}

std::vector<Registry::CounterSample> Registry::counters() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CounterSample> out;
    out.reserve(counters_.size());
    for (const auto& [path, counter] : counters_)
        out.push_back(CounterSample{path, counter->value()});
    return out;  // std::map iteration order is already sorted by path
}

std::vector<Registry::TimerSample> Registry::timers() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TimerSample> out;
    out.reserve(timers_.size());
    for (const auto& [path, timer] : timers_)
        out.push_back(TimerSample{path, timer->nanos(), timer->calls()});
    return out;
}

void Registry::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [path, counter] : counters_) counter->set(0);
    for (auto& [path, timer] : timers_) timer->reset();
}

}  // namespace dcft::obs
