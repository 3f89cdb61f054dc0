#include "runtime/scheduler.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dcft {

std::size_t RandomScheduler::pick(std::span<const std::size_t> enabled,
                                  Rng& rng) {
    DCFT_EXPECTS(!enabled.empty(), "pick on empty enabled set");
    return enabled[rng.below(enabled.size())];
}

std::size_t RoundRobinScheduler::pick(std::span<const std::size_t> enabled,
                                      Rng&) {
    DCFT_EXPECTS(!enabled.empty(), "pick on empty enabled set");
    // First enabled action with index >= cursor, else wrap around.
    auto it = std::lower_bound(enabled.begin(), enabled.end(), cursor_);
    const std::size_t chosen = (it != enabled.end()) ? *it : enabled.front();
    cursor_ = chosen + 1;
    return chosen;
}

AdversarialScheduler::AdversarialScheduler(std::vector<std::size_t> starved)
    : starved_(std::move(starved)) {
    std::sort(starved_.begin(), starved_.end());
}

std::size_t AdversarialScheduler::pick(std::span<const std::size_t> enabled,
                                       Rng& rng) {
    DCFT_EXPECTS(!enabled.empty(), "pick on empty enabled set");
    // Draw among the non-starved enabled actions, else among all of them,
    // without materializing either pool.
    const auto starved = [this](std::size_t a) {
        return std::binary_search(starved_.begin(), starved_.end(), a);
    };
    const auto preferred = static_cast<std::size_t>(
        std::count_if(enabled.begin(), enabled.end(),
                      [&](std::size_t a) { return !starved(a); }));
    if (preferred == 0) return enabled[rng.below(enabled.size())];
    std::size_t k = rng.below(preferred);
    for (std::size_t a : enabled)
        if (!starved(a) && k-- == 0) return a;
    return enabled.back();  // unreachable: k < preferred
}

WeightedScheduler::WeightedScheduler(std::vector<double> weights)
    : weights_(std::move(weights)) {}

std::size_t WeightedScheduler::pick(std::span<const std::size_t> enabled,
                                    Rng& rng) {
    DCFT_EXPECTS(!enabled.empty(), "pick on empty enabled set");
    double total = 0;
    for (std::size_t a : enabled)
        total += (a < weights_.size()) ? weights_[a] : 1.0;
    if (total <= 0) return enabled[rng.below(enabled.size())];
    double roll = rng.uniform01() * total;
    for (std::size_t a : enabled) {
        roll -= (a < weights_.size()) ? weights_[a] : 1.0;
        if (roll <= 0) return a;
    }
    return enabled.back();
}

}  // namespace dcft
