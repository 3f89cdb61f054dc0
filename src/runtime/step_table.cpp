#include "runtime/step_table.hpp"

#include <limits>
#include <utility>

#include "common/check.hpp"

namespace dcft {

StepTable::StepTable(std::shared_ptr<const StateSpace> space,
                     std::span<const Action> actions,
                     std::size_t budget_bytes)
    : actions_(std::move(space), actions),
      budget_(budget_bytes),
      offsets_{0} {
    // Offsets are 32-bit: a budget below 4 GiB keeps them in range.
    DCFT_EXPECTS(budget_bytes <= std::numeric_limits<std::uint32_t>::max(),
                 "step table budget must be below 4 GiB");
}

StepTable::Extent StepTable::build(StateIndex s) {
    if (bytes() > budget_) clear();
    Extent e{static_cast<std::uint32_t>(enabled_.size()), 0};
    for (std::size_t a = 0; a < actions_.size(); ++a) {
        const CompiledAction& action = actions_[a];
        if (!action.enabled(s)) continue;
        const std::size_t before = succ_.size();
        action.successors(s, succ_);
        DCFT_ASSERT(succ_.size() > before,
                    "enabled action '" + action.action().name() +
                        "' produced no successor");
        enabled_.push_back(a);
        offsets_.push_back(static_cast<std::uint32_t>(succ_.size()));
        ++e.count;
    }
    index_.emplace(s, e);
    ++rows_built_;
    return e;
}

void StepTable::clear() {
    // Moving in fresh containers releases the memory; clear() keeps it.
    index_ = decltype(index_)();
    enabled_ = decltype(enabled_)();
    offsets_ = decltype(offsets_)(1, 0);
    succ_ = decltype(succ_)();
    ++clears_;
}

}  // namespace dcft
