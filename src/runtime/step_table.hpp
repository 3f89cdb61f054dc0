// Monte Carlo step table: for each state a simulation visits, the enabled
// actions of a compiled action set and every enabled action's successors,
// computed once and looked up on every later visit.
//
// A Monte Carlo estimate takes 10^4-10^5 steps but visits a few hundred to
// a few thousand distinct states, so scanning every guard and running the
// effect again on each step repeats the same work. A row holds exactly what
// the per-step scan produced (enabled indices in action order, successors
// in statement order), so the scheduler and the successor draw consume the
// same RNG values as before and every run is unchanged.
//
// Memory grows with the distinct states visited; past a fixed byte budget
// the table is cleared and rebuilt from the next miss. Rows are a function
// of the state alone, so clears change cost, never results.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "verify/action_kernel.hpp"

namespace dcft {

class StepTable {
public:
    /// Byte budget of one table (estimated as in bytes()). graded-grid's
    /// largest table (barrier 8, ~12k states) stays far below it.
    static constexpr std::size_t kBudgetBytes = std::size_t{32} << 20;

    /// One state's row. Valid until the next StepTable::row() call.
    struct Row {
        /// Enabled action indices, strictly increasing.
        std::span<const std::size_t> enabled;
        /// successors(k): successors of action enabled[k], in statement
        /// order; never empty.
        std::span<const StateIndex> successors(std::size_t k) const {
            return {succ + offsets[k], succ + offsets[k + 1]};
        }

        const std::uint32_t* offsets;  ///< enabled.size() + 1, into succ
        const StateIndex* succ;
    };

    /// A table over `actions`, compiled once here. `budget_bytes` exists
    /// for tests that force clears.
    StepTable(std::shared_ptr<const StateSpace> space,
              std::span<const Action> actions,
              std::size_t budget_bytes = kBudgetBytes);

    /// The row of s, built on the first visit. Throws ContractError when an
    /// enabled action has no successor at s. A build may clear the table,
    /// which invalidates every Row handed out before.
    Row row(StateIndex s) {
        const auto it = index_.find(s);
        return view(it != index_.end() ? it->second : build(s));
    }

    /// Rows built and clears since construction (telemetry).
    std::uint64_t rows_built() const { return rows_built_; }
    std::uint64_t clears() const { return clears_; }

    /// Estimated bytes held: a fixed per-row map overhead plus the entry
    /// and successor arrays. Independent of allocator growth, so clears
    /// happen at the same rows on every platform.
    std::size_t bytes() const {
        return index_.size() * kRowOverheadBytes +
               enabled_.size() * (sizeof(std::size_t) + sizeof(std::uint32_t)) +
               succ_.size() * sizeof(StateIndex);
    }

private:
    /// Hash-map node, bucket slot and allocator header of one row.
    static constexpr std::size_t kRowOverheadBytes = 48;

    struct Extent {
        std::uint32_t begin;  ///< first entry in enabled_ / offsets_
        std::uint32_t count;  ///< enabled actions
    };

    Extent build(StateIndex s);
    void clear();

    Row view(Extent e) const {
        return Row{{enabled_.data() + e.begin, e.count},
                   offsets_.data() + e.begin, succ_.data()};
    }

    CompiledActionSet actions_;
    std::size_t budget_;
    std::unordered_map<StateIndex, Extent> index_;
    std::vector<std::size_t> enabled_;     ///< per entry: action index
    std::vector<std::uint32_t> offsets_;   ///< entry i: succ_[i] .. [i+1]
    std::vector<StateIndex> succ_;
    std::uint64_t rows_built_ = 0;
    std::uint64_t clears_ = 0;
};

}  // namespace dcft
