#include "runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/check.hpp"

namespace dcft {
namespace {

const std::vector<std::size_t> kEnabled{0, 2, 5};

TEST(RandomSchedulerTest, PicksOnlyEnabled) {
    RandomScheduler sched;
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        const std::size_t a = sched.pick(kEnabled, rng);
        EXPECT_TRUE(a == 0 || a == 2 || a == 5);
    }
}

TEST(RandomSchedulerTest, CoversAllEnabled) {
    RandomScheduler sched;
    Rng rng(2);
    std::map<std::size_t, int> counts;
    for (int i = 0; i < 600; ++i) ++counts[sched.pick(kEnabled, rng)];
    EXPECT_EQ(counts.size(), 3u);
    for (const auto& [a, c] : counts) EXPECT_GT(c, 100) << a;
}

TEST(RandomSchedulerTest, EmptyEnabledThrows) {
    RandomScheduler sched;
    Rng rng(1);
    EXPECT_THROW(sched.pick({}, rng), ContractError);
}

TEST(RoundRobinSchedulerTest, CyclesThroughActions) {
    RoundRobinScheduler sched;
    Rng rng(1);
    EXPECT_EQ(sched.pick(kEnabled, rng), 0u);
    EXPECT_EQ(sched.pick(kEnabled, rng), 2u);
    EXPECT_EQ(sched.pick(kEnabled, rng), 5u);
    EXPECT_EQ(sched.pick(kEnabled, rng), 0u);  // wraps
}

TEST(RoundRobinSchedulerTest, SkipsDisabled) {
    RoundRobinScheduler sched;
    Rng rng(1);
    EXPECT_EQ(sched.pick(kEnabled, rng), 0u);
    const std::vector<std::size_t> only5{5};
    EXPECT_EQ(sched.pick(only5, rng), 5u);
    EXPECT_EQ(sched.pick(kEnabled, rng), 0u);  // cursor wrapped past 5
}

TEST(RoundRobinSchedulerTest, ResetRestartsCursor) {
    RoundRobinScheduler sched;
    Rng rng(1);
    sched.pick(kEnabled, rng);
    sched.pick(kEnabled, rng);
    sched.reset();
    EXPECT_EQ(sched.pick(kEnabled, rng), 0u);
}

TEST(RoundRobinSchedulerTest, IsWeaklyFair) {
    // Every always-enabled action is chosen within one full cycle.
    RoundRobinScheduler sched;
    Rng rng(1);
    std::map<std::size_t, int> counts;
    for (int i = 0; i < 30; ++i) ++counts[sched.pick(kEnabled, rng)];
    EXPECT_EQ(counts[0], 10);
    EXPECT_EQ(counts[2], 10);
    EXPECT_EQ(counts[5], 10);
}

TEST(AdversarialSchedulerTest, StarvesListedActions) {
    AdversarialScheduler sched({2});
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        const std::size_t a = sched.pick(kEnabled, rng);
        EXPECT_NE(a, 2u);
    }
}

TEST(AdversarialSchedulerTest, FallsBackWhenOnlyStarvedEnabled) {
    AdversarialScheduler sched({2, 5});
    Rng rng(3);
    const std::vector<std::size_t> only_starved{2, 5};
    const std::size_t a = sched.pick(only_starved, rng);
    EXPECT_TRUE(a == 2 || a == 5);
}

TEST(WeightedSchedulerTest, RespectsWeights) {
    WeightedScheduler sched({10.0, 0.0, 1.0});  // action 0 heavy, 1 never
    Rng rng(4);
    std::map<std::size_t, int> counts;
    const std::vector<std::size_t> enabled{0, 1, 2};
    for (int i = 0; i < 2000; ++i) ++counts[sched.pick(enabled, rng)];
    EXPECT_GT(counts[0], counts[2] * 5);
    EXPECT_EQ(counts[1], 0);
}

TEST(WeightedSchedulerTest, MissingWeightsDefaultToOne) {
    WeightedScheduler sched({});
    Rng rng(4);
    std::map<std::size_t, int> counts;
    for (int i = 0; i < 600; ++i) ++counts[sched.pick(kEnabled, rng)];
    EXPECT_EQ(counts.size(), 3u);
}

TEST(AdversarialSchedulerTest, DrawsMatchPoolBuildingImplementation) {
    // The implementation that copied the non-starved (else all) enabled
    // actions into a pool and drew uniformly from it. The pick must consume
    // the same RNG values and return the same actions.
    const auto pool_pick = [](const std::vector<std::size_t>& starved,
                              std::span<const std::size_t> enabled,
                              Rng& rng) {
        std::vector<std::size_t> preferred;
        for (std::size_t a : enabled)
            if (!std::binary_search(starved.begin(), starved.end(), a))
                preferred.push_back(a);
        const std::vector<std::size_t> pool =
            preferred.empty()
                ? std::vector<std::size_t>(enabled.begin(), enabled.end())
                : preferred;
        return pool[rng.below(pool.size())];
    };
    const std::vector<std::vector<std::size_t>> starved_sets = {
        {}, {0}, {1, 3}, {0, 1, 2, 3, 4, 5, 6, 7}, {2, 5, 7}};
    for (const auto& starved : starved_sets) {
        AdversarialScheduler sched(starved);
        for (std::uint64_t seed = 0; seed < 200; ++seed) {
            Rng rng(seed), ref_rng(seed), masks(seed ^ 0xA5A5u);
            for (int pick = 0; pick < 50; ++pick) {
                // A random nonempty enabled subset of actions 0..7.
                std::vector<std::size_t> enabled;
                while (enabled.empty())
                    for (std::size_t a = 0; a < 8; ++a)
                        if (masks.chance(0.5)) enabled.push_back(a);
                ASSERT_EQ(sched.pick(enabled, rng),
                          pool_pick(starved, enabled, ref_rng))
                    << "seed " << seed << " pick " << pick;
            }
            EXPECT_EQ(rng(), ref_rng());  // same number of draws
        }
    }
}

}  // namespace
}  // namespace dcft
