// The catalog's reachable-invariant seeds: each `init` predicate is the
// structured init_seed, and must equal the `s == init` lambda it replaced
// at every state of the catalog-size instance.
#include "apps/catalog.hpp"

#include <gtest/gtest.h>

#include "apps/alternating_bit.hpp"
#include "apps/barrier.hpp"
#include "apps/byzantine.hpp"
#include "apps/distributed_reset.hpp"
#include "lambda_oracle.hpp"

namespace dcft {
namespace {

void expect_seed(const std::shared_ptr<const StateSpace>& space,
                 StateIndex init) {
    const Predicate seed = apps::init_seed(*space, init);
    EXPECT_EQ(seed.name(), "init");
    test::expect_same_guard(
        space, seed,
        Predicate("init", [init](const StateSpace&, StateIndex s) {
            return s == init;
        }));
}

TEST(CatalogSeedTest, ByzantineSeedIsTheInitialState) {
    const auto sys = apps::make_byzantine(6, 1);
    expect_seed(sys.space, sys.initial_state(1));
}

TEST(CatalogSeedTest, BarrierSeedIsTheInitialState) {
    const auto sys = apps::make_barrier(8);
    expect_seed(sys.space, sys.initial_state());
}

TEST(CatalogSeedTest, AbpSeedIsTheInitialState) {
    const auto sys = apps::make_alternating_bit(6, 4);
    expect_seed(sys.space, sys.initial_state());
}

TEST(CatalogSeedTest, ResetSeedIsTheInitialState) {
    std::vector<int> parent(10, 0);
    for (int i = 1; i < 10; ++i)
        parent[static_cast<std::size_t>(i)] = (i - 1) / 2;
    const auto sys = apps::make_distributed_reset(parent);
    expect_seed(sys.space, sys.initial_state());
}

TEST(CatalogSeedTest, SeedOfANonZeroState) {
    const auto sys = apps::make_alternating_bit(1, 3);
    for (const StateIndex s : {StateIndex{1}, sys.space->num_states() / 2,
                               sys.space->num_states() - 1})
        expect_seed(sys.space, s);
}

}  // namespace
}  // namespace dcft
