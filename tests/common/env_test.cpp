// The shared DCFT_* environment parsing rule (common/env.hpp): one
// truthiness table for every boolean flag, one positive-integer parser for
// every numeric knob — and the consumers (telemetry, batch gate,
// exploration cache) all observe the shared rule, including the historical
// bugs it fixes ("00" and "false" used to count as enabled).
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hpp"
#include "obs/telemetry.hpp"
#include "verify/batch_kernel.hpp"
#include "verify/exploration_cache.hpp"

namespace dcft {
namespace {

TEST(EnvTest, TruthinessTable) {
    // Falsy: unset, empty, pure zeros, false/off/no in any case.
    EXPECT_FALSE(env_value_truthy(nullptr));
    EXPECT_FALSE(env_value_truthy(""));
    EXPECT_FALSE(env_value_truthy("0"));
    EXPECT_FALSE(env_value_truthy("00"));
    EXPECT_FALSE(env_value_truthy("0000"));
    EXPECT_FALSE(env_value_truthy("false"));
    EXPECT_FALSE(env_value_truthy("FALSE"));
    EXPECT_FALSE(env_value_truthy("False"));
    EXPECT_FALSE(env_value_truthy("off"));
    EXPECT_FALSE(env_value_truthy("OFF"));
    EXPECT_FALSE(env_value_truthy("no"));
    EXPECT_FALSE(env_value_truthy("No"));

    // Truthy: everything else.
    EXPECT_TRUE(env_value_truthy("1"));
    EXPECT_TRUE(env_value_truthy("01"));
    EXPECT_TRUE(env_value_truthy("true"));
    EXPECT_TRUE(env_value_truthy("TRUE"));
    EXPECT_TRUE(env_value_truthy("yes"));
    EXPECT_TRUE(env_value_truthy("on"));
    EXPECT_TRUE(env_value_truthy("2"));
    EXPECT_TRUE(env_value_truthy("x"));
    EXPECT_TRUE(env_value_truthy("0x"));
    EXPECT_TRUE(env_value_truthy(" 0"));  // not *entirely* zeros
}

TEST(EnvTest, FlagReadsEnvironment) {
    unsetenv("DCFT_ENV_TEST_FLAG");
    EXPECT_FALSE(env_flag_enabled("DCFT_ENV_TEST_FLAG"));
    setenv("DCFT_ENV_TEST_FLAG", "1", 1);
    EXPECT_TRUE(env_flag_enabled("DCFT_ENV_TEST_FLAG"));
    setenv("DCFT_ENV_TEST_FLAG", "false", 1);
    EXPECT_FALSE(env_flag_enabled("DCFT_ENV_TEST_FLAG"));
    setenv("DCFT_ENV_TEST_FLAG", "00", 1);
    EXPECT_FALSE(env_flag_enabled("DCFT_ENV_TEST_FLAG"));
    unsetenv("DCFT_ENV_TEST_FLAG");
}

TEST(EnvTest, PositiveU64) {
    unsetenv("DCFT_ENV_TEST_NUM");
    EXPECT_EQ(env_positive_u64("DCFT_ENV_TEST_NUM"), std::nullopt);
    setenv("DCFT_ENV_TEST_NUM", "", 1);
    EXPECT_EQ(env_positive_u64("DCFT_ENV_TEST_NUM"), std::nullopt);
    setenv("DCFT_ENV_TEST_NUM", "0", 1);
    EXPECT_EQ(env_positive_u64("DCFT_ENV_TEST_NUM"), std::nullopt);
    setenv("DCFT_ENV_TEST_NUM", "-3", 1);
    EXPECT_EQ(env_positive_u64("DCFT_ENV_TEST_NUM"), std::nullopt);
    setenv("DCFT_ENV_TEST_NUM", "junk", 1);
    EXPECT_EQ(env_positive_u64("DCFT_ENV_TEST_NUM"), std::nullopt);
    setenv("DCFT_ENV_TEST_NUM", "12junk", 1);
    EXPECT_EQ(env_positive_u64("DCFT_ENV_TEST_NUM"), std::nullopt);
    setenv("DCFT_ENV_TEST_NUM", "8", 1);
    EXPECT_EQ(env_positive_u64("DCFT_ENV_TEST_NUM"), 8u);
    setenv("DCFT_ENV_TEST_NUM", "123456789", 1);
    EXPECT_EQ(env_positive_u64("DCFT_ENV_TEST_NUM"), 123456789u);
    unsetenv("DCFT_ENV_TEST_NUM");
}

// -- consumers observe the shared rule (the historical divergences) --------

TEST(EnvTest, BatchGateTreatsFalseAndDoubleZeroAsDisabled) {
    setenv("DCFT_NO_BATCH", "false", 1);
    EXPECT_FALSE(batch_disabled());
    setenv("DCFT_NO_BATCH", "00", 1);
    EXPECT_FALSE(batch_disabled());
    setenv("DCFT_NO_BATCH", "1", 1);
    EXPECT_TRUE(batch_disabled());
    unsetenv("DCFT_NO_BATCH");
    EXPECT_FALSE(batch_disabled());
}

TEST(EnvTest, ExplorationCacheGateTreatsFalseAndDoubleZeroAsDisabled) {
    setenv("DCFT_NO_EXPLORE_CACHE", "false", 1);
    EXPECT_FALSE(exploration_cache_disabled());
    setenv("DCFT_NO_EXPLORE_CACHE", "00", 1);
    EXPECT_FALSE(exploration_cache_disabled());
    setenv("DCFT_NO_EXPLORE_CACHE", "on", 1);
    EXPECT_TRUE(exploration_cache_disabled());
    unsetenv("DCFT_NO_EXPLORE_CACHE");
    EXPECT_FALSE(exploration_cache_disabled());
}

TEST(EnvTest, TelemetryResolvesThroughSharedRule) {
    // obs::enabled() caches its first resolution; exercise the resolver
    // through set_enabled-free re-resolution is not possible, so just pin
    // the setter/getter contract plus the parse rule used at resolve time.
    obs::set_enabled(false);
    EXPECT_FALSE(obs::enabled());
    obs::set_enabled(true);
    EXPECT_TRUE(obs::enabled());
    obs::set_enabled(false);
}

}  // namespace
}  // namespace dcft
