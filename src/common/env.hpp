// Shared parsing of DCFT_* environment variables.
//
// Every boolean toggle the library reads from the environment
// (DCFT_TELEMETRY, DCFT_TRACE, DCFT_SPILL) goes through env_flag_enabled
// so they all agree on what "off" means. The historical per-site parsers
// disagreed: one treated "00" as enabled, another treated "false" as
// enabled — a user exporting a toggle as "false" got it switched *on*.
// The shared rule:
//
//   unset, "", "0", "00", "false", "off", "no"  (case-insensitive, any
//   number of leading zeros)                    -> disabled
//   anything else ("1", "true", "yes", "on", "2", "x", ...) -> enabled
//
// Numeric knobs (DCFT_VERIFIER_THREADS, DCFT_DIRECT_MAP_MAX) go through
// env_positive_u64: a strictly positive decimal integer, anything else
// (unset, empty, junk, zero, negative) yields the caller's fallback.
#pragma once

#include <cstdint>
#include <optional>

namespace dcft {

/// True iff the environment variable `name` is set to a truthy value (see
/// file comment for the exact falsy set). Re-reads the environment on
/// every call; callers that need a cached answer cache it themselves.
bool env_flag_enabled(const char* name);

/// The truthiness rule applied to an already-fetched value (nullptr means
/// unset). Exposed separately so tests can table-drive it without mutating
/// the process environment.
bool env_value_truthy(const char* value);

/// Three-way read of a boolean toggle: nullopt when `name` is unset,
/// otherwise the truthiness rule applied to its value. Lets callers tell
/// "the user never said" apart from "the user explicitly said off" — dcft
/// rejects --trace/--report when DCFT_TELEMETRY is explicitly falsy
/// instead of silently overriding the environment.
std::optional<bool> env_flag_state(const char* name);

/// Parses `name` as a strictly positive decimal integer; returns nullopt
/// when unset, empty, malformed, zero, or negative.
std::optional<std::uint64_t> env_positive_u64(const char* name);

}  // namespace dcft
