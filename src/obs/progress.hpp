// Live progress heartbeat for long-running runs.
//
// A 10^8-state exploration or a 10k-program fuzz campaign is minutes of
// total silence without this. When enabled (DCFT_PROGRESS=<seconds> in the
// environment, or `dcft verify --progress`, or set_progress_interval), a
// single sampler thread wakes every interval and prints one line to
// stderr, e.g.
//
//   [dcft] explore level=42 frontier=1.2M states=8.5M (3.4M/s) 21.0% eta=44s rss=805MB spill_released=3.4GB
//   [dcft] fuzz 1234/10000 (12.3/s) eta=713s rss=96MB
//
// The instrumented loops (BFS levels, synthesis phases, fuzz campaigns,
// batch experiments) publish their position with relaxed atomic stores
// behind a one-relaxed-load gate — the same discipline as obs::enabled()
// — so a disabled heartbeat costs nothing measurable. RSS comes from
// obs/proc_stats.hpp and is omitted on platforms where it is unavailable.
// The ETA is based on the full state-space size (an upper bound on
// reachable states), so it is conservative: real explorations finish
// earlier than the estimate.
#pragma once

#include <cstdint>

namespace dcft::obs {

/// True when the heartbeat is on. First call resolves DCFT_PROGRESS from
/// the environment; afterwards one relaxed load.
bool progress_enabled();

/// The sample interval a DCFT_PROGRESS value asks for, in seconds; 0 means
/// off. A finite number is the interval itself (<= 0 is off). Anything
/// else follows the shared truthiness rule of common/env.hpp: falsy values
/// ("no", "OFF", "false", ...) are off, truthy ones get the default 1 s.
double progress_interval_seconds(const char* value);

/// Enables the heartbeat with the given sample interval (seconds); <= 0
/// disables it. Overrides the environment. Starts the sampler thread on
/// first enable.
void set_progress_interval(double seconds);

/// --- publishers (call behind progress_enabled()) ----------------------

/// A new exploration is starting over a space of `space_states` states
/// (0 when unknown; disables the ETA).
void progress_explore_begin(std::uint64_t space_states);

/// One BFS level finished: currently at `level` with `frontier` states to
/// expand next, `states` discovered so far, `spill_released` bytes
/// returned to the OS.
void progress_explore_level(std::uint64_t level, std::uint64_t frontier,
                            std::uint64_t states,
                            std::uint64_t spill_released);

/// Item-counting phases (fuzz programs, batch experiments, synthesis
/// iterations). `what` must have static lifetime. `total` 0 = unknown.
void progress_items(const char* what, std::uint64_t done,
                    std::uint64_t total);

/// Names the current phase for item-less stretches (e.g. "synth/masking").
/// `what` must have static lifetime.
void progress_phase(const char* what);

/// The item position last published by progress_items/progress_phase,
/// read without waiting for the sampler's stderr line.
struct ProgressItems {
    const char* what = nullptr;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
};
ProgressItems progress_items_snapshot();

/// Stops and joins the sampler thread. Registered with atexit when the
/// thread starts, so normal process exit is clean; CLIs may call it
/// earlier to stop printing before final output.
void progress_stop();

}  // namespace dcft::obs
