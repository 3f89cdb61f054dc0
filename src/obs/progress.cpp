#include "obs/progress.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "common/env.hpp"
#include "obs/proc_stats.hpp"
#include "obs/telemetry.hpp"

namespace dcft::obs {
namespace {

constexpr double kDefaultIntervalSec = 1.0;

enum Mode : int { kIdle = 0, kExplore = 1, kItems = 2 };

/// All publisher-visible state. Relaxed atomics: the heartbeat is a
/// human-facing sampler, a torn read across two fields costs nothing.
struct ProgressState {
    std::atomic<int> resolved{-1};          ///< -1 unresolved, 0 off, 1 on.
    std::atomic<std::uint64_t> interval_us{
        static_cast<std::uint64_t>(kDefaultIntervalSec * 1e6)};

    std::atomic<int> mode{kIdle};
    std::atomic<const char*> phase{nullptr};
    std::atomic<std::uint64_t> seq{0};      ///< Bumped on every publish.

    // Exploration.
    std::atomic<std::uint64_t> space{0};
    std::atomic<std::uint64_t> level{0};
    std::atomic<std::uint64_t> frontier{0};
    std::atomic<std::uint64_t> states{0};
    std::atomic<std::uint64_t> spill_released{0};
    std::atomic<std::uint64_t> start_ns{0};

    // Item-counting phases.
    std::atomic<const char*> items_what{nullptr};
    std::atomic<std::uint64_t> items_done{0};
    std::atomic<std::uint64_t> items_total{0};

    // Sampler thread.
    std::mutex mu;
    std::condition_variable cv;
    std::thread sampler;
    bool running = false;
    bool stop_requested = false;
};

ProgressState& state() {
    static ProgressState* s = new ProgressState();  // never destroyed
    return *s;
}

std::string fmt_count(std::uint64_t n) {
    char buf[32];
    if (n >= 10'000'000'000ull)
        std::snprintf(buf, sizeof buf, "%.1fG", static_cast<double>(n) / 1e9);
    else if (n >= 10'000'000ull)
        std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(n) / 1e6);
    else if (n >= 100'000ull)
        std::snprintf(buf, sizeof buf, "%.1fK", static_cast<double>(n) / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%llu",
                      static_cast<unsigned long long>(n));
    return buf;
}

std::string fmt_rate(double per_sec) {
    char buf[32];
    if (per_sec >= 1e6)
        std::snprintf(buf, sizeof buf, "%.1fM/s", per_sec / 1e6);
    else if (per_sec >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1fK/s", per_sec / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.1f/s", per_sec);
    return buf;
}

std::string fmt_bytes(std::uint64_t b) {
    char buf[32];
    if (b >= (std::uint64_t{1} << 30))
        std::snprintf(buf, sizeof buf, "%.1fGB",
                      static_cast<double>(b) / (1ull << 30));
    else
        std::snprintf(buf, sizeof buf, "%lluMB",
                      static_cast<unsigned long long>(b >> 20));
    return buf;
}

std::string fmt_eta(double secs) {
    char buf[32];
    if (secs < 120.0)
        std::snprintf(buf, sizeof buf, "%.0fs", secs);
    else if (secs < 7200.0)
        std::snprintf(buf, sizeof buf, "%.0fm", secs / 60.0);
    else
        std::snprintf(buf, sizeof buf, "%.1fh", secs / 3600.0);
    return buf;
}

void print_sample(std::uint64_t last_metric, std::uint64_t last_ns) {
    auto& s = state();
    const int mode = s.mode.load(std::memory_order_relaxed);
    if (mode == kIdle) return;
    const std::uint64_t now = now_ns();
    const double dt =
        last_ns ? static_cast<double>(now - last_ns) / 1e9 : 0.0;

    std::string line = "[dcft] ";
    if (mode == kExplore) {
        const std::uint64_t states = s.states.load(std::memory_order_relaxed);
        const std::uint64_t space = s.space.load(std::memory_order_relaxed);
        line += "explore level=" +
                std::to_string(s.level.load(std::memory_order_relaxed)) +
                " frontier=" +
                fmt_count(s.frontier.load(std::memory_order_relaxed)) +
                " states=" + fmt_count(states);
        if (dt > 0.0 && states >= last_metric)
            line += " (" +
                    fmt_rate(static_cast<double>(states - last_metric) / dt) +
                    ")";
        if (space > 0 && states > 0) {
            const double frac =
                std::min(1.0, static_cast<double>(states) /
                                  static_cast<double>(space));
            const double elapsed =
                static_cast<double>(
                    now - s.start_ns.load(std::memory_order_relaxed)) /
                1e9;
            char pct[16];
            std::snprintf(pct, sizeof pct, " %.1f%%", frac * 100.0);
            line += pct;
            if (frac > 0.0 && frac < 1.0)
                line += " eta<=" + fmt_eta(elapsed * (1.0 - frac) / frac);
        }
        const std::uint64_t released =
            s.spill_released.load(std::memory_order_relaxed);
        if (const auto rss = current_rss_bytes())
            line += " rss=" + fmt_bytes(*rss);
        if (released > 0) line += " spill_released=" + fmt_bytes(released);
    } else {
        const char* what = s.items_what.load(std::memory_order_relaxed);
        const std::uint64_t done =
            s.items_done.load(std::memory_order_relaxed);
        const std::uint64_t total =
            s.items_total.load(std::memory_order_relaxed);
        line += what ? what : "work";
        line += " " + std::to_string(done);
        if (total > 0) line += "/" + std::to_string(total);
        if (dt > 0.0 && done > last_metric) {
            const double rate = static_cast<double>(done - last_metric) / dt;
            line += " (" + fmt_rate(rate) + ")";
            if (total > done)
                line +=
                    " eta<=" + fmt_eta(static_cast<double>(total - done) / rate);
        }
        if (const auto rss = current_rss_bytes())
            line += " rss=" + fmt_bytes(*rss);
    }
    std::fprintf(stderr, "%s\n", line.c_str());
}

void sampler_main() {
    auto& s = state();
    std::uint64_t last_seq = 0;
    std::uint64_t last_metric = 0;
    std::uint64_t last_ns = 0;
    std::unique_lock<std::mutex> lock(s.mu);
    while (!s.stop_requested) {
        const auto interval = std::chrono::microseconds(
            s.interval_us.load(std::memory_order_relaxed));
        s.cv.wait_for(lock, interval);
        if (s.stop_requested) break;
        const std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
        if (seq == last_seq) continue;  // nothing new: stay quiet
        last_seq = seq;
        print_sample(last_metric, last_ns);
        last_ns = now_ns();
        last_metric = s.mode.load(std::memory_order_relaxed) == kExplore
                          ? s.states.load(std::memory_order_relaxed)
                          : s.items_done.load(std::memory_order_relaxed);
    }
    s.running = false;
}

void ensure_sampler() {
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    if (s.running) return;
    if (s.sampler.joinable()) s.sampler.join();  // previous stop finished
    s.running = true;
    s.stop_requested = false;
    s.sampler = std::thread(sampler_main);
    static bool atexit_registered = false;
    if (!atexit_registered) {
        atexit_registered = true;
        std::atexit(progress_stop);
    }
}

}  // namespace

double progress_interval_seconds(const char* value) {
    if (value == nullptr) return 0.0;
    char* end = nullptr;
    const double secs = std::strtod(value, &end);
    if (end != value && *end == '\0' && std::isfinite(secs))
        return secs > 0.0 ? secs : 0.0;
    return env_value_truthy(value) ? kDefaultIntervalSec : 0.0;
}

bool progress_enabled() {
    auto& s = state();
    int v = s.resolved.load(std::memory_order_relaxed);
    if (v < 0) {
        const double secs =
            progress_interval_seconds(std::getenv("DCFT_PROGRESS"));
        const int on = secs > 0.0 ? 1 : 0;
        if (on)
            s.interval_us.store(static_cast<std::uint64_t>(secs * 1e6),
                                std::memory_order_relaxed);
        int expected = -1;
        s.resolved.compare_exchange_strong(expected, on,
                                           std::memory_order_relaxed);
        v = s.resolved.load(std::memory_order_relaxed);
    }
    return v == 1;
}

void set_progress_interval(double seconds) {
    auto& s = state();
    if (seconds > 0.0) {
        s.interval_us.store(static_cast<std::uint64_t>(seconds * 1e6),
                            std::memory_order_relaxed);
        s.resolved.store(1, std::memory_order_relaxed);
        ensure_sampler();
    } else {
        s.resolved.store(0, std::memory_order_relaxed);
        progress_stop();
    }
}

void progress_explore_begin(std::uint64_t space_states) {
    if (!progress_enabled()) return;
    auto& s = state();
    s.space.store(space_states, std::memory_order_relaxed);
    s.level.store(0, std::memory_order_relaxed);
    s.frontier.store(0, std::memory_order_relaxed);
    s.states.store(0, std::memory_order_relaxed);
    s.spill_released.store(0, std::memory_order_relaxed);
    s.start_ns.store(now_ns(), std::memory_order_relaxed);
    s.mode.store(kExplore, std::memory_order_relaxed);
    s.seq.fetch_add(1, std::memory_order_relaxed);
    ensure_sampler();
}

void progress_explore_level(std::uint64_t level, std::uint64_t frontier,
                            std::uint64_t states,
                            std::uint64_t spill_released) {
    if (!progress_enabled()) return;
    auto& s = state();
    s.level.store(level, std::memory_order_relaxed);
    s.frontier.store(frontier, std::memory_order_relaxed);
    s.states.store(states, std::memory_order_relaxed);
    s.spill_released.store(spill_released, std::memory_order_relaxed);
    s.mode.store(kExplore, std::memory_order_relaxed);
    s.seq.fetch_add(1, std::memory_order_relaxed);
}

void progress_items(const char* what, std::uint64_t done,
                    std::uint64_t total) {
    if (!progress_enabled()) return;
    auto& s = state();
    s.items_what.store(what, std::memory_order_relaxed);
    s.items_done.store(done, std::memory_order_relaxed);
    s.items_total.store(total, std::memory_order_relaxed);
    s.mode.store(kItems, std::memory_order_relaxed);
    s.seq.fetch_add(1, std::memory_order_relaxed);
    ensure_sampler();
}

void progress_phase(const char* what) {
    if (!progress_enabled()) return;
    auto& s = state();
    s.phase.store(what, std::memory_order_relaxed);
    s.items_what.store(what, std::memory_order_relaxed);
    s.items_done.store(0, std::memory_order_relaxed);
    s.items_total.store(0, std::memory_order_relaxed);
    s.mode.store(kItems, std::memory_order_relaxed);
    s.seq.fetch_add(1, std::memory_order_relaxed);
    ensure_sampler();
}

ProgressItems progress_items_snapshot() {
    const auto& s = state();
    return ProgressItems{s.items_what.load(std::memory_order_relaxed),
                         s.items_done.load(std::memory_order_relaxed),
                         s.items_total.load(std::memory_order_relaxed)};
}

void progress_stop() {
    auto& s = state();
    std::thread to_join;
    {
        const std::lock_guard<std::mutex> lock(s.mu);
        if (!s.sampler.joinable()) return;
        s.stop_requested = true;
        to_join = std::move(s.sampler);
    }
    s.cv.notify_all();
    to_join.join();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.running = false;
    s.stop_requested = false;
    s.mode.store(kIdle, std::memory_order_relaxed);
}

}  // namespace dcft::obs
