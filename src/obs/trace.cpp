#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace dcft::obs {
namespace {

/// Per-lane capacity: 64Ki events ≈ 1.5 MiB. A 200-level n=8 exploration
/// emits a few thousand span events per lane, so a lane holds hours of BFS.
constexpr std::size_t kDefaultLaneCapacity = std::size_t{1} << 16;

/// Cap on stored exploration timelines (a verify run over all grades does
/// tens of explorations; fuzz campaigns could otherwise accumulate 10^4).
constexpr std::size_t kMaxTimelines = 1024;

struct Lane {
    Lane(std::uint32_t id, std::size_t capacity) : tid(id) {
        events.resize(capacity);
    }
    const std::uint32_t tid;
    std::vector<TraceEvent> events;     ///< Fixed storage; `size` is the fill.
    std::atomic<std::size_t> size{0};   ///< Published with release stores.
    std::atomic<std::uint64_t> dropped{0};
};

struct TraceState {
    std::mutex mu;
    std::vector<std::shared_ptr<Lane>> lanes;      ///< All lanes, by tid.
    std::vector<std::shared_ptr<Lane>> free_lanes; ///< Returned by dead threads.
    std::vector<std::string> names;
    std::map<std::string, std::uint32_t, std::less<>> name_ids;
    /// Bumped by trace_reset(); threads holding a lane from an older
    /// generation drop it and lease a fresh one.
    std::atomic<std::uint64_t> generation{1};
    std::size_t capacity_override = 0;

    std::mutex timeline_mu;
    std::vector<ExplorationTimeline> timelines;
    std::uint64_t next_timeline_id = 0;

    std::size_t lane_capacity_locked() const {
        return capacity_override > 0 ? capacity_override
                                     : kDefaultLaneCapacity;
    }
};

TraceState& state() {
    static TraceState* s = new TraceState();  // never destroyed
    return *s;
}

/// Thread-local lease on a lane. The destructor returns the lane to the
/// free list (unless a reset invalidated it), so the short-lived workers
/// parallel_chunks spawns every level reuse a bounded pool of lanes and the
/// export shows stable worker lanes instead of thousands of one-shot tids.
struct LaneLease {
    std::shared_ptr<Lane> lane;
    std::uint64_t generation = 0;

    ~LaneLease() { release(); }

    void release() {
        if (!lane) return;
        auto& s = state();
        const std::lock_guard<std::mutex> lock(s.mu);
        if (generation == s.generation.load(std::memory_order_relaxed))
            s.free_lanes.push_back(std::move(lane));
        lane.reset();
    }

    Lane& acquire() {
        auto& s = state();
        const std::uint64_t gen = s.generation.load(std::memory_order_relaxed);
        if (lane && generation == gen) return *lane;
        release();
        const std::lock_guard<std::mutex> lock(s.mu);
        // Re-read under the lock: a reset may have raced the check above.
        generation = s.generation.load(std::memory_order_relaxed);
        if (!s.free_lanes.empty()) {
            lane = std::move(s.free_lanes.back());
            s.free_lanes.pop_back();
        } else {
            lane = std::make_shared<Lane>(
                static_cast<std::uint32_t>(s.lanes.size()),
                s.lane_capacity_locked());
            s.lanes.push_back(lane);
        }
        return *lane;
    }
};

thread_local LaneLease t_lease;

/// Appends one event to the caller's lane. Callers have checked the gate.
void record(TracePhase phase, std::uint32_t name, std::uint64_t arg,
            std::uint64_t ts_ns) {
    Lane& lane = t_lease.acquire();
    const std::size_t n = lane.size.load(std::memory_order_relaxed);
    if (n >= lane.events.size()) {
        // Full: drop-newest, never block, never grow. Balance is repaired
        // at snapshot time (dropped Ends leave their Begins unclosed).
        lane.dropped.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    lane.events[n] = TraceEvent{ts_ns, arg, name, phase};
    lane.size.store(n + 1, std::memory_order_release);
}

/// Removes orphan End events and closes unfinished Begins at the lane's
/// last timestamp, so every snapshot is balanced per lane no matter which
/// suffix of the stream overflow dropped.
void repair_balance(TraceLane& lane) {
    std::vector<std::size_t> open;  // indices of unmatched Begins
    std::vector<TraceEvent> kept;
    kept.reserve(lane.events.size());
    for (const TraceEvent& ev : lane.events) {
        switch (ev.phase) {
            case TracePhase::kBegin:
                open.push_back(kept.size());
                kept.push_back(ev);
                break;
            case TracePhase::kEnd:
                if (open.empty()) continue;  // orphan End: drop
                open.pop_back();
                kept.push_back(ev);
                break;
            case TracePhase::kInstant:
                kept.push_back(ev);
                break;
        }
    }
    const std::uint64_t last_ts =
        kept.empty() ? 0 : kept.back().ts_ns;
    // Close inner spans first so the synthesized Ends nest correctly.
    for (auto it = open.rbegin(); it != open.rend(); ++it) {
        kept.push_back(TraceEvent{std::max(last_ts, kept[*it].ts_ns), 0,
                                  kept[*it].name, TracePhase::kEnd});
    }
    lane.events = std::move(kept);
}

const char* phase_str(TracePhase p) {
    switch (p) {
        case TracePhase::kBegin: return "B";
        case TracePhase::kEnd: return "E";
        case TracePhase::kInstant: return "i";
    }
    return "i";
}

}  // namespace

std::uint32_t detail::intern_event_name(std::string_view path) {
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    if (const auto it = s.name_ids.find(path); it != s.name_ids.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(s.names.size());
    s.names.emplace_back(path);
    s.name_ids.emplace(s.names.back(), id);
    return id;
}

// Begin and instant events lease the caller's lane before reading the
// clock: a pooled lane handed over by a worker that just exited then never
// receives a timestamp older than that worker's last event.

void detail::emit_instant(std::string_view path, std::uint64_t arg) {
    const std::uint32_t name = intern_event_name(path);
    t_lease.acquire();
    record(TracePhase::kInstant, name, arg, now_ns());
}

void Span::open(unsigned gates, std::string_view path, std::uint64_t arg) {
    timer_ = &Registry::global().timer(path);
    gates_ = gates;
    if ((gates & detail::kTraceGate) != 0) t_lease.acquire();
    start_ns_ = now_ns();
    if ((gates & detail::kTraceGate) != 0)
        record(TracePhase::kBegin, timer_->trace_id(), arg, start_ns_);
}

void Span::close() {
    const std::uint64_t end_ns = now_ns();
    if ((gates_ & detail::kTelemetryGate) != 0)
        timer_->add(end_ns - start_ns_);
    if ((gates_ & detail::kTraceGate) != 0)
        record(TracePhase::kEnd, timer_->trace_id(), 0, end_ns);
}

TraceSnapshot trace_snapshot() {
    auto& s = state();
    TraceSnapshot snap;
    {
        const std::lock_guard<std::mutex> lock(s.mu);
        snap.names = s.names;
        snap.lanes.reserve(s.lanes.size());
        for (const auto& lane : s.lanes) {
            TraceLane out;
            out.tid = lane->tid;
            out.dropped = lane->dropped.load(std::memory_order_relaxed);
            const std::size_t n = lane->size.load(std::memory_order_acquire);
            out.events.assign(lane->events.begin(), lane->events.begin() + n);
            snap.lanes.push_back(std::move(out));
        }
    }
    for (TraceLane& lane : snap.lanes) {
        repair_balance(lane);
        snap.dropped_total += lane.dropped;
    }
    if (enabled())
        Registry::global().counter("obs/trace/dropped").set(
            snap.dropped_total);
    return snap;
}

void trace_reset() {
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.lanes.clear();
    s.free_lanes.clear();
    s.generation.fetch_add(1, std::memory_order_relaxed);
}

void set_trace_buffer_capacity(std::size_t events) {
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.mu);
    s.capacity_override = events;
}

std::string chrome_trace_json() {
    const TraceSnapshot snap = trace_snapshot();
    // Rebase to the first event so Perfetto opens at t=0 instead of
    // process-uptime nanoseconds.
    std::uint64_t base = ~std::uint64_t{0};
    for (const TraceLane& lane : snap.lanes)
        for (const TraceEvent& ev : lane.events) base = std::min(base, ev.ts_ns);
    if (base == ~std::uint64_t{0}) base = 0;

    JsonWriter w;
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (const TraceLane& lane : snap.lanes) {
        for (const TraceEvent& ev : lane.events) {
            w.begin_object();
            w.kv("name", snap.names[ev.name]);
            w.kv("cat", "dcft");
            w.kv("ph", phase_str(ev.phase));
            w.kv("ts", static_cast<double>(ev.ts_ns - base) / 1000.0);
            w.kv("pid", 1);
            w.kv("tid", lane.tid);
            if (ev.phase == TracePhase::kInstant) w.kv("s", "t");
            if (ev.arg != 0 && ev.phase != TracePhase::kEnd) {
                w.key("args").begin_object();
                w.kv("v", ev.arg);
                w.end_object();
            }
            w.end_object();
        }
    }
    w.end_array();
    w.kv("displayTimeUnit", "ms");
    w.key("otherData").begin_object();
    w.kv("tool", "dcft");
    w.kv("dropped", snap.dropped_total);
    w.end_object();
    w.end_object();
    return w.str();
}

bool write_chrome_trace(const std::string& path, std::string* error) {
    const std::string json = chrome_trace_json();
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
        if (error) *error = "cannot open " + path + " for writing";
        return false;
    }
    const bool ok =
        std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
        std::fputc('\n', f) != EOF;
    std::fclose(f);
    if (!ok && error) *error = "short write to " + path;
    return ok;
}

void timeline_publish(ExplorationTimeline timeline) {
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.timeline_mu);
    timeline.id = s.next_timeline_id++;
    if (s.timelines.size() >= kMaxTimelines) return;  // keep-oldest
    s.timelines.push_back(std::move(timeline));
}

std::vector<ExplorationTimeline> timeline_snapshot() {
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.timeline_mu);
    return s.timelines;
}

void timeline_reset() {
    auto& s = state();
    const std::lock_guard<std::mutex> lock(s.timeline_mu);
    s.timelines.clear();
    s.next_timeline_id = 0;
}

}  // namespace dcft::obs
