#include "obs/run_report.hpp"

#include <fstream>
#include <map>
#include <memory>
#include <utility>

#include "obs/proc_stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace dcft::obs {
namespace {

/// One node of the phase tree assembled from '/'-separated timer paths.
/// Interior nodes that were never timed directly (e.g. "verify" when only
/// "verify/explore" recorded) carry ns == calls == 0 but still appear, so
/// readers can walk the hierarchy without special cases.
struct SpanNode {
    std::string name;  ///< last path segment
    std::string path;  ///< full '/'-path
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    /// std::map keeps children sorted by name — emission is deterministic.
    std::map<std::string, std::unique_ptr<SpanNode>> children;
};

SpanNode build_span_tree(const std::vector<Registry::TimerSample>& samples) {
    SpanNode root;
    for (const auto& sample : samples) {
        SpanNode* node = &root;
        std::string_view rest = sample.path;
        std::string prefix;
        while (!rest.empty()) {
            const std::size_t slash = rest.find('/');
            const std::string_view seg = rest.substr(0, slash);
            rest = slash == std::string_view::npos ? std::string_view()
                                                   : rest.substr(slash + 1);
            if (!prefix.empty()) prefix += '/';
            prefix += seg;
            auto& child = node->children[std::string(seg)];
            if (child == nullptr) {
                child = std::make_unique<SpanNode>();
                child->name = std::string(seg);
                child->path = prefix;
            }
            node = child.get();
        }
        node->ns = sample.ns;
        node->calls = sample.calls;
    }
    return root;
}

void write_span_children(JsonWriter& w, const SpanNode& node) {
    w.begin_array();
    for (const auto& [name, child] : node.children) {
        w.begin_object();
        w.kv("name", child->name);
        w.kv("path", child->path);
        w.kv("ns", child->ns);
        w.kv("calls", child->calls);
        w.key("children");
        write_span_children(w, *child);
        w.end_object();
    }
    w.end_array();
}

}  // namespace

void begin_envelope(JsonWriter& w, std::string_view kind,
                    std::string_view tool, std::string_view command) {
    w.begin_object();
    w.kv("schema", "dcft.report");
    w.kv("schema_version", 1);
    w.kv("kind", kind);
    w.kv("tool", tool);
    w.kv("command", command);
    // Host facts make the perf-bearing payloads (timelines, bench series,
    // store cold/warm deltas) interpretable after the fact.
    const HostInfo host = host_info();
    w.key("host");
    w.begin_object();
    w.kv("cores", host.cores);
    w.kv("page_size_bytes", host.page_size_bytes);
    w.kv("kernel", host.kernel);
    w.kv("total_ram_bytes", host.total_ram_bytes);
    w.end_object();
}

void write_telemetry(JsonWriter& w) {
    w.key("telemetry");
    w.begin_object();
    w.kv("enabled", enabled());
    w.key("counters");
    w.begin_object();
    for (const auto& sample : Registry::global().counters())
        w.kv(sample.path, sample.value);
    w.end_object();
    w.key("spans");
    const SpanNode root = build_span_tree(Registry::global().timers());
    write_span_children(w, root);
    w.end_object();
}

void write_timeline(JsonWriter& w) {
    w.key("timeline");
    w.begin_array();
    for (const ExplorationTimeline& tl : timeline_snapshot()) {
        w.begin_object();
        w.kv("id", tl.id);
        w.kv("space_states", tl.space_states);
        w.kv("total_ns", tl.total_ns);
        w.kv("spilled", tl.spilled);
        w.kv("identity", tl.identity);
        w.key("levels");
        w.begin_array();
        for (const LevelStat& ls : tl.levels) {
            w.begin_object();
            w.kv("level", ls.level);
            w.kv("frontier", ls.frontier);
            w.kv("new_nodes", ls.new_nodes);
            w.kv("program_edges", ls.program_edges);
            w.kv("fault_edges", ls.fault_edges);
            w.kv("level_ns", ls.level_ns);
            w.kv("rss_bytes", ls.rss_bytes);
            w.kv("spill_bytes", ls.spill_bytes);
            w.kv("spill_released_bytes", ls.spill_released_bytes);
            w.kv("parallel", ls.parallel);
            w.kv("chunks", ls.chunks);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
}

void write_witness(JsonWriter& w, const std::vector<WitnessStep>& trace) {
    w.begin_array();
    for (const WitnessStep& step : trace) {
        w.begin_object();
        w.kv("state", step.state);
        w.kv("state_repr", step.state_repr);
        w.kv("action", step.action);
        w.kv("fault", step.fault);
        w.end_object();
    }
    w.end_array();
}

namespace {

void write_stats_block(JsonWriter& w, std::string_view name,
                       const QueryStatsBlock& s) {
    w.key(name);
    w.begin_object();
    w.kv("count", s.count);
    // NaN (empty distribution) prints as null per JsonWriter's contract.
    w.kv("mean", s.mean);
    w.kv("p50", s.p50);
    w.kv("p90", s.p90);
    w.kv("p99", s.p99);
    w.end_object();
}

}  // namespace

void write_query(JsonWriter& w, const ReportQuery& q) {
    w.begin_object();
    w.kv("name", q.name);
    w.kv("system", q.system);
    w.kv("variant", q.variant);
    w.kv("grade", q.grade);
    w.kv("ok", q.ok);
    w.kv("reason", q.reason);
    w.kv("invariant_size", q.invariant_size);
    w.kv("span_size", q.span_size);
    if (!q.materialize.empty()) {
        w.key("materialize");
        w.begin_array();
        for (const QueryMaterialize& m : q.materialize) {
            w.begin_object();
            w.kv("predicate", m.predicate);
            w.kv("path", m.path);
            w.kv("kcall_ops", m.kcall_ops);
            w.kv("states_scanned", m.states_scanned);
            w.kv("memo_hit", m.memo_hit);
            w.end_object();
        }
        w.end_array();
    }
    if (q.masking_distance) {
        const QueryMaskingDistance& md = *q.masking_distance;
        w.key("masking_distance");
        w.begin_object();
        w.kv("masking", md.masking);
        w.key("distance");
        if (md.masking)
            w.null();
        else
            w.value(md.distance);
        w.kv("game_nodes", md.game_nodes);
        w.kv("game_layers", md.game_layers);
        w.kv("witness_faults", md.witness_faults);
        w.end_object();
    }
    if (q.monte_carlo) {
        const QueryMonteCarlo& mc = *q.monte_carlo;
        w.key("monte_carlo");
        w.begin_object();
        w.kv("runs", mc.runs);
        w.kv("violated_runs", mc.violated_runs);
        w.kv("base_seed", mc.base_seed);
        w.kv("fault_probability", mc.fault_probability);
        w.kv("max_steps", mc.max_steps);
        w.kv("max_faults", mc.max_faults);
        w.kv("violation_rate", mc.violation_rate);
        write_stats_block(w, "time_to_violation", mc.time_to_violation);
        write_stats_block(w, "time_to_recovery", mc.time_to_recovery);
        write_stats_block(w, "faults_absorbed", mc.faults_absorbed);
        w.end_object();
    }
    w.key("witness");
    w.begin_object();
    w.kv("kind", q.witness_kind);
    w.key("trace");
    write_witness(w, q.witness);
    w.end_object();
    w.end_object();
}

RunReport::RunReport(std::string tool, std::string command)
    : tool_(std::move(tool)), command_(std::move(command)) {}

void RunReport::add_query(ReportQuery query) {
    queries_.push_back(std::move(query));
}

std::string RunReport::to_json() const {
    JsonWriter w;
    begin_envelope(w, "run_report", tool_, command_);
    w.key("queries");
    w.begin_array();
    for (const ReportQuery& q : queries_) write_query(w, q);
    w.end_array();
    // Kernel-compilation coverage per program variant: which programs run
    // fully compiled / batch-swept and which pay interpreter fallbacks.
    w.key("programs");
    w.begin_array();
    for (const ReportProgram& p : programs_) {
        w.begin_object();
        w.kv("name", p.name);
        w.kv("system", p.system);
        w.kv("variant", p.variant);
        w.kv("actions", p.actions);
        w.kv("fully_compiled", p.fully_compiled);
        w.kv("structured_effects", p.structured_effects);
        w.kv("batchable_actions", p.batchable_actions);
        w.kv("kcall_ops", p.kcall_ops);
        w.kv("batchable", p.batchable);
        w.end_object();
    }
    w.end_array();
    write_timeline(w);
    write_telemetry(w);
    w.end_object();
    return w.str();
}

void RunReport::add_program(ReportProgram program) {
    programs_.push_back(std::move(program));
}

bool RunReport::write(const std::string& path, std::string* error) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        if (error != nullptr) *error = "cannot open '" + path + "' for write";
        return false;
    }
    out << to_json() << '\n';
    if (!out) {
        if (error != nullptr) *error = "short write to '" + path + "'";
        return false;
    }
    return true;
}

}  // namespace dcft::obs
