// bench_compare: regression gate over BENCH_verifier.json series.
//
//   bench_compare <baseline.json> <candidate.json> [--tolerance=PCT]
//                 [--min-delta-ms=MS] [--json-out=FILE]
//
// Reads the `workloads` array of both files, matches workloads by `name`,
// and fails (exit 1) when any matched workload's candidate `best_ms`
// exceeds baseline `best_ms` by more than PCT percent (default 25) AND by
// more than --min-delta-ms (default 0.25 ms) absolute — sub-millisecond
// workloads jitter past 25% on timer noise alone, and a gate that can
// only fire on >0.25 ms of real slowdown never flags noise. The
// intersection of workload names must be non-empty — an empty overlap
// means the series drifted apart and the gate would silently pass, so it
// is treated as failure. Workloads present on only one side are listed
// but do not fail the gate (benchmark sets may grow).
//
// The ctest smoke target wires this as:
//   bench_verifier --smoke --json=BENCH_verifier.smoke.json
//   bench_compare  <src>/BENCH_verifier.json BENCH_verifier.smoke.json
// so a perf regression in the verifier core fails `ctest` without a full
// (minutes-long) benchmark run. Smoke timings are best-of-3; the 25%
// default leaves headroom for scheduler jitter on small workloads.
//
// --json-out=FILE additionally writes a machine-readable summary in the
// shared dcft.report envelope (kind "bench_compare"): the per-workload
// base/cand/ratio/regressed rows plus the gate verdict. The tool stays
// standalone (no dcft dependency) so it can run against committed
// artifacts on machines without a build tree; the envelope fields are
// kept in sync with obs/run_report.hpp by report_check.
//
// The parser below handles exactly the JSON subset our writer emits
// (objects, arrays, strings without surrogate escapes, numbers, bools,
// null) — no external dependency.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader.

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::shared_ptr<JsonArray> array;
    std::shared_ptr<JsonObject> object;

    const JsonValue* find(const std::string& key) const {
        if (kind != Kind::kObject) return nullptr;
        const auto it = object->find(key);
        return it == object->end() ? nullptr : &it->second;
    }
};

class JsonParser {
public:
    explicit JsonParser(const std::string& text) : text_(text) {}

    bool parse(JsonValue& out, std::string& error) {
        pos_ = 0;
        if (!value(out)) {
            error = error_ + " (at byte " + std::to_string(pos_) + ")";
            return false;
        }
        skip_ws();
        if (pos_ != text_.size()) {
            error = "trailing content at byte " + std::to_string(pos_);
            return false;
        }
        return true;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool fail(const std::string& msg) {
        if (error_.empty()) error_ = msg;
        return false;
    }

    bool literal(const char* word, JsonValue& out, JsonValue::Kind k,
                 bool b) {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("expected ") + word);
        pos_ += len;
        out.kind = k;
        out.boolean = b;
        return true;
    }

    bool string_token(std::string& out) {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"') return true;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size()) return fail("bad escape");
            const char e = text_[pos_++];
            switch (e) {
                case '"': out.push_back('"'); break;
                case '\\': out.push_back('\\'); break;
                case '/': out.push_back('/'); break;
                case 'b': out.push_back('\b'); break;
                case 'f': out.push_back('\f'); break;
                case 'n': out.push_back('\n'); break;
                case 'r': out.push_back('\r'); break;
                case 't': out.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) return fail("bad \\u");
                    // ASCII-only \uXXXX is enough for our writer; anything
                    // else is preserved as '?' (names never contain it).
                    const std::string hex = text_.substr(pos_, 4);
                    pos_ += 4;
                    const long cp = std::strtol(hex.c_str(), nullptr, 16);
                    out.push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
                    break;
                }
                default: return fail("bad escape");
            }
        }
        return fail("unterminated string");
    }

    bool value(JsonValue& out) {
        skip_ws();
        if (pos_ >= text_.size()) return fail("unexpected end of input");
        const char c = text_[pos_];
        if (c == 'n') return literal("null", out, JsonValue::Kind::kNull, false);
        if (c == 't') return literal("true", out, JsonValue::Kind::kBool, true);
        if (c == 'f')
            return literal("false", out, JsonValue::Kind::kBool, false);
        if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            return string_token(out.string);
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::kArray;
            out.array = std::make_shared<JsonArray>();
            skip_ws();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue elem;
                if (!value(elem)) return false;
                out.array->push_back(std::move(elem));
                skip_ws();
                if (pos_ >= text_.size()) return fail("unterminated array");
                const char d = text_[pos_++];
                if (d == ']') return true;
                if (d != ',') return fail("expected ',' or ']'");
            }
        }
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::kObject;
            out.object = std::make_shared<JsonObject>();
            skip_ws();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skip_ws();
                std::string key;
                if (!string_token(key)) return false;
                skip_ws();
                if (pos_ >= text_.size() || text_[pos_++] != ':')
                    return fail("expected ':'");
                JsonValue elem;
                if (!value(elem)) return false;
                (*out.object)[key] = std::move(elem);
                skip_ws();
                if (pos_ >= text_.size()) return fail("unterminated object");
                const char d = text_[pos_++];
                if (d == '}') return true;
                if (d != ',') return fail("expected ',' or '}'");
            }
        }
        // Number.
        const std::size_t start = pos_;
        if (text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) return fail("expected value");
        out.kind = JsonValue::Kind::kNumber;
        out.number = std::strtod(text_.substr(start, pos_ - start).c_str(),
                                 nullptr);
        return true;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
    std::string error_;
};

// ---------------------------------------------------------------------------
// Series extraction.

bool load_best_ms(const std::string& path,
                  std::map<std::string, double>& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "bench_compare: cannot open %s\n", path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    JsonValue root;
    std::string error;
    if (!JsonParser(text).parse(root, error)) {
        std::fprintf(stderr, "bench_compare: %s: parse error: %s\n",
                     path.c_str(), error.c_str());
        return false;
    }
    // The series may be wrapped in the dcft.report envelope ({"dcft": ...,
    // "body": {...}}) or be the bare bench object; accept both.
    const JsonValue* body = root.find("body");
    if (body == nullptr) body = &root;
    const JsonValue* workloads = body->find("workloads");
    if (workloads == nullptr || workloads->kind != JsonValue::Kind::kArray) {
        std::fprintf(stderr, "bench_compare: %s: no workloads array\n",
                     path.c_str());
        return false;
    }
    for (const JsonValue& w : *workloads->array) {
        const JsonValue* name = w.find("name");
        const JsonValue* best = w.find("best_ms");
        if (name == nullptr || name->kind != JsonValue::Kind::kString ||
            best == nullptr || best->kind != JsonValue::Kind::kNumber) {
            std::fprintf(stderr,
                         "bench_compare: %s: workload without "
                         "name/best_ms\n",
                         path.c_str());
            return false;
        }
        out[name->string] = best->number;
    }
    return true;
}

// ---------------------------------------------------------------------------
// JSON summary (dcft.report envelope, kind "bench_compare").

/// One comparison row. Workloads on only one side have base_ms or cand_ms
/// < 0 (emitted as null).
struct Row {
    std::string name;
    double base_ms = -1.0;
    double cand_ms = -1.0;
    double ratio = 0.0;
    bool regressed = false;
};

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            case '\r': out += "\\r"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    return out;
}

/// Mirrors obs::begin_envelope's field layout without linking dcft — this
/// tool must stay runnable against committed artifacts on any machine.
bool write_json_report(const std::string& path, const std::string& command,
                       const std::string& baseline_path,
                       const std::string& candidate_path, double tolerance_pct,
                       double min_delta_ms, const std::vector<Row>& rows,
                       std::size_t compared, std::size_t regressions) {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << "{\n";
    out << "  \"schema\": \"dcft.report\",\n";
    out << "  \"schema_version\": 1,\n";
    out << "  \"kind\": \"bench_compare\",\n";
    out << "  \"tool\": \"bench_compare\",\n";
    out << "  \"command\": \"" << json_escape(command) << "\",\n";
    out << "  \"baseline\": \"" << json_escape(baseline_path) << "\",\n";
    out << "  \"candidate\": \"" << json_escape(candidate_path) << "\",\n";
    out << "  \"tolerance_pct\": " << tolerance_pct << ",\n";
    out << "  \"min_delta_ms\": " << min_delta_ms << ",\n";
    out << "  \"workloads\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << (i > 0 ? "," : "") << "\n    {\"name\": \""
            << json_escape(r.name) << "\", \"base_ms\": ";
        if (r.base_ms < 0.0)
            out << "null";
        else
            out << r.base_ms;
        out << ", \"cand_ms\": ";
        if (r.cand_ms < 0.0)
            out << "null";
        else
            out << r.cand_ms;
        out << ", \"ratio\": ";
        if (r.base_ms < 0.0 || r.cand_ms < 0.0)
            out << "null";
        else
            out << r.ratio;
        out << ", \"regressed\": " << (r.regressed ? "true" : "false") << "}";
    }
    out << "\n  ],\n";
    out << "  \"summary\": {\"compared\": " << compared
        << ", \"regressions\": " << regressions
        << ", \"ok\": " << (compared > 0 && regressions == 0 ? "true" : "false")
        << "}\n";
    out << "}\n";
    return out.good();
}

}  // namespace

int main(int argc, char** argv) {
    double tolerance_pct = 25.0;
    double min_delta_ms = 0.25;
    std::string json_out;
    std::vector<std::string> paths;
    std::string command;
    for (int i = 0; i < argc; ++i) {
        if (i > 0) command += ' ';
        command += argv[i];
    }
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--tolerance=", 0) == 0) {
            tolerance_pct = std::strtod(arg.c_str() + 12, nullptr);
        } else if (arg.rfind("--min-delta-ms=", 0) == 0) {
            min_delta_ms = std::strtod(arg.c_str() + 15, nullptr);
        } else if (arg.rfind("--json-out=", 0) == 0) {
            json_out = arg.substr(11);
        } else if (arg == "--help" || arg == "-h") {
            std::printf(
                "usage: bench_compare <baseline.json> <candidate.json> "
                "[--tolerance=PCT] [--min-delta-ms=MS] [--json-out=FILE]\n");
            return 0;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.size() != 2) {
        std::fprintf(stderr,
                     "usage: bench_compare <baseline.json> <candidate.json> "
                     "[--tolerance=PCT] [--min-delta-ms=MS] "
                     "[--json-out=FILE]\n");
        return 2;
    }

    // The regression gate compares against a baseline recorded in the
    // *default* configuration. Oracle/diagnostic env modes deliberately
    // trade speed for checking (out-of-core storage, no cache), so
    // comparing under them would only ever report the mode's own
    // overhead.
    for (const char* flag : {"DCFT_SPILL", "DCFT_NO_EXPLORE_CACHE"}) {
        const char* v = std::getenv(flag);
        if (v != nullptr && *v != '\0' && std::string(v) != "0") {
            std::printf(
                "bench_compare: %s is set — perf gate skipped (only "
                "meaningful in the default configuration)\n",
                flag);
            return 0;
        }
    }

    std::map<std::string, double> baseline, candidate;
    if (!load_best_ms(paths[0], baseline)) return 2;
    if (!load_best_ms(paths[1], candidate)) return 2;

    const double limit = 1.0 + tolerance_pct / 100.0;
    std::size_t compared = 0, regressions = 0;
    std::vector<Row> rows;
    std::printf(
        "bench_compare: tolerance %+.0f%% (and > %.2f ms absolute) on "
        "best_ms\n",
        tolerance_pct, min_delta_ms);
    std::printf("  %-42s %10s %10s %8s\n", "workload", "base ms", "cand ms",
                "ratio");
    for (const auto& [name, base_ms] : baseline) {
        const auto it = candidate.find(name);
        if (it == candidate.end()) {
            std::printf("  %-42s %10.3f %10s %8s  (baseline only)\n",
                        name.c_str(), base_ms, "-", "-");
            rows.push_back({name, base_ms, -1.0, 0.0, false});
            continue;
        }
        ++compared;
        const double cand_ms = it->second;
        const double ratio = base_ms > 0.0 ? cand_ms / base_ms : 0.0;
        const bool regressed = base_ms > 0.0 && ratio > limit &&
                               cand_ms - base_ms > min_delta_ms;
        regressions += regressed ? 1u : 0u;
        std::printf("  %-42s %10.3f %10.3f %7.2fx  %s\n", name.c_str(),
                    base_ms, cand_ms, ratio,
                    regressed ? "REGRESSION" : "ok");
        rows.push_back({name, base_ms, cand_ms, ratio, regressed});
    }
    for (const auto& [name, cand_ms] : candidate) {
        if (baseline.find(name) == baseline.end()) {
            std::printf("  %-42s %10s %10.3f %8s  (candidate only)\n",
                        name.c_str(), "-", cand_ms, "-");
            rows.push_back({name, -1.0, cand_ms, 0.0, false});
        }
    }

    if (!json_out.empty() &&
        !write_json_report(json_out, command, paths[0], paths[1],
                           tolerance_pct, min_delta_ms, rows, compared,
                           regressions)) {
        std::fprintf(stderr, "bench_compare: cannot write %s\n",
                     json_out.c_str());
        return 2;
    }

    if (compared == 0) {
        std::fprintf(stderr,
                     "bench_compare: no workload names in common — series "
                     "drifted; regenerate the baseline\n");
        return 1;
    }
    if (regressions > 0) {
        std::fprintf(stderr,
                     "bench_compare: %zu/%zu workloads regressed by more "
                     "than %.0f%%\n",
                     regressions, compared, tolerance_pct);
        return 1;
    }
    std::printf("bench_compare: %zu workloads within %.0f%%\n", compared,
                tolerance_pct);
    return 0;
}
