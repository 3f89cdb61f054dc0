#include "fuzz/spec_json.hpp"

#include <utility>

#include "obs/json.hpp"

namespace dcft::fuzz {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

// ---------------------------------------------------------------------------
// Kind <-> string tables (stable: corpus files depend on these names).

const char* pred_kind_name(PredNode::Kind k) {
    using K = PredNode::Kind;
    switch (k) {
        case K::kTrue: return "true";
        case K::kFalse: return "false";
        case K::kVarEqConst: return "var_eq_const";
        case K::kVarNeConst: return "var_ne_const";
        case K::kVarEqVar: return "var_eq_var";
        case K::kVarNeVar: return "var_ne_var";
        case K::kAnd: return "and";
        case K::kOr: return "or";
        case K::kNot: return "not";
        case K::kCompare: return "compare";
        case K::kCount: return "count";
    }
    return "true";
}

const char* term_kind_name(TermNode::Kind k) {
    using K = TermNode::Kind;
    switch (k) {
        case K::kConst: return "const";
        case K::kVar: return "var";
        case K::kAdd: return "add";
        case K::kMin: return "min";
        case K::kMax: return "max";
        case K::kCount: return "count";
    }
    return "const";
}

/// Comparison names, indexed by PredNode::cmp.
constexpr const char* kCompareNames[kNumCompareOps] = {"==", "!=", "<", "<="};

const char* effect_kind_name(EffectNode::Kind k) {
    using K = EffectNode::Kind;
    switch (k) {
        case K::kSkip: return "skip";
        case K::kAssignConst: return "assign_const";
        case K::kAssignVar: return "assign_var";
        case K::kAssignAddMod: return "assign_add_mod";
        case K::kAssignChoice: return "assign_choice";
        case K::kCorruptAny: return "corrupt_any";
        case K::kSetAny: return "set_any";
        case K::kChanSendConst: return "chan_send_const";
        case K::kChanRecvToVar: return "chan_recv_to_var";
        case K::kChanLose: return "chan_lose";
        case K::kChanDuplicate: return "chan_duplicate";
        case K::kChanCorrupt: return "chan_corrupt";
        case K::kParallel: return "parallel";
    }
    return "skip";
}

const char* grade_name(int grade) {
    switch (grade) {
        case 1: return "nonmasking";
        case 2: return "masking";
        default: return "failsafe";
    }
}

bool pred_kind_of(const std::string& s, PredNode::Kind& out) {
    using K = PredNode::Kind;
    static const std::pair<const char*, K> table[] = {
        {"true", K::kTrue},
        {"false", K::kFalse},
        {"var_eq_const", K::kVarEqConst},
        {"var_ne_const", K::kVarNeConst},
        {"var_eq_var", K::kVarEqVar},
        {"var_ne_var", K::kVarNeVar},
        {"and", K::kAnd},
        {"or", K::kOr},
        {"not", K::kNot},
        {"compare", K::kCompare},
        {"count", K::kCount},
    };
    for (const auto& [name, kind] : table)
        if (s == name) {
            out = kind;
            return true;
        }
    return false;
}

bool effect_kind_of(const std::string& s, EffectNode::Kind& out) {
    using K = EffectNode::Kind;
    static const std::pair<const char*, K> table[] = {
        {"skip", K::kSkip},
        {"assign_const", K::kAssignConst},
        {"assign_var", K::kAssignVar},
        {"assign_add_mod", K::kAssignAddMod},
        {"assign_choice", K::kAssignChoice},
        {"corrupt_any", K::kCorruptAny},
        {"set_any", K::kSetAny},
        {"chan_send_const", K::kChanSendConst},
        {"chan_recv_to_var", K::kChanRecvToVar},
        {"chan_lose", K::kChanLose},
        {"chan_duplicate", K::kChanDuplicate},
        {"chan_corrupt", K::kChanCorrupt},
        {"parallel", K::kParallel},
    };
    for (const auto& [name, kind] : table)
        if (s == name) {
            out = kind;
            return true;
        }
    return false;
}

bool term_kind_of(const std::string& s, TermNode::Kind& out) {
    using K = TermNode::Kind;
    static const std::pair<const char*, K> table[] = {
        {"const", K::kConst}, {"var", K::kVar}, {"add", K::kAdd},
        {"min", K::kMin},     {"max", K::kMax}, {"count", K::kCount},
    };
    for (const auto& [name, kind] : table)
        if (s == name) {
            out = kind;
            return true;
        }
    return false;
}

bool compare_of_name(const std::string& s, int& out) {
    for (int i = 0; i < kNumCompareOps; ++i)
        if (s == kCompareNames[i]) {
            out = i;
            return true;
        }
    return false;
}

bool grade_of_name(const std::string& s, int& out) {
    if (s == "failsafe") out = 0;
    else if (s == "nonmasking") out = 1;
    else if (s == "masking") out = 2;
    else return false;
    return true;
}

// ---------------------------------------------------------------------------
// Emission.

void write_term(JsonWriter& w, const TermNode& t) {
    using K = TermNode::Kind;
    w.begin_object();
    w.kv("kind", term_kind_name(t.kind));
    switch (t.kind) {
        case K::kConst:
            w.kv("value", static_cast<std::int64_t>(t.value));
            break;
        case K::kVar:
            w.kv("var", static_cast<std::uint64_t>(t.var));
            break;
        case K::kAdd:
            w.kv("value", static_cast<std::int64_t>(t.value));
            w.kv("modulus", static_cast<std::int64_t>(t.modulus));
            break;
        case K::kCount:
            w.key("vars").begin_array();
            for (std::size_t v : t.vars)
                w.value(static_cast<std::uint64_t>(v));
            w.end_array();
            w.kv("value", static_cast<std::int64_t>(t.value));
            break;
        default:
            break;
    }
    if (!t.kids.empty()) {
        w.key("kids").begin_array();
        for (const TermNode& kid : t.kids) write_term(w, kid);
        w.end_array();
    }
    w.end_object();
}

void write_pred(JsonWriter& w, const PredNode& n) {
    using K = PredNode::Kind;
    w.begin_object();
    w.kv("kind", pred_kind_name(n.kind));
    switch (n.kind) {
        case K::kCompare:
            w.kv("op", kCompareNames[n.cmp]);
            w.key("terms").begin_array();
            for (const TermNode& t : n.terms) write_term(w, t);
            w.end_array();
            break;
        case K::kCount:
            w.kv("op", kCompareNames[n.cmp]);
            w.kv("value", static_cast<std::int64_t>(n.value));
            w.key("kids").begin_array();
            for (const PredNode& kid : n.kids) write_pred(w, kid);
            w.end_array();
            break;
        case K::kVarEqConst:
        case K::kVarNeConst:
            w.kv("var", static_cast<std::uint64_t>(n.var));
            w.kv("value", static_cast<std::int64_t>(n.value));
            break;
        case K::kVarEqVar:
        case K::kVarNeVar:
            w.kv("var", static_cast<std::uint64_t>(n.var));
            w.kv("var2", static_cast<std::uint64_t>(n.var2));
            break;
        case K::kAnd:
        case K::kOr:
        case K::kNot:
            w.key("kids").begin_array();
            for (const PredNode& kid : n.kids) write_pred(w, kid);
            w.end_array();
            break;
        default:
            break;
    }
    w.end_object();
}

void write_effect(JsonWriter& w, const EffectNode& e) {
    using K = EffectNode::Kind;
    w.begin_object();
    w.kv("kind", effect_kind_name(e.kind));
    switch (e.kind) {
        case K::kSkip:
            break;
        case K::kAssignConst:
            w.kv("var", static_cast<std::uint64_t>(e.var));
            w.kv("value", static_cast<std::int64_t>(e.value));
            break;
        case K::kAssignVar:
            w.kv("var", static_cast<std::uint64_t>(e.var));
            w.kv("var2", static_cast<std::uint64_t>(e.var2));
            break;
        case K::kAssignAddMod:
            w.kv("var", static_cast<std::uint64_t>(e.var));
            w.kv("var2", static_cast<std::uint64_t>(e.var2));
            w.kv("value", static_cast<std::int64_t>(e.value));
            w.kv("modulus", static_cast<std::int64_t>(e.modulus));
            break;
        case K::kAssignChoice:
            w.kv("var", static_cast<std::uint64_t>(e.var));
            w.key("choices").begin_array();
            for (Value c : e.choices) w.value(static_cast<std::int64_t>(c));
            w.end_array();
            break;
        case K::kCorruptAny:
        case K::kSetAny:
            w.key("vars").begin_array();
            for (std::size_t v : e.vars)
                w.value(static_cast<std::uint64_t>(v));
            w.end_array();
            if (e.kind == K::kSetAny)
                w.kv("value", static_cast<std::int64_t>(e.value));
            break;
        case K::kChanSendConst:
            w.kv("chan", static_cast<std::uint64_t>(e.chan));
            w.kv("value", static_cast<std::int64_t>(e.value));
            break;
        case K::kChanRecvToVar:
            w.kv("chan", static_cast<std::uint64_t>(e.chan));
            w.kv("var", static_cast<std::uint64_t>(e.var));
            break;
        case K::kChanLose:
        case K::kChanDuplicate:
        case K::kChanCorrupt:
            w.kv("chan", static_cast<std::uint64_t>(e.chan));
            break;
        case K::kParallel:
            w.key("branches").begin_array();
            for (const auto& branch : e.branches) {
                w.begin_array();
                for (const AssignNode& asg : branch) {
                    w.begin_object();
                    w.kv("var", static_cast<std::uint64_t>(asg.var));
                    w.key("value");
                    write_term(w, asg.value);
                    w.end_object();
                }
                w.end_array();
            }
            w.end_array();
            break;
    }
    w.end_object();
}

void write_actions(JsonWriter& w, const std::vector<ActionDecl>& actions) {
    w.begin_array();
    for (const ActionDecl& a : actions) {
        w.begin_object();
        w.kv("name", a.name);
        w.key("guard");
        write_pred(w, a.guard);
        w.key("effect");
        write_effect(w, a.effect);
        w.end_object();
    }
    w.end_array();
}

// ---------------------------------------------------------------------------
// Parsing.

bool fail(std::string* error, std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
}

bool read_size(const JsonValue& obj, const char* key, std::size_t& out) {
    const JsonValue* v = obj.find(key, JsonValue::Kind::Number);
    if (v == nullptr) return false;
    out = static_cast<std::size_t>(v->as_number());
    return true;
}

bool read_value(const JsonValue& obj, const char* key, Value& out) {
    const JsonValue* v = obj.find(key, JsonValue::Kind::Number);
    if (v == nullptr) return false;
    out = static_cast<Value>(v->as_number());
    return true;
}

bool read_term(const JsonValue& v, TermNode& out, std::string* error) {
    using K = TermNode::Kind;
    if (!v.is_object()) return fail(error, "term: expected object");
    const JsonValue* kind = v.find("kind", JsonValue::Kind::String);
    if (kind == nullptr || !term_kind_of(kind->as_string(), out.kind))
        return fail(error, "term: missing or unknown kind");
    switch (out.kind) {
        case K::kConst:
            if (!read_value(v, "value", out.value))
                return fail(error, "term: value missing");
            break;
        case K::kVar:
            if (!read_size(v, "var", out.var))
                return fail(error, "term: var missing");
            break;
        case K::kAdd:
            if (!read_value(v, "value", out.value) ||
                !read_value(v, "modulus", out.modulus))
                return fail(error, "term: value/modulus missing");
            break;
        case K::kCount: {
            const JsonValue* vars = v.find("vars", JsonValue::Kind::Array);
            if (vars == nullptr || !read_value(v, "value", out.value))
                return fail(error, "term: vars/value missing");
            for (const JsonValue& item : vars->as_array()) {
                if (!item.is_number())
                    return fail(error, "term: non-numeric variable");
                out.vars.push_back(static_cast<std::size_t>(item.as_number()));
            }
            break;
        }
        default:
            break;
    }
    if (const JsonValue* kids = v.find("kids", JsonValue::Kind::Array)) {
        for (const JsonValue& kid : kids->as_array()) {
            TermNode child;
            if (!read_term(kid, child, error)) return false;
            out.kids.push_back(std::move(child));
        }
    }
    return true;
}

bool read_compare(const JsonValue& v, int& out, std::string* error) {
    const JsonValue* op = v.find("op", JsonValue::Kind::String);
    if (op == nullptr || !compare_of_name(op->as_string(), out))
        return fail(error, "predicate: missing or unknown op");
    return true;
}

bool read_pred(const JsonValue& v, PredNode& out, std::string* error) {
    using K = PredNode::Kind;
    if (!v.is_object()) return fail(error, "predicate: expected object");
    const JsonValue* kind = v.find("kind", JsonValue::Kind::String);
    if (kind == nullptr || !pred_kind_of(kind->as_string(), out.kind))
        return fail(error, "predicate: missing or unknown kind");
    switch (out.kind) {
        case K::kCompare: {
            const JsonValue* terms = v.find("terms", JsonValue::Kind::Array);
            if (!read_compare(v, out.cmp, error)) return false;
            if (terms == nullptr) return fail(error, "predicate: terms missing");
            for (const JsonValue& t : terms->as_array()) {
                TermNode term;
                if (!read_term(t, term, error)) return false;
                out.terms.push_back(std::move(term));
            }
            break;
        }
        case K::kVarEqConst:
        case K::kVarNeConst:
            if (!read_size(v, "var", out.var) ||
                !read_value(v, "value", out.value))
                return fail(error, "predicate: var/value missing");
            break;
        case K::kVarEqVar:
        case K::kVarNeVar:
            if (!read_size(v, "var", out.var) ||
                !read_size(v, "var2", out.var2))
                return fail(error, "predicate: var/var2 missing");
            break;
        case K::kCount:
            if (!read_compare(v, out.cmp, error)) return false;
            if (!read_value(v, "value", out.value))
                return fail(error, "predicate: count value missing");
            [[fallthrough]];
        case K::kAnd:
        case K::kOr:
        case K::kNot: {
            const JsonValue* kids = v.find("kids", JsonValue::Kind::Array);
            if (kids == nullptr)
                return fail(error, "predicate: kids missing");
            for (const JsonValue& kid : kids->as_array()) {
                PredNode child;
                if (!read_pred(kid, child, error)) return false;
                out.kids.push_back(std::move(child));
            }
            break;
        }
        default:
            break;
    }
    return true;
}

bool read_effect(const JsonValue& v, EffectNode& out, std::string* error) {
    using K = EffectNode::Kind;
    if (!v.is_object()) return fail(error, "effect: expected object");
    const JsonValue* kind = v.find("kind", JsonValue::Kind::String);
    if (kind == nullptr || !effect_kind_of(kind->as_string(), out.kind))
        return fail(error, "effect: missing or unknown kind");
    switch (out.kind) {
        case K::kSkip:
            break;
        case K::kAssignConst:
            if (!read_size(v, "var", out.var) ||
                !read_value(v, "value", out.value))
                return fail(error, "effect: var/value missing");
            break;
        case K::kAssignVar:
            if (!read_size(v, "var", out.var) ||
                !read_size(v, "var2", out.var2))
                return fail(error, "effect: var/var2 missing");
            break;
        case K::kAssignAddMod:
            if (!read_size(v, "var", out.var) ||
                !read_size(v, "var2", out.var2) ||
                !read_value(v, "value", out.value) ||
                !read_value(v, "modulus", out.modulus))
                return fail(error, "effect: add_mod fields missing");
            break;
        case K::kAssignChoice: {
            const JsonValue* choices =
                v.find("choices", JsonValue::Kind::Array);
            if (!read_size(v, "var", out.var) || choices == nullptr)
                return fail(error, "effect: var/choices missing");
            for (const JsonValue& c : choices->as_array()) {
                if (!c.is_number())
                    return fail(error, "effect: non-numeric choice");
                out.choices.push_back(static_cast<Value>(c.as_number()));
            }
            break;
        }
        case K::kCorruptAny:
        case K::kSetAny: {
            const JsonValue* vars = v.find("vars", JsonValue::Kind::Array);
            if (vars == nullptr) return fail(error, "effect: vars missing");
            for (const JsonValue& item : vars->as_array()) {
                if (!item.is_number())
                    return fail(error, "effect: non-numeric victim");
                out.vars.push_back(
                    static_cast<std::size_t>(item.as_number()));
            }
            if (out.kind == K::kSetAny && !read_value(v, "value", out.value))
                return fail(error, "effect: set_any value missing");
            break;
        }
        case K::kChanSendConst:
            if (!read_size(v, "chan", out.chan) ||
                !read_value(v, "value", out.value))
                return fail(error, "effect: chan/value missing");
            break;
        case K::kChanRecvToVar:
            if (!read_size(v, "chan", out.chan) ||
                !read_size(v, "var", out.var))
                return fail(error, "effect: chan/var missing");
            break;
        case K::kChanLose:
        case K::kChanDuplicate:
        case K::kChanCorrupt:
            if (!read_size(v, "chan", out.chan))
                return fail(error, "effect: chan missing");
            break;
        case K::kParallel: {
            const JsonValue* branches =
                v.find("branches", JsonValue::Kind::Array);
            if (branches == nullptr)
                return fail(error, "effect: branches missing");
            for (const JsonValue& branch : branches->as_array()) {
                if (!branch.is_array())
                    return fail(error, "effect: branch must be an array");
                out.branches.emplace_back();
                for (const JsonValue& item : branch.as_array()) {
                    AssignNode asg;
                    const JsonValue* value = item.find("value");
                    if (!read_size(item, "var", asg.var) || value == nullptr)
                        return fail(error, "effect: assignment var/value missing");
                    if (!read_term(*value, asg.value, error)) return false;
                    out.branches.back().push_back(std::move(asg));
                }
            }
            break;
        }
    }
    return true;
}

bool read_actions(const JsonValue& doc, const char* key,
                  std::vector<ActionDecl>& out, std::string* error) {
    const JsonValue* arr = doc.find(key, JsonValue::Kind::Array);
    if (arr == nullptr)
        return fail(error, std::string(key) + ": missing array");
    for (const JsonValue& item : arr->as_array()) {
        if (!item.is_object())
            return fail(error, std::string(key) + ": expected object entries");
        ActionDecl a;
        const JsonValue* name = item.find("name", JsonValue::Kind::String);
        const JsonValue* guard = item.find("guard");
        const JsonValue* effect = item.find("effect");
        if (name == nullptr || guard == nullptr || effect == nullptr)
            return fail(error,
                        std::string(key) + ": name/guard/effect missing");
        a.name = name->as_string();
        if (!read_pred(*guard, a.guard, error)) return false;
        if (!read_effect(*effect, a.effect, error)) return false;
        out.push_back(std::move(a));
    }
    return true;
}

}  // namespace

std::string to_json(const ProgramSpec& spec) {
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "dcft.fuzz.program");
    w.kv("schema_version", kSpecSchemaVersion);
    w.kv("name", spec.name);
    w.kv("seed", spec.seed);
    w.kv("grade", grade_name(spec.grade));

    w.key("vars").begin_array();
    for (const VarDecl& v : spec.vars) {
        w.begin_object();
        w.kv("name", v.name);
        w.kv("domain", static_cast<std::int64_t>(v.domain));
        w.end_object();
    }
    w.end_array();

    w.key("channels").begin_array();
    for (const ChannelDecl& c : spec.channels) {
        w.begin_object();
        w.kv("name", c.name);
        w.kv("capacity", c.capacity);
        w.kv("value_domain", static_cast<std::int64_t>(c.value_domain));
        w.end_object();
    }
    w.end_array();

    w.key("actions");
    write_actions(w, spec.actions);
    w.key("fault_actions");
    write_actions(w, spec.fault_actions);

    w.key("init");
    write_pred(w, spec.init);
    w.key("invariant");
    write_pred(w, spec.invariant);
    w.key("bad");
    write_pred(w, spec.bad);

    w.key("leads");
    if (spec.has_leads) {
        w.begin_object();
        w.key("from");
        write_pred(w, spec.leads_from);
        w.key("to");
        write_pred(w, spec.leads_to);
        w.end_object();
    } else {
        w.null();
    }

    w.end_object();
    return w.str();
}

std::optional<ProgramSpec> from_json(const std::string& text,
                                     std::string* error) {
    const std::optional<JsonValue> doc = obs::parse_json(text, error);
    if (!doc.has_value()) return std::nullopt;
    if (!doc->is_object()) {
        fail(error, "spec: expected a top-level object");
        return std::nullopt;
    }
    const JsonValue* schema = doc->find("schema", JsonValue::Kind::String);
    if (schema == nullptr || schema->as_string() != "dcft.fuzz.program") {
        fail(error, "spec: schema must be \"dcft.fuzz.program\"");
        return std::nullopt;
    }
    const JsonValue* version =
        doc->find("schema_version", JsonValue::Kind::Number);
    // Version 1 (no terms, counting atoms or parallel statements) is a
    // subset of version 2 and reads unchanged.
    if (version == nullptr ||
        (version->as_number() != 1.0 &&
         version->as_number() != static_cast<double>(kSpecSchemaVersion))) {
        fail(error, "spec: unsupported schema_version");
        return std::nullopt;
    }

    ProgramSpec spec;
    const JsonValue* name = doc->find("name", JsonValue::Kind::String);
    const JsonValue* seed = doc->find("seed", JsonValue::Kind::Number);
    const JsonValue* grade = doc->find("grade", JsonValue::Kind::String);
    if (name == nullptr || seed == nullptr || grade == nullptr) {
        fail(error, "spec: name/seed/grade missing");
        return std::nullopt;
    }
    spec.name = name->as_string();
    spec.seed = static_cast<std::uint64_t>(seed->as_number());
    if (!grade_of_name(grade->as_string(), spec.grade)) {
        fail(error, "spec: unknown grade " + grade->as_string());
        return std::nullopt;
    }

    const JsonValue* vars = doc->find("vars", JsonValue::Kind::Array);
    if (vars == nullptr) {
        fail(error, "spec: vars missing");
        return std::nullopt;
    }
    for (const JsonValue& item : vars->as_array()) {
        VarDecl v;
        const JsonValue* vname = item.find("name", JsonValue::Kind::String);
        if (vname == nullptr || !read_value(item, "domain", v.domain)) {
            fail(error, "spec: var name/domain missing");
            return std::nullopt;
        }
        v.name = vname->as_string();
        spec.vars.push_back(std::move(v));
    }

    const JsonValue* channels = doc->find("channels", JsonValue::Kind::Array);
    if (channels == nullptr) {
        fail(error, "spec: channels missing");
        return std::nullopt;
    }
    for (const JsonValue& item : channels->as_array()) {
        ChannelDecl c;
        const JsonValue* cname = item.find("name", JsonValue::Kind::String);
        const JsonValue* cap = item.find("capacity", JsonValue::Kind::Number);
        if (cname == nullptr || cap == nullptr ||
            !read_value(item, "value_domain", c.value_domain)) {
            fail(error, "spec: channel fields missing");
            return std::nullopt;
        }
        c.name = cname->as_string();
        c.capacity = static_cast<int>(cap->as_number());
        spec.channels.push_back(std::move(c));
    }

    if (!read_actions(*doc, "actions", spec.actions, error))
        return std::nullopt;
    if (!read_actions(*doc, "fault_actions", spec.fault_actions, error))
        return std::nullopt;

    const JsonValue* init = doc->find("init");
    const JsonValue* invariant = doc->find("invariant");
    const JsonValue* bad = doc->find("bad");
    if (init == nullptr || invariant == nullptr || bad == nullptr) {
        fail(error, "spec: init/invariant/bad missing");
        return std::nullopt;
    }
    if (!read_pred(*init, spec.init, error) ||
        !read_pred(*invariant, spec.invariant, error) ||
        !read_pred(*bad, spec.bad, error))
        return std::nullopt;

    const JsonValue* leads = doc->find("leads");
    if (leads == nullptr) {
        fail(error, "spec: leads missing (use null for none)");
        return std::nullopt;
    }
    if (!leads->is_null()) {
        const JsonValue* from = leads->find("from");
        const JsonValue* to = leads->find("to");
        if (from == nullptr || to == nullptr) {
            fail(error, "spec: leads.from/leads.to missing");
            return std::nullopt;
        }
        spec.has_leads = true;
        if (!read_pred(*from, spec.leads_from, error) ||
            !read_pred(*to, spec.leads_to, error))
            return std::nullopt;
    }
    return spec;
}

}  // namespace dcft::fuzz
