// Generator and corpus-format tests: seed determinism, state-space
// budgets, buildability of everything the generator emits, and the
// byte-identical JSON round trip the corpus depends on.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/spec_json.hpp"

namespace dcft::fuzz {
namespace {

TEST(FuzzGeneratorTest, SameSeedYieldsIdenticalSpecs) {
    const GeneratorConfig config;
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL, 991ULL, 123456789ULL}) {
        const ProgramSpec a = generate_spec(seed, config);
        const ProgramSpec b = generate_spec(seed, config);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_EQ(to_json(a), to_json(b)) << "seed " << seed;
    }
}

TEST(FuzzGeneratorTest, DifferentSeedsExploreDifferentSpecs) {
    const GeneratorConfig config;
    std::set<std::string> distinct;
    for (std::uint64_t seed = 0; seed < 40; ++seed)
        distinct.insert(to_json(generate_spec(seed, config)));
    // Not all 40 need be unique, but a generator collapsing to a handful
    // of shapes would be useless as a fuzzer.
    EXPECT_GT(distinct.size(), 30u);
}

TEST(FuzzGeneratorTest, RespectsStateBudget) {
    GeneratorConfig config;
    config.max_states = 64;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        const ProgramSpec spec = generate_spec(seed, config);
        EXPECT_LE(num_states(spec), 64u) << "seed " << seed;
    }
}

TEST(FuzzGeneratorTest, EverythingGeneratedValidatesAndBuilds) {
    const GeneratorConfig config;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        const ProgramSpec spec = generate_spec(seed, config);
        std::string error;
        ASSERT_TRUE(validate(spec, &error))
            << "seed " << seed << ": " << error;
        const BuiltSystem sys = build(spec);
        EXPECT_EQ(sys.space->num_states(), num_states(spec));
        EXPECT_EQ(sys.program.num_actions(), spec.actions.size());
        EXPECT_EQ(sys.faults.actions().size(), spec.fault_actions.size());
    }
}

TEST(FuzzGeneratorTest, JsonRoundTripIsByteIdentical) {
    const GeneratorConfig config;
    for (std::uint64_t seed = 0; seed < 100; ++seed) {
        const ProgramSpec spec = generate_spec(seed, config);
        const std::string text = to_json(spec);
        std::string error;
        const std::optional<ProgramSpec> parsed = from_json(text, &error);
        ASSERT_TRUE(parsed.has_value()) << "seed " << seed << ": " << error;
        EXPECT_EQ(*parsed, spec) << "seed " << seed;
        EXPECT_EQ(to_json(*parsed), text) << "seed " << seed;
    }
}

TEST(FuzzGeneratorTest, FromJsonRejectsGarbage) {
    std::string error;
    EXPECT_FALSE(from_json("not json", &error).has_value());
    EXPECT_FALSE(from_json("{}", &error).has_value());
    EXPECT_FALSE(
        from_json(R"({"schema":"something.else","schema_version":1})", &error)
            .has_value());
}

TEST(FuzzGeneratorTest, ValidateCatchesStructuralBreakage) {
    ProgramSpec spec = generate_spec(3, GeneratorConfig{});
    ASSERT_TRUE(validate(spec));

    ProgramSpec broken = spec;
    broken.vars.clear();
    EXPECT_FALSE(validate(broken));

    broken = spec;
    broken.init.kind = PredNode::Kind::kVarEqConst;
    broken.init.var = 99;
    EXPECT_FALSE(validate(broken));

    broken = spec;
    ActionDecl bad_action;
    bad_action.name = "dup";
    broken.actions.push_back(bad_action);
    broken.actions.push_back(bad_action);
    EXPECT_FALSE(validate(broken));

    broken = spec;
    bad_action.name = "oob";
    bad_action.effect.kind = EffectNode::Kind::kAssignConst;
    bad_action.effect.var = 0;
    bad_action.effect.value = broken.vars[0].domain;  // out of domain
    broken.actions.push_back(bad_action);
    EXPECT_FALSE(validate(broken));
}

/// Tallies the IR forms one spec uses (schema-v2 shapes).
struct FormTally {
    std::set<int> term_kinds;
    std::set<int> compare_ops;
    int compares = 0;
    int counts = 0;
    int counts_k_low = 0;   ///< counting atoms with k = -1
    int counts_k_high = 0;  ///< counting atoms with k = |operands| + 1
    int parallel_one = 0;
    int parallel_choice = 0;

    void term(const TermNode& t) {
        term_kinds.insert(static_cast<int>(t.kind));
        for (const TermNode& kid : t.kids) term(kid);
    }
    void pred(const PredNode& n) {
        if (n.kind == PredNode::Kind::kCompare) {
            ++compares;
            compare_ops.insert(n.cmp);
            for (const TermNode& t : n.terms) term(t);
        }
        if (n.kind == PredNode::Kind::kCount) {
            ++counts;
            compare_ops.insert(n.cmp);
            counts_k_low += n.value == -1 ? 1 : 0;
            counts_k_high +=
                n.value == static_cast<Value>(n.kids.size()) + 1 ? 1 : 0;
        }
        for (const PredNode& kid : n.kids) pred(kid);
    }
    void action(const ActionDecl& a) {
        pred(a.guard);
        if (a.effect.kind != EffectNode::Kind::kParallel) return;
        (a.effect.branches.size() == 1 ? parallel_one : parallel_choice)++;
        for (const auto& branch : a.effect.branches)
            for (const AssignNode& asg : branch) term(asg.value);
    }
};

TEST(FuzzGeneratorTest, GeneratesEveryIrForm) {
    // Comparison atoms over every term kind and comparison, counting
    // atoms at both ends of their k range, and parallel statements as one
    // branch and as a choice, among the program and fault actions alike.
    FormTally tally;
    int fault_parallel = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        const ProgramSpec spec = generate_spec(seed, GeneratorConfig{});
        for (const ActionDecl& a : spec.actions) tally.action(a);
        for (const ActionDecl& a : spec.fault_actions) {
            tally.action(a);
            fault_parallel +=
                a.effect.kind == EffectNode::Kind::kParallel ? 1 : 0;
        }
        for (const PredNode* p : {&spec.init, &spec.invariant, &spec.bad,
                                  &spec.leads_from, &spec.leads_to})
            tally.pred(*p);
    }
    EXPECT_EQ(tally.term_kinds.size(), 6u);
    EXPECT_EQ(tally.compare_ops.size(), static_cast<std::size_t>(kNumCompareOps));
    EXPECT_GT(tally.compares, 0);
    EXPECT_GT(tally.counts, 0);
    EXPECT_GT(tally.counts_k_low, 0);
    EXPECT_GT(tally.counts_k_high, 0);
    EXPECT_GT(tally.parallel_one, 0);
    EXPECT_GT(tally.parallel_choice, 0);
    EXPECT_GT(fault_parallel, 0);
}

TEST(FuzzGeneratorTest, SchemaVersionOneStillLoads) {
    // A version-1 corpus file (no terms, counting atoms or parallel
    // statements) reads unchanged and is written back as version 2.
    const std::string v1 = R"({
  "schema": "dcft.fuzz.program", "schema_version": 1,
  "name": "old", "seed": 4, "grade": "masking",
  "vars": [{"name": "v0", "domain": 3}], "channels": [],
  "actions": [{"name": "a0", "guard": {"kind": "var_ne_const", "var": 0,
               "value": 2}, "effect": {"kind": "assign_const", "var": 0,
               "value": 2}}],
  "fault_actions": [],
  "init": {"kind": "true"}, "invariant": {"kind": "var_eq_const",
  "var": 0, "value": 2}, "bad": {"kind": "false"}, "leads": null})";
    std::string error;
    const std::optional<ProgramSpec> spec = from_json(v1, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_TRUE(validate(*spec, &error)) << error;
    EXPECT_EQ(spec->actions.size(), 1u);
    EXPECT_EQ(spec->invariant.kind, PredNode::Kind::kVarEqConst);
    const std::string text = to_json(*spec);
    EXPECT_NE(text.find("\"schema_version\": 2"), std::string::npos) << text;
    EXPECT_FALSE(from_json(R"({"schema":"dcft.fuzz.program","schema_version":3})",
                           &error)
                     .has_value());
}

TEST(FuzzGeneratorTest, ValidateRejectsMalformedIrForms) {
    ProgramSpec spec;
    spec.vars = {VarDecl{"a", 3}, VarDecl{"b", 2}};
    ASSERT_TRUE(validate(spec));

    ProgramSpec broken = spec;
    broken.invariant.kind = PredNode::Kind::kCompare;  // no terms
    EXPECT_FALSE(validate(broken));

    broken = spec;
    broken.invariant.kind = PredNode::Kind::kCount;  // no operands
    EXPECT_FALSE(validate(broken));

    broken = spec;
    broken.invariant.kind = PredNode::Kind::kCount;
    broken.invariant.kids.push_back(PredNode{});
    broken.invariant.cmp = kNumCompareOps;  // unknown comparison
    EXPECT_FALSE(validate(broken));

    // A parallel branch whose term leaves the variable's domain, and one
    // that assigns a variable twice.
    ActionDecl a;
    a.name = "p";
    a.effect.kind = EffectNode::Kind::kParallel;
    TermNode big;
    big.value = 2;  // constant 2 into a domain of 2
    a.effect.branches = {{AssignNode{1, big}}};
    broken = spec;
    broken.actions.push_back(a);
    EXPECT_FALSE(validate(broken));
    big.value = 1;
    a.effect.branches = {{AssignNode{1, big}, AssignNode{1, big}}};
    broken = spec;
    broken.actions.push_back(a);
    EXPECT_FALSE(validate(broken));
    a.effect.branches = {{AssignNode{1, big}}, {AssignNode{0, big}}};
    broken = spec;
    broken.actions.push_back(a);
    EXPECT_TRUE(validate(broken));
}

TEST(FuzzGeneratorTest, CampaignSeedsAreStableAndSpread) {
    EXPECT_EQ(campaign_program_seed(1, 0), campaign_program_seed(1, 0));
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 1000; ++i)
        seeds.insert(campaign_program_seed(1, i));
    EXPECT_EQ(seeds.size(), 1000u);  // no collisions in a small range
}

}  // namespace
}  // namespace dcft::fuzz
