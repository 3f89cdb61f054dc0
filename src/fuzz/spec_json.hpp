// Corpus serialization of fuzz ProgramSpecs ("dcft.fuzz.program").
//
// Every minimized reproducer a campaign finds is written as one JSON file
// under tests/fuzz/corpus/, and the corpus-replay ctest target re-runs the
// oracles on every file — so each found bug stays pinned as a regression
// test after its fix. The format goes through obs::JsonWriter/parse_json
// like every other artifact of the repo, and the emission order is fixed,
// so to_json is deterministic and from_json(to_json(s)) == s with
// to_json(from_json(text)) byte-identical to a writer-produced `text`.
//
// Envelope:
//   { "schema": "dcft.fuzz.program", "schema_version": 2,
//     "name", "seed", "grade": "failsafe"|"nonmasking"|"masking",
//     "vars": [{"name","domain"}], "channels": [...], "actions": [...],
//     "fault_actions": [...], "init", "invariant", "bad",
//     "leads": null | {"from", "to"} }
//
// Version 2 added comparison atoms over terms ({"kind": "compare", "op",
// "terms": [t, t]}), counting atoms ({"kind": "count", "op", "value",
// "kids"}), terms ({"kind": "const"|"var"|"add"|"min"|"max"|"count", ...,
// "kids"}) and parallel statements ({"kind": "parallel", "branches":
// [[{"var", "value": term}]]}). A version-1 document uses none of them
// and reads unchanged; to_json always writes version 2.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fuzz/spec.hpp"

namespace dcft::fuzz {

/// The schema_version to_json writes.
inline constexpr std::uint64_t kSpecSchemaVersion = 2;

/// Serializes `spec` (deterministic member order, 2-space indentation).
std::string to_json(const ProgramSpec& spec);

/// Parses a document produced by to_json (or hand-written to the same
/// schema). On failure returns nullopt and stores a message in *error
/// when non-null. The result is structurally parsed but NOT validated —
/// callers run validate() before build().
std::optional<ProgramSpec> from_json(const std::string& text,
                                     std::string* error = nullptr);

}  // namespace dcft::fuzz
