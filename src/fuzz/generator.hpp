// Seeded random generation of fuzz ProgramSpecs.
//
// generate_spec(seed, config) is a pure function of its arguments: the
// same seed always yields the same spec (the Rng stream is consumed in a
// fixed order), which is what makes campaign findings reproducible from a
// printed seed and corpus files byte-stable.
//
// The generator's grammar covers the whole structured kernel surface:
// every Predicate::NodeKind (guards and spec predicates are random
// and/or/not trees of depth <= 2 over var==c / var!=c / var==var /
// var!=var leaves), every Action::EffectForm kind, bounded channels with
// sends/receives, and fault actions drawn from the nondeterministic
// shapes (corrupt_any, set_any, assign_choice, channel
// lose/duplicate/corrupt).
// The state-space budget (`max_states`) caps the product of the variable
// domains, so oracle runs stay fast enough for 10k-program campaigns.
#pragma once

#include <cstdint>

#include "fuzz/spec.hpp"

namespace dcft::fuzz {

/// Size and shape knobs for generate_spec.
struct GeneratorConfig {
    std::uint64_t max_states = 4096;  ///< cap on the state-space product
    std::size_t max_vars = 4;         ///< plain variables: 1..max_vars
    Value max_domain = 5;             ///< per-variable domain: 2..max_domain
    std::size_t max_actions = 6;      ///< program actions: 1..max_actions
    std::size_t max_fault_actions = 3;  ///< fault actions: 0..max
    double channel_probability = 0.35;  ///< chance of declaring a channel
};

/// Deterministically generates one spec from `seed`. The result always
/// satisfies validate() and num_states(result) <= config.max_states.
ProgramSpec generate_spec(std::uint64_t seed, const GeneratorConfig& config);

}  // namespace dcft::fuzz
