// A token-ring fault class whose span is not syntactically the whole
// space.
//
// An unconditional corrupt-any over every variable makes the fault span
// of any non-empty seed the whole space, so such explorations are built
// as identity graphs (full_span_faults) and never intern a state. Tests
// that exercise the interner tiers, the corrupt-any line rule (LineMarks)
// or a multi-level BFS use this fault class instead: the ring's own
// corrupt-any over every counter but the last.
#pragma once

#include <vector>

#include "apps/token_ring.hpp"

namespace dcft::test {

inline FaultClass corrupt_all_but_last(const apps::TokenRingSystem& sys) {
    FaultClass f(sys.space, "corrupt-all-but-last");
    const std::vector<VarId> vars(sys.x.begin(), sys.x.end() - 1);
    f.add_action(
        Action::corrupt_any(*sys.space, "corrupt", Predicate::top(), vars));
    return f;
}

}  // namespace dcft::test
