// Closure checks (Section 2.2.1: "S is closed in p" iff p refines cl(S)
// from true).
#pragma once

#include "gc/program.hpp"
#include "verify/check_result.hpp"

namespace dcft {

/// Checks that S is closed in p: from every state of the space where S
/// holds, every successor under every action of p satisfies S.
CheckResult check_closed(const Program& p, const Predicate& s);

/// Checks that every action of f preserves S (the fault half of the
/// F-span condition, Section 2.3).
CheckResult check_preserved(const FaultClass& f, const Predicate& s);

}  // namespace dcft
