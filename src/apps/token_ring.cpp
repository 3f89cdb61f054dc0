#include "apps/token_ring.hpp"

#include "common/check.hpp"

namespace dcft::apps {
namespace {

/// Process i's guard as a state predicate: x.0 == x.(n-1) for the bottom
/// process, x.i != x.(i-1) for the others.
Predicate privilege_pred(const StateSpace& sp, const std::vector<VarId>& x,
                         int i) {
    const std::size_t n = x.size();
    const std::size_t u = static_cast<std::size_t>(i);
    Predicate p = i == 0 ? Predicate::vars_eq(sp, x[0], x[n - 1])
                         : Predicate::vars_ne(sp, x[u], x[u - 1]);
    return p.renamed("privilege." + std::to_string(i));
}

/// `#{i : privilege.i} op 1`.
Predicate privileges(const StateSpace& sp, const std::vector<VarId>& x,
                     Predicate::NodeKind op) {
    std::vector<Predicate> ps;
    for (int i = 0; i < static_cast<int>(x.size()); ++i)
        ps.push_back(privilege_pred(sp, x, i));
    return Predicate::count(std::move(ps), op, 1);
}

}  // namespace

Predicate TokenRingSystem::privilege(int i) const {
    DCFT_EXPECTS(i >= 0 && i < n, "privilege: bad process index");
    return privilege_pred(*space, x, i);
}

StateIndex TokenRingSystem::initial_state() const {
    return 0;  // all counters 0: only the bottom process is privileged
}

TokenRingSystem make_token_ring(int n, Value k) {
    DCFT_EXPECTS(n >= 2, "token ring needs >= 2 processes");
    DCFT_EXPECTS(k >= 2, "token ring needs K >= 2");

    auto builder = std::make_shared<StateSpace>();
    std::vector<VarId> x;
    for (int i = 0; i < n; ++i)
        x.push_back(builder->add_variable("x." + std::to_string(i), k));
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;

    // Structured guards (vars_eq/vars_ne) and effects (assign_add_mod /
    // assign_var / corrupt_any): the verifier's action-kernel compiler
    // lowers these to word-level guard bitsets and stride arithmetic. The
    // display names and successor orders are exactly those of the previous
    // lambda formulation, so diagnostics and traces are unchanged.
    Program ring(space, "token-ring(n=" + std::to_string(n) +
                            ",K=" + std::to_string(k) + ")");
    {
        const VarId x0 = x[0], xl = x[static_cast<std::size_t>(n - 1)];
        ring.add_action(Action::assign_add_mod(
            *space, "move.0",
            Predicate::vars_eq(*space, x0, xl).renamed("x.0==x.last"), x0, x0,
            1, k));
    }
    for (int i = 1; i < n; ++i) {
        const VarId xi = x[static_cast<std::size_t>(i)];
        const VarId xp = x[static_cast<std::size_t>(i - 1)];
        ring.add_action(Action::assign_var(
            *space, "move." + std::to_string(i),
            Predicate::vars_ne(*space, xi, xp)
                .renamed("x." + std::to_string(i) + "!=pred"),
            xi, xp));
    }

    // Transient faults: any counter is corrupted to any value.
    FaultClass fault(space, "corrupt-counter");
    fault.add_action(
        Action::corrupt_any(*space, "corrupt", Predicate::top(), x));

    // Exactly one privilege, as a counting atom over the guards.
    Predicate legitimate =
        privileges(*space, x, Predicate::NodeKind::kTermEq)
            .renamed("one-privilege");
    SafetySpec safety = SafetySpec::never(
        privileges(*space, x, Predicate::NodeKind::kTermNe)
            .renamed("not-one-privilege"));
    LivenessSpec live;
    for (int i = 0; i < n; ++i)
        live.add(LeadsTo{Predicate::top(), privilege_pred(*space, x, i)});
    ProblemSpec spec("SPEC_token(mutual-exclusion)", std::move(safety),
                     std::move(live));

    return TokenRingSystem{space,
                           n,
                           k,
                           std::move(ring),
                           std::move(fault),
                           std::move(spec),
                           std::move(legitimate),
                           std::move(x)};
}

}  // namespace dcft::apps
