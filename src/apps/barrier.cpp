#include "apps/barrier.hpp"

#include "common/check.hpp"
#include "gc/composition.hpp"

namespace dcft::apps {
namespace {

bool is_power_of_two(int n) { return n >= 1 && (n & (n - 1)) == 0; }

}  // namespace

StateIndex BarrierSystem::initial_state() const { return 0; }

BarrierSystem make_barrier(int n) {
    DCFT_EXPECTS(n >= 2 && is_power_of_two(n),
                 "barrier needs a power-of-two worker count");

    auto builder = std::make_shared<StateSpace>();
    std::vector<VarId> arrived;
    for (int i = 0; i < n; ++i)
        arrived.push_back(
            builder->add_variable("arrived." + std::to_string(i), 2));
    // Heap-indexed witness tree over the leaves: nodes 1..n-1 are internal
    // (node k has children 2k, 2k+1; nodes n..2n-1 are the leaves
    // arrived.(k-n)). w[0] is a placeholder.
    std::vector<VarId> w(static_cast<std::size_t>(n), VarId{0});
    for (int k = 1; k < n; ++k)
        w[static_cast<std::size_t>(k)] =
            builder->add_variable("w." + std::to_string(k), 2);
    const VarId round = builder->add_variable("round", 2);
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;

    // child-var: witness bit for internal children, arrived bit for leaf
    // children.
    auto child_var = [n, arrived, w](int node) -> VarId {
        if (node >= n) return arrived[static_cast<std::size_t>(node - n)];
        return w[static_cast<std::size_t>(node)];
    };

    Program workers(space, "workers");
    for (int i = 0; i < n; ++i) {
        const std::string is = std::to_string(i);
        workers.add_action(Action::assign_const(
            *space, "work." + is,
            Predicate::var_eq(*space, "arrived." + is, 0), "arrived." + is,
            1));
    }

    Program detectors(space, "witness-tree");
    for (int k = 1; k < n; ++k) {
        const std::string ks = std::to_string(k);
        const Predicate children_true =
            (Predicate::var_eq(*space, child_var(2 * k), 1) &&
             Predicate::var_eq(*space, child_var(2 * k + 1), 1))
                .renamed("children-true." + ks);
        detectors.add_action(Action::assign_const(
            *space, "watch." + ks,
            children_true && Predicate::var_eq(*space, "w." + ks, 0),
            "w." + ks, 1));
    }

    Predicate all_arrived = Predicate::var_eq(*space, arrived[0], 1);
    for (std::size_t i = 1; i < arrived.size(); ++i)
        all_arrived = all_arrived && Predicate::var_eq(*space, arrived[i], 1);
    all_arrived = all_arrived.renamed("all-arrived");
    const Predicate root_witness =
        Predicate::var_eq(*space, "w.1", 1).renamed("w.root");

    // Release: flip the round and clear every flag and witness, in one
    // atomic statement (releasing a barrier is a synchronization point).
    std::vector<Action::EffectForm::Assignment> release_effect{
        {round, Term::var(*space, round).plus(1, 2)}};
    for (VarId a : arrived) release_effect.push_back({a, Term::constant(0)});
    for (int k = 1; k < n; ++k)
        release_effect.push_back(
            {w[static_cast<std::size_t>(k)], Term::constant(0)});

    Program trusting = parallel(workers, detectors).renamed("trusting");
    trusting.add_action(Action::assign_parallel(*space, "release",
                                                root_witness, release_effect));

    Program rechecking =
        parallel(workers, detectors).renamed("rechecking");
    rechecking.add_action(Action::assign_parallel(
        *space, "release", root_witness && all_arrived, release_effect));

    // Fault: some clear witness flips to 1 (structured, so the kernel
    // compiles its guard to a bitset and its effect to stride arithmetic).
    FaultClass fault(space, "corrupt-witness");
    const std::vector<VarId> witnesses(w.begin() + 1, w.end());
    Predicate some_witness_clear = Predicate::var_eq(*space, witnesses[0], 0);
    for (std::size_t k = 1; k < witnesses.size(); ++k)
        some_witness_clear =
            some_witness_clear || Predicate::var_eq(*space, witnesses[k], 0);
    fault.add_action(Action::set_any(
        *space, "flip-witness",
        some_witness_clear.renamed("some-witness-clear"), witnesses, 1));

    // Safety: a release (round change) only from an all-arrived state.
    SafetySpec safety(
        "no-early-release", Predicate::bottom(),
        [round, arrived](const StateSpace& sp, StateIndex from,
                         StateIndex to) {
            if (sp.get(from, round) == sp.get(to, round)) return false;
            for (VarId a : arrived)
                if (sp.get(from, a) == 0) return true;
            return false;
        });
    LivenessSpec live;
    // The barrier keeps cycling: each round parity recurs.
    live.add(LeadsTo{Predicate::var_eq(*space, "round", 0),
                     Predicate::var_eq(*space, "round", 1)});
    live.add(LeadsTo{Predicate::var_eq(*space, "round", 1),
                     Predicate::var_eq(*space, "round", 0)});
    ProblemSpec spec("SPEC_barrier", std::move(safety), std::move(live));

    // A raised witness has both children raised.
    std::vector<Predicate> backed_up;
    for (int k = n - 1; k >= 1; --k)
        backed_up.push_back(
            Predicate::var_ne(*space, w[static_cast<std::size_t>(k)], 1) ||
            (Predicate::var_ne(*space, child_var(2 * k), 0) &&
             Predicate::var_ne(*space, child_var(2 * k + 1), 0)));
    Predicate truthful =
        Predicate::all_of(std::move(backed_up)).renamed("witnesses-truthful");

    return BarrierSystem{space,
                         n,
                         std::move(trusting),
                         std::move(rechecking),
                         std::move(fault),
                         std::move(spec),
                         std::move(all_arrived),
                         root_witness,
                         std::move(truthful),
                         std::move(arrived),
                         std::move(w),
                         round};
}

}  // namespace dcft::apps
