#include "verify/reachability.hpp"

#include <utility>

#include "common/parallel.hpp"
#include "obs/telemetry.hpp"
#include "verify/action_kernel.hpp"
#include "verify/exploration_cache.hpp"

namespace dcft {

StateSet reachable_states(const Program& p, const FaultClass* f,
                          const Predicate& from, unsigned n_threads) {
    const StateSpace& space = p.space();
    const unsigned threads = resolve_verifier_threads(n_threads);

    // Compile the guarded commands once per sweep.
    const CompiledProgram compiled(p, f);

    // Seed: bulk-evaluate the source predicate (each state exactly once).
    StateSet seen(eval_bits(space, from, threads));
    std::vector<StateIndex> frontier;
    frontier.reserve(static_cast<std::size_t>(seen.count()));
    seen.for_each([&](StateIndex s) { frontier.push_back(s); });

    // Level-synchronous expansion: workers compute successor targets for
    // disjoint frontier slices into chunk-private buffers; the merge pass
    // dedupes into `seen` serially. The resulting set is independent of the
    // chunking, so verdicts are identical for every thread count.
    std::vector<std::vector<StateIndex>> bufs;
    std::vector<StateIndex> next;
    while (!frontier.empty()) {
        const std::uint64_t level = frontier.size();
        const unsigned chunks = parallel_chunk_count(level, threads, 1);
        if (bufs.size() < chunks) bufs.resize(chunks);
        parallel_chunks(level, threads, 1,
                        [&](unsigned c, std::uint64_t b, std::uint64_t e) {
                            std::vector<StateIndex>& out = bufs[c];
                            out.clear();
                            for (std::uint64_t i = b; i < e; ++i) {
                                const StateIndex s = frontier[i];
                                compiled.program_actions().successors(s, out);
                                if (compiled.has_faults())
                                    compiled.fault_actions().successors(s,
                                                                        out);
                            }
                        });
        next.clear();
        for (unsigned c = 0; c < chunks; ++c)
            for (StateIndex t : bufs[c])
                if (seen.insert(t)) next.push_back(t);
        frontier.swap(next);
    }
    return seen;
}

CheckResult check_unreachable(const Program& p, const FaultClass* f,
                              const Predicate& from, const Predicate& bad,
                              unsigned n_threads) {
    const obs::Span span("verify/reachability");
    obs::count("verify/obligations/reachability");
    const auto ts =
        ExplorationCache::global().get_or_build(p, f, from, n_threads);
    const NodeId b = ts->first_bad_node(bad);
    if (b == TransitionSystem::kNoNode) return CheckResult::success();
    obs::count("verify/obligations/failed");
    return CheckResult::failure(
        "reachable: state " + ts->space().format(ts->state_of(b)) +
            " satisfies " + bad.name() + "; witness: " +
            ts->format_witness(b),
        ts->witness_trace(b));
}

}  // namespace dcft
