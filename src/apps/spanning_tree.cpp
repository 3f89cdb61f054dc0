#include "apps/spanning_tree.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"

namespace dcft::apps {
namespace {

std::vector<Value> bfs_distances(const Graph& g) {
    std::vector<Value> dist(g.size(), -1);
    std::deque<int> queue{0};
    dist[0] = 0;
    while (!queue.empty()) {
        const int u = queue.front();
        queue.pop_front();
        for (int v : g[static_cast<std::size_t>(u)]) {
            if (dist[static_cast<std::size_t>(v)] == -1) {
                dist[static_cast<std::size_t>(v)] =
                    dist[static_cast<std::size_t>(u)] + 1;
                queue.push_back(v);
            }
        }
    }
    return dist;
}

/// The value node i's rule assigns: min over neighbours + 1, capped —
/// min(cap, 1 + min(neighbours)).
Term local_target(const StateSpace& sp, const std::vector<VarId>& dist,
                  const std::vector<int>& neighbours, Value cap) {
    std::vector<Term> near;
    for (int j : neighbours)
        near.push_back(Term::var(sp, dist[static_cast<std::size_t>(j)]));
    if (near.empty()) return Term::constant(cap);
    return Term::min({Term::constant(cap), Term::min(std::move(near)).plus(1)});
}

}  // namespace

Graph path_graph(int n) {
    Graph g(static_cast<std::size_t>(n));
    for (int i = 0; i + 1 < n; ++i) {
        g[static_cast<std::size_t>(i)].push_back(i + 1);
        g[static_cast<std::size_t>(i + 1)].push_back(i);
    }
    return g;
}

Graph cycle_graph(int n) {
    Graph g = path_graph(n);
    if (n >= 3) {
        g[0].push_back(n - 1);
        g[static_cast<std::size_t>(n - 1)].push_back(0);
    }
    return g;
}

Graph star_graph(int n) {
    Graph g(static_cast<std::size_t>(n));
    for (int i = 1; i < n; ++i) {
        g[0].push_back(i);
        g[static_cast<std::size_t>(i)].push_back(0);
    }
    return g;
}

Predicate SpanningTreeSystem::locally_consistent(int i) const {
    DCFT_EXPECTS(i >= 0 && i < static_cast<int>(graph.size()),
                 "locally_consistent: bad node");
    const Value cap = static_cast<Value>(graph.size());
    if (i == 0)
        return Predicate::var_eq(*space, dist[0], 0).renamed("consistent.0");
    const VarId di = dist[static_cast<std::size_t>(i)];
    return Predicate::compare(
               Term::var(*space, di), Predicate::NodeKind::kTermEq,
               local_target(*space, dist, graph[static_cast<std::size_t>(i)],
                            cap))
        .renamed("consistent." + std::to_string(i));
}

StateIndex SpanningTreeSystem::legitimate_state() const {
    StateIndex s = 0;
    for (std::size_t i = 0; i < dist.size(); ++i)
        s = space->set(s, dist[i], true_distances[i]);
    return s;
}

SpanningTreeSystem make_spanning_tree(Graph graph) {
    const int n = static_cast<int>(graph.size());
    DCFT_EXPECTS(n >= 2, "need at least 2 nodes");
    const std::vector<Value> truth = bfs_distances(graph);
    for (Value d : truth)
        DCFT_EXPECTS(d >= 0, "graph must be connected");

    auto builder = std::make_shared<StateSpace>();
    std::vector<VarId> dist;
    for (int i = 0; i < n; ++i)
        dist.push_back(builder->add_variable("dist." + std::to_string(i),
                                             static_cast<Value>(n) + 1));
    builder->freeze();
    std::shared_ptr<const StateSpace> space = builder;
    const Value cap = static_cast<Value>(n);

    Program program(space, "bfs-tree(n=" + std::to_string(n) + ")");
    program.add_action(Action::assign_const(
        *space, "fix.0",
        Predicate::var_ne(*space, dist[0], 0).renamed("dist.0!=0"), "dist.0",
        0));
    for (int i = 1; i < n; ++i) {
        const VarId di = dist[static_cast<std::size_t>(i)];
        const Term target = local_target(
            *space, dist, graph[static_cast<std::size_t>(i)], cap);
        program.add_action(Action::assign_parallel(
            *space, "fix." + std::to_string(i),
            Predicate::compare(Term::var(*space, di),
                               Predicate::NodeKind::kTermNe, target)
                .renamed("inconsistent." + std::to_string(i)),
            {{di, target}}));
    }

    // Transient faults: any dist.i is corrupted to any value.
    FaultClass fault(space, "corrupt-distance");
    fault.add_action(
        Action::corrupt_any(*space, "corrupt", Predicate::top(), dist));

    std::vector<Predicate> correct;
    for (std::size_t i = 0; i < dist.size(); ++i)
        correct.push_back(Predicate::var_eq(*space, dist[i], truth[i]));
    Predicate legitimate =
        Predicate::all_of(std::move(correct)).renamed("distances-correct");

    // SPEC: once legitimate, stay legitimate; from anywhere, converge.
    SafetySpec safety = SafetySpec::closure(legitimate);
    LivenessSpec live;
    live.add_eventually(legitimate);
    ProblemSpec spec("SPEC_tree", std::move(safety), std::move(live));

    return SpanningTreeSystem{space,
                              std::move(graph),
                              std::move(program),
                              std::move(fault),
                              std::move(spec),
                              std::move(legitimate),
                              truth,
                              std::move(dist)};
}

}  // namespace dcft::apps
