// ExplorationCache behaviour: hits are pointer-identical, every key
// component invalidates (program rename, action restriction, fault class,
// initial set), extensionally equal initial predicates share an entry,
// LRU eviction beyond capacity(), identity keys survive object
// destruction and allocator address reuse (the ABA regression), and builds of
// unrelated keys proceed concurrently while same-key builds dedup.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/token_ring.hpp"
#include "verify/exploration_cache.hpp"

namespace dcft {
namespace {

/// The cache under test is the process-wide singleton (the object the
/// verdict and synthesis pipelines actually share), so every test starts
/// and ends with clear() to stay order-independent.
class ExplorationCacheTest : public ::testing::Test {
protected:
    void SetUp() override { ExplorationCache::global().clear(); }
    void TearDown() override { ExplorationCache::global().clear(); }
};

TEST_F(ExplorationCacheTest, RepeatQueryIsPointerIdenticalHit) {
    auto sys = apps::make_token_ring(4, 4);
    auto& cache = ExplorationCache::global();

    const auto a =
        cache.get_or_build(sys.ring, &sys.corrupt_any, Predicate::top());
    EXPECT_EQ(cache.size(), 1u);
    const auto b =
        cache.get_or_build(sys.ring, &sys.corrupt_any, Predicate::top());
    EXPECT_EQ(a.get(), b.get()) << "second query must hit, not rebuild";
    EXPECT_EQ(cache.size(), 1u);

    // The no-faults graph is a distinct key.
    const auto c = cache.get_or_build(sys.ring, nullptr, Predicate::top());
    EXPECT_NE(a.get(), c.get());
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(ExplorationCacheTest, ExtensionallyEqualInitPredicatesShareEntry) {
    auto sys = apps::make_token_ring(4, 4);
    auto& cache = ExplorationCache::global();

    // Same bits, different name and different closure: must still hit —
    // the key is the materialized initial set, not the predicate object.
    const auto a = cache.get_or_build(sys.ring, nullptr, sys.legitimate);
    const Predicate same_states(
        "legit-by-another-name",
        [inner = sys.legitimate](const StateSpace& sp, StateIndex s) {
            return inner.eval(sp, s);
        });
    const auto b = cache.get_or_build(sys.ring, nullptr, same_states);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(cache.size(), 1u);

    // A different initial set is a different graph.
    const auto c = cache.get_or_build(sys.ring, nullptr, Predicate::top());
    EXPECT_NE(a.get(), c.get());
}

TEST_F(ExplorationCacheTest, RenameInvalidates) {
    auto sys = apps::make_token_ring(4, 4);
    auto& cache = ExplorationCache::global();

    const auto a = cache.get_or_build(sys.ring, nullptr, Predicate::top());
    const Program renamed = sys.ring.renamed("ring-renamed");
    const auto b = cache.get_or_build(renamed, nullptr, Predicate::top());
    EXPECT_NE(a.get(), b.get())
        << "renaming the program must change the cache key";
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(ExplorationCacheTest, RestrictionInvalidates) {
    auto sys = apps::make_token_ring(4, 4);
    auto& cache = ExplorationCache::global();

    const auto a = cache.get_or_build(sys.ring, nullptr, Predicate::top());

    // Restricting an action produces a new Action::id() even under a
    // vacuous (top) restriction — content identity is implementation
    // identity, so the transformed program must rebuild.
    Program restricted(sys.ring.space_ptr(), sys.ring.name());
    for (std::size_t i = 0; i < sys.ring.num_actions(); ++i) {
        const Action& ac = sys.ring.action(i);
        restricted.add_action(i == 0 ? ac.restricted(Predicate::top()) : ac);
    }
    const auto b =
        cache.get_or_build(restricted, nullptr, Predicate::top());
    EXPECT_NE(a.get(), b.get())
        << "restricted action must change the cache key";

    // Same graph content either way (the restriction was vacuous).
    EXPECT_EQ(a->num_nodes(), b->num_nodes());
    EXPECT_EQ(a->num_program_edges(), b->num_program_edges());
}

TEST_F(ExplorationCacheTest, LruEvictionHonoursCap) {
    auto sys = apps::make_token_ring(4, 4);
    auto& cache = ExplorationCache::global();
    constexpr std::size_t cap = ExplorationCache::capacity();

    // cap + 1 distinct keys: one single-state initial set each.
    std::vector<Predicate> inits;
    std::vector<std::shared_ptr<const TransitionSystem>> built;
    for (StateIndex k = 0; k <= cap; ++k) {
        inits.emplace_back("s" + std::to_string(k),
                           [k](const StateSpace&, StateIndex s) {
                               return s == k;
                           });
        built.push_back(cache.get_or_build(sys.ring, nullptr, inits.back()));
    }
    EXPECT_EQ(cache.size(), cap);

    // The newest cap keys are still resident (pointer-identical hits),
    // and the resident_bytes gauge sums exactly their footprints...
    std::uint64_t bytes = 0;
    for (std::size_t k = 1; k <= cap; ++k) {
        EXPECT_EQ(cache.get_or_build(sys.ring, nullptr, inits[k]).get(),
                  built[k].get());
        bytes += built[k]->resident_bytes();
    }
    EXPECT_EQ(cache.resident_bytes(), bytes);
    // ...while the oldest was evicted and rebuilds to a fresh object.
    EXPECT_NE(cache.get_or_build(sys.ring, nullptr, inits[0]).get(),
              built[0].get());
}

// ---------------------------------------------------------------------------
// Regression: identity-keyed entries must survive object destruction.
//
// The original cache keyed entries on raw pointers (&space, Action::id())
// without keeping the keyed objects alive. A cached entry pins the space
// and the *program* actions through its TransitionSystem, but not the
// fault class: destroy the FaultClass and the allocator may hand its
// action Impl address to a brand-new, semantically different fault action
// — whose key then collides with the stale entry and returns the wrong
// graph (classic ABA). The fix keys on a per-space generation uid and
// pins Action values (ids can never be recycled while an entry lives).

TEST_F(ExplorationCacheTest, RebuiltFaultClassNeverStaleHits) {
    auto& cache = ExplorationCache::global();
    auto space = make_space({Variable{"x", 4, {}}, Variable{"y", 4, {}}});
    Program p(space, "aba");  // kept alive: program identity is constant
    p.add_action(Action::assign_var(*space, "copy",
                                    Predicate::vars_ne(*space, 0, 1), 0, 1));

    // Expected fault-edge counts, computed once from fresh builds.
    const auto fresh_fault_edges = [&](const FaultClass& f) {
        return TransitionSystem(p, &f, Predicate::top()).num_fault_edges();
    };
    // Three rotating fault semantics under one name, so an entry whose key
    // collides with a *later* fault class always has different content
    // (a two-phase rotation can align with period-2 allocator reuse).
    const auto make_faults = [&](int phase) {
        auto f = std::make_unique<FaultClass>(space, "F");
        std::vector<VarId> victims;
        if (phase == 0) victims = {0};
        else if (phase == 1) victims = {1};
        else victims = {0, 1};
        f->add_action(Action::corrupt_any(*space, "hit", Predicate::top(),
                                          std::move(victims)));
        return f;
    };
    std::size_t expected[3];
    for (int phase = 0; phase < 3; ++phase)
        expected[phase] = fresh_fault_edges(*make_faults(phase));
    cache.clear();

    // Destroy and rebuild the fault class back-to-back every iteration so
    // the freed action Impl chunk is the first allocation candidate for
    // its successor.
    std::size_t mismatches = 0;
    std::unique_ptr<FaultClass> f;
    for (int i = 0; i < 48; ++i) {
        const int phase = i % 3;
        f.reset();
        f = make_faults(phase);
        const auto ts = cache.get_or_build(p, f.get(), Predicate::top());
        if (ts->num_fault_edges() != expected[phase]) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u)
        << "stale cache hits returned a graph built from a destroyed "
           "fault class's semantics";
}

TEST_F(ExplorationCacheTest, RebuiltSpacesInALoopGetDistinctEntries) {
    // The ISSUE's literal scenario: construct/destroy spaces in a loop.
    // Every space (even one the allocator placed at a recycled address)
    // must key its own entry — the per-space uid makes that true by
    // construction, independent of what a cached TransitionSystem happens
    // to pin internally.
    auto& cache = ExplorationCache::global();
    for (int i = 0; i < 24; ++i) {
        const Value dom = 2 + (i % 3);
        auto space =
            make_space({Variable{"v", dom, {}}, Variable{"w", 2, {}}});
        Program p(space, "loop");  // zero actions: graph == init states
        const auto ts = cache.get_or_build(p, nullptr, Predicate::top());
        ASSERT_EQ(ts->num_nodes(),
                  static_cast<std::size_t>(space->num_states()))
            << "iteration " << i
            << ": cache returned a graph from a different (destroyed) "
               "space";
    }
}

TEST_F(ExplorationCacheTest, CopiedSpaceHasFreshIdentity) {
    auto space = make_space({Variable{"x", 3, {}}});
    const StateSpace copy(*space);
    EXPECT_NE(space->uid(), copy.uid())
        << "copies are distinct objects and must not alias in "
           "identity-keyed caches";
    StateSpace tmp(copy);
    const auto tmp_uid = tmp.uid();
    const StateSpace moved(std::move(tmp));
    EXPECT_EQ(moved.uid(), tmp_uid)
        << "moves transfer identity (the moved-from object is dead)";
}

// ---------------------------------------------------------------------------
// Regression: a large build must not serialize unrelated keys.
//
// The original get_or_build ran the whole BFS under the global cache
// mutex, so one slow exploration blocked every other key. The fix keeps
// the lock for map operations only and parks waiters on a per-entry
// shared_future, so (a) unrelated keys build concurrently and (b)
// concurrent requests for the same key still build exactly once.

TEST_F(ExplorationCacheTest, UnrelatedKeysBuildConcurrently) {
    auto& cache = ExplorationCache::global();
    auto space = make_space({Variable{"a", 2, {}}, Variable{"b", 2, {}}});

    // Shared latch state for the slow build's guard: on first evaluation
    // it signals "building has started" and then waits (bounded) for the
    // fast key's build to complete.
    struct Latch {
        std::promise<void> started;
        std::shared_future<void> fast_done;
        std::once_flag once;
        std::atomic<bool> saw_fast_finish{false};
    };
    auto latch = std::make_shared<Latch>();
    std::promise<void> fast_done_promise;
    latch->fast_done = fast_done_promise.get_future().share();

    Program slow(space, "slow-build");
    slow.add_action(Action::skip(
        "wait", Predicate("latch", [latch](const StateSpace&, StateIndex) {
            std::call_once(latch->once, [&] {
                latch->started.set_value();
                const auto status = latch->fast_done.wait_for(
                    std::chrono::seconds(10));
                latch->saw_fast_finish =
                    status == std::future_status::ready;
            });
            return false;
        })));

    Program fast(space, "fast-build");
    fast.add_action(Action::assign_const(*space, "set", Predicate::top(),
                                         "a", 1));

    std::thread slow_thread([&] {
        (void)cache.get_or_build(slow, nullptr, Predicate::top());
    });
    // Wait until the slow build is inside its exploration, then request an
    // unrelated key on this thread. With the historical whole-build lock
    // this request would block until the slow build timed out.
    latch->started.get_future().wait();
    (void)cache.get_or_build(fast, nullptr, Predicate::top());
    fast_done_promise.set_value();
    slow_thread.join();

    EXPECT_TRUE(latch->saw_fast_finish.load())
        << "an unrelated key could not build while a slow build was in "
           "flight — the cache serialized builds under its global lock";
    EXPECT_EQ(cache.size(), 2u);
}

TEST_F(ExplorationCacheTest, SameKeyConcurrentRequestsBuildOnce) {
    auto& cache = ExplorationCache::global();
    auto sys = apps::make_token_ring(5, 5);

    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const TransitionSystem>> results(kThreads);
    {
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&, t] {
                results[static_cast<std::size_t>(t)] = cache.get_or_build(
                    sys.ring, &sys.corrupt_any, Predicate::top());
            });
        for (auto& th : threads) th.join();
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(results[0].get(), results[static_cast<std::size_t>(t)].get())
            << "concurrent same-key requests must share one build";
    EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace dcft
