#include "verify/exploration_cache.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "common/env.hpp"
#include "obs/telemetry.hpp"
#include "verify/graph_store.hpp"

namespace dcft {

namespace {

/// FNV-1a over the words of a bit vector (padding bits are always zero,
/// so extensionally equal sets hash equally).
std::uint64_t hash_bits(const BitVec& bits) {
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t w = 0; w < bits.num_words(); ++w) {
        h ^= bits.word(w);
        h *= 1099511628211ULL;
    }
    h ^= bits.size_bits();
    h *= 1099511628211ULL;
    return h;
}

/// Element-wise Action::id() comparison between pinned key actions and a
/// candidate action span.
bool same_actions(const std::vector<Action>& pinned,
                  std::span<const Action> actions) {
    if (pinned.size() != actions.size()) return false;
    for (std::size_t i = 0; i < pinned.size(); ++i)
        if (pinned[i].id() != actions[i].id()) return false;
    return true;
}

}  // namespace

bool exploration_cache_disabled() {
    return env_flag_enabled("DCFT_NO_EXPLORE_CACHE");
}

bool ExplorationCache::matches(const Key& k, const StateSpace& space,
                               const Program& program,
                               const FaultClass* faults,
                               std::uint64_t init_hash,
                               const BitVec& init_bits) {
    if (k.space_uid != space.uid() || k.init_hash != init_hash ||
        k.program_name != program.name() ||
        !same_actions(k.program_actions, program.actions()) ||
        k.has_faults != (faults != nullptr))
        return false;
    if (faults != nullptr &&
        (k.fault_name != faults->name() ||
         !same_actions(k.fault_actions, faults->actions())))
        return false;
    return k.init_bits == init_bits;  // collision guard
}

ExplorationCache::Key ExplorationCache::make_key(const StateSpace& space,
                                                 const Program& program,
                                                 const FaultClass* faults,
                                                 std::uint64_t init_hash,
                                                 BitVec init_bits) {
    return Key{space.uid(),
               program.name(),
               {program.actions().begin(), program.actions().end()},
               faults != nullptr,
               faults != nullptr ? faults->name() : std::string{},
               faults != nullptr
                   ? std::vector<Action>{faults->actions().begin(),
                                         faults->actions().end()}
                   : std::vector<Action>{},
               init_hash,
               std::move(init_bits)};
}

ExplorationCache& ExplorationCache::global() {
    static ExplorationCache cache;
    return cache;
}

std::uint64_t ExplorationCache::resident_bytes() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const Entry& e : entries_) total += e.bytes;
    return total;
}

void ExplorationCache::note_ready_bytes(std::uint64_t token,
                                        std::uint64_t bytes) {
    std::uint64_t total = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (Entry& e : entries_) {
            if (e.token == token) e.bytes = bytes;
            total += e.bytes;
        }
    }
    obs::record("verify/explore_cache/resident_bytes", total);
}

std::shared_ptr<const TransitionSystem> ExplorationCache::get_or_build(
    const Program& program, const FaultClass* faults, const Predicate& init,
    unsigned n_threads) {
    if (exploration_cache_disabled()) {
        obs::count("verify/explore_cache/bypass");
        return std::make_shared<TransitionSystem>(program, faults, init,
                                                  n_threads);
    }
    const obs::Span span("verify/explore_cache");

    // Materialize the initial set once: it is both the exact key
    // component and — on a miss — the seed of the exploration (passed as
    // a set-backed predicate, so the builder does not re-scan).
    const StateSpace& space = program.space();
    BitVec init_bits = [&] {
        if (const auto& b = init.backing_bits();
            b != nullptr && b->size_bits() == space.num_states())
            return *b;
        return eval_bits(space, init, n_threads);
    }();
    const std::uint64_t h = hash_bits(init_bits);

    std::promise<std::shared_ptr<const TransitionSystem>> builder;
    std::uint64_t token = 0;
    std::shared_future<std::shared_ptr<const TransitionSystem>> resident;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!matches(it->key, space, program, faults, h, init_bits))
                continue;
            obs::count("verify/explore_cache/hits");
            obs::instant("verify/explore_cache/hit");
            entries_.splice(entries_.begin(), entries_, it);  // LRU bump
            resident = it->ts;
            break;
        }
        if (!resident.valid()) {
            obs::count("verify/explore_cache/misses");
            obs::instant("verify/explore_cache/miss");

            // Miss: insert an in-flight entry so concurrent requests for
            // this key dedup onto our build, then release the lock and
            // explore.
            Key key = make_key(space, program, faults, h, init_bits);
            token = ++next_token_;
            entries_.push_front(
                Entry{std::move(key), token, builder.get_future().share()});
            while (entries_.size() > capacity()) {
                obs::count("verify/explore_cache/evictions");
                entries_.pop_back();
            }
        }
    }
    // Hit (possibly on an in-flight entry): wait outside the lock.
    if (resident.valid()) return resident.get();

    // Build outside the lock: one large exploration never blocks hits or
    // unrelated builds. With a persistent store configured, try to
    // mmap-adopt a snapshot before paying the BFS; a fresh build is
    // published back for the next process.
    try {
        GraphStore* const store = GraphStore::global();
        GraphKey gkey;
        std::shared_ptr<const TransitionSystem> ts;
        if (store != nullptr) {
            gkey = graph_key(program, faults, init_bits);
            ts = store->load(gkey, program, faults);
        }
        const bool from_store = ts != nullptr;
        auto bits = std::make_shared<const BitVec>(std::move(init_bits));
        if (!from_store) {
            const Predicate seeded = Predicate::from_bits(init.name(), bits);
            ts = std::make_shared<const TransitionSystem>(program, faults,
                                                          seeded, n_threads);
        }
        builder.set_value(ts);
        note_ready_bytes(token, ts->resident_bytes());
        obs::instant("verify/explore_cache/publish", ts->num_nodes());
        if (store != nullptr && !from_store) store->save(gkey, *ts);
        return ts;
    } catch (...) {
        builder.set_exception(std::current_exception());
        remove_entry(token);
        throw;
    }
}

std::shared_ptr<const TransitionSystem>
ExplorationCache::get_or_build_early_exit(const Program& program,
                                          const FaultClass* faults,
                                          const Predicate& init,
                                          const Predicate& stop_on,
                                          unsigned n_threads) {
    if (exploration_cache_disabled()) {
        obs::count("verify/explore_cache/bypass");
        ExploreOptions opts;
        opts.n_threads = n_threads;
        opts.stop_on = &stop_on;
        return std::make_shared<TransitionSystem>(program, faults, init,
                                                  opts);
    }
    const obs::Span span("verify/explore_cache/early_exit");

    const StateSpace& space = program.space();
    BitVec init_bits = [&] {
        if (const auto& b = init.backing_bits();
            b != nullptr && b->size_bits() == space.num_states())
            return *b;
        return eval_bits(space, init, n_threads);
    }();
    const std::uint64_t h = hash_bits(init_bits);

    // Serve only already-*completed* resident builds: parking an early-exit
    // query on an in-flight full exploration could cost far more than the
    // fragment it wants, so an in-flight key match is treated as a miss.
    std::shared_future<std::shared_ptr<const TransitionSystem>> resident;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (!matches(it->key, space, program, faults, h, init_bits))
                continue;
            if (it->ts.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
                obs::count("verify/explore_cache/early_exit_hits");
                obs::instant("verify/explore_cache/early_exit_hit");
                entries_.splice(entries_.begin(), entries_, it);  // LRU
                resident = it->ts;
            }
            break;
        }
    }
    if (resident.valid()) return resident.get();  // full graph; caller scans
    obs::count("verify/explore_cache/early_exit_misses");
    obs::instant("verify/explore_cache/early_exit_miss");

    // A stored snapshot is always a *complete* graph, so it serves the
    // early-exit query the same way a resident full graph does: adopt it,
    // publish it in memory, and let the caller scan via first_bad_node.
    GraphStore* const store = GraphStore::global();
    GraphKey gkey;
    if (store != nullptr) {
        gkey = graph_key(program, faults, init_bits);
        if (auto loaded = store->load(gkey, program, faults)) {
            std::shared_ptr<const TransitionSystem> ts = std::move(loaded);
            publish_if_absent(space, program, faults, h, init_bits, ts);
            return ts;
        }
    }

    // Build outside the lock, seeded from the materialized bits exactly as
    // get_or_build would, so a run-to-exhaustion result IS the graph the
    // full path builds (and can be published in its place).
    auto bits = std::make_shared<const BitVec>(std::move(init_bits));
    const Predicate seeded = Predicate::from_bits(init.name(), bits);
    ExploreOptions opts;
    opts.n_threads = n_threads;
    opts.stop_on = &stop_on;
    auto ts = std::make_shared<const TransitionSystem>(program, faults,
                                                       seeded, opts);
    if (!ts->complete()) {
        // Early-exit fragment: NEVER cached (a later get_or_build for this
        // key must not be served an incomplete graph) and never stored —
        // the store holds complete graphs only.
        obs::count("verify/explore_cache/early_exit_fragments");
        return ts;
    }

    // The stop predicate never fired: this is the full graph. Publish it
    // (unless a racing build of the same key got there first), and to the
    // persistent store.
    if (publish_if_absent(space, program, faults, h, *bits, ts))
        obs::count("verify/explore_cache/early_exit_published");
    if (store != nullptr) store->save(gkey, *ts);
    return ts;
}

bool ExplorationCache::publish_if_absent(
    const StateSpace& space, const Program& program, const FaultClass* faults,
    std::uint64_t init_hash, const BitVec& init_bits,
    const std::shared_ptr<const TransitionSystem>& ts) {
    std::promise<std::shared_ptr<const TransitionSystem>> ready;
    ready.set_value(ts);
    std::uint64_t token = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        for (const auto& e : entries_)
            if (matches(e.key, space, program, faults, init_hash, init_bits))
                return false;
        obs::instant("verify/explore_cache/publish", ts->num_nodes());
        token = ++next_token_;
        entries_.push_front(Entry{make_key(space, program, faults, init_hash,
                                           init_bits),
                                  token,
                                  ready.get_future().share()});
        while (entries_.size() > capacity()) {
            obs::count("verify/explore_cache/evictions");
            entries_.pop_back();
        }
    }
    note_ready_bytes(token, ts->resident_bytes());
    return true;
}

void ExplorationCache::remove_entry(std::uint64_t token) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->token == token) {
            entries_.erase(it);
            return;
        }
    }
}

void ExplorationCache::clear() {
    // Destroy entries outside the lock: an entry's future may be the last
    // reference to a TransitionSystem whose destructor is nontrivial.
    std::list<Entry> doomed;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        doomed.swap(entries_);
    }
}

std::size_t ExplorationCache::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

}  // namespace dcft
