#include "verify/exploration_cache.hpp"

#include <exception>
#include <utility>

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
