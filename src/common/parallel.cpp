#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/env.hpp"
#include "obs/telemetry.hpp"

namespace dcft {
namespace {

/// Minimum work per chunk; ranges smaller than this run inline so the
/// frequent tiny BFS levels never pay a thread spawn.
constexpr std::uint64_t kMinGrain = 4096;

unsigned env_threads() {
    if (const auto v = env_positive_u64("DCFT_VERIFIER_THREADS"))
        return static_cast<unsigned>(*v);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

}  // namespace

unsigned default_verifier_threads() {
    // Re-read the environment on every call (the lookup is trivially cheap
    // next to any bulk pass) so harnesses can sweep thread counts by
    // adjusting DCFT_VERIFIER_THREADS between measurements — bench_verifier
    // does exactly that for its BENCH_verifier.json series.
    const unsigned t = env_threads();
    // Audit trail: record the first resolution once per process (gauge
    // `config/verifier_threads`), plus the sweep's high-water mark, so run
    // reports show which thread counts a measurement actually used.
    static std::once_flag logged;
    std::call_once(logged, [t] {
        auto& reg = obs::Registry::global();
        reg.counter("config/verifier_threads").set(t);
        const unsigned hw = std::thread::hardware_concurrency();
        reg.counter("config/hardware_concurrency").set(hw == 0 ? 1 : hw);
    });
    obs::count_max("config/verifier_threads_peak", t);
    return t;
}

unsigned resolve_verifier_threads(unsigned requested) {
    return requested == 0 ? default_verifier_threads()
                          : std::max(requested, 1u);
}

unsigned parallel_chunk_count(std::uint64_t total, unsigned n_threads,
                              std::uint64_t align) {
    DCFT_EXPECTS(align > 0, "parallel_chunks: align must be positive");
    n_threads = std::max(n_threads, 1u);
    if (total == 0) return 1;
    const std::uint64_t by_grain = (total + kMinGrain - 1) / kMinGrain;
    const std::uint64_t chunks =
        std::min<std::uint64_t>(n_threads, std::max<std::uint64_t>(by_grain, 1));
    return static_cast<unsigned>(std::max<std::uint64_t>(chunks, 1));
}

void parallel_chunks(
    std::uint64_t total, unsigned n_threads, std::uint64_t align,
    const std::function<void(unsigned, std::uint64_t, std::uint64_t)>& fn) {
    const unsigned chunks = parallel_chunk_count(total, n_threads, align);
    if (chunks <= 1) {
        fn(0, 0, total);
        return;
    }
    // Chunk length: even split, rounded up to a multiple of `align` so two
    // chunks never share a word when writing into bit vectors.
    std::uint64_t len = (total + chunks - 1) / chunks;
    len = ((len + align - 1) / align) * align;
    std::vector<std::exception_ptr> errors(chunks);
    std::vector<std::thread> workers;
    workers.reserve(chunks);
    for (unsigned c = 0; c < chunks; ++c) {
        workers.emplace_back([&, c] {
            const std::uint64_t begin = std::min<std::uint64_t>(
                static_cast<std::uint64_t>(c) * len, total);
            try {
                fn(c, begin, std::min<std::uint64_t>(begin + len, total));
            } catch (...) {
                errors[c] = std::current_exception();
            }
        });
    }
    for (auto& t : workers) t.join();
    for (const auto& err : errors)
        if (err) std::rethrow_exception(err);
}

}  // namespace dcft
