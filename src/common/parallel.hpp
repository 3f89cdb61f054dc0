// Deterministic fork-join helpers for the verifier's data plane.
//
// The parallel checkers never race on shared state: every parallel pass
// splits an index range [0, total) into contiguous chunks, lets each worker
// fill a private buffer for its chunk, and then merges the buffers *in
// chunk order* on the calling thread. Results are therefore bit-for-bit
// identical for every thread count (including 1), which is the determinism
// contract the verifier advertises (see DESIGN.md, "Performance
// architecture").
#pragma once

#include <cstdint>
#include <functional>

namespace dcft {

/// Number of worker threads the verifier uses when a caller passes
/// n_threads == 0: the DCFT_VERIFIER_THREADS environment variable if set
/// and positive, otherwise std::thread::hardware_concurrency() (min 1).
/// The environment is re-read on every call, so a harness may change the
/// variable between measurements (thread sweeps in bench_verifier).
unsigned default_verifier_threads();

/// Resolves a requested thread count: 0 -> default_verifier_threads(),
/// anything else is returned as-is (min 1).
unsigned resolve_verifier_threads(unsigned requested);

/// Splits [0, total) into up to `n_threads` contiguous chunks, each a
/// multiple of `align` long (except possibly the last), and invokes
/// fn(chunk_index, begin, end) for each — concurrently when more than one
/// chunk is used, inline on the calling thread otherwise. Small ranges run
/// as a single inline chunk so tiny BFS levels never pay thread spawn.
///
/// fn must confine its writes to chunk-private storage indexed by
/// chunk_index; the caller merges after this returns. Exceptions thrown by
/// fn are rethrown on the calling thread (first chunk's first).
void parallel_chunks(
    std::uint64_t total, unsigned n_threads, std::uint64_t align,
    const std::function<void(unsigned chunk, std::uint64_t begin,
                             std::uint64_t end)>& fn);

/// Number of chunks parallel_chunks() will use for the given arguments —
/// callers size their per-chunk buffer arrays with this.
unsigned parallel_chunk_count(std::uint64_t total, unsigned n_threads,
                              std::uint64_t align);

}  // namespace dcft
