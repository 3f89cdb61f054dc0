// Arena-backed storage for exploration-sized arrays, with an optional
// out-of-core spill mode.
//
// A TransitionSystem's dominant allocations — the CSR edge/offset arrays
// and the node->state / BFS-parent arrays — are written once, in strictly
// ascending position, and read back only by much later passes (witnesses,
// predecessor CSRs, state_bits). SpillVector<T> keeps the familiar
// contiguous-vector interface but always places the bytes in an mmap'd
// arena grown with mremap(MREMAP_MAYMOVE), in one of two modes chosen
// before first use:
//
//   * RAM mode (default): a private anonymous mapping advised
//     MADV_HUGEPAGE. Fresh pages arrive zero-filled from the kernel, so
//     resize() over never-touched tail regions costs nothing — the
//     vector tracks its high-water mark and only re-zeroes bytes that
//     were actually written before (the std::vector idiom would memset
//     the ~35 MB edge array of a 10^6-state build just for the sweep to
//     overwrite every byte immediately after).
//   * Spill mode (enable_spill() while empty): an *unlinked* temporary
//     file mapped MAP_SHARED. Once a prefix of the array is sealed (its
//     BFS level fully written), release_prefix() drops those pages from
//     the process with madvise(MADV_DONTNEED) — for a shared file
//     mapping this is purely an RSS hint: dirty pages migrate to the
//     page cache (and eventually disk), and any later read faults them
//     back unchanged. Peak resident memory therefore tracks the *active*
//     frontier window instead of the whole graph, which is what lets
//     `--huge` explorations exceed the in-core ceiling (see DESIGN.md §7).
//
// Growth keeps the data contiguous (the CSR span accessors keep working
// untouched) at the cost of data() being invalidated by push_back/resize,
// the same contract std::vector has. Reads of released pages are always
// legal; nothing is ever lost. release_prefix()/prefetch() are no-ops in
// RAM mode (MADV_DONTNEED would *discard* anonymous pages), so callers
// need no branches of their own.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

namespace dcft {

/// True iff DCFT_SPILL is set truthy: explorations default to out-of-core
/// storage (ExploreOptions::spill forces it programmatically).
bool spill_enabled();

/// One mmap arena: a private anonymous mapping (RAM mode) or an unlinked
/// temp file mapped MAP_SHARED (spill mode; DCFT_SPILL_DIR, else TMPDIR,
/// else /tmp). Byte-oriented; SpillVector layers the element interface on
/// top. Non-copyable, non-movable once mapped.
class SpillFile {
public:
    explicit SpillFile(bool file_backed) : file_backed_(file_backed) {}
    ~SpillFile();
    SpillFile(const SpillFile&) = delete;
    SpillFile& operator=(const SpillFile&) = delete;

    /// Opens (creating/truncating) a *named* file-backed arena at `path`.
    /// Unlike the anonymous spill mode the file survives the mapping —
    /// this is how verify/graph_store.cpp materializes `dcft.graph`
    /// snapshots before atomically renaming them into the store
    /// directory. Throws std::runtime_error when the file cannot be
    /// created.
    static std::unique_ptr<SpillFile> create_named(const std::string& path);

    /// Adopts a page-aligned region [offset, offset+bytes) of an existing
    /// file as a fixed-capacity arena, mapped MAP_PRIVATE with
    /// PROT_READ|PROT_WRITE: reads are zero-copy from the page cache and
    /// any (unexpected) write faults a private copy instead of corrupting
    /// the store. Adopted arenas can never grow() and are never pooled.
    /// `offset` must be page-aligned. The caller may close `fd` after the
    /// call (the mapping keeps the file referenced).
    static std::unique_ptr<SpillFile> adopt_region(int fd, std::size_t offset,
                                                   std::size_t bytes);

    /// Checks out a RAM arena from the process-wide pool (or a fresh one
    /// when the pool is empty). Pooled arenas keep their pages faulted in
    /// across explorations — first-touch faults cost ~10x a warm store on
    /// this class of machine, so reuse is the difference between paying
    /// the page-fault tax once per process and once per build. Best-fit
    /// on `bytes_hint` (smallest arena that already covers it, else the
    /// largest available) so a small consumer never starves the edge
    /// arrays of their big arena. A recycled arena's contents are
    /// arbitrary: the caller must treat its whole extent as dirty
    /// (capacity() > 0 signals this).
    static std::unique_ptr<SpillFile> acquire_ram(std::size_t bytes_hint);
    /// Returns a RAM arena to the pool (bounded; overflow just frees).
    /// File-backed arenas are never pooled — pass only RAM ones.
    static void recycle(std::unique_ptr<SpillFile> f);

    /// Ensures capacity() >= bytes (rounded up to a page multiple) and
    /// returns the — possibly relocated — mapping base. Throws
    /// std::runtime_error when the arena cannot be created or mapped.
    void* grow(std::size_t bytes);

    bool file_backed() const { return file_backed_; }
    bool adopted() const { return adopted_; }

    /// RSS hint (spill mode only): drops the process mapping of
    /// [0, bytes) page-aligned down, after any prior watermark. Data is
    /// preserved (page cache / disk); later reads fault it back. Returns
    /// the bytes newly advised.
    std::size_t release_prefix(std::size_t bytes);

    /// Readahead hint over [begin, end) for an upcoming sequential pass
    /// (spill mode only).
    void prefetch(std::size_t begin, std::size_t end) const;

    void* base() const { return base_; }
    std::size_t capacity() const { return cap_; }
    std::uint64_t released_bytes() const { return released_total_; }

private:
    bool file_backed_ = false;
    bool adopted_ = false;  ///< fixed-capacity mapping of a store file
    int fd_ = -1;
    void* base_ = nullptr;
    std::size_t cap_ = 0;            ///< mapped/ftruncated bytes
    std::size_t released_mark_ = 0;  ///< page-aligned watermark already advised
    std::uint64_t released_total_ = 0;
};

/// Contiguous dynamic array over a SpillFile arena (see file comment).
/// Only the std::vector surface the exploration needs is provided. The
/// element type must be trivially copyable *and* treat all-zero bytes as
/// its value-initialized state — that equivalence is what lets resize()
/// skip zero-fill over kernel-fresh pages.
template <typename T>
class SpillVector {
    static_assert(std::is_trivially_copyable_v<T>,
                  "SpillVector requires trivially copyable elements");

public:
    SpillVector() = default;
    ~SpillVector() { release_arena(); }
    SpillVector(SpillVector&& o) noexcept { *this = std::move(o); }
    SpillVector& operator=(SpillVector&& o) noexcept {
        if (this == &o) return *this;
        release_arena();
        file_ = std::move(o.file_);
        file_backed_ = o.file_backed_;
        base_ = o.base_;
        size_ = o.size_;
        cap_ = o.cap_;
        touched_ = o.touched_;
        o.base_ = nullptr;
        o.size_ = o.cap_ = o.touched_ = 0;
        return *this;
    }
    SpillVector(const SpillVector&) = delete;
    SpillVector& operator=(const SpillVector&) = delete;

    /// Switches storage to a spill file. Valid only while empty (the
    /// exploration decides the mode before writing anything).
    void enable_spill() {
        if (file_ != nullptr || size_ != 0) return;
        file_backed_ = true;
    }
    bool spilled() const { return file_backed_; }

    /// Replaces this vector's storage with an adopted arena
    /// (SpillFile::adopt_region) holding exactly `n_elems` elements. The
    /// vector becomes fixed-size: it must never grow past the arena's
    /// capacity afterwards (graph snapshots are immutable once loaded).
    void adopt(std::unique_ptr<SpillFile> arena, std::size_t n_elems) {
        release_arena();
        file_ = std::move(arena);
        file_backed_ = false;  // spill accounting tracks build arenas only
        base_ = static_cast<T*>(file_->base());
        size_ = n_elems;
        cap_ = file_->capacity() / sizeof(T);
        touched_ = cap_;  // arena bytes are meaningful, never kernel-fresh
    }
    bool adopted() const { return file_ != nullptr && file_->adopted(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }

    T* data() { return base_; }
    const T* data() const { return base_; }
    T& operator[](std::size_t i) { return base_[i]; }
    const T& operator[](std::size_t i) const { return base_[i]; }
    T& back() { return base_[size_ - 1]; }
    const T* begin() const { return base_; }
    const T* end() const { return base_ + size_; }

    void reserve(std::size_t n) {
        if (n > cap_) remap(n);
    }

    void push_back(const T& v) {
        if (size_ == cap_) remap(size_ + 1);
        base_[size_++] = v;
        touched_ = std::max(touched_, size_);
    }

    void resize(std::size_t n) {
        if (n > cap_) remap(n);
        // Zero only the previously written tail; pages past the
        // high-water mark are kernel-fresh zeros already.
        const std::size_t rezero = std::min(n, touched_);
        if (rezero > size_)
            std::memset(base_ + size_, 0, (rezero - size_) * sizeof(T));
        size_ = n;
        touched_ = std::max(touched_, n);
    }
    void resize(std::size_t n, const T& fill) {
        if (is_zero(fill)) {
            resize(n);
            return;
        }
        if (n > cap_) remap(n);
        if (n > size_) std::fill(base_ + size_, base_ + n, fill);
        size_ = n;
        touched_ = std::max(touched_, n);
    }
    /// Grows to n elements *without initializing* [size(), n). Only for
    /// callers that overwrite every new element before any read — the
    /// identity sweep, whose CSR slices are exactly pre-counted.
    void resize_overwrite(std::size_t n) {
        if (n > cap_) remap(n);
        size_ = n;
        touched_ = std::max(touched_, n);
    }
    void assign(std::size_t n, const T& fill) {
        size_ = 0;
        resize(n, fill);
    }

    /// RSS hint: the first n elements are sealed — advise their pages out
    /// of the process (spill mode only; no-op in RAM mode). Safe at any
    /// time; later reads transparently fault the data back.
    void release_prefix(std::size_t n) {
        if (file_ && file_backed_) file_->release_prefix(n * sizeof(T));
    }

    /// Readahead for an upcoming sequential scan over the whole array.
    void prefetch() const {
        if (file_ && file_backed_) file_->prefetch(0, size_ * sizeof(T));
    }

    /// Bytes currently stored in the spill file (0 in RAM mode).
    std::uint64_t spill_bytes() const {
        return file_backed_ ? static_cast<std::uint64_t>(size_) * sizeof(T)
                            : 0;
    }
    /// Bytes of this vector advised out of RSS so far (0 in RAM mode).
    std::uint64_t spill_released_bytes() const {
        return file_ && file_backed_ ? file_->released_bytes() : 0;
    }

private:
    static bool is_zero(const T& v) {
        T z{};
        return std::memcmp(&v, &z, sizeof(T)) == 0;
    }

    void remap(std::size_t n_elems) {
        // Doubling growth so push_back stays amortized O(1).
        n_elems = std::max(n_elems, cap_ * 2);
        bool recycled = false;
        if (file_ == nullptr) {
            if (file_backed_) {
                file_ = std::make_unique<SpillFile>(true);
            } else {
                file_ = SpillFile::acquire_ram(n_elems * sizeof(T));
                recycled = file_->capacity() != 0;
            }
        }
        base_ = static_cast<T*>(file_->grow(n_elems * sizeof(T)));
        cap_ = file_->capacity() / sizeof(T);
        // A pooled arena carries arbitrary bytes from its previous life:
        // its whole extent counts as written, so zeroing resizes re-zero
        // explicitly (warm stores — still far cheaper than faulting).
        if (recycled) touched_ = cap_;
    }

    void release_arena() {
        if (file_ != nullptr && !file_backed_)
            SpillFile::recycle(std::move(file_));
        file_.reset();
        base_ = nullptr;
        size_ = cap_ = touched_ = 0;
    }

    std::unique_ptr<SpillFile> file_;  ///< arena (lazily created)
    bool file_backed_ = false;
    T* base_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
    std::size_t touched_ = 0;  ///< high-water mark of written elements
};

}  // namespace dcft
