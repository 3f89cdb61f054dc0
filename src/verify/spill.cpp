#include "verify/spill.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "obs/telemetry.hpp"

namespace dcft {
namespace {

constexpr std::size_t kPage = 4096;
/// Release granularity: batch MADV_DONTNEED calls so per-level hints on
/// small levels do not degenerate into syscall spam.
constexpr std::size_t kReleaseChunk = std::size_t{1} << 22;  // 4 MiB

std::size_t round_up_page(std::size_t n) {
    return (n + kPage - 1) & ~(kPage - 1);
}

std::string spill_directory() {
    if (const char* d = std::getenv("DCFT_SPILL_DIR"); d != nullptr && *d)
        return d;
    if (const char* t = std::getenv("TMPDIR"); t != nullptr && *t) return t;
    return "/tmp";
}

/// Process-wide pool of RAM arenas (see SpillFile::acquire_ram). Bounded
/// so long-lived processes that once built a huge in-core graph do not
/// hold its arenas forever.
struct ArenaPool {
    std::mutex mu;
    std::vector<std::unique_ptr<SpillFile>> arenas;
    std::size_t total_bytes = 0;
};

ArenaPool& arena_pool() {
    static ArenaPool* pool = new ArenaPool;  // leaked: outlives any static
    return *pool;
}

constexpr std::size_t kPoolMaxArenas = 16;
constexpr std::size_t kPoolMaxBytes = std::size_t{256} << 20;  // 256 MiB

}  // namespace

bool spill_enabled() { return env_flag_enabled("DCFT_SPILL"); }

std::unique_ptr<SpillFile> SpillFile::acquire_ram(std::size_t bytes_hint) {
    ArenaPool& pool = arena_pool();
    std::lock_guard<std::mutex> lock(pool.mu);
    if (pool.arenas.empty()) return std::make_unique<SpillFile>(false);
    // Best fit: the smallest arena already covering the request (no new
    // faults at all); else the largest one (fewest fresh pages to fault
    // when it grows).
    auto best = pool.arenas.end();
    for (auto it = pool.arenas.begin(); it != pool.arenas.end(); ++it) {
        const std::size_t cap = (*it)->capacity();
        if (best == pool.arenas.end()) {
            best = it;
            continue;
        }
        const std::size_t bcap = (*best)->capacity();
        const bool fits = cap >= bytes_hint, bfits = bcap >= bytes_hint;
        if (fits != bfits ? fits : (fits ? cap < bcap : cap > bcap))
            best = it;
    }
    std::unique_ptr<SpillFile> f = std::move(*best);
    pool.arenas.erase(best);
    pool.total_bytes -= f->capacity();
    return f;
}

std::unique_ptr<SpillFile> SpillFile::create_named(const std::string& path) {
    auto f = std::make_unique<SpillFile>(true);
    f->fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
    if (f->fd_ < 0)
        throw std::runtime_error("SpillFile: cannot create " + path + ": " +
                                 std::strerror(errno));
    return f;
}

std::unique_ptr<SpillFile> SpillFile::adopt_region(int fd, std::size_t offset,
                                                   std::size_t bytes) {
    if ((offset & (kPage - 1)) != 0)
        throw std::runtime_error("SpillFile: adopt_region offset unaligned");
    auto f = std::make_unique<SpillFile>(false);
    f->adopted_ = true;
    if (bytes == 0) return f;  // empty section: no mapping at all
    const std::size_t cap = round_up_page(bytes);
    void* p = ::mmap(nullptr, cap, PROT_READ | PROT_WRITE, MAP_PRIVATE, fd,
                     static_cast<off_t>(offset));
    if (p == MAP_FAILED)
        throw std::runtime_error(std::string("SpillFile: adopt mmap: ") +
                                 std::strerror(errno));
    f->base_ = p;
    f->cap_ = cap;
    return f;
}

void SpillFile::recycle(std::unique_ptr<SpillFile> f) {
    if (f == nullptr || f->file_backed_ || f->adopted_ ||
        f->base_ == nullptr)
        return;
    ArenaPool& pool = arena_pool();
    std::lock_guard<std::mutex> lock(pool.mu);
    if (pool.arenas.size() >= kPoolMaxArenas ||
        pool.total_bytes + f->capacity() > kPoolMaxBytes)
        return;  // pool full: let the mapping go
    pool.total_bytes += f->capacity();
    pool.arenas.push_back(std::move(f));
}

SpillFile::~SpillFile() {
    if (base_ != nullptr) ::munmap(base_, cap_);
    if (fd_ >= 0) ::close(fd_);
}

void* SpillFile::grow(std::size_t bytes) {
    const std::size_t new_cap = round_up_page(bytes);
    if (new_cap <= cap_) return base_;
    if (adopted_)
        throw std::runtime_error(
            "SpillFile: adopted store mappings are fixed-capacity");
    if (!file_backed_) {
        // RAM mode: private anonymous arena. Fresh pages are kernel-zeroed
        // on first touch, which is what lets SpillVector::resize skip
        // explicit zero-fill; MADV_HUGEPAGE collapses the multi-MB CSR
        // arrays to a handful of faults.
        void* p = base_ == nullptr
                      ? ::mmap(nullptr, new_cap, PROT_READ | PROT_WRITE,
                               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                      : ::mremap(base_, cap_, new_cap, MREMAP_MAYMOVE);
        if (p == MAP_FAILED)
            throw std::runtime_error(std::string("SpillFile: anon mmap: ") +
                                     std::strerror(errno));
        base_ = p;
        cap_ = new_cap;
#ifdef MADV_HUGEPAGE
        (void)::madvise(base_, cap_, MADV_HUGEPAGE);
#endif
        return base_;
    }
    if (fd_ < 0) {
        // Unlinked temp file: vanishes with the last descriptor/mapping,
        // so crashed runs leave nothing behind. O_TMPFILE where available,
        // mkstemp+unlink as the portable fallback.
        const std::string dir = spill_directory();
#ifdef O_TMPFILE
        fd_ = ::open(dir.c_str(), O_TMPFILE | O_RDWR | O_EXCL, 0600);
#endif
        if (fd_ < 0) {
            std::string tmpl = dir + "/dcft-spill-XXXXXX";
            fd_ = ::mkstemp(tmpl.data());
            if (fd_ >= 0) ::unlink(tmpl.c_str());
        }
        if (fd_ < 0)
            throw std::runtime_error("SpillFile: cannot create spill file in " +
                                     dir + ": " + std::strerror(errno));
    }
    if (::ftruncate(fd_, static_cast<off_t>(new_cap)) != 0)
        throw std::runtime_error(std::string("SpillFile: ftruncate: ") +
                                 std::strerror(errno));
    void* p = base_ == nullptr
                  ? ::mmap(nullptr, new_cap, PROT_READ | PROT_WRITE,
                           MAP_SHARED, fd_, 0)
                  : ::mremap(base_, cap_, new_cap, MREMAP_MAYMOVE);
    if (p == MAP_FAILED)
        throw std::runtime_error(std::string("SpillFile: mmap/mremap: ") +
                                 std::strerror(errno));
    base_ = p;
    cap_ = new_cap;
    return base_;
}

std::size_t SpillFile::release_prefix(std::size_t bytes) {
    // Anonymous pages would be *discarded* by MADV_DONTNEED — releasing is
    // a spill-mode-only operation.
    if (base_ == nullptr || !file_backed_) return 0;
    std::size_t upto = bytes & ~(kPage - 1);
    if (upto > cap_) upto = cap_;
    if (upto < released_mark_ + kReleaseChunk) return 0;
    const std::size_t begin = released_mark_;
    // Seal: this prefix is now immutable and about to leave the resident
    // set. Both instants are functions of the byte layout only, so their
    // counts stay identical across thread counts (pinned by trace_test).
    obs::instant("verify/spill/seal", upto);
    // MAP_SHARED file pages: DONTNEED only unmaps them from this process —
    // dirty contents move to the page cache, nothing is discarded.
    if (::madvise(static_cast<char*>(base_) + begin, upto - begin,
                  MADV_DONTNEED) != 0)
        return 0;
    released_mark_ = upto;
    released_total_ += upto - begin;
    obs::instant("verify/spill/release", upto - begin);
    return upto - begin;
}

void SpillFile::prefetch(std::size_t begin, std::size_t end) const {
    if (base_ == nullptr || !file_backed_ || end <= begin) return;
    const std::size_t b = begin & ~(kPage - 1);
    std::size_t e = round_up_page(end);
    if (e > cap_) e = cap_;
    if (e > b)
        (void)::madvise(static_cast<char*>(base_) + b, e - b, MADV_WILLNEED);
}

}  // namespace dcft
