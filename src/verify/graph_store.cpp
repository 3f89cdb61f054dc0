#include "verify/graph_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <vector>

#include "common/env.hpp"
#include "obs/telemetry.hpp"
#include "verify/spill.hpp"

namespace dcft {
namespace {

constexpr std::size_t kPage = 4096;
constexpr char kMagic[8] = {'D', 'C', 'F', 'T', 'G', 'R', 'F', '1'};
// Version 2 dropped the fault CSR sections — fault edges are regenerated
// from the compiled fault kernel, never stored — and the fault-action
// names, which come from the caller's FaultClass (the key pins them).
// Version 3 stores identity graphs from any seed (a full fault span, not
// only a whole-space seed) with empty states and parent sections: node id
// == state index, and parents come from the canonical replay.
constexpr std::uint32_t kVersion = 3;
constexpr std::uint32_t kEndianMark = 0x01020304u;
constexpr std::uint64_t kFlagIdentityNodes = 1;
constexpr std::uint64_t kDefaultBudget = std::uint64_t{32} << 30;  // 32 GiB

std::size_t round_up_page(std::size_t n) {
    return (n + kPage - 1) & ~(kPage - 1);
}

/// Section indices in Header::sections, in file order.
enum Section : unsigned {
    kSecStates = 0,
    kSecParent,
    kSecProgOffsets,
    kSecProgEdges,
    kSecInitial,
    kNumSections,
};

struct SectionEntry {
    std::uint64_t offset = 0;  ///< from file start; page-aligned
    std::uint64_t bytes = 0;   ///< meaningful bytes (file pads to a page)
};

/// Fixed on-disk header, one page. All integers little-endian host order;
/// kEndianMark rejects a byte-swapped reader before anything else is
/// interpreted.
struct Header {
    char magic[8];
    std::uint32_t version;
    std::uint32_t endian;
    std::uint64_t key_lo;
    std::uint64_t key_hi;
    std::uint64_t num_states;
    std::uint64_t num_nodes;
    std::uint64_t num_prog_edges;
    std::uint64_t num_fault_edges;  ///< enumerated, not stored
    std::uint64_t num_initial;
    std::uint64_t num_fault_actions;
    std::uint64_t flags;
    std::uint64_t payload_checksum;
    SectionEntry sections[kNumSections];
    std::uint64_t header_checksum;  ///< over every preceding header byte
};
static_assert(sizeof(Header) <= kPage, "dcft.graph header must fit a page");
static_assert(std::is_trivially_copyable_v<Header>);

std::uint64_t mix64(std::uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t rotl64(std::uint64_t v, unsigned r) {
    return (v << r) | (v >> (64 - r));
}

/// Word-level payload digest: four independent rot-mul lanes (ILP keeps
/// the scan at memory speed) folded with the splitmix finalizer. Byte
/// count must be a multiple of 8 (sections pad to page multiples).
std::uint64_t checksum_words(const unsigned char* p, std::size_t bytes) {
    constexpr std::uint64_t kPrime = 0x9E3779B97F4A7C15ULL;
    std::uint64_t lane[4] = {0x243F6A8885A308D3ULL, 0x13198A2E03707344ULL,
                             0xA4093822299F31D0ULL, 0x082EFA98EC4E6C89ULL};
    const std::size_t n_words = bytes / 8;
    std::uint64_t w;
    for (std::size_t i = 0; i < n_words; ++i) {
        std::memcpy(&w, p + i * 8, 8);
        lane[i & 3] = rotl64(lane[i & 3] ^ w, 27) * kPrime;
    }
    std::uint64_t h = bytes;
    for (std::uint64_t l : lane) h = rotl64(h ^ mix64(l), 31) * kPrime;
    return mix64(h);
}

std::uint64_t header_digest(const Header& h) {
    return checksum_words(reinterpret_cast<const unsigned char*>(&h),
                          offsetof(Header, header_checksum));
}

// ---------------------------------------------------------------------------
// Stable key derivation.

/// Two-lane FNV-1a accumulator producing the 128-bit GraphKey.
struct KeyHasher {
    std::uint64_t a = 14695981039346656037ULL;
    std::uint64_t b = 0x6C62272E07BB0142ULL;

    void add(std::uint64_t w) {
        a = (a ^ w) * 1099511628211ULL;
        b = (b ^ mix64(w)) * 0x00000100000001B3ULL;
    }
    void add_str(std::string_view s) {
        add(s.size());
        for (char c : s) add(static_cast<unsigned char>(c));
    }
};

/// Structural + sampled-semantic fingerprint of one action. The
/// structured EffectForm fields pin compilable actions exactly; the
/// successor sample (64 deterministic pseudo-random states through the
/// interpreted path) distinguishes kGeneric lambdas whose behavior
/// changed even when names did not.
void hash_action(KeyHasher& h, const StateSpace& space, const Action& act) {
    h.add_str(act.name());
    h.add_str(act.guard().name());
    const Action::EffectForm& f = act.effect_form();
    h.add(static_cast<std::uint64_t>(f.kind));
    h.add(f.var);
    h.add(f.var2);
    h.add(static_cast<std::uint64_t>(f.value));
    h.add(static_cast<std::uint64_t>(f.modulus));
    h.add(f.choices.size());
    for (Value c : f.choices) h.add(static_cast<std::uint64_t>(c));
    h.add(f.vars.size());
    for (VarId v : f.vars) h.add(v);

    constexpr unsigned kSamples = 64;
    const StateIndex n = space.num_states();
    std::vector<StateIndex> succ;
    for (unsigned k = 0; k < kSamples; ++k) {
        const StateIndex s = mix64(0xA11C0DE5ULL + k) % n;
        succ.clear();
        act.successors(space, s, succ);
        h.add(s);
        h.add(succ.size());
        for (StateIndex t : succ) h.add(t);
    }
}

/// Whether the fault rows regenerated at a spread of stored nodes lead only
/// to stored states. The snapshot stores no fault edges: the caller's
/// fault class regenerates them, and a complete p [] F graph is closed
/// under its faults. The key samples opaque fault lambdas at 64 states of
/// the space; this samples them at 64 states of the graph, so a lambda that
/// changed under an unchanged key is caught here as well before any
/// consumer maps a target to a node. A change that both samples miss is
/// not detected (see DESIGN.md §10).
bool fault_rows_stay_inside(const TransitionSystem& ts) {
    constexpr std::size_t kSamples = 64;
    const std::size_t n = ts.num_nodes();
    if (ts.num_fault_actions() == 0 || n == 0) return true;
    const std::size_t samples = std::min(n, kSamples);
    std::vector<TransitionSystem::FaultStep> row;
    for (std::size_t k = 0; k < samples; ++k) {
        ts.fault_steps(static_cast<NodeId>(k * n / samples), row);
        for (const auto& step : row)
            if (!ts.has_state(step.second)) return false;
    }
    return true;
}

}  // namespace

std::string GraphKey::hex() const {
    static const char* digits = "0123456789abcdef";
    std::string out(32, '0');
    for (int i = 0; i < 16; ++i)
        out[15 - i] = digits[(hi >> (4 * i)) & 0xF];
    for (int i = 0; i < 16; ++i)
        out[31 - i] = digits[(lo >> (4 * i)) & 0xF];
    return out;
}

GraphKey graph_key(const Program& program, const FaultClass* faults,
                   const BitVec& init_bits) {
    const obs::Span span("verify/graph_store/key");
    KeyHasher h;
    const StateSpace& space = program.space();

    // Space structure: names + domains + cardinality.
    h.add(space.num_states());
    h.add(space.num_vars());
    for (VarId v = 0; v < space.num_vars(); ++v) {
        const Variable& var = space.variable(v);
        h.add_str(var.name);
        h.add(static_cast<std::uint64_t>(var.domain_size));
    }

    h.add_str(program.name());
    h.add(program.num_actions());
    for (const Action& a : program.actions()) hash_action(h, space, a);

    h.add(faults != nullptr ? 1 : 0);
    if (faults != nullptr) {
        h.add_str(faults->name());
        h.add(faults->actions().size());
        for (const Action& a : faults->actions()) hash_action(h, space, a);
    }

    // Initial set: word hash + popcount (materialized bits are exact).
    h.add(init_bits.size_bits());
    std::uint64_t pop = 0;
    for (std::size_t w = 0; w < init_bits.num_words(); ++w) {
        const std::uint64_t word = init_bits.word(w);
        h.add(word);
        pop += static_cast<std::uint64_t>(__builtin_popcountll(word));
    }
    h.add(pop);
    return GraphKey{h.a, h.b};
}

GraphStore* GraphStore::global() {
    static std::mutex mu;
    static std::unique_ptr<GraphStore> store;
    static std::string cur_dir;
    const char* dir = std::getenv("DCFT_GRAPH_STORE");
    const std::lock_guard<std::mutex> lock(mu);
    if (dir == nullptr || *dir == '\0') {
        store.reset();
        cur_dir.clear();
        return nullptr;
    }
    if (cur_dir != dir) {
        const std::uint64_t budget =
            env_positive_u64("DCFT_GRAPH_STORE_BYTES").value_or(
                kDefaultBudget);
        store = std::make_unique<GraphStore>(dir, budget);
        cur_dir = dir;
    }
    return store.get();
}

GraphStore::GraphStore(std::string dir, std::uint64_t byte_budget)
    : dir_(std::move(dir)), byte_budget_(byte_budget) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);  // save() reports failures
}

std::string GraphStore::path_of(const GraphKey& key) const {
    return dir_ + "/" + key.hex() + ".dcftg";
}

bool GraphStore::contains(const GraphKey& key) const {
    return ::access(path_of(key).c_str(), F_OK) == 0;
}

std::shared_ptr<TransitionSystem> GraphStore::load(const GraphKey& key,
                                                   const Program& program,
                                                   const FaultClass* faults,
                                                   std::string* error,
                                                   StoreLoadError* kind) {
    if (error != nullptr) error->clear();
    const std::string path = path_of(key);
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        obs::count("verify/graph_store/misses");
        if (kind != nullptr) *kind = StoreLoadError::kMiss;
        return nullptr;
    }
    const obs::Span span("verify/graph_store/load");

    if (kind != nullptr) *kind = StoreLoadError::kInvalid;
    auto reject = [&](std::string why) -> std::shared_ptr<TransitionSystem> {
        ::close(fd);
        obs::count("verify/graph_store/load_errors");
        obs::count("verify/graph_store/misses");
        if (error != nullptr) *error = path + ": " + std::move(why);
        return nullptr;
    };

    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0)
        return reject("cannot stat");
    const std::size_t file_size = static_cast<std::size_t>(st.st_size);
    if (file_size < kPage) return reject("truncated header");

    Header hdr{};
    if (::pread(fd, &hdr, sizeof(hdr), 0) !=
        static_cast<ssize_t>(sizeof(hdr)))
        return reject("short header read");
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0)
        return reject("bad magic (not a dcft.graph file)");
    if (hdr.endian != kEndianMark)
        return reject("endianness mismatch");
    if (hdr.version != kVersion) {
        if (kind != nullptr) *kind = StoreLoadError::kVersion;
        return reject("unsupported dcft.graph version " +
                      std::to_string(hdr.version));
    }
    if (hdr.header_checksum != header_digest(hdr))
        return reject("header checksum mismatch");
    if (hdr.key_lo != key.lo || hdr.key_hi != key.hi)
        return reject("key mismatch");
    if (hdr.num_states != program.space().num_states())
        return reject("state-space cardinality mismatch");
    const std::size_t want_faults =
        faults != nullptr ? faults->actions().size() : 0;
    if (hdr.num_fault_actions != want_faults)
        return reject("fault-action count mismatch");
    if (hdr.num_nodes > hdr.num_states ||
        hdr.num_nodes >= TransitionSystem::kNoNode)
        return reject("implausible node count");
    const bool identity = (hdr.flags & kFlagIdentityNodes) != 0;
    if (identity && hdr.num_nodes != hdr.num_states)
        return reject("identity flag with partial node set");
    // Identity graphs store neither node states nor BFS parents.
    const std::uint64_t stored_nodes = identity ? 0 : hdr.num_nodes;

    // Section table: exact byte counts, page-aligned offsets, all inside
    // the file, in order.
    const std::uint64_t expect_bytes[kNumSections] = {
        stored_nodes * sizeof(StateIndex),
        stored_nodes * sizeof(NodeId),
        (hdr.num_nodes + 1) * sizeof(std::uint64_t),
        hdr.num_prog_edges * sizeof(TransitionSystem::Edge),
        hdr.num_initial * sizeof(NodeId),
    };
    std::uint64_t cursor = kPage;
    for (unsigned s = 0; s < kNumSections; ++s) {
        const SectionEntry& sec = hdr.sections[s];
        if (sec.bytes != expect_bytes[s])
            return reject("section size mismatch");
        if (sec.offset != cursor)
            return reject("section offset mismatch");
        cursor = round_up_page(sec.offset + sec.bytes);
    }
    if (cursor != file_size)
        return reject("truncated file (expected " + std::to_string(cursor) +
                      " bytes, have " + std::to_string(file_size) + ")");

    // One read-only mapping for the integrity scan and the copied
    // sections; the adopted arrays get their own MAP_PRIVATE mappings.
    void* whole = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (whole == MAP_FAILED) return reject("mmap failed");
    const unsigned char* bytes = static_cast<const unsigned char*>(whole);
    auto reject_mapped = [&](std::string why) {
        ::munmap(whole, file_size);
        return reject(std::move(why));
    };

    if (hdr.payload_checksum !=
        checksum_words(bytes + kPage, file_size - kPage))
        return reject_mapped("payload checksum mismatch");

    TransitionSystem::AdoptedArrays arrays;
    arrays.identity_nodes = identity;
    arrays.num_fault_edges = hdr.num_fault_edges;
    {
        const SectionEntry& sec = hdr.sections[kSecInitial];
        arrays.initial.resize(hdr.num_initial);
        if (sec.bytes != 0)
            std::memcpy(arrays.initial.data(), bytes + sec.offset, sec.bytes);
    }
    ::munmap(whole, file_size);

    auto adopt_vec = [&](auto& vec, unsigned s, std::size_t n_elems) {
        const SectionEntry& sec = hdr.sections[s];
        vec.adopt(SpillFile::adopt_region(fd, sec.offset, sec.bytes),
                  n_elems);
    };
    try {
        adopt_vec(arrays.states, kSecStates, stored_nodes);
        adopt_vec(arrays.parent, kSecParent, stored_nodes);
        adopt_vec(arrays.prog_offsets, kSecProgOffsets, hdr.num_nodes + 1);
        adopt_vec(arrays.prog_edges, kSecProgEdges, hdr.num_prog_edges);
    } catch (const std::exception& e) {
        return reject(std::string("adoption failed: ") + e.what());
    }
    // CSR self-consistency: the offset array must close over the edge
    // count (cheap, and catches any corruption a skipped payload scan
    // would have).
    if (arrays.prog_offsets[hdr.num_nodes] != hdr.num_prog_edges)
        return reject("CSR offsets do not close over edge counts");
    for (NodeId n : arrays.initial)
        if (n >= hdr.num_nodes) return reject("initial node out of range");
    auto ts = TransitionSystem::adopt(program, faults, std::move(arrays));
    if (!fault_rows_stay_inside(*ts))
        return reject("regenerated fault rows leave the stored node set");

    ::close(fd);  // mappings keep the file referenced
    if (kind != nullptr) *kind = StoreLoadError::kNone;
    // LRU bump: both timestamps to now, so eviction order tracks use.
    (void)::utimensat(AT_FDCWD, path.c_str(), nullptr, 0);

    obs::count("verify/graph_store/hits");
    obs::count("verify/graph_store/bytes_loaded", file_size);
    obs::instant("verify/graph_store/hit", hdr.num_nodes);
    return ts;
}

bool GraphStore::save(const GraphKey& key, const TransitionSystem& ts,
                      std::string* error) {
    if (error != nullptr) error->clear();
    const obs::Span span("verify/graph_store/save");

    Header hdr{};
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kVersion;
    hdr.endian = kEndianMark;
    hdr.key_lo = key.lo;
    hdr.key_hi = key.hi;
    hdr.num_states = ts.space().num_states();
    hdr.num_nodes = ts.num_nodes();
    hdr.num_prog_edges = ts.num_program_edges();
    hdr.num_fault_edges = ts.num_fault_edges();
    hdr.num_initial = ts.initial_nodes().size();
    hdr.num_fault_actions = ts.num_fault_actions();
    hdr.flags = ts.identity_interner() ? kFlagIdentityNodes : 0;

    struct Blob {
        const void* data;
        std::uint64_t bytes;
    };
    const Blob blobs[kNumSections] = {
        {ts.raw_states().data(), ts.raw_states().size_bytes()},
        {ts.raw_parent().data(), ts.raw_parent().size_bytes()},
        {ts.raw_prog_offsets().data(), ts.raw_prog_offsets().size_bytes()},
        {ts.raw_prog_edges().data(), ts.raw_prog_edges().size_bytes()},
        {ts.initial_nodes().data(),
         ts.initial_nodes().size() * sizeof(NodeId)},
    };
    std::uint64_t cursor = kPage;
    for (unsigned s = 0; s < kNumSections; ++s) {
        hdr.sections[s].offset = cursor;
        hdr.sections[s].bytes = blobs[s].bytes;
        cursor = round_up_page(cursor + blobs[s].bytes);
    }
    const std::size_t total = cursor;

    const std::string path = path_of(key);
    const std::string tmp =
        dir_ + "/.tmp-" + key.hex() + "-" + std::to_string(::getpid());
    try {
        auto file = SpillFile::create_named(tmp);
        unsigned char* base = static_cast<unsigned char*>(file->grow(total));
        // grow() page-rounds; fresh file pages are already zero, so the
        // inter-section padding needs no explicit fill.
        for (unsigned s = 0; s < kNumSections; ++s)
            if (blobs[s].bytes != 0)
                std::memcpy(base + hdr.sections[s].offset, blobs[s].data,
                            blobs[s].bytes);
        hdr.payload_checksum = checksum_words(base + kPage, total - kPage);
        hdr.header_checksum = header_digest(hdr);
        std::memcpy(base, &hdr, sizeof(hdr));
    } catch (const std::exception& e) {
        ::unlink(tmp.c_str());
        obs::count("verify/graph_store/save_errors");
        if (error != nullptr) *error = e.what();
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        obs::count("verify/graph_store/save_errors");
        if (error != nullptr)
            *error = "rename to " + path + ": " + std::strerror(errno);
        return false;
    }
    obs::count("verify/graph_store/saves");
    obs::count("verify/graph_store/bytes_saved", total);
    evict(path);
    return true;
}

void GraphStore::evict(const std::string& keep_path) {
    if (byte_budget_ == 0) return;
    struct Entry {
        std::filesystem::path path;
        std::uint64_t bytes;
        std::filesystem::file_time_type mtime;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto& de : std::filesystem::directory_iterator(dir_, ec)) {
        if (de.path().extension() != ".dcftg") continue;
        std::error_code fec;
        const std::uint64_t bytes = de.file_size(fec);
        if (fec) continue;
        entries.push_back({de.path(), bytes, de.last_write_time(fec)});
        total += bytes;
    }
    if (total <= byte_budget_) return;
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
    for (const Entry& e : entries) {
        if (total <= byte_budget_) break;
        if (e.path == keep_path) continue;  // never evict the fresh entry
        std::error_code rec;
        if (std::filesystem::remove(e.path, rec) && !rec) {
            total -= e.bytes;
            obs::count("verify/graph_store/evictions");
            obs::count("verify/graph_store/bytes_evicted", e.bytes);
        }
    }
}

}  // namespace dcft
