// calibrate — a fixed reference workload that measures how fast the host
// runs verifier-like work right now. gridbench/run.py runs it in a fresh
// process next to every pass and divides pass times by its time, so a
// host that slows down for everyone (other tenants on a shared machine)
// moves the reference and the pass alike and cancels out.
//
//   calibrate
//
// It uses nothing from src/, so no change to the verifier moves it. The
// work mirrors a cold grid on one thread: breadth-first exploration of a
// fixed pseudo-random graph with hashed state interning, an edge array
// built while exploring, a reverse (CSR) pass over the edges, a backward
// sweep and a 128 MiB table, all in memory freshly faulted in by this
// process. It prints a checksum of the results on stdout, which the
// driver checks.
#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <vector>

namespace {

constexpr std::uint32_t kNodes = 1u << 17;
constexpr std::uint32_t kDegree = 8;
constexpr std::size_t kTableWords = std::size_t{1} << 24;  // 128 MiB

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace

int main() {
    // Forward exploration: states are 64-bit keys interned to dense ids.
    std::unordered_map<std::uint64_t, std::uint32_t> ids;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint32_t> edges;  // kDegree successors per id
    std::vector<std::uint32_t> level;
    auto intern = [&](std::uint64_t key, std::uint32_t depth) {
        const auto [it, fresh] =
            ids.emplace(key, static_cast<std::uint32_t>(keys.size()));
        if (fresh) {
            keys.push_back(key);
            level.push_back(depth);
        }
        return it->second;
    };
    intern(mix(0) % kNodes, 0);
    for (std::size_t head = 0; head < keys.size(); ++head) {
        for (std::uint32_t k = 0; k < kDegree; ++k) {
            const std::uint64_t succ = mix(keys[head] * kDegree + k) % kNodes;
            edges.push_back(intern(succ, level[head] + 1));
        }
    }

    // Reverse CSR over the edges, then a backward sweep from the deepest
    // level: each node takes the max over its predecessors of their value.
    const std::size_t n = keys.size();
    std::vector<std::uint32_t> start(n + 1, 0);
    for (const std::uint32_t to : edges) ++start[to + 1];
    for (std::size_t i = 0; i < n; ++i) start[i + 1] += start[i];
    std::vector<std::uint32_t> preds(edges.size());
    std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
    for (std::size_t from = 0; from < n; ++from)
        for (std::uint32_t k = 0; k < kDegree; ++k)
            preds[fill[edges[from * kDegree + k]]++] =
                static_cast<std::uint32_t>(from);
    std::vector<std::uint64_t> value(n);
    for (std::size_t i = 0; i < n; ++i) value[i] = keys[i] & 0xffff;
    for (int round = 0; round < 4; ++round)
        for (std::size_t v = n; v-- > 0;)
            for (std::uint32_t e = start[v]; e < start[v + 1]; ++e)
                if (value[preds[e]] > value[v]) value[v] = value[preds[e]];

    // Fresh memory, as a grid's edge arrays are: every page is faulted in
    // once, written and read back.
    std::vector<std::uint64_t> table(kTableWords);
    for (std::size_t i = 0; i < kTableWords; ++i) table[i] = value[i % n] + i;

    std::uint64_t sum = n;
    for (std::size_t i = 0; i < n; ++i) sum = mix(sum ^ value[i] ^ level[i]);
    for (std::size_t i = 0; i < kTableWords; i += 512) sum = mix(sum ^ table[i]);
    std::printf("%llu\n", static_cast<unsigned long long>(sum));
    return 0;
}
