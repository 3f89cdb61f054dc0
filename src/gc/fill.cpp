#include "gc/fill.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace dcft {

namespace {

using NK = Predicate::NodeKind;
using TK = Term::Kind;
using Word = BitVec::Word;

/// States per fill block: every temporary of a fill is one block long
/// (4 KiB), so a fill's working set stays in cache and its temporaries
/// cost a few KiB per worker whatever the size of the space.
constexpr std::uint64_t kFillBlock = std::uint64_t{1} << 15;

/// Sets bits [begin, end) of bv (word-level).
void set_range(BitVec& bv, std::uint64_t begin, std::uint64_t end) {
    if (begin >= end) return;
    Word* words = bv.data();
    const std::uint64_t wb = begin >> 6;
    const std::uint64_t we = (end - 1) >> 6;
    const Word mb = ~Word{0} << (begin & 63);
    const Word me = ~Word{0} >> (63 - ((end - 1) & 63));
    if (wb == we) {
        words[wb] |= mb & me;
        return;
    }
    words[wb] |= mb;
    for (std::uint64_t w = wb + 1; w < we; ++w) words[w] = ~Word{0};
    words[we] |= me;
}

/// ORs the periodic pattern var==c into `out`, the block of states
/// [base, base + out.size_bits()) (out not cleared here; base is a
/// multiple of 64).
///
/// The pattern repeats with period stride*domain states. When the block
/// holds at most 64 periods a handful of word-level range fills suffice;
/// for short periods (small strides — the common low-order variables)
/// that would degenerate into many sub-word fills, so instead one
/// word-aligned tile of lcm(period, 64) bits (anchored at state 0) is
/// materialized and OR-replicated across the block, one word copy per
/// output word.
void or_var_eq(const CompiledSpace& cs, VarId v, Value c, BitVec& out,
               std::uint64_t base) {
    if (c < 0 || c >= cs.domain(v)) return;
    const std::uint64_t t = static_cast<std::uint64_t>(cs.stride(v));
    const std::uint64_t d = static_cast<std::uint64_t>(cs.domain(v));
    const std::uint64_t len = out.size_bits();
    const std::uint64_t end = base + len;
    const std::uint64_t period = t * d;
    const std::uint64_t first = static_cast<std::uint64_t>(c) * t;
    if (len / period <= 64) {
        // The run of period k is [k * period + first, ... + t); runs of
        // periods before base / period end at or before base.
        for (std::uint64_t k = base / period;; ++k) {
            const std::uint64_t lo = k * period + first;
            if (lo >= end) break;
            const std::uint64_t hi = std::min(lo + t, end);
            if (hi > base) set_range(out, std::max(lo, base) - base, hi - base);
        }
        return;
    }
    // Many short periods: lcm(period, 64) bits is a whole number of
    // periods *and* of words, so the word sequence of the pattern repeats
    // with that tile (shorter than the block, as period < len / 64).
    const std::uint64_t tile_words =
        period / std::gcd<std::uint64_t>(period, 64);
    const std::uint64_t tile_bits = tile_words * 64;
    BitVec tile(tile_bits);
    for (std::uint64_t lo = first; lo < tile_bits; lo += period)
        set_range(tile, lo, std::min(lo + t, tile_bits));
    Word* wout = out.data();
    const Word* wt = tile.data();
    const std::uint64_t full_words = len >> 6;
    std::uint64_t k = (base >> 6) % tile_words;
    for (std::uint64_t w = 0; w < full_words; ++w) {
        wout[w] |= wt[k];
        if (++k == tile_words) k = 0;
    }
    // Final partial word: keep the padding bits above the block clear.
    if ((len & 63) != 0)
        wout[full_words] |= wt[k] & (~Word{0} >> (64 - (len & 63)));
}

/// Folds one more operand into counting levels: on entry levels[j] holds
/// the states where exactly j of the first `seen - 1` operands hold; on
/// exit, of the first `seen` (hit = where operand `seen` holds). A state
/// whose count passes levels.size() - 1 drops out of every level.
void count_in(std::vector<BitVec>& levels, const BitVec& hit,
              std::size_t seen) {
    const std::size_t words = hit.num_words();
    const Word* h = hit.data();
    for (std::size_t j = std::min(seen, levels.size() - 1); j >= 1; --j) {
        Word* cur = levels[j].data();
        const Word* below = levels[j - 1].data();
        for (std::size_t w = 0; w < words; ++w)
            cur[w] = (cur[w] & ~h[w]) | (below[w] & h[w]);
    }
    Word* zero = levels[0].data();
    for (std::size_t w = 0; w < words; ++w) zero[w] &= ~h[w];
}

/// Largest value range of a term that the fill decomposes into per-value
/// sets; comparison atoms over wider terms are scanned per state.
constexpr Value kMaxTermValues = 64;

std::uint64_t num_values(const Term& t) {
    return static_cast<std::uint64_t>(t.hi() - t.lo() + 1);
}

/// The whole-space level sets of a term: eq[i] = {s : t(s) = lo + i}.
struct ValueSets {
    Value lo = 0;
    std::vector<BitVec> eq;

    Value hi() const { return lo + static_cast<Value>(eq.size()) - 1; }
};

/// Builds the level sets of t over the block of `n` states at `base`,
/// with word algebra only. False when t or one of its subterms ranges
/// over more than kMaxTermValues values.
bool value_sets(const CompiledSpace& cs, const Term& t, std::uint64_t base,
                std::uint64_t n, ValueSets& out) {
    if (num_values(t) > kMaxTermValues) return false;
    if (t.kind() == TK::kAdd && t.modulus() == 0) {
        // A shift: the operand's sets, relabelled.
        if (!value_sets(cs, t.operands()[0], base, n, out)) return false;
        out.lo += t.value();
        return true;
    }
    out.lo = t.lo();
    out.eq.assign(static_cast<std::size_t>(num_values(t)), BitVec(n));
    switch (t.kind()) {
        case TK::kConst:
            out.eq[0].set_all();
            return true;
        case TK::kVar:
            for (Value x = 0; x < cs.domain(t.var()); ++x)
                or_var_eq(cs, t.var(), x, out.eq[static_cast<std::size_t>(x)],
                          base);
            return true;
        case TK::kAdd: {
            ValueSets sub;
            if (!value_sets(cs, t.operands()[0], base, n, sub)) return false;
            const Value m = t.modulus();
            for (Value x = sub.lo; x <= sub.hi(); ++x) {
                const Value y = (((x + t.value()) % m) + m) % m;
                out.eq[static_cast<std::size_t>(y)] |=
                    sub.eq[static_cast<std::size_t>(x - sub.lo)];
            }
            return true;
        }
        case TK::kMin:
        case TK::kMax: {
            // Sweep x downwards keeping ge[i] = {s : t_i(s) >= x}; the
            // extremum is >= x on the intersection (min) or union (max),
            // and equals x where that holds at x but not at x + 1.
            const auto kids = t.operands();
            std::vector<ValueSets> sub(kids.size());
            Value top = t.lo();
            for (std::size_t i = 0; i < kids.size(); ++i) {
                if (!value_sets(cs, kids[i], base, n, sub[i])) return false;
                top = std::max(top, sub[i].hi());
            }
            std::vector<BitVec> ge(kids.size(), BitVec(n));
            BitVec prev(n), cur(n);
            for (Value x = top; x >= t.lo(); --x) {
                for (std::size_t i = 0; i < kids.size(); ++i)
                    if (x >= sub[i].lo && x <= sub[i].hi())
                        ge[i] |= sub[i].eq[static_cast<std::size_t>(
                            x - sub[i].lo)];
                cur = ge[0];
                for (std::size_t i = 1; i < kids.size(); ++i) {
                    if (t.kind() == TK::kMin)
                        cur &= ge[i];
                    else
                        cur |= ge[i];
                }
                if (x <= t.hi()) {
                    BitVec& eq = out.eq[static_cast<std::size_t>(x - t.lo())];
                    eq = cur;
                    eq.subtract(prev);
                }
                std::swap(prev, cur);
            }
            return true;
        }
        case TK::kCount: {
            out.eq[0].set_all();
            BitVec hit(n);
            std::size_t seen = 0;
            for (const VarId v : t.vars()) {
                ++seen;
                if (t.value() < 0 || t.value() >= cs.domain(v)) continue;
                hit.clear_all();
                or_var_eq(cs, v, t.value(), hit, base);
                count_in(out.eq, hit, seen);
            }
            return true;
        }
    }
    return false;
}

/// Bitsets value_sets(t) holds at its peak, its result levels included
/// (0 when t is too wide: value_sets gives up before allocating).
std::uint64_t term_peak(const Term& t) {
    if (num_values(t) > kMaxTermValues) return 0;
    const std::uint64_t levels = num_values(t);
    switch (t.kind()) {
        case TK::kConst:
        case TK::kVar:
            return levels;
        case TK::kAdd:
            return t.modulus() == 0 ? term_peak(t.operands()[0])
                                    : levels + term_peak(t.operands()[0]);
        case TK::kMin:
        case TK::kMax: {
            std::uint64_t held = levels;
            std::uint64_t peak = levels;
            for (const Term& kid : t.operands()) {
                peak = std::max(peak, held + term_peak(kid));
                held += num_values(kid);
            }
            return std::max(peak, held + t.operands().size() + 2);
        }
        case TK::kCount:
            return levels + 1;
    }
    return levels;
}

/// The highest count a counting atom `#{...} op k` over `operands`
/// operands needs a level for: counts above it never satisfy == / < / <=.
/// -1 when no count does.
Value count_top(NK op, Value k, std::size_t operands) {
    const Value top = op == NK::kTermLt ? k - 1 : k;
    return std::clamp<Value>(top, -1, static_cast<Value>(operands));
}

/// Fills predicates over one block of states [base, base + n): every
/// bit vector it touches, the output included, has n bits, bit i
/// standing for state base + i.
struct Filler {
    const CompiledSpace& cs;
    std::uint64_t base;
    std::uint64_t n;
    std::uint64_t kcall_ops = 0;
    std::uint64_t states_scanned = 0;

    /// Per-state scan of the subtree p over the block (out not cleared).
    void or_scan(const Predicate& p, BitVec& out) {
        ++kcall_ops;
        states_scanned += n;
        const StateSpace& space = cs.space();
        for (std::uint64_t i = 0; i < n; ++i)
            if (p.eval(space, base + i)) out.set(i);
    }

    /// Comparison atom p (out overwritten): per-value set algebra over
    /// both terms' level sets, a direct union of digit patterns for a
    /// variable against a constant, a per-state scan otherwise.
    void fill_compare(const Predicate& p, BitVec& out) {
        const NK op = p.node_kind();
        const Term& a = p.node_terms()[0];
        const Term& b = p.node_terms()[1];
        out.clear_all();
        if ((a.kind() == TK::kVar && b.kind() == TK::kConst) ||
            (a.kind() == TK::kConst && b.kind() == TK::kVar)) {
            const bool var_left = a.kind() == TK::kVar;
            const VarId v = var_left ? a.var() : b.var();
            const Value c = var_left ? b.value() : a.value();
            for (Value x = 0; x < cs.domain(v); ++x)
                if (var_left ? Predicate::compares(op, x, c)
                             : Predicate::compares(op, c, x))
                    or_var_eq(cs, v, x, out, base);
            return;
        }
        ValueSets sa, sb;
        if (!value_sets(cs, a, base, n, sa) || !value_sets(cs, b, base, n, sb)) {
            or_scan(p, out);
            return;
        }
        BitVec tmp(n);
        if (op == NK::kTermEq || op == NK::kTermNe) {
            for (Value x = std::max(sa.lo, sb.lo);
                 x <= std::min(sa.hi(), sb.hi()); ++x) {
                tmp = sa.eq[static_cast<std::size_t>(x - sa.lo)];
                tmp &= sb.eq[static_cast<std::size_t>(x - sb.lo)];
                out |= tmp;
            }
            if (op == NK::kTermNe) out.complement();
            return;
        }
        // a < y (or a <= y) on a growing prefix union of a's level sets,
        // intersected with b = y for each y.
        BitVec below(n);
        Value next = sa.lo;  // a's next level not yet in `below`
        for (Value y = sb.lo; y <= sb.hi(); ++y) {
            const Value bound = op == NK::kTermLt ? y - 1 : y;
            for (; next <= std::min(bound, sa.hi()); ++next)
                below |= sa.eq[static_cast<std::size_t>(next - sa.lo)];
            tmp = sb.eq[static_cast<std::size_t>(y - sb.lo)];
            tmp &= below;
            out |= tmp;
        }
    }

    /// Counting atom `#{i : P_i} op k` (out overwritten): the level
    /// recurrence over the operands' fills, keeping the levels 0..top.
    void fill_count(const Predicate& p, BitVec& out) {
        const NK op = p.node_count_op();
        const Value k = p.node_value();
        const auto kids = p.node_operands();
        const Value top = count_top(op, k, kids.size());
        if (top < 0) {
            // No count satisfies == / < / <= k; every count is != k.
            if (op == NK::kTermNe)
                out.set_all();
            else
                out.clear_all();
            return;
        }
        std::vector<BitVec> levels(static_cast<std::size_t>(top) + 1,
                                   BitVec(n));
        levels[0].set_all();
        for (std::size_t i = 0; i < kids.size(); ++i) {
            fill(kids[i], out);
            count_in(levels, out, i + 1);
        }
        if (op == NK::kTermEq || op == NK::kTermNe) {
            if (k <= static_cast<Value>(kids.size()))
                out = std::move(levels[static_cast<std::size_t>(k)]);
            else
                out.clear_all();
            if (op == NK::kTermNe) out.complement();
            return;
        }
        out = std::move(levels[0]);
        for (std::size_t j = 1; j < levels.size(); ++j) out |= levels[j];
    }

    /// Fills p into out (overwritten).
    void fill(const Predicate& p, BitVec& out) {
        switch (p.node_kind()) {
            case NK::kTrue:
                out.set_all();
                return;
            case NK::kFalse:
                out.clear_all();
                return;
            case NK::kBacked: {
                const auto& b = p.backing_bits();
                if (b != nullptr && b->size_bits() == cs.num_states()) {
                    const Word* from = b->data() + (base >> 6);
                    std::copy(from, from + out.num_words(), out.data());
                    return;
                }
                out.clear_all();
                or_scan(p, out);
                return;
            }
            case NK::kVarEqConst:
                out.clear_all();
                or_var_eq(cs, p.node_var(), p.node_value(), out, base);
                return;
            case NK::kVarNeConst:
                out.clear_all();
                or_var_eq(cs, p.node_var(), p.node_value(), out, base);
                out.complement();
                return;
            case NK::kVarEqVar:
            case NK::kVarNeVar: {
                out.clear_all();
                BitVec ta(n), tb(n);
                const Value dmin =
                    std::min(cs.domain(p.node_var()), cs.domain(p.node_var2()));
                for (Value c = 0; c < dmin; ++c) {
                    ta.clear_all();
                    or_var_eq(cs, p.node_var(), c, ta, base);
                    tb.clear_all();
                    or_var_eq(cs, p.node_var2(), c, tb, base);
                    ta &= tb;
                    out |= ta;
                }
                if (p.node_kind() == NK::kVarNeVar) out.complement();
                return;
            }
            case NK::kTermEq:
            case NK::kTermNe:
            case NK::kTermLt:
            case NK::kTermLe:
                fill_compare(p, out);
                return;
            case NK::kCount:
                fill_count(p, out);
                return;
            case NK::kAnd:
            case NK::kOr: {
                const auto kids = p.node_operands();
                DCFT_ASSERT(kids.size() >= 2, "fill_guard_bits: malformed node");
                fill(kids[0], out);
                BitVec tmp(n);
                for (std::size_t i = 1; i < kids.size(); ++i) {
                    fill(kids[i], tmp);
                    if (p.node_kind() == NK::kAnd)
                        out &= tmp;
                    else
                        out |= tmp;
                }
                return;
            }
            case NK::kNot: {
                const auto kids = p.node_operands();
                DCFT_ASSERT(kids.size() == 1, "fill_guard_bits: malformed not");
                fill(kids[0], out);
                out.complement();
                return;
            }
            case NK::kOpaque:
            default:
                out.clear_all();
                or_scan(p, out);
                return;
        }
    }
};

}  // namespace

FillStats fill_guard_bits(const CompiledSpace& cs, const Predicate& p,
                          BitVec& out, unsigned n_threads) {
    const std::uint64_t n = cs.num_states();
    DCFT_EXPECTS(out.size_bits() == n,
                 "fill_guard_bits: bitset/universe size mismatch");
    const unsigned threads = resolve_verifier_threads(n_threads);
    std::vector<std::uint64_t> scanned(
        parallel_chunk_count(n, threads, kFillBlock), 0);
    std::uint64_t kcall_ops = 0;
    // Chunks and blocks are multiples of kFillBlock states long, so each
    // block's words land in out without sharing a word with another.
    parallel_chunks(
        n, threads, kFillBlock,
        [&](unsigned c, std::uint64_t begin, std::uint64_t end) {
            for (std::uint64_t base = begin; base < end; base += kFillBlock) {
                Filler filler{cs, base, std::min(kFillBlock, end - base)};
                BitVec block(filler.n);
                filler.fill(p, block);
                std::copy(block.data(), block.data() + block.num_words(),
                          out.data() + (base >> 6));
                scanned[c] += filler.states_scanned;
                // Which subtrees are scanned depends on p alone.
                if (base == 0) kcall_ops = filler.kcall_ops;
            }
        });
    FillStats stats;
    stats.kcall_ops = kcall_ops;
    for (const std::uint64_t s : scanned) stats.states_scanned += s;
    stats.root_scanned = p.node_kind() == NK::kOpaque;
    return stats;
}

std::uint64_t fill_temp_bytes(std::uint64_t n_states, const Predicate& p,
                              unsigned n_threads) {
    const std::uint64_t block_bytes =
        (std::min(kFillBlock, n_states) + BitVec::kWordBits - 1) /
        BitVec::kWordBits * sizeof(Word);
    return parallel_chunk_count(n_states, resolve_verifier_threads(n_threads),
                                kFillBlock) *
           fill_peak_bitsets(p) * block_bytes;
}

std::uint64_t fill_peak_bitsets(const Predicate& p) {
    switch (p.node_kind()) {
        case NK::kVarEqVar:
        case NK::kVarNeVar:
            return 3;
        case NK::kTermEq:
        case NK::kTermNe:
        case NK::kTermLt:
        case NK::kTermLe: {
            const Term& a = p.node_terms()[0];
            const Term& b = p.node_terms()[1];
            if ((a.kind() == TK::kVar && b.kind() == TK::kConst) ||
                (a.kind() == TK::kConst && b.kind() == TK::kVar))
                return 1;
            // value_sets(a), then value_sets(b) beside a's levels, then
            // two temporaries beside both; a too-wide term stops the
            // decomposition there and the atom is scanned.
            const std::uint64_t pa = term_peak(a);
            const std::uint64_t pb = term_peak(b);
            if (pa == 0) return 1;
            if (pb == 0) return 1 + pa;
            const std::uint64_t la = num_values(a);
            return 1 + std::max({pa, la + pb, la + num_values(b) + 2});
        }
        case NK::kCount: {
            const auto kids = p.node_operands();
            const Value top =
                count_top(p.node_count_op(), p.node_value(), kids.size());
            if (top < 0) return 1;
            std::uint64_t kid = 0;
            for (const Predicate& q : kids)
                kid = std::max(kid, fill_peak_bitsets(q));
            return static_cast<std::uint64_t>(top) + 1 + kid;
        }
        case NK::kAnd:
        case NK::kOr: {
            const auto kids = p.node_operands();
            std::uint64_t rest = 0;
            for (std::size_t i = 1; i < kids.size(); ++i)
                rest = std::max(rest, fill_peak_bitsets(kids[i]));
            return std::max(fill_peak_bitsets(kids[0]), 1 + rest);
        }
        case NK::kNot:
            return fill_peak_bitsets(p.node_operands()[0]);
        default:
            return 1;
    }
}

}  // namespace dcft
