// Divmod-free mixed-radix state arithmetic.
//
// StateSpace::get/set decode a packed StateIndex with one integer divide
// and one modulo per call; on the hot exploration paths (transition-system
// build, ranking fixpoints, simulation) those divides dominate. A
// CompiledSpace precomputes, per variable, the stride plus Lemire–Kaser
// magic multipliers for both the stride and the domain size, so get/set/
// unpack become multiply/shift (plus a predictable branch for the d==1 /
// power-of-two / top-variable special cases). set() is a stride-delta add
// on top of one decode; set_digit() — the assign-const fast path when the
// current digit is already known — is a single stride-delta add.
//
// The fast path requires every operand of the Lemire scheme to fit in 32
// bits, i.e. num_states() <= 2^32. Larger spaces transparently fall back
// to plain divmod (still inline, still branch-free of std::function).
// Semantics are pinned to StateSpace by the differential tests: for every
// valid (s, v), CompiledSpace agrees bit-for-bit with StateSpace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "gc/state_space.hpp"

namespace dcft {

/// Precomputed divmod-free view of a frozen StateSpace.
///
/// Holds a pointer to the space; the space must outlive the CompiledSpace
/// (the usual ownership pattern: programs and transition systems hold a
/// shared_ptr<const StateSpace>, and compiled artifacts live inside them).
class CompiledSpace {
public:
    explicit CompiledSpace(const StateSpace& space);

    const StateSpace& space() const { return *space_; }
    StateIndex num_states() const { return num_states_; }
    std::size_t num_vars() const { return codes_.size(); }
    /// Whether the multiply/shift fast path is active (num_states <= 2^32).
    bool fast() const { return fast_; }

    /// Value of variable v in state s. Multiply/shift when fast().
    Value get(StateIndex s, VarId v) const {
        const VarCode& c = codes_[v];
        if (fast_) return mod_dom(div_stride(s, c), c);
        return static_cast<Value>(
            (s / c.stride) % static_cast<std::uint64_t>(c.dom));
    }

    /// State equal to s except that variable v holds `value`.
    /// One decode plus a stride-delta add.
    StateIndex set(StateIndex s, VarId v, Value value) const {
        return set_digit(s, v, get(s, v), value);
    }

    /// set() when the current digit of v in s is already known — a single
    /// stride-delta add. Precondition: cur == get(s, v).
    StateIndex set_digit(StateIndex s, VarId v, Value cur, Value value) const {
        const VarCode& c = codes_[v];
        // Two's-complement wraparound makes the signed delta exact.
        return s + static_cast<StateIndex>(
                       static_cast<std::int64_t>(value - cur) *
                       static_cast<std::int64_t>(c.stride));
    }

    /// Unpacks s into one digit per variable (declaration order) using
    /// successive divmod by the domain sizes — one magic multiply pair per
    /// variable. `out.size()` must equal num_vars().
    void unpack(StateIndex s, std::span<Value> out) const {
        DCFT_EXPECTS(out.size() == codes_.size(),
                     "CompiledSpace::unpack: wrong span size");
        std::uint64_t rest = s;
        for (std::size_t v = 0; v < codes_.size(); ++v) {
            const VarCode& c = codes_[v];
            if (fast_) {
                out[v] = mod_dom(rest, c);
                if (!c.dom_identity) rest = mulhi(c.dom_magic, rest);
            } else {
                out[v] = static_cast<Value>(
                    rest % static_cast<std::uint64_t>(c.dom));
                rest /= static_cast<std::uint64_t>(c.dom);
            }
        }
    }

    /// Index of the v-line through s — the states that differ from s only
    /// in v — among the num_states() / domain(v) such lines: s with digit
    /// v cut out. Multiply/shift when fast().
    StateIndex line_index(StateIndex s, VarId v) const {
        const VarCode& c = codes_[v];
        const std::uint64_t dom = static_cast<std::uint64_t>(c.dom);
        const std::uint64_t q = fast_ ? div_stride(s, c) : s / c.stride;
        const std::uint64_t hi = c.dom_identity ? q
                                 : c.mod_identity ? 0
                                 : fast_          ? mulhi(c.dom_magic, q)
                                                  : q / dom;
        return hi * c.stride + (s - q * c.stride);
    }

    /// Stride of variable v (product of the domains below it).
    StateIndex stride(VarId v) const { return codes_[v].stride; }
    /// Domain size of variable v.
    Value domain(VarId v) const { return codes_[v].dom; }

private:
    struct VarCode {
        StateIndex stride = 1;     ///< product of lower domains
        Value dom = 1;             ///< domain size
        std::uint64_t stride_magic = 0;  ///< Lemire magic for / stride
        std::uint64_t dom_magic = 0;     ///< Lemire magic for % dom
        std::uint64_t dom_mask = 0;      ///< dom-1 when dom is a power of two
        bool stride_identity = false;    ///< stride == 1
        bool mod_identity = false;  ///< quotient always < dom (top variable)
        bool dom_pow2 = false;      ///< dom is a power of two
        bool dom_identity = false;  ///< dom == 1
    };

    static std::uint64_t mulhi(std::uint64_t a, std::uint64_t b) {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(a) * b) >> 64);
    }

    /// s / stride via magic multiply. Requires fast().
    static std::uint64_t div_stride(StateIndex s, const VarCode& c) {
        if (c.stride_identity) return s;
        return mulhi(c.stride_magic, s);
    }

    /// q % dom via mask / identity / magic multiply. Requires fast().
    static Value mod_dom(std::uint64_t q, const VarCode& c) {
        if (c.mod_identity || c.dom_identity)
            return c.dom_identity ? 0 : static_cast<Value>(q);
        if (c.dom_pow2) return static_cast<Value>(q & c.dom_mask);
        const std::uint64_t low = c.dom_magic * q;
        return static_cast<Value>(
            mulhi(low, static_cast<std::uint64_t>(c.dom)));
    }

    const StateSpace* space_;
    std::vector<VarCode> codes_;
    StateIndex num_states_ = 1;
    bool fast_ = false;
};

/// Builds a shared CompiledSpace that also keeps the StateSpace alive
/// (aliasing shared_ptr over a holder of both).
std::shared_ptr<const CompiledSpace> compile_space(
    std::shared_ptr<const StateSpace> space);

}  // namespace dcft
