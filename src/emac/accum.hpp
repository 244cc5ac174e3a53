#pragma once
// Kulisch accumulator policies for the scalar-blocked matmul kernel.
//
// The EMAC contract only needs an exact two's-complement register wide
// enough for k shifted significand products; eq. (3)/(4) bound that width
// per format, and for most of the paper's sweep grid it is far below 256
// bits (posit<8,0> with k=128 needs 46 bits). make_kernel_spec therefore
// selects, once per (format, k), the narrowest machine register that fits —
// int64_t, unsigned __int128, or the full Acc256 — and the kernel is
// instantiated against that policy. All three policies produce the same
// integer sum and the same normalized (msb, top-64 fraction, sticky)
// readout, so the rounded result is bit-identical across them and against
// the step() units (enforced by tests/emac/dot_equivalence_test.cpp).
//
// Policy interface (duck-typed, consumed by the kernel templates):
//   void add_product(std::int64_t prod, int shift);  // += prod << shift
//   bool is_zero() const;
//   void readout(num::Unpacked& u, std::int64_t frame) const;
//     // u.{neg,scale,frac,sticky} from the signed register; the readout
//     // scale is msb(|acc|) - frame, with frame the negated exponent of the
//     // register's LSB in the format's product frame.
// `prod` is a signed significand product (see DecodedOp::ssig), so the
// narrow policies are a single shift-and-add with no sign branch.

#include <bit>
#include <cstdint>

#include "emac/acc256.hpp"
#include "numeric/unpacked.hpp"

namespace dp::emac {

enum class AccKind : std::uint8_t { kI64, kI128, kWide };

/// Narrowest policy whose magnitude capacity covers `need_bits` (the eq.
/// (3)/(4)-style bound including k-term carry headroom). One bit of each
/// signed register is spent on the sign; one more is kept as margin so the
/// magnitude negation in readout() can never overflow.
constexpr AccKind select_acc_kind(std::size_t need_bits) {
  if (need_bits <= 62) return AccKind::kI64;
  if (need_bits <= 125) return AccKind::kI128;
  return AccKind::kWide;
}

struct AccKulisch64 {
  std::int64_t v = 0;

  void add_product(std::int64_t prod, int shift) { v += prod << shift; }

  bool is_zero() const { return v == 0; }

  void readout(num::Unpacked& u, std::int64_t frame) const {
    u.neg = v < 0;
    const std::uint64_t mag =
        u.neg ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
    const int p = 63 - std::countl_zero(mag);
    u.scale = p - frame;
    u.frac = mag << (63 - p);
    u.sticky = false;  // the whole register fits the 64-bit fraction
  }
};

struct AccKulisch128 {
  __int128 v = 0;

  void add_product(std::int64_t prod, int shift) {
    v += static_cast<__int128>(prod) << shift;
  }

  bool is_zero() const { return v == 0; }

  void readout(num::Unpacked& u, std::int64_t frame) const {
    u.neg = v < 0;
    const unsigned __int128 mag = u.neg ? -static_cast<unsigned __int128>(v)
                                        : static_cast<unsigned __int128>(v);
    const std::uint64_t hi = static_cast<std::uint64_t>(mag >> 64);
    const std::uint64_t lo = static_cast<std::uint64_t>(mag);
    const int p = hi != 0 ? 127 - std::countl_zero(hi) : 63 - std::countl_zero(lo);
    u.scale = p - frame;
    if (p >= 63) {
      u.frac = static_cast<std::uint64_t>(mag >> (p - 63));
      u.sticky =
          p > 63 && (mag & ((static_cast<unsigned __int128>(1) << (p - 63)) - 1)) != 0;
    } else {
      u.frac = lo << (63 - p);
      u.sticky = false;
    }
  }
};

struct AccKulischWide {
  Acc256 v;

  void add_product(std::int64_t prod, int shift) {
    v.add(Acc256::from_shifted_product(static_cast<__int128>(prod), shift));
  }

  bool is_zero() const { return v.is_zero(); }

  void readout(num::Unpacked& u, std::int64_t frame) const {
    u.neg = v.is_neg();
    const Acc256 mag = u.neg ? v.negated() : v;
    const int p = mag.msb();
    u.scale = p - frame;
    if (p >= 63) {
      u.frac = mag.extract64(p - 63);
      u.sticky = mag.any_below(p - 63);
    } else {
      u.frac = mag.extract64(0) << (63 - p);
      u.sticky = false;
    }
  }
};

}  // namespace dp::emac
