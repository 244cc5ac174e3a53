#pragma once
// Per-format encode table: posit_encode / float_encode(kSaturate) tabulated
// for every posit and float format of at most kMaxEncodeTableBits bits.
//
// Both encoders consume a finite nonzero value (neg, scale, frac with the
// hidden bit at 63, sticky), keep at most n-3 bits under the hidden bit and
// round to nearest even on the next one. The pattern is therefore a pure
// function of
//   * the sign;
//   * the scale, clamped to [smin, smax] — posit: [-max_scale-1, max_scale],
//     past which everything saturates to minpos/maxpos; float: [emin-wf-2,
//     emax+1], below which everything flushes to zero and above which
//     everything saturates;
//   * the n-1 fraction bits under the hidden bit;
//   * one sticky bit: any lower fraction bit set, or `sticky`.
// The table holds the magnitude pattern of every (scale, n-1 bits, sticky)
// cell, filled by calling the encoder itself once per cell: it is a cache of
// the encoders, not a second rounding implementation. The sign is applied
// afterwards — two's complement for posit, the sign bit for float. One byte
// per cell; posit<8,3> takes 98 x 256 bytes, posit<8,0> 14 x 256.
// tests/numeric/encode_table_test.cpp checks every cell against the encoders.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "numeric/format.hpp"

namespace dp::num {

/// Widest format an EncodeTable covers.
inline constexpr int kMaxEncodeTableBits = 8;

class EncodeTable {
 public:
  /// True for posit and float formats of at most kMaxEncodeTableBits bits.
  static bool covers(const Format& fmt);

  /// Builds the table through the format's encoder, one call per cell.
  /// Throws std::invalid_argument unless covers(fmt).
  explicit EncodeTable(const Format& fmt);

  const Format& format() const { return fmt_; }
  std::int64_t min_scale() const { return smin_; }  ///< lowest table row
  std::int64_t max_scale() const { return smax_; }  ///< highest table row

  /// posit_encode(u, f) or float_encode(u, f, kSaturate) of the finite
  /// nonzero u = (-1)^neg * 2^scale * frac / 2^63 (hidden bit at 63) with
  /// `sticky` recording discarded nonzero bits below frac.
  std::uint32_t encode(bool neg, std::int64_t scale, std::uint64_t frac, bool sticky) const {
    const std::int64_t s = scale < smin_ ? smin_ : (scale > smax_ ? smax_ : scale);
    const std::uint64_t under = frac << 1;  // the bits under the hidden bit
    const std::size_t cell = (static_cast<std::size_t>(s - smin_) << n_) |
                             (static_cast<std::size_t>(under >> (65 - n_)) << 1) |
                             static_cast<std::size_t>((under << (n_ - 1)) != 0 || sticky);
    const std::uint32_t sign = 0u - static_cast<std::uint32_t>(neg);
    return ((cells_[cell] ^ (neg_xor_ & sign)) + (neg_add_ & sign)) & mask_;
  }

  /// format().from_double(x). A normal double is rounded through the table
  /// straight from its exponent and mantissa bits; zero, subnormal, infinite
  /// and NaN doubles take Format::from_double.
  std::uint32_t from_double(double x) const {
    const auto b = std::bit_cast<std::uint64_t>(x);
    const auto biased = static_cast<std::int64_t>((b >> 52) & 0x7ff);
    if (biased == 0 || biased == 0x7ff) return fmt_.from_double(x);
    return encode((b >> 63) != 0, biased - 1023, (b << 11) | (std::uint64_t{1} << 63), false);
  }

 private:
  Format fmt_;
  int n_ = 0;
  std::int64_t smin_ = 0;
  std::int64_t smax_ = 0;
  std::uint32_t mask_ = 0;
  // A negative result is ((magnitude ^ neg_xor_) + neg_add_) & mask_:
  // (mask, 1) is the posit two's complement, (sign bit, 0) the float sign.
  std::uint32_t neg_xor_ = 0;
  std::uint32_t neg_add_ = 0;
  std::vector<std::uint8_t> cells_;  ///< [(scale - smin) << n | bits << 1 | sticky]
};

/// The shared table for `fmt`, built on first request and kept for the
/// process lifetime; nullptr unless EncodeTable::covers(fmt). Thread-safe.
const EncodeTable* shared_encode_table(const Format& fmt);

}  // namespace dp::num
