#pragma once
// Uniform runtime descriptor over the three numerical formats compared by the
// paper (posit / floating point / fixed-point). Used by the quantizer, the
// EMAC factory and the experiment sweeps, which iterate over "all possible
// combinations of [5,8] bit-widths for the three numerical formats" (§IV-B).

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "numeric/fixedpoint.hpp"
#include "numeric/minifloat.hpp"
#include "numeric/posit.hpp"

namespace dp::num {

enum class Kind { kPosit, kFloat, kFixed };

class Format {
 public:
  Format(PositFormat f);  // NOLINT(google-explicit-constructor): intended sum type
  Format(FloatFormat f);  // NOLINT(google-explicit-constructor)
  Format(FixedFormat f);  // NOLINT(google-explicit-constructor)

  Kind kind() const;
  int total_bits() const;
  std::string name() const;

  double max_value() const;     ///< largest finite value
  double min_positive() const;  ///< smallest positive value
  /// log10(max/min): the x-axis of Fig. 6.
  double dynamic_range() const;

  /// Quantize a real number: round-to-nearest-even, saturating (no Inf/NaR).
  std::uint32_t from_double(double x) const;
  double to_double(std::uint32_t bits) const;

  const PositFormat& posit() const;  ///< throws std::bad_variant_access if not posit
  const FloatFormat& flt() const;
  const FixedFormat& fixed() const;

  bool operator==(const Format& rhs) const { return v_ == rhs.v_; }

 private:
  std::variant<PositFormat, FloatFormat, FixedFormat> v_;
};

/// Re-encode one bit pattern from `from` into `to` — the inter-layer boundary
/// step of a mixed-precision network. Identical formats pass the pattern
/// through untouched; otherwise the value is decoded and re-quantized
/// (round-to-nearest-even, saturating), exactly to.from_double(from.to_double
/// (bits)). Non-real specials follow the quantizer rules: posit NaR and float
/// NaN re-encode as the target's NaR/NaN, ±Inf as NaR (posit) or the
/// saturated extreme (float/fixed). Fixed-point has no non-real pattern, so
/// NaN lands on the most negative fixed value — a poison that a following
/// ReLU clears to zero rather than a silent 0.
std::uint32_t convert(std::uint32_t bits, const Format& from, const Format& to);

/// convert() tabulated over every `from` pattern: entry b is convert(b, from,
/// to), 2^from.total_bits() entries. Index it with the pattern masked to
/// from's width (size() - 1 is that mask).
std::vector<std::uint32_t> convert_table(const Format& from, const Format& to);

/// Bit-level ReLU with the format resolved once: in every family the
/// negative patterns are exactly those with the sign bit set — posit NaR
/// excepted, which passes through — and +0 is the all-zeros pattern. So a
/// rule is one mask and one compare per element: negatives (float -0
/// included) become +0, everything else is returned masked to the width.
struct ReluRule {
  std::uint32_t mask = 0;  ///< the format's pattern mask
  std::uint32_t sign = 0;  ///< its sign bit
  /// The one sign-bit pattern that passes: posit NaR. 0 for float and fixed,
  /// which no sign-bit pattern equals.
  std::uint32_t keep = 0;

  std::uint32_t operator()(std::uint32_t bits) const {
    bits &= mask;
    return (bits & sign) != 0 && bits != keep ? 0 : bits;
  }
};

ReluRule relu_rule(const Format& fmt);

/// Value order on patterns with the format resolved once: key() orders
/// patterns as their decoded values (Format::to_double) do, the two float
/// zeros tied. Posit and fixed patterns are n-bit two's complement integers
/// in value order; float patterns are sign-magnitude, so a negative one
/// flips. Patterns that decode to NaN (posit NaR, float NaN) have no place
/// in the order: is_nan() reports them and key() is meaningless for them.
struct OrderRule {
  std::uint32_t mask = 0;     ///< the format's pattern mask
  std::uint32_t sign = 0;     ///< its sign bit
  int extend = 0;             ///< 32 - n: the two's complement sign extension
  bool sign_magnitude = false;
  std::uint32_t nar = 0;      ///< posit NaR; 0 (always a zero) otherwise
  /// Float: magnitudes above +Inf's are NaN. Others: the mask, which no
  /// magnitude passes.
  std::uint32_t nan_above = 0;

  bool is_nan(std::uint32_t bits) const {
    bits &= mask;
    return (nar != 0 && bits == nar) || (bits & ~sign) > nan_above;
  }

  std::int32_t key(std::uint32_t bits) const {
    bits &= mask;
    if (sign_magnitude) {
      const auto mag = static_cast<std::int32_t>(bits & ~sign);
      return (bits & sign) != 0 ? -mag : mag;
    }
    return static_cast<std::int32_t>(bits << extend) >> extend;
  }
};

OrderRule order_rule(const Format& fmt);

/// The format grid evaluated by the paper for a given total width n:
/// posit es in {0..3} (es < n-3 so at least 1 fraction bit), float we in
/// {2..5} (wf >= 1), fixed q in {1..n-2}.
std::vector<Format> paper_format_grid(int n);

}  // namespace dp::num
