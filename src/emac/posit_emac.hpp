#pragma once
// Posit EMAC (Fig. 5 and Algorithms 1-2 of the paper).
//
// Inputs are decoded into sign / regime / exponent / fraction (Algorithm 1);
// significand products are converted to fixed point with a biased scale
// factor (bias = 2^(es+1) * (n-2), making the minimum shift 0) and summed in
// the quire, a wide register sized by eq. (4). Convergent rounding (RNE) and
// posit encoding happen once at readout.
//
// Two models are provided:
//  * PositEmacFast — functional model on a 256-bit accumulator; the oracle
//    the inference kernels are checked against, and the source of their
//    pre-decoded weight planes.
//  * PositEmacRtl  — structural model on dp::rtl::Bits that transcribes
//    Algorithm 1 (LZD over the conditionally inverted two's complement,
//    regime-check bit, fused {regime,exponent} scale factor) and operates a
//    dynamically sized quire register.
//
// Faithfulness note (documented deviation): lines 8-11 of Algorithm 2
// normalize the significand product (>> ovf) *and* add ovf to the scale
// factor while accumulating the un-normalized product, which as printed
// would either lose the product LSB or double-count the overflow. Both
// models instead accumulate the full 2*(n-2-es)-bit product at the unbiased
// product scale, which is the exact behaviour the EMAC contract requires
// ("rounding or truncation ... is delayed until every product has been
// accumulated").

#include <vector>

#include "emac/acc256.hpp"
#include "emac/decode_lut.hpp"
#include "emac/emac.hpp"
#include "rtl/bits.hpp"

namespace dp::emac {

/// Decoded fields produced by Algorithm 1, with hardware field widths:
/// the fraction register is (n-2-es) bits wide (leading `nzero` bit acts as
/// the hidden bit), and {regime, exponent} concatenate into the scale factor.
struct PositDecodeRtl {
  bool sign = false;
  bool nzero = false;
  std::int32_t sf = 0;       ///< {reg, exp} as a signed integer
  std::uint64_t frac = 0;    ///< (n-2-es)-bit significand incl. hidden bit
};

/// Line-for-line transcription of Algorithm 1 on rtl::Bits.
PositDecodeRtl posit_decode_rtl(const rtl::Bits& in, const num::PositFormat& fmt);

class PositEmacFast final : public Emac {
 public:
  PositEmacFast(const num::PositFormat& fmt, std::size_t k);

  /// True when the format/length combination fits the 256-bit accumulator.
  static bool fits(const num::PositFormat& fmt, std::size_t k);

  using Emac::reset;
  void reset(std::uint32_t bias_bits) override;
  void step(std::uint32_t weight_bits, std::uint32_t activation_bits) override;
  std::uint32_t result() const override;
  std::unique_ptr<Emac> clone() const override {
    // The decode table is fetched from the process-wide registry, so clones
    // share it instead of rebuilding 2^n entries per worker thread.
    return std::make_unique<PositEmacFast>(fmt_, k_);
  }

  void decode_plane(const std::uint32_t* bits, std::size_t count,
                    DecodedOp* out) const override;

  const num::Format& format() const override { return format_; }
  std::size_t max_terms() const override { return k_; }
  std::size_t accumulator_width() const override;

 private:
  void accumulate(bool sign, std::uint64_t sig, std::int64_t shift);

  num::Format format_;
  num::PositFormat fmt_;
  std::size_t k_;
  std::size_t steps_ = 0;
  int p_ = 0;           ///< significand register width n-2-es
  std::int64_t s_ = 0;  ///< max |scale factor| = (n-2)*2^es
  bool nar_ = false;
  Acc256 acc_;
  std::shared_ptr<const DecodeLut> lut_;  ///< shared, immutable; null iff n > 16
};

class PositEmacRtl final : public Emac {
 public:
  PositEmacRtl(const num::PositFormat& fmt, std::size_t k);

  using Emac::reset;
  void reset(std::uint32_t bias_bits) override;
  void step(std::uint32_t weight_bits, std::uint32_t activation_bits) override;
  std::uint32_t result() const override;
  std::unique_ptr<Emac> clone() const override {
    return std::make_unique<PositEmacRtl>(fmt_, k_);
  }

  const num::Format& format() const override { return format_; }
  std::size_t max_terms() const override { return k_; }
  std::size_t accumulator_width() const override { return quire_.width(); }

  /// Observability hook for verification: the raw quire register. The low
  /// 2*(n-3-es) bits are provably always zero (the eq. (4) tightness
  /// property) — tested in tests/emac.
  const rtl::Bits& quire_state() const { return quire_; }

 private:
  void accumulate(bool sign, const rtl::Bits& sig, std::size_t shift);

  num::Format format_;
  num::PositFormat fmt_;
  std::size_t k_;
  std::size_t steps_ = 0;
  int p_ = 0;
  std::int64_t s_ = 0;
  bool nar_ = false;
  rtl::Bits quire_;
};

}  // namespace dp::emac
