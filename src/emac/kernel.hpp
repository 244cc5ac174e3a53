#pragma once
// Register-blocked multi-sample EMAC matmul kernels — the matvec every
// runtime::Model layer runs, one row or a whole tile at a time.
//
// A MatmulKernel processes a TILE of samples per weight-plane pass — per
// weight row it keeps one exact accumulator per sample lane in registers, so
// each weight element is loaded once and multiplied into every lane before
// moving on. Each lane runs the integer shift-and-add form of the paper's
// EMAC recurrence (Emac::reset/step/result):
//
//     acc[s] += ssig_w * ssig_a[s]  <<  (sf_w + sf_a[s] + sf_bias)
//
// and because (a) integer addition is associative/commutative and (b) the
// eq. (3)/(4)-style width bound guarantees every PARTIAL sum of up to k
// shifted products plus the bias image fits the selected register (each
// |shifted product| < 2^(need_bits - bit_width(k) - 1), so any subset sums
// to < 2^(need_bits - 1)), any accumulation order — per-sample, blocked, or
// SIMD-lane-split — produces the identical integer, hence the identical
// readout and the identical rounded pattern. The final exact reduction
// normalizes the register exactly as the accum.hpp policies do and rounds
// it once (readout_kernel_lane). Posit and float formats of at most 8 bits
// round through the shared num::EncodeTable: the encoders' pattern depends
// only on the sign, the clamped scale, the n-1 bits under the hidden bit and
// one sticky bit, and the table holds the encoder's own output for every
// such cell (numeric/encode_table.hpp), so a table load returns the pattern
// the encoder would. Wider formats call the encoders, fixed formats shift
// and clip. The kernel output is therefore bit-identical to the step()
// recurrence for every input (tests/emac/kernel_differential_test.cpp; the
// lane readout itself in tests/emac/kernel_bound_test.cpp).
//
// Three kernels sit behind MatmulKernel::create(), the first two one AVX2
// class templated on its limb count:
//  * avx2 / avx2-2limb — 4 int64 lanes per ymm register, 4 registers = a
//    16-sample tile, only when the CPU reports AVX2. "avx2" keeps one int64
//    limb per lane and needs need_bits <= 62 (AccKind::kI64). "avx2-2limb"
//    covers bounds past 62 bits (the format-wide posit<8,1> spec at k=128
//    needs 68) by splitting every lane into two int64 limbs at a shift
//    threshold T:
//      hi += prod << (shift - T)   for shift >= T   (exact, no wrap)
//      lo += prod << shift         for every shift  (mod 2^64)
//    make_kernel_spec proves both per-limb partial sums stay below 2^61:
//    the hi limb's terms are products shifted by at most max_shift - T, and
//    the terms with shift < T are products shifted by at most T - 1. So
//    H = hi * 2^T is the exact sum of the shift >= T terms, lo - H mod 2^64
//    is the exact sum of the rest (it fits int64), and H + that difference
//    rebuilds the exact register, which the AccKulisch128 readout rounds
//    (join_kernel_limbs), the bits below its top 64 folded into the sticky
//    bit. The same integer, hence the same pattern.
//  * scalar-blocked — portable fallback, 8-sample tile, same layout, the
//    accumulators are plain accum.hpp policy values (all three widths).
//
// Per-plane specs. The paper sizes the quire from the format's whole
// dynamic range, but a weight plane holds only the scales it holds. A spec
// is built for a ScaleRange of weight scale factors: create(fmt, k) takes
// the format's full range (format_scale_range), create(fmt, k, range) the
// range of one plane's nonzero weights and biases (plane_scale_range, which
// runtime::Model passes at build). Activations always keep the format-wide
// range. The product shift bias splits into two halves,
//
//     sf_bias = w_half_bias + a_half_bias,
//     w_half_bias = -range.lo,   a_half_bias = -(format's lowest sf),
//
// so every product shift lies in [0, span(range) + span(format)] and the
// accumulator's lsb (KernelSpec::frame) sits at the smallest product the
// plane can make. The bound, the register and the limb count follow from
// that one shift range; pack_plane refuses a weight or bias outside it. A
// posit<8,1> plane spanning 11 binades needs 55 bits at k=128, not 68.
// Whether a format has a kernel at all is still decided by its format-wide
// bound, so a plane range never moves a layer off (or onto) the step path.
//
// One-limb specs (KernelSpec::limbs == 1, every kernel on an int64 register)
// take the shift out of the inner loop. pack_plane and pack_acts store each
// operand pre-shifted by its own half of the product shift,
//
//     w' = ssig_w << (sf_w + w_half_bias),   a' = ssig_a << (sf_a + a_half_bias)
//
// so w' * a' == (ssig_w * ssig_a) << (sf_w + sf_a + sf_bias): the same
// integer term, one multiply-add per MAC. Both half-shifts are non-negative
// by construction, and make_kernel_spec takes one limb only when each
// operand on its own stays within 2^30, so it fits the int32 operand of the
// AVX2 multiply; a plane whose halves are too lopsided for that keeps the
// (ssig, shift) layout on two limbs or the scalar kernel. Wider specs keep
// the (ssig, shift) layout above.
//
// DP_FORCE_SCALAR_KERNEL=1 (any value other than unset/empty/"0") forces the
// portable kernel regardless of CPU support — the no-rebuild cross-check
// knob CI's forced-scalar leg sets.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "emac/accum.hpp"
#include "emac/decode_lut.hpp"
#include "emac/emac.hpp"
#include "numeric/encode_table.hpp"
#include "numeric/format.hpp"

namespace dp::emac {

/// Hard upper bound on any kernel's sample tile (lanes of on-stack
/// accumulator arrays). matmul() accepts any samples <= min(stride, this).
inline constexpr std::size_t kMaxKernelTile = 16;

/// An inclusive range of operand scale factors (DecodedOp::sf).
struct ScaleRange {
  std::int32_t lo = 0;
  std::int32_t hi = 0;

  friend bool operator==(const ScaleRange&, const ScaleRange&) = default;
};

/// Everything the inner loops and the final readout need, precomputed once
/// per (format, k, weight range) at kernel creation. With L the weight
/// range's lo, the shift constants put the accumulator lsb at the smallest
/// product a weight in range can make (header comment):
///  * posit — sf_bias = S - L, frame = sf_bias + 2(P-1), bias shift =
///    sf + sf_bias + P-1. The format-wide range (L = -S) gives the step()
///    units' own frame, sf_bias = 2S.
///  * float — sf_bias = -L - 1, frame = sf_bias + 2*bias + 2*wf, bias shift =
///    exp + sf_bias + bias + wf; zero patterns decode with sf == 1 (zero_sf),
///    which keeps every shift non-negative. Format-wide: sf_bias = -2.
///  * fixed — all scale factors 0; readout is (acc >> q) clipped to the raw
///    range, the bias image is raw << q.
struct KernelSpec {
  explicit KernelSpec(const num::Format& f) : fmt(f) {}

  num::Format fmt;
  std::size_t k = 0;            ///< max accumulation length (layer fan-in)
  /// The scale factors every nonzero weight and bias must lie in.
  ScaleRange weight_range;
  std::int32_t w_half_bias = 0; ///< -weight_range.lo
  std::int32_t a_half_bias = 0; ///< minus the format's lowest sf
  std::int32_t sf_bias = 0;     ///< w_half_bias + a_half_bias, added to every product shift
  std::int32_t zero_sf = 0;     ///< sf of the format's zero pattern (pads)
  std::int64_t frame = 0;       ///< readout frame (posit/float families)
  int fixed_q = 0;              ///< fraction bits (fixed family)
  /// Exact-width bound: every partial sum of <= k shifted products plus the
  /// bias image has magnitude < 2^(need_bits - 1). Always >= the paper's
  /// eq. (3)/(4) width (tests/emac/kernel_bound_test.cpp).
  std::size_t need_bits = 0;
  AccKind acc_kind = AccKind::kI64;
  /// int64 limbs per lane for the SIMD kernel: 1 when need_bits <= 62, 2
  /// when the split at limb_split keeps both limbs within 62 bits (see the
  /// header comment), 0 when neither holds (scalar kernel only).
  int limbs = 0;
  /// The two-limb shift threshold T: products with shift >= T also
  /// accumulate into the hi limb as prod << (shift - T). 0 unless limbs == 2.
  int limb_split = 0;

  /// How readout_kernel_lane rounds a finished lane.
  ///  * kTable — posit and float formats of <= 8 bits: one `table` load.
  ///  * kFixed — fixed formats: (acc >> fixed_q) clipped to [fixed_lo,
  ///    fixed_hi], masked to the pattern width.
  ///  * kEncoder — wider formats: the generic posit/float encoder.
  enum class Readout : std::uint8_t { kTable, kFixed, kEncoder };
  Readout readout = Readout::kEncoder;
  const num::EncodeTable* table = nullptr;  ///< kTable; lives for the process
  unsigned nar_kinds = 0;         ///< DecodedOp::kNaR for posit, 0 otherwise
  std::uint32_t nar_pattern = 0;  ///< posit NaR
  std::uint32_t zero_pattern = 0; ///< an exactly zero register (float: +0)
  std::int64_t fixed_lo = 0;      ///< fixed raw_min
  std::int64_t fixed_hi = 0;      ///< fixed raw_max
  std::uint32_t fixed_mask = 0;   ///< fixed pattern mask
};

/// A weight plane re-packed for the blocked kernels: per-element operands
/// as int32 SoA, the OR-reduced DecodedOp kind per row, and the bias
/// pre-resolved to its integer accumulator image (ssig, shift, NaR flag).
/// One-limb specs store the pre-shifted operand w' (header comment) and no
/// shifts, 4 B a weight; wider specs the signed significand and its
/// pre-biased shift (sf + sf_bias; a_half_bias for a zero weight, so its
/// shift stays non-negative with any activation), 8 B a weight. Built once
/// at runtime::Model construction, immutable and shareable after.
struct PackedPlane {
  std::size_t rows = 0;
  std::size_t k = 0;
  std::vector<std::int32_t> ssig;       ///< [r*k + i]; one limb: w'
  std::vector<std::int32_t> shift;      ///< [r*k + i], sf + sf_bias; one limb: empty
  std::vector<std::uint8_t> row_kinds;  ///< [r], OR of the row's op kinds
  std::vector<std::int64_t> bias_ssig;  ///< [r], signed significand (or raw)
  std::vector<std::int32_t> bias_shift; ///< [r]
  std::vector<std::uint8_t> bias_nar;   ///< [r], posit NaR bias
};

/// One tile of activations in lane-interleaved SoA layout: element i of
/// sample s sits at [i*tile + s]. One-limb specs store the pre-shifted
/// operand a' (header comment) and leave sf empty. Lanes >= samples are
/// padded with ssig = 0 (and sf = zero_sf) so a SIMD kernel may process
/// whole lane groups without masking — padded lanes contribute exactly
/// nothing. kinds[s] is the OR of sample s's op kinds over the whole vector.
struct ActTile {
  std::size_t tile = 0;     ///< lane stride (>= samples packed)
  std::size_t fan_in = 0;
  std::vector<std::int64_t> ssig;   ///< [i*tile + s]; one limb: a'
  std::vector<std::int64_t> sf;     ///< [i*tile + s]; one limb: empty
  std::vector<std::uint8_t> kinds;  ///< [s]
};

class MatmulKernel {
 public:
  virtual ~MatmulKernel() = default;

  /// Dispatched factory: the fastest eligible kernel for this (format, k) on
  /// this CPU — AVX2 when compiled in, supported at runtime, not forced off
  /// via DP_FORCE_SCALAR_KERNEL, and the bound fits one or two int64 limbs
  /// (KernelSpec::limbs); the portable scalar-blocked kernel otherwise.
  /// Returns nullptr when no kernel supports the combination (format-wide
  /// bound beyond 250 bits, zero k): runtime::Model runs such a layer on the
  /// step() recurrence instead. This overload sizes the accumulator for any
  /// weight of the format.
  static std::unique_ptr<MatmulKernel> create(const num::Format& fmt, std::size_t k);

  /// The same, sized for planes whose nonzero weights and biases all have
  /// their scale factor in `weights` (plane_scale_range). pack_plane throws
  /// std::invalid_argument on any that does not.
  static std::unique_ptr<MatmulKernel> create(const num::Format& fmt, std::size_t k,
                                              const ScaleRange& weights);

  /// The portable scalar-blocked kernel, unconditionally — the differential
  /// suite drives it against create() and the step() oracle.
  static std::unique_ptr<MatmulKernel> create_scalar(const num::Format& fmt,
                                                     std::size_t k);
  static std::unique_ptr<MatmulKernel> create_scalar(const num::Format& fmt, std::size_t k,
                                                     const ScaleRange& weights);

  const KernelSpec& spec() const { return spec_; }
  /// Preferred samples per pass; the ideal flush multiple for batchers.
  std::size_t tile() const { return tile_; }
  /// "avx2", "avx2-2limb" or "scalar-blocked" — lands in
  /// BENCH_throughput.json.
  const char* name() const { return name_; }

  /// Re-pack a decoded weight plane (row-major rows x k, as produced by
  /// Emac::decode_plane) plus the per-row bias patterns. Throws
  /// std::invalid_argument if a nonzero weight or bias lies outside
  /// spec().weight_range.
  PackedPlane pack_plane(const DecodedOp* weights, std::size_t rows,
                         const std::uint32_t* bias_bits) const;

  /// Decode + interleave one tile of activation vectors. `bits` is already
  /// lane-interleaved ([i*stride + s], the layout matmul writes), `samples`
  /// of the `stride` lanes are live. stride must be >= samples and, for the
  /// AVX2 kernel, a multiple of 4.
  void pack_acts(const std::uint32_t* bits, std::size_t fan_in, std::size_t samples,
                 std::size_t stride, ActTile& out) const;

  /// out[r*acts.tile + s] = encoded dot of weight row r with sample s, for
  /// every r < weights.rows and s < samples. samples must be <=
  /// min(acts.tile, kMaxKernelTile). Lanes >= samples of `out` are left
  /// untouched. Bit-identical to step() per the header contract.
  virtual void matmul(const PackedPlane& weights, const ActTile& acts,
                      std::size_t samples, std::uint32_t* out) const = 0;

 protected:
  MatmulKernel(const KernelSpec& spec, std::size_t tile, const char* name);

  KernelSpec spec_;
  std::size_t tile_;
  const char* name_;
  std::shared_ptr<const DecodeLut> lut_;  ///< may be null (wide formats)
  std::uint32_t mask_ = 0;
};

/// Every scale factor a pattern of `fmt` decodes to (decode_operand): posit
/// [-S, S], float [1, expmax + 1] (the all-ones exponent reads as finite),
/// fixed [0, 0].
ScaleRange format_scale_range(const num::Format& fmt);

/// The scale factors of a plane's finite weight patterns (`count` of them)
/// and of its `rows` finite bias patterns, as decode_operand reads them;
/// zero and NaR patterns do not count. A plane with none gets the
/// empty-span range at the format's lowest scale factor.
ScaleRange plane_scale_range(const num::Format& fmt, const std::uint32_t* weight_bits,
                             std::size_t count, const std::uint32_t* bias_bits,
                             std::size_t rows);

/// Compute the spec for (fmt, k) and planes whose nonzero weights and biases
/// lie in `weights`, or report unsupported (k == 0 or the format-wide bound
/// exceeds the 250-bit policy ceiling). Throws std::invalid_argument if
/// `weights` is empty or leaves format_scale_range(fmt). Exposed for the
/// bound tests.
bool make_kernel_spec(const num::Format& fmt, std::size_t k, const ScaleRange& weights,
                      KernelSpec& out);

/// The same for the format's full range: the spec create(fmt, k) uses.
bool make_kernel_spec(const num::Format& fmt, std::size_t k, KernelSpec& out);

namespace detail {

/// The kEncoder readout: AccKulisch64 / AccKulisch128::readout, then the
/// generic encoder (kernel.cpp).
std::uint32_t readout_lane_encoder(const KernelSpec& spec, std::int64_t acc, unsigned kinds);
std::uint32_t readout_lane_encoder(const KernelSpec& spec, __int128 acc, unsigned kinds);

template <typename Reg>
std::uint32_t readout_lane_fixed(const KernelSpec& spec, Reg acc) {
  const Reg shifted = acc >> spec.fixed_q;
  const Reg clipped = shifted < spec.fixed_lo ? spec.fixed_lo
                                              : (shifted > spec.fixed_hi ? spec.fixed_hi : shifted);
  return static_cast<std::uint32_t>(clipped) & spec.fixed_mask;
}

}  // namespace detail

/// Final exact reduction of one finished lane, shared by every kernel: the
/// pattern the step() units produce for the same register (the
/// AccKulisch64 readout plus the format's encoder, or the FixedEmac shift
/// and clip). `kinds` is the OR of the lane's operand kinds.
inline std::uint32_t readout_kernel_lane(const KernelSpec& spec, std::int64_t acc,
                                         unsigned kinds) {
  switch (spec.readout) {
    case KernelSpec::Readout::kTable: {
      if ((kinds & spec.nar_kinds) != 0) return spec.nar_pattern;
      if (acc == 0) return spec.zero_pattern;
      const bool neg = acc < 0;
      const std::uint64_t mag =
          neg ? 0 - static_cast<std::uint64_t>(acc) : static_cast<std::uint64_t>(acc);
      const int lz = std::countl_zero(mag);
      return spec.table->encode(neg, 63 - lz - spec.frame, mag << lz, false);
    }
    case KernelSpec::Readout::kFixed:
      return detail::readout_lane_fixed(spec, acc);
    case KernelSpec::Readout::kEncoder:
      break;
  }
  return detail::readout_lane_encoder(spec, acc, kinds);
}

/// The same for a 128-bit register (AccKulisch128, joined two-limb lanes):
/// the magnitude is normalized so its top 64 bits are the fraction and any
/// bit below them sets the sticky bit.
inline std::uint32_t readout_kernel_lane(const KernelSpec& spec, __int128 acc, unsigned kinds) {
  switch (spec.readout) {
    case KernelSpec::Readout::kTable: {
      using u128 = unsigned __int128;
      if ((kinds & spec.nar_kinds) != 0) return spec.nar_pattern;
      if (acc == 0) return spec.zero_pattern;
      const bool neg = acc < 0;
      const u128 mag = neg ? 0 - static_cast<u128>(acc) : static_cast<u128>(acc);
      const auto hi = static_cast<std::uint64_t>(mag >> 64);
      const int lz = hi != 0 ? std::countl_zero(hi)
                             : 64 + std::countl_zero(static_cast<std::uint64_t>(mag));
      const u128 norm = mag << lz;
      return spec.table->encode(neg, 127 - lz - spec.frame,
                                static_cast<std::uint64_t>(norm >> 64),
                                static_cast<std::uint64_t>(norm) != 0);
    }
    case KernelSpec::Readout::kFixed:
      return detail::readout_lane_fixed(spec, acc);
    case KernelSpec::Readout::kEncoder:
      break;
  }
  return detail::readout_lane_encoder(spec, acc, kinds);
}

/// The exact register of a two-limb lane split at `split`: hi * 2^split is
/// the exact sum of the shift >= split terms, and lo minus that, mod 2^64,
/// the exact sum of the rest (inside int64 by the split bound).
inline __int128 join_kernel_limbs(std::int64_t hi, std::int64_t lo, int split) {
  const auto high = static_cast<__int128>(static_cast<unsigned __int128>(hi) << split);
  const auto rest = static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) -
                                              static_cast<std::uint64_t>(high));
  return high + rest;
}

#if defined(DP_HAVE_AVX2_KERNEL)
/// Internal: the AVX2 kernel (kernel_avx2.cpp, compiled with -mavx2).
/// Requires spec.limbs of 1 or 2; call through create().
std::unique_ptr<MatmulKernel> make_avx2_kernel(const KernelSpec& spec);
#endif

}  // namespace dp::emac
