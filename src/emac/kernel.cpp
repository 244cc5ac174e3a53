#include "emac/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "numeric/fixedpoint.hpp"
#include "numeric/minifloat.hpp"
#include "numeric/posit.hpp"
#include "numeric/unpacked.hpp"

namespace dp::emac {

namespace {

/// DP_FORCE_SCALAR_KERNEL=1 (any value other than unset/empty/"0") pins
/// dispatch to the portable scalar-blocked kernel — the cross-check knob for
/// CI's forced-fallback leg.
bool scalar_kernel_forced() {
  const char* v = std::getenv("DP_FORCE_SCALAR_KERNEL");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

/// The generic reduction of one finished lane: the same is_zero/readout/
/// encode sequence as the step() units' result(), so the rounded pattern is
/// bit-identical by construction. Posit and float only; make_kernel_spec
/// gives fixed formats the inline kFixed readout and caps them at 128 bits.
template <typename Acc>
std::uint32_t readout_acc(const KernelSpec& spec, const Acc& acc, unsigned kinds) {
  switch (spec.fmt.kind()) {
    case num::Kind::kPosit: {
      const num::PositFormat& f = spec.fmt.posit();
      if ((kinds & DecodedOp::kNaR) != 0) return f.nar_pattern();
      if (acc.is_zero()) return f.zero_pattern();
      num::Unpacked u;
      acc.readout(u, spec.frame);
      return num::posit_encode(u, f);
    }
    case num::Kind::kFloat: {
      // Minifloats have no NaR; the kind bits are never set past kFinite.
      const num::FloatFormat& f = spec.fmt.flt();
      if (acc.is_zero()) return num::float_zero(f);
      num::Unpacked u;
      acc.readout(u, spec.frame);
      return num::float_encode(u, f, num::FloatOverflow::kSaturate);
    }
    case num::Kind::kFixed:
      break;
  }
  throw std::logic_error("MatmulKernel: no generic readout for this format");
}

/// The one-limb pre-shifted operand ssig << (sf + half_bias), half_bias
/// being the operand's half of sf_bias (kernel.hpp). make_kernel_spec proves
/// the shift in [0, 30] and the result within 2^30 for every operand in
/// range of a one-limb spec; the mask only keeps the shift defined for a
/// weight outside it, which pack_plane packs and then rejects.
std::int64_t preshifted(const DecodedOp& d, int half_bias) {
  return d.ssig << ((d.sf + half_bias) & 63);
}

/// One scalar-kernel lane: the shared readout for the int64 and 128-bit
/// registers, the generic encoder for the 256-bit one.
std::uint32_t readout_lane(const KernelSpec& spec, const AccKulisch64& acc, unsigned kinds) {
  return readout_kernel_lane(spec, acc.v, kinds);
}

std::uint32_t readout_lane(const KernelSpec& spec, const AccKulisch128& acc, unsigned kinds) {
  return readout_kernel_lane(spec, acc.v, kinds);
}

std::uint32_t readout_lane(const KernelSpec& spec, const AccKulischWide& acc, unsigned kinds) {
  return readout_acc(spec, acc, kinds);
}

/// The portable register-blocked kernel: an 8-sample tile, one accum.hpp
/// policy value per lane, the exact step() recurrence per lane. Works for
/// all three register widths. The int64 register is the one-limb spec, so
/// it multiplies the pre-shifted operands; the wider ones shift and add.
template <typename Acc>
class ScalarBlockedKernel final : public MatmulKernel {
 public:
  explicit ScalarBlockedKernel(const KernelSpec& spec)
      : MatmulKernel(spec, /*tile=*/8, "scalar-blocked") {}

  void matmul(const PackedPlane& w, const ActTile& acts, std::size_t samples,
              std::uint32_t* out) const override {
    const std::size_t stride = acts.tile;
    if (samples > stride || samples > kMaxKernelTile) {
      throw std::invalid_argument("MatmulKernel::matmul: samples exceed the tile");
    }
    const std::size_t k = w.k;
    for (std::size_t r = 0; r < w.rows; ++r) {
      Acc acc[kMaxKernelTile] = {};
      if (w.bias_ssig[r] != 0) {
        for (std::size_t s = 0; s < samples; ++s) {
          acc[s].add_product(w.bias_ssig[r], w.bias_shift[r]);
        }
      }
      const std::int32_t* ws = w.ssig.data() + r * k;
      if constexpr (std::is_same_v<Acc, AccKulisch64>) {
        for (std::size_t i = 0; i < k; ++i) {
          const std::int64_t wv = ws[i];
          const std::int64_t* as = acts.ssig.data() + i * stride;
          for (std::size_t s = 0; s < samples; ++s) acc[s].v += wv * as[s];
        }
      } else {
        const std::int32_t* wsh = w.shift.data() + r * k;
        for (std::size_t i = 0; i < k; ++i) {
          const std::int64_t wss = ws[i];
          const std::int64_t shift = wsh[i];
          const std::int64_t* as = acts.ssig.data() + i * stride;
          const std::int64_t* af = acts.sf.data() + i * stride;
          for (std::size_t s = 0; s < samples; ++s) {
            acc[s].add_product(wss * as[s], static_cast<int>(shift + af[s]));
          }
        }
      }
      const unsigned rk =
          w.row_kinds[r] |
          (w.bias_nar[r] != 0 ? static_cast<unsigned>(DecodedOp::kNaR) : 0u);
      for (std::size_t s = 0; s < samples; ++s) {
        out[r * stride + s] = readout_lane(spec_, acc[s], rk | acts.kinds[s]);
      }
    }
  }
};

std::unique_ptr<MatmulKernel> make_scalar_kernel(const KernelSpec& spec) {
  switch (spec.acc_kind) {
    case AccKind::kI64:
      return std::make_unique<ScalarBlockedKernel<AccKulisch64>>(spec);
    case AccKind::kI128:
      return std::make_unique<ScalarBlockedKernel<AccKulisch128>>(spec);
    case AccKind::kWide:
      return std::make_unique<ScalarBlockedKernel<AccKulischWide>>(spec);
  }
  throw std::logic_error("MatmulKernel: bad accumulator kind");
}

}  // namespace

namespace detail {

std::uint32_t readout_lane_encoder(const KernelSpec& spec, std::int64_t acc, unsigned kinds) {
  return readout_acc(spec, AccKulisch64{acc}, kinds);
}

std::uint32_t readout_lane_encoder(const KernelSpec& spec, __int128 acc, unsigned kinds) {
  return readout_acc(spec, AccKulisch128{acc}, kinds);
}

}  // namespace detail

ScaleRange format_scale_range(const num::Format& fmt) {
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const auto s = static_cast<std::int32_t>(fmt.posit().max_scale());
      return {-s, s};
    }
    case num::Kind::kFloat:
      return {1, fmt.flt().expmax() + 1};
    case num::Kind::kFixed:
      return {0, 0};
  }
  throw std::logic_error("format_scale_range: bad kind");
}

ScaleRange plane_scale_range(const num::Format& fmt, const std::uint32_t* weight_bits,
                             std::size_t count, const std::uint32_t* bias_bits,
                             std::size_t rows) {
  const ScaleRange f = format_scale_range(fmt);
  ScaleRange r{f.hi, f.lo};  // empty until a finite operand widens it
  const auto take = [&r](const DecodedOp& d) {
    if (d.kind != DecodedOp::kFinite) return;
    r.lo = std::min(r.lo, d.sf);
    r.hi = std::max(r.hi, d.sf);
  };
  const std::shared_ptr<const DecodeLut> lut = shared_decode_lut(fmt);
  if (lut != nullptr) {
    // Mark the patterns present, then decode each one once: a store per
    // weight instead of a serial min/max chain through the plane.
    const std::size_t mask = lut->size() - 1;
    std::vector<std::uint8_t> present(lut->size(), 0);
    for (std::size_t i = 0; i < count; ++i) present[weight_bits[i] & mask] = 1;
    for (std::size_t j = 0; j < rows; ++j) present[bias_bits[j] & mask] = 1;
    for (std::size_t b = 0; b < present.size(); ++b) {
      if (present[b] != 0) take((*lut)[b]);
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) take(decode_operand(weight_bits[i], fmt));
    for (std::size_t j = 0; j < rows; ++j) take(decode_operand(bias_bits[j], fmt));
  }
  if (r.lo > r.hi) return {f.lo, f.lo};
  return r;
}

bool make_kernel_spec(const num::Format& fmt, std::size_t k, KernelSpec& out) {
  return make_kernel_spec(fmt, k, format_scale_range(fmt), out);
}

bool make_kernel_spec(const num::Format& fmt, std::size_t k, const ScaleRange& weights,
                      KernelSpec& out) {
  const ScaleRange acts = format_scale_range(fmt);
  if (weights.lo > weights.hi || weights.lo < acts.lo || weights.hi > acts.hi) {
    throw std::invalid_argument("make_kernel_spec: weight range outside the format's");
  }
  out = KernelSpec(fmt);
  out.k = k;
  if (k == 0) return false;
  // Each operand's half-shift sf + half_bias lies in [0, span] of its
  // range, so every product shift lies in [0, max_shift].
  out.weight_range = weights;
  out.w_half_bias = -weights.lo;
  out.a_half_bias = -acts.lo;
  out.sf_bias = out.w_half_bias + out.a_half_bias;
  const auto w_span = static_cast<std::size_t>(weights.hi - weights.lo);
  const auto a_span = static_cast<std::size_t>(acts.hi - acts.lo);
  const std::size_t max_shift = w_span + a_span;
  // Per-term bounds: every |ssig| <= 2^sig_bits, so |product| <=
  // 2^prod_bits; need_bits adds max_shift, the carry headroom of k + 1
  // terms and the sign. The two-limb split below uses the same terms. The
  // bias image splits by the same rule and stays below the largest product
  // term of its limb.
  std::size_t sig_bits = 0;
  std::size_t margin = 0;  // bits past max_shift + prod_bits + bit_width(k)
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const num::PositFormat& f = fmt.posit();
      if (f.n < f.es + 4) return false;  // posit_decode_raw precondition
      const int p = f.n - 2 - f.es;
      out.zero_sf = 0;
      out.frame = out.sf_bias + 2 * (p - 1);
      // |shifted product| < 2^(max_shift + 2P); the bias image, sf in range,
      // < 2^(w_span + S + 2P - 1); k + 1 terms need bit_width(k) + 1
      // headroom, +1 sign.
      sig_bits = static_cast<std::size_t>(p);
      margin = 2;
      out.nar_kinds = DecodedOp::kNaR;
      out.nar_pattern = f.nar_pattern();
      out.zero_pattern = f.zero_pattern();
      break;
    }
    case num::Kind::kFloat: {
      const num::FloatFormat& f = fmt.flt();
      out.zero_sf = 1;  // zero patterns decode with effective exponent 1
      out.frame = out.sf_bias + 2 * f.bias() + 2 * f.wf;
      // |ssig| < 2^(wf+1). decode_operand reads every exponent field as a
      // finite one, the all-ones Inf/NaN field included, so biased exponents
      // lie in [1, expmax + 1]. The bias shift exp + sf_bias + bias + wf can
      // pass max_shift, but its significand has only wf+1 bits, so its image
      // in either limb stays below that limb's largest product term.
      sig_bits = static_cast<std::size_t>(f.wf) + 1;
      margin = 1;
      out.zero_pattern = num::float_zero(f);
      break;
    }
    case num::Kind::kFixed: {
      const num::FixedFormat& f = fmt.fixed();
      out.zero_sf = 0;
      out.fixed_q = f.q;
      // |product| < 2^(2n-2); the bias image raw << q is no larger. Every
      // product shift is 0, so the split never helps: one limb or none.
      sig_bits = static_cast<std::size_t>(f.n) - 1;
      margin = 2;
      out.readout = KernelSpec::Readout::kFixed;
      out.fixed_lo = f.raw_min();
      out.fixed_hi = f.raw_max();
      out.fixed_mask = f.mask();
      break;
    }
  }
  const std::size_t prod_bits = 2 * sig_bits;
  const auto headroom = static_cast<std::size_t>(std::bit_width(k)) + margin;
  out.need_bits = max_shift + prod_bits + headroom;
  // Whether the format has a kernel at all is decided by its format-wide
  // bound, so a narrow plane never moves a layer off the step fallback: the
  // same ceiling as the step() units. The fixed readout extracts the raw
  // register, so fixed formats cap at the 128-bit policy (the wide register
  // has no cheap extraction and no real format gets anywhere near 125 bits).
  const std::size_t format_need = 2 * a_span + prod_bits + headroom;
  if (format_need > (fmt.kind() == num::Kind::kFixed ? 125u : 250u)) return false;
  out.table = num::shared_encode_table(fmt);
  if (out.table != nullptr) out.readout = KernelSpec::Readout::kTable;
  out.acc_kind = select_acc_kind(out.need_bits);
  if (out.acc_kind == AccKind::kI64) {
    // One limb: the operands are stored pre-shifted (kernel.hpp), each
    // within 2^(sig_bits + span) of its own range. The halves differ for a
    // plane range, so each must fit int32 on its own; a format-wide spec
    // always does, since there sig_bits + span = (prod_bits + max_shift)/2
    // and need_bits <= 62 caps that at 30. A lopsided plane keeps the
    // (ssig, shift) layout on a wider register instead.
    if (sig_bits + std::max(w_span, a_span) <= 30) {
      out.limbs = 1;
      return true;
    }
    out.acc_kind = AccKind::kI128;
  }
  // Two limbs split at T: each of the <= k+1 hi-limb terms is below
  // 2^(prod_bits + max_shift - T), each term with shift < T below
  // 2^(prod_bits + T - 1). Both sums keep the bit_width(k) + 2 headroom of
  // the one-limb 62-bit bound (kernel.hpp).
  const std::size_t split = max_shift / 2;
  const std::size_t limb_bits = prod_bits + std::max(split, max_shift - split) +
                                static_cast<std::size_t>(std::bit_width(k)) + 2;
  if (limb_bits <= 62) {
    out.limbs = 2;
    out.limb_split = static_cast<int>(split);
  }
  return true;
}

MatmulKernel::MatmulKernel(const KernelSpec& spec, std::size_t tile, const char* name)
    : spec_(spec), tile_(tile), name_(name), lut_(shared_decode_lut(spec.fmt)) {
  switch (spec_.fmt.kind()) {
    case num::Kind::kPosit:
      mask_ = spec_.fmt.posit().mask();
      break;
    case num::Kind::kFloat:
      mask_ = spec_.fmt.flt().mask();
      break;
    case num::Kind::kFixed:
      mask_ = spec_.fmt.fixed().mask();
      break;
  }
}

std::unique_ptr<MatmulKernel> MatmulKernel::create(const num::Format& fmt, std::size_t k) {
  return create(fmt, k, format_scale_range(fmt));
}

std::unique_ptr<MatmulKernel> MatmulKernel::create(const num::Format& fmt, std::size_t k,
                                                   const ScaleRange& weights) {
  KernelSpec spec(fmt);
  if (!make_kernel_spec(fmt, k, weights, spec)) return nullptr;
#if defined(DP_HAVE_AVX2_KERNEL)
  if (spec.limbs != 0 && !scalar_kernel_forced() && __builtin_cpu_supports("avx2")) {
    return make_avx2_kernel(spec);
  }
#endif
  return make_scalar_kernel(spec);
}

std::unique_ptr<MatmulKernel> MatmulKernel::create_scalar(const num::Format& fmt,
                                                          std::size_t k) {
  return create_scalar(fmt, k, format_scale_range(fmt));
}

std::unique_ptr<MatmulKernel> MatmulKernel::create_scalar(const num::Format& fmt, std::size_t k,
                                                          const ScaleRange& weights) {
  KernelSpec spec(fmt);
  if (!make_kernel_spec(fmt, k, weights, spec)) return nullptr;
  return make_scalar_kernel(spec);
}

PackedPlane MatmulKernel::pack_plane(const DecodedOp* weights, std::size_t rows,
                                     const std::uint32_t* bias_bits) const {
  PackedPlane p;
  p.rows = rows;
  p.k = spec_.k;
  const bool preshift = spec_.limbs == 1;
  const std::int32_t w_half_bias = spec_.w_half_bias;
  // Any finite operand outside the spec's range, checked after packing.
  const std::int32_t range_lo = spec_.weight_range.lo;
  const auto range_span = static_cast<std::uint32_t>(spec_.weight_range.hi - range_lo);
  bool outside = false;
  const auto see = [&](const DecodedOp& d) {
    outside |= (d.kind == DecodedOp::kFinite) &
               (static_cast<std::uint32_t>(d.sf - range_lo) > range_span);
  };
  p.ssig.resize(rows * p.k);
  if (!preshift) p.shift.resize(rows * p.k);
  p.row_kinds.assign(rows, 0);
  p.bias_ssig.assign(rows, 0);
  p.bias_shift.assign(rows, 0);
  p.bias_nar.assign(rows, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    unsigned kinds = 0;
    for (std::size_t i = 0; i < p.k; ++i) {
      const DecodedOp& d = weights[r * p.k + i];
      see(d);
      kinds |= static_cast<unsigned>(d.kind);
      // A zero operand packs whatever its sf: a value-initialized DecodedOp
      // (sf = 0) is a valid zero weight here, though its half-shift may be
      // negative. Pre-shifted it is 0; unshifted it takes the lowest weight
      // shift, which no activation sf can turn negative.
      if (preshift) {
        p.ssig[r * p.k + i] =
            d.ssig == 0 ? 0 : static_cast<std::int32_t>(preshifted(d, w_half_bias));
      } else {
        p.ssig[r * p.k + i] = static_cast<std::int32_t>(d.ssig);
        p.shift[r * p.k + i] = d.ssig == 0 ? spec_.a_half_bias : d.sf + spec_.sf_bias;
      }
    }
    p.row_kinds[r] = static_cast<std::uint8_t>(kinds);
    // Resolve the bias to its accumulator image once, exactly as the step()
    // units' reset() does per neuron: its value in the spec's frame.
    const DecodedOp b = decode_operand(bias_bits[r], spec_.fmt);
    see(b);
    if (b.kind == DecodedOp::kNaR) {
      p.bias_nar[r] = 1;
      continue;
    }
    if (b.kind != DecodedOp::kFinite) continue;
    p.bias_ssig[r] = b.ssig;
    switch (spec_.fmt.kind()) {
      case num::Kind::kPosit: {
        const num::PositFormat& f = spec_.fmt.posit();
        p.bias_shift[r] = b.sf + spec_.sf_bias + (f.n - 2 - f.es) - 1;
        break;
      }
      case num::Kind::kFloat: {
        const num::FloatFormat& f = spec_.fmt.flt();
        p.bias_shift[r] = b.sf + spec_.sf_bias + f.bias() + f.wf;
        break;
      }
      case num::Kind::kFixed:
        p.bias_shift[r] = spec_.fixed_q;
        break;
    }
  }
  if (outside) {
    throw std::invalid_argument("MatmulKernel::pack_plane: operand outside the weight range");
  }
  return p;
}

void MatmulKernel::pack_acts(const std::uint32_t* bits, std::size_t fan_in,
                             std::size_t samples, std::size_t stride,
                             ActTile& out) const {
  if (samples > stride) {
    throw std::invalid_argument("MatmulKernel::pack_acts: samples > stride");
  }
  out.tile = stride;
  out.fan_in = fan_in;
  out.ssig.assign(fan_in * stride, 0);
  out.kinds.assign(stride, 0);
  const bool preshift = spec_.limbs == 1;
  if (preshift) {
    out.sf.clear();
  } else {
    out.sf.assign(fan_in * stride, spec_.zero_sf);
  }
  std::int64_t* ssig = out.ssig.data();
  std::int64_t* sf = out.sf.data();
  std::uint8_t* kinds = out.kinds.data();
  const DecodeLut* lut = lut_.get();
  const int half_bias = spec_.a_half_bias;
  for (std::size_t i = 0; i < fan_in; ++i) {
    for (std::size_t s = 0; s < samples; ++s) {
      const std::size_t at = i * stride + s;
      const DecodedOp d =
          lut != nullptr ? (*lut)[bits[at] & mask_] : decode_operand(bits[at], spec_.fmt);
      // No zero test: zero and NaR operands decode with ssig = 0 and a
      // non-negative shift, so they pre-shift to 0 as they are. A branch
      // here would mispredict on post-ReLU zeros.
      if (preshift) {
        ssig[at] = preshifted(d, half_bias);
      } else {
        ssig[at] = d.ssig;
        sf[at] = d.sf;
      }
      kinds[s] |= static_cast<std::uint8_t>(d.kind);
    }
  }
}

}  // namespace dp::emac
