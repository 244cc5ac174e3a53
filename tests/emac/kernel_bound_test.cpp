// Accumulator-bound edge tests for the blocked matmul kernels.
//
// The kernels' exactness argument rests on one invariant: every PARTIAL sum
// of up to k shifted significand products plus the bias image fits the
// register selected by KernelSpec::need_bits — magnitude strictly below
// 2^(need_bits - 1). These tests attack that invariant with adversarial
// operand patterns (all-max-magnitude rows, alternating-sign cancellation,
// NaR/zero interleaves), tracking the exact partial sums in __int128
// alongside, and check the bound computation itself: static_asserts on the
// select_acc_kind register boundaries and the relation to the paper's
// eq. (4) quire width. The two-limb split gets the same treatment per limb:
// a worst-case check at every bit_width(k) step, and adversarial walks
// mirrored limb by limb in scalar code beside the exact sum. Last, the lane
// readout every kernel shares is driven directly against the register
// readout plus the generic encoders.

#include "emac/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "emac/accum.hpp"
#include "emac/decode_lut.hpp"
#include "emac/emac.hpp"
#include "numeric/format.hpp"

namespace dp::emac {
namespace {

// The register-selection boundaries are compile-time facts: 62 magnitude
// bits is the last int64 spec (1 sign bit + 1 negation-margin bit), 125 the
// last __int128 one. A regression here silently over- or under-allocates
// every kernel, so pin them with static_assert.
static_assert(select_acc_kind(1) == AccKind::kI64);
static_assert(select_acc_kind(62) == AccKind::kI64);
static_assert(select_acc_kind(63) == AccKind::kI128);
static_assert(select_acc_kind(125) == AccKind::kI128);
static_assert(select_acc_kind(126) == AccKind::kWide);
static_assert(select_acc_kind(250) == AccKind::kWide);

using u128 = unsigned __int128;
using i128 = __int128;

int bit_width_u128(u128 v) {
  int b = 0;
  while (v != 0) {
    ++b;
    v >>= 1;
  }
  return b;
}

u128 abs_i128(i128 v) { return v < 0 ? -static_cast<u128>(v) : static_cast<u128>(v); }

/// The finite pattern of maximum magnitude and the one of minimum (most
/// negative) value, judged in the kernel's own (ssig, sf) frame.
struct Extremes {
  std::uint32_t max_mag = 0;  // maximizes |ssig| * 2^sf
  std::uint32_t min_val = 0;  // minimizes ssig * 2^sf (most negative)
};

Extremes find_extremes(const num::Format& fmt) {
  const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
  Extremes e;
  long double best_mag = -1.0L;
  long double worst_val = 1.0L;
  for (std::uint32_t bits = 0; bits <= mask; ++bits) {
    const DecodedOp d = decode_operand(bits, fmt);
    if (d.kind != DecodedOp::kFinite) continue;
    const long double mag = std::ldexp(static_cast<long double>(
                                           d.ssig < 0 ? -d.ssig : d.ssig),
                                       d.sf);
    const long double val = std::ldexp(static_cast<long double>(d.ssig), d.sf);
    if (mag > best_mag) {
      best_mag = mag;
      e.max_mag = bits;
    }
    if (val < worst_val) {
      worst_val = val;
      e.min_val = bits;
    }
  }
  return e;
}

std::uint32_t zero_pattern(const num::Format& fmt) {
  switch (fmt.kind()) {
    case num::Kind::kPosit:
      return fmt.posit().zero_pattern();
    case num::Kind::kFloat:
      return num::float_zero(fmt.flt());
    case num::Kind::kFixed:
      return num::fixed_from_raw(0, fmt.fixed());
  }
  return 0;
}

/// |product image| of one (weight, activation) pair in the accumulator
/// frame: |ssig_w * ssig_a| << (sf_w + sf_a + sf_bias).
u128 product_image(const KernelSpec& spec, std::uint32_t w_bits, std::uint32_t a_bits) {
  const DecodedOp w = decode_operand(w_bits, spec.fmt);
  const DecodedOp a = decode_operand(a_bits, spec.fmt);
  const i128 prod = static_cast<i128>(w.ssig) * a.ssig;
  const int shift = w.sf + a.sf + spec.sf_bias;
  EXPECT_GE(shift, 0);
  return abs_i128(prod) << shift;
}

/// Signed product image, for the cancellation walk.
i128 signed_product_image(const KernelSpec& spec, std::uint32_t w_bits,
                          std::uint32_t a_bits) {
  const DecodedOp w = decode_operand(w_bits, spec.fmt);
  const DecodedOp a = decode_operand(a_bits, spec.fmt);
  return (static_cast<i128>(w.ssig) * a.ssig) << (w.sf + a.sf + spec.sf_bias);
}

/// |bias image| via the kernel's own pre-resolution (pack_plane).
u128 bias_image(const MatmulKernel& kern, std::uint32_t bias_bits) {
  const std::size_t k = kern.spec().k;
  std::vector<DecodedOp> wdec(k);  // zeros; only the bias matters here
  const PackedPlane p = kern.pack_plane(wdec.data(), 1, &bias_bits);
  if (p.bias_nar[0] != 0) return 0;
  return abs_i128(p.bias_ssig[0]) << p.bias_shift[0];
}

/// The two kernel factories, each for an explicit weight range: dispatched
/// (AVX2 where eligible) and forced scalar.
using Factory = std::unique_ptr<MatmulKernel> (*)(const num::Format&, std::size_t,
                                                  const ScaleRange&);
constexpr Factory kFactories[] = {&MatmulKernel::create, &MatmulKernel::create_scalar};

/// Both kernels (dispatched + forced scalar), each sized for the format's
/// full range and for the plane's own range, against the step() oracle on
/// a fully specified adversarial plane, every output word.
void expect_kernels_match_step(const num::Format& fmt, std::size_t k,
                               const std::vector<std::uint32_t>& weight_bits,
                               const std::vector<std::uint32_t>& bias_bits,
                               const std::vector<std::uint32_t>& act_bits,  // [s*k+i]
                               std::size_t samples) {
  const std::size_t rows = bias_bits.size();
  ASSERT_EQ(weight_bits.size(), rows * k);
  ASSERT_EQ(act_bits.size(), samples * k);

  std::unique_ptr<Emac> unit = make_emac(fmt, k);
  std::vector<std::uint32_t> expected(samples * rows);
  for (std::size_t s = 0; s < samples; ++s) {
    for (std::size_t r = 0; r < rows; ++r) {
      unit->reset(bias_bits[r]);
      for (std::size_t i = 0; i < k; ++i) {
        unit->step(weight_bits[r * k + i], act_bits[s * k + i]);
      }
      expected[s * rows + r] = unit->result();
    }
  }

  std::vector<DecodedOp> wdec(weight_bits.size());
  unit->decode_plane(weight_bits.data(), weight_bits.size(), wdec.data());
  const ScaleRange plane =
      plane_scale_range(fmt, weight_bits.data(), weight_bits.size(), bias_bits.data(), rows);
  for (const Factory make : kFactories) {
    for (const ScaleRange& range : {format_scale_range(fmt), plane}) {
      const std::unique_ptr<MatmulKernel> kern = (*make)(fmt, k, range);
      ASSERT_NE(kern, nullptr) << fmt.name() << " k=" << k;
      SCOPED_TRACE(std::string(kern->name()) + " weight sf in [" + std::to_string(range.lo) +
                   ", " + std::to_string(range.hi) + "]");
      const std::size_t tile = kern->tile();
      const PackedPlane packed = kern->pack_plane(wdec.data(), rows, bias_bits.data());
      // Samples past one tile run as further tiles, the last one ragged.
      for (std::size_t t0 = 0; t0 < samples; t0 += tile) {
        const std::size_t live = std::min(tile, samples - t0);
        std::vector<std::uint32_t> interleaved(k * tile, 0);
        for (std::size_t i = 0; i < k; ++i) {
          for (std::size_t s = 0; s < live; ++s) {
            interleaved[i * tile + s] = act_bits[(t0 + s) * k + i];
          }
        }
        ActTile acts;
        kern->pack_acts(interleaved.data(), k, live, tile, acts);
        std::vector<std::uint32_t> out(rows * tile, 0xffffffffu);
        kern->matmul(packed, acts, live, out.data());
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t s = 0; s < live; ++s) {
            ASSERT_EQ(out[r * tile + s], expected[(t0 + s) * rows + r])
                << fmt.name() << " k=" << k << " row=" << r << " sample=" << (t0 + s);
          }
        }
      }
    }
  }
}

TEST(KernelBound, SpecSelectsTheRegisterItsBoundRequires) {
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      for (const std::size_t k : {std::size_t{5}, std::size_t{33}, std::size_t{128}}) {
        KernelSpec spec(fmt);
        ASSERT_TRUE(make_kernel_spec(fmt, k, spec)) << fmt.name() << " k=" << k;
        EXPECT_EQ(spec.acc_kind, select_acc_kind(spec.need_bits)) << fmt.name();
        switch (spec.acc_kind) {
          case AccKind::kI64:
            EXPECT_LE(spec.need_bits, 62u) << fmt.name();
            break;
          case AccKind::kI128:
            EXPECT_LE(spec.need_bits, 125u) << fmt.name();
            break;
          case AccKind::kWide:
            EXPECT_LE(spec.need_bits, 250u) << fmt.name();
            break;
        }
        // Monotone in k through the carry-headroom term.
        KernelSpec spec2(fmt);
        ASSERT_TRUE(make_kernel_spec(fmt, 2 * k, spec2));
        EXPECT_GE(spec2.need_bits, spec.need_bits) << fmt.name();
      }
    }
  }
}

TEST(KernelBound, PositSpecDominatesTheEq4QuireWidth) {
  // The paper's eq. (4) quire is the width that makes a posit accumulation
  // exact; a kernel register narrower than it would be a correctness bug.
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      if (fmt.kind() != num::Kind::kPosit) continue;
      for (const std::size_t k : {std::size_t{5}, std::size_t{33}, std::size_t{128}}) {
        KernelSpec spec(fmt);
        ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
        EXPECT_GE(spec.need_bits, quire_width_eq4(fmt.posit(), k))
            << fmt.name() << " k=" << k;
      }
    }
  }
}

TEST(KernelBound, AllMaxMagnitudePartialSumsFitTheRegister) {
  // Worst case by construction: every operand pair is the format's largest
  // finite magnitude and the bias is too, all the same sign, so the running
  // sum IS the largest partial sum any subset can reach. Track it exactly in
  // unsigned __int128 and hold it under 2^(need_bits - 1).
  const std::size_t k = 64;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      KernelSpec spec(fmt);
      ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
      if (spec.need_bits > 120) continue;  // wide-register formats: no u128 mirror
      const Extremes e = find_extremes(fmt);
      const auto kern = MatmulKernel::create_scalar(fmt, k);
      ASSERT_NE(kern, nullptr);

      const u128 prod = product_image(spec, e.max_mag, e.max_mag);
      // The per-term claim behind the bound: each |shifted product| leaves
      // bit_width(k) carry headroom plus the sign bit.
      EXPECT_LE(bit_width_u128(prod),
                static_cast<int>(spec.need_bits) - std::bit_width(k) - 1)
          << fmt.name();

      u128 sum = bias_image(*kern, e.max_mag);
      const u128 limit = static_cast<u128>(1) << (spec.need_bits - 1);
      for (std::size_t i = 0; i < k; ++i) {
        sum += prod;
        ASSERT_LT(sum, limit) << fmt.name() << " after " << (i + 1) << " terms";
      }

      // And the kernels must still agree with step() on this exact pattern.
      std::vector<std::uint32_t> weights(2 * k, e.max_mag);
      std::vector<std::uint32_t> bias{e.max_mag, e.min_val};
      std::vector<std::uint32_t> acts(3 * k, e.max_mag);
      expect_kernels_match_step(fmt, k, weights, bias, acts, 3);
    }
  }
}

TEST(KernelBound, AlternatingSignCancellationStaysBoundedAndExact) {
  // Max-magnitude terms with alternating signs: partial sums swing through
  // near-cancellation, the classic failure mode of any early-rounding
  // shortcut. The exact walk must stay inside the register at every prefix,
  // and the kernels must reproduce the step() result bit-for-bit.
  const std::size_t k = 63;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      KernelSpec spec(fmt);
      ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
      const Extremes e = find_extremes(fmt);

      std::vector<std::uint32_t> weights(k);
      for (std::size_t i = 0; i < k; ++i) weights[i] = i % 2 == 0 ? e.max_mag : e.min_val;

      if (spec.need_bits <= 120) {
        const i128 limit = static_cast<i128>(1) << (spec.need_bits - 1);
        i128 sum = 0;
        for (std::size_t i = 0; i < k; ++i) {
          sum += signed_product_image(spec, weights[i], e.max_mag);
          ASSERT_LT(abs_i128(sum), static_cast<u128>(limit))
              << fmt.name() << " after " << (i + 1) << " terms";
        }
      }

      std::vector<std::uint32_t> bias{e.min_val};
      std::vector<std::uint32_t> acts(2 * k, e.max_mag);
      expect_kernels_match_step(fmt, k, weights, bias, acts, 2);
    }
  }
}

TEST(KernelBound, NaRAndZeroInterleavesPropagateExactly) {
  // Zero operands must contribute exactly nothing in any position; a single
  // posit NaR anywhere in a row (or a NaR bias) must force the NaR readout
  // in every sample lane regardless of the surrounding magnitudes.
  // k = 128 puts the two-limb formats (posit<8,1>, <7,2>, <6,2>, the
  // we=5 floats) on the split with max-shift terms around the zeros.
  for (const std::size_t k : {std::size_t{12}, std::size_t{128}}) {
    for (int n = 5; n <= 8; ++n) {
      for (const num::Format& fmt : num::paper_format_grid(n)) {
        const Extremes e = find_extremes(fmt);
        const std::uint32_t zero = zero_pattern(fmt);

        std::vector<std::uint32_t> weights;
        std::vector<std::uint32_t> bias;
        // Row 0: zeros interleaved with max magnitudes. Row 1: adds NaR for
        // posits (the other families have no NaR pattern).
        for (std::size_t i = 0; i < k; ++i) weights.push_back(i % 2 == 0 ? zero : e.max_mag);
        bias.push_back(e.max_mag);
        if (fmt.kind() == num::Kind::kPosit) {
          const std::uint32_t nar = fmt.posit().nar_pattern();
          for (std::size_t i = 0; i < k; ++i) {
            weights.push_back(i % 3 == 0 ? nar : (i % 3 == 1 ? zero : e.max_mag));
          }
          bias.push_back(zero);
          // Row 2: finite weights but a NaR bias.
          for (std::size_t i = 0; i < k; ++i) weights.push_back(e.max_mag);
          bias.push_back(nar);
        }

        std::vector<std::uint32_t> acts;
        for (std::size_t s = 0; s < 4; ++s) {
          for (std::size_t i = 0; i < k; ++i) {
            acts.push_back(i % 2 == s % 2 ? zero : e.max_mag);
          }
        }
        expect_kernels_match_step(fmt, k, weights, bias, acts, 4);

        if (fmt.kind() == num::Kind::kPosit) {
          // Spot-check the propagation rule itself, not just oracle agreement:
          // rows 1 and 2 must read out NaR for every sample.
          const auto kern = MatmulKernel::create_scalar(fmt, k);
          ASSERT_NE(kern, nullptr);
          std::unique_ptr<Emac> unit = make_emac(fmt, k);
          std::vector<DecodedOp> wdec(weights.size());
          unit->decode_plane(weights.data(), weights.size(), wdec.data());
          const PackedPlane plane = kern->pack_plane(wdec.data(), bias.size(), bias.data());
          const std::size_t tile = kern->tile();
          std::vector<std::uint32_t> interleaved(k * tile, 0);
          for (std::size_t i = 0; i < k; ++i) {
            for (std::size_t s = 0; s < 4; ++s) interleaved[i * tile + s] = acts[s * k + i];
          }
          ActTile at;
          kern->pack_acts(interleaved.data(), k, 4, tile, at);
          std::vector<std::uint32_t> out(bias.size() * tile, 0);
          kern->matmul(plane, at, 4, out.data());
          for (std::size_t r = 1; r < bias.size(); ++r) {
            for (std::size_t s = 0; s < 4; ++s) {
              EXPECT_EQ(out[r * tile + s], fmt.posit().nar_pattern())
                  << fmt.name() << " row " << r << " sample " << s;
            }
          }
        }
      }
    }
  }
}

// --- The one-limb pre-shifted layout -----------------------------------------
// One-limb specs store every operand as ssig << (sf + its half of sf_bias)
// (kernel.hpp),
// and the AVX2 kernel multiplies their low 32 bits. make_kernel_spec proves
// they fit int32; these tests enumerate every pattern to check it, up to the
// specs whose bound sits exactly at 62 bits.

/// Formats with a one-limb spec at some fan-in: those of the paper grid, plus
/// wider ones whose 62-bit boundary falls at a small k — posit<10,0> at k = 4095,
/// posit<11,0> at 63, float<4,13> at 31 and float<4,15> at 1. The two floats
/// are wider than the 16-bit decode LUT, so they pack through decode_operand.
std::vector<num::Format> one_limb_formats() {
  std::vector<num::Format> formats;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      KernelSpec spec(fmt);
      if (make_kernel_spec(fmt, 1, spec) && spec.limbs == 1) formats.push_back(fmt);
    }
  }
  EXPECT_GE(formats.size(), 20u);
  formats.emplace_back(num::PositFormat{10, 0});
  formats.emplace_back(num::PositFormat{11, 0});
  formats.emplace_back(num::FloatFormat{4, 13});
  formats.emplace_back(num::FloatFormat{4, 15});
  formats.emplace_back(num::FixedFormat{16, 8});
  return formats;
}

/// The largest k whose spec still takes one limb; 0 if none. make_kernel_spec
/// only does arithmetic on k, so k may run far past any real fan-in.
std::size_t largest_one_limb_k(const num::Format& fmt) {
  std::size_t best = 0;
  for (int j = 1; j <= 62; ++j) {
    for (const std::size_t k : {(std::size_t{1} << j) - 1, std::size_t{1} << j}) {
      KernelSpec spec(fmt);
      if (make_kernel_spec(fmt, k, spec) && spec.limbs == 1) best = k;
    }
  }
  return best;
}

TEST(KernelBound, OneLimbPreShiftedOperandsFitInt32AtEveryBoundary) {
  for (const num::Format& fmt : one_limb_formats()) {
    SCOPED_TRACE(fmt.name());
    // Every pattern's pre-shifted operand, with a non-negative half-shift.
    KernelSpec spec(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, 1, spec));
    ASSERT_EQ(spec.limbs, 1);
    // The format-wide spec splits the product bias into equal halves.
    ASSERT_EQ(spec.w_half_bias, spec.a_half_bias);
    const std::uint32_t count = std::uint32_t{1} << fmt.total_bits();
    std::vector<std::uint32_t> patterns(count);
    std::vector<std::int64_t> want(count);
    std::int64_t largest = 0;
    for (std::uint32_t b = 0; b < count; ++b) {
      const DecodedOp d = decode_operand(b, fmt);
      const int half_shift = d.sf + spec.a_half_bias;
      ASSERT_GE(half_shift, 0) << "pattern " << b;
      ASSERT_LE(half_shift, 62) << "pattern " << b;
      patterns[b] = b;
      want[b] = static_cast<std::int64_t>(static_cast<i128>(d.ssig) << half_shift);
      largest = std::max(largest, want[b] < 0 ? -want[b] : want[b]);
    }
    EXPECT_LE(largest, std::int64_t{1} << 30);

    // The operands do not depend on k, so the bound holds at the widest
    // one-limb spec too, where need_bits is exactly 62.
    const std::size_t k_max = largest_one_limb_k(fmt);
    KernelSpec edge(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, k_max, edge));
    EXPECT_EQ(edge.limbs, 1);
    EXPECT_EQ(edge.need_bits, 62u) << "k=" << k_max;

    // pack_plane and pack_acts store exactly these operands, and nothing else.
    for (const Factory make : kFactories) {
      const auto kern = (*make)(fmt, 1, format_scale_range(fmt));
      ASSERT_NE(kern, nullptr);
      std::vector<DecodedOp> wdec(count);
      for (std::uint32_t b = 0; b < count; ++b) wdec[b] = decode_operand(b, fmt);
      const std::vector<std::uint32_t> bias(count, 0);
      const PackedPlane plane = kern->pack_plane(wdec.data(), count, bias.data());
      EXPECT_TRUE(plane.shift.empty()) << kern->name();
      ActTile acts;
      kern->pack_acts(patterns.data(), count, 1, 1, acts);
      EXPECT_TRUE(acts.sf.empty()) << kern->name();
      for (std::uint32_t b = 0; b < count; ++b) {
        ASSERT_EQ(plane.ssig[b], want[b]) << kern->name() << " weight pattern " << b;
        ASSERT_EQ(acts.ssig[b], want[b]) << kern->name() << " activation pattern " << b;
      }
    }
  }
}

TEST(KernelBound, OneLimbEdgeAllMaxMagnitudeRowsMatchStep) {
  // At the largest one-limb k of the formats whose edge is small, every
  // product at the format's largest magnitude: the partial sums climb to the
  // top of the 62-bit bound, through the dispatched and the scalar kernel.
  for (const num::Format& fmt : {num::Format{num::PositFormat{10, 0}},
                                 num::Format{num::PositFormat{11, 0}},
                                 num::Format{num::FloatFormat{4, 13}},
                                 num::Format{num::FloatFormat{4, 15}}}) {
    SCOPED_TRACE(fmt.name());
    const std::size_t k = largest_one_limb_k(fmt);
    KernelSpec spec(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
    ASSERT_EQ(spec.need_bits, 62u) << "k=" << k;
    const Extremes e = find_extremes(fmt);
    const u128 prod = product_image(spec, e.max_mag, e.max_mag);
    const auto scalar = MatmulKernel::create_scalar(fmt, k);
    ASSERT_NE(scalar, nullptr);
    const u128 top = static_cast<u128>(k) * prod + bias_image(*scalar, e.max_mag);
    EXPECT_LT(top, static_cast<u128>(1) << 61);
    // The sum really is near the edge: within 4 bits of it.
    EXPECT_GE(bit_width_u128(top), 57);

    const std::vector<std::uint32_t> weights(2 * k, e.max_mag);
    const std::vector<std::uint32_t> bias{e.max_mag, e.min_val};
    std::vector<std::uint32_t> acts(3 * k, e.max_mag);
    for (std::size_t i = 0; i < k; ++i) acts[2 * k + i] = e.min_val;
    expect_kernels_match_step(fmt, k, weights, bias, acts, 3);
  }
}

TEST(KernelBound, ZeroHeavyPostReluTilesMatchStep) {
  // Post-ReLU activations: three in four are the zero pattern, the rest
  // non-negative, over a full 16-sample tile at the benchmark's fan-in. Zeros
  // pack to a 0 operand with no branch; they must contribute nothing.
  const std::size_t k = 128;
  const std::size_t samples = kMaxKernelTile;
  std::uint32_t seed = 1501;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      KernelSpec spec(fmt);
      ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
      if (spec.limbs != 1) continue;
      SCOPED_TRACE(fmt.name());
      std::mt19937 rng(seed++);
      const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
      const num::ReluRule relu = num::relu_rule(fmt);
      std::vector<std::uint32_t> weights(3 * k);
      for (std::uint32_t& w : weights) w = rng() & mask;
      const std::vector<std::uint32_t> bias{static_cast<std::uint32_t>(rng()) & mask,
                                            zero_pattern(fmt),
                                            static_cast<std::uint32_t>(rng()) & mask};
      std::vector<std::uint32_t> acts(samples * k);
      std::size_t zeros = 0;
      for (std::uint32_t& a : acts) {
        a = rng() % 4 == 0 ? relu(rng() & mask) : zero_pattern(fmt);
        zeros += a == 0 ? 1 : 0;
      }
      EXPECT_GE(zeros, acts.size() / 2);
      expect_kernels_match_step(fmt, k, weights, bias, acts, samples);
    }
  }
}

// --- The two-limb split ------------------------------------------------------
// Formats whose bound passes 62 bits but splits at KernelSpec::limb_split
// into two int64 limbs (kernel.hpp): the hi limb sums prod << (shift - T)
// over the shift >= T terms, the lo limb every prod << shift mod 2^64, and
// join_kernel_limbs rebuilds the exact register.

/// Every finite pattern's kernel operand, enumerated once per format.
std::vector<DecodedOp> finite_operands(const num::Format& fmt) {
  std::vector<DecodedOp> ops;
  const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
  for (std::uint32_t bits = 0; bits <= mask; ++bits) {
    const DecodedOp d = decode_operand(bits, fmt);
    if (d.kind == DecodedOp::kFinite) ops.push_back(d);
  }
  return ops;
}

/// Largest |term| each limb can receive from one (weight, activation)
/// product: hi = |prod| << (shift - T) over shift >= T, lo = |prod| << shift
/// over shift < T.
struct LimbTermMax {
  u128 hi = 0;
  u128 lo = 0;
};

LimbTermMax product_term_max(const KernelSpec& spec, const std::vector<DecodedOp>& ops) {
  LimbTermMax m;
  for (const DecodedOp& w : ops) {
    for (const DecodedOp& a : ops) {
      const u128 prod = abs_i128(static_cast<i128>(w.ssig) * a.ssig);
      const int shift = w.sf + a.sf + spec.sf_bias;
      if (shift >= spec.limb_split) {
        m.hi = std::max(m.hi, prod << (shift - spec.limb_split));
      } else {
        m.lo = std::max(m.lo, prod << shift);
      }
    }
  }
  return m;
}

/// The same per-limb maxima over every bias pattern's pre-resolved image
/// (pack_plane), split at `split`.
LimbTermMax bias_term_max(const num::Format& fmt, int split) {
  const auto kern = MatmulKernel::create_scalar(fmt, 1);
  EXPECT_NE(kern, nullptr) << fmt.name();
  if (kern == nullptr) return {};
  const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
  std::vector<std::uint32_t> biases(std::size_t{mask} + 1);
  for (std::uint32_t b = 0; b <= mask; ++b) biases[b] = b;
  std::vector<DecodedOp> wdec(biases.size());  // zeros; only the biases matter
  const PackedPlane p = kern->pack_plane(wdec.data(), biases.size(), biases.data());
  LimbTermMax m;
  for (std::size_t r = 0; r < biases.size(); ++r) {
    if (p.bias_nar[r] != 0) continue;
    const u128 mag = abs_i128(p.bias_ssig[r]);
    if (p.bias_shift[r] >= split) {
      m.hi = std::max(m.hi, mag << (p.bias_shift[r] - split));
    } else {
      m.lo = std::max(m.lo, mag << p.bias_shift[r]);
    }
  }
  return m;
}

TEST(KernelBound, TwoLimbSplitCoversTheBenchmarkFormats) {
  const auto limbs = [](const num::Format& fmt, std::size_t k) {
    KernelSpec spec(fmt);
    EXPECT_TRUE(make_kernel_spec(fmt, k, spec)) << fmt.name() << " k=" << k;
    return spec.limbs;
  };
  EXPECT_EQ(limbs(num::PositFormat{8, 0}, 128), 1);
  EXPECT_EQ(limbs(num::PositFormat{8, 1}, 128), 2);
  EXPECT_EQ(limbs(num::PositFormat{7, 2}, 128), 2);
  EXPECT_EQ(limbs(num::PositFormat{6, 2}, 128), 2);
  EXPECT_EQ(limbs(num::PositFormat{8, 2}, 5), 2);
  EXPECT_EQ(limbs(num::PositFormat{8, 2}, 128), 0);
  EXPECT_EQ(limbs(num::PositFormat{8, 3}, 5), 0);
}

TEST(KernelBound, EachLimbWorstCaseFitsAtEveryBitWidthBoundary) {
  // For every two-limb (format, k) with k on either side of a bit_width
  // step, the worst case of each limb — k max-magnitude product terms plus
  // the largest bias term, all one sign — stays below 2^61, the same margin
  // as a one-limb 62-bit bound. For the lo limb that is the exact sum of
  // the shift < T terms, which the readout recovers from lo mod 2^64.
  const u128 limit = static_cast<u128>(1) << 61;
  int checked = 0;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const std::vector<DecodedOp> ops = finite_operands(fmt);
      for (int j = 1; j <= 30; ++j) {
        for (const std::size_t k : {(std::size_t{1} << j) - 1, std::size_t{1} << j}) {
          KernelSpec spec(fmt);
          ASSERT_TRUE(make_kernel_spec(fmt, k, spec)) << fmt.name() << " k=" << k;
          EXPECT_EQ(spec.limbs == 1, spec.acc_kind == AccKind::kI64) << fmt.name();
          if (spec.limbs != 2) continue;
          ASSERT_GE(spec.limb_split, 0);
          const LimbTermMax prod = product_term_max(spec, ops);
          const LimbTermMax bias = bias_term_max(fmt, spec.limb_split);
          EXPECT_LT(static_cast<u128>(k) * prod.hi + bias.hi, limit)
              << fmt.name() << " k=" << k << " hi limb";
          EXPECT_LT(static_cast<u128>(k) * prod.lo + bias.lo, limit)
              << fmt.name() << " k=" << k << " lo limb";
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

/// One (weight, activation) pair of the kernel frame: its finite patterns
/// and their signed product and shift.
struct Term {
  std::uint32_t w = 0;
  std::uint32_t a = 0;
  i128 prod = 0;
  int shift = 0;
};

/// The finite pair of largest |product| whose shift is exactly `shift`, with
/// the product's sign as asked; false when no pair has that shift.
bool max_term_at(const KernelSpec& spec, const std::vector<DecodedOp>& ops, int shift,
                 bool negative, Term& out) {
  bool found = false;
  for (const DecodedOp& w : ops) {
    for (const DecodedOp& a : ops) {
      if (w.sf + a.sf + spec.sf_bias != shift) continue;
      const i128 prod = static_cast<i128>(w.ssig) * a.ssig;
      if ((prod < 0) != negative) continue;
      if (!found || abs_i128(prod) > abs_i128(out.prod)) {
        out = {w.bits, a.bits, prod, shift};
        found = true;
      }
    }
  }
  return found;
}

/// Scalar mirror of one two-limb lane beside the exact sum. After every
/// term it checks both limb bounds and that join_kernel_limbs rebuilds the
/// exact register. `lo_left_int64` records whether the exact sum ever left
/// int64, i.e. whether the lo limb alone could not have held it.
struct LimbMirror {
  int split = 0;
  i128 hi = 0;
  std::uint64_t lo = 0;
  i128 low = 0;  // exact sum of the shift < split terms
  i128 exact = 0;
  bool lo_left_int64 = false;

  void add(i128 prod, int shift) {
    exact += prod << shift;
    if (shift < 64) lo += static_cast<std::uint64_t>(prod) << shift;
    if (shift >= split) {
      hi += prod << (shift - split);
    } else {
      low += prod << shift;
    }
    const i128 limit = static_cast<i128>(1) << 61;
    ASSERT_LT(abs_i128(hi), static_cast<u128>(limit)) << "hi limb";
    ASSERT_LT(abs_i128(low), static_cast<u128>(limit)) << "lo limb";
    ASSERT_TRUE(join_kernel_limbs(static_cast<std::int64_t>(hi),
                                  static_cast<std::int64_t>(lo), split) == exact);
    if (exact != static_cast<std::int64_t>(lo)) lo_left_int64 = true;
  }
};

/// Walk one row (bias, then every term) through the mirror, then run the
/// dispatched and scalar kernels against step() on it. Sample 0 takes the
/// walk's activations, sample 1 zeroes every other one, sample 2 all.
void walk_and_match(const num::Format& fmt, std::size_t k, const std::vector<Term>& terms,
                    std::uint32_t bias_bits, LimbMirror& mirror) {
  ASSERT_EQ(terms.size(), k);
  const auto kern = MatmulKernel::create_scalar(fmt, k);
  ASSERT_NE(kern, nullptr);
  std::vector<DecodedOp> wdec(k);
  const PackedPlane p = kern->pack_plane(wdec.data(), 1, &bias_bits);
  if (p.bias_nar[0] == 0) mirror.add(p.bias_ssig[0], p.bias_shift[0]);
  for (const Term& t : terms) {
    mirror.add(t.prod, t.shift);
    if (::testing::Test::HasFatalFailure()) return;
  }

  const std::uint32_t zero = zero_pattern(fmt);
  std::vector<std::uint32_t> weights(k);
  std::vector<std::uint32_t> acts(3 * k, zero);
  for (std::size_t i = 0; i < k; ++i) {
    weights[i] = terms[i].w;
    acts[i] = terms[i].a;
    if (i % 2 == 0) acts[k + i] = terms[i].a;
  }
  expect_kernels_match_step(fmt, k, weights, {bias_bits}, acts, 3);
}

/// Largest product shift any finite pair reaches.
int max_product_shift(const KernelSpec& spec) {
  int max_sf = 0;
  bool any = false;
  for (const DecodedOp& d : finite_operands(spec.fmt)) {
    max_sf = any ? std::max(max_sf, d.sf) : d.sf;
    any = true;
  }
  return 2 * max_sf + spec.sf_bias;
}

/// The two-limb formats of the paper grid, each at the largest power-of-two
/// fan-in (<= 128) that still splits.
std::vector<std::pair<num::Format, std::size_t>> two_limb_cases() {
  std::vector<std::pair<num::Format, std::size_t>> cases;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      for (std::size_t k = 128; k >= 2; k /= 2) {
        KernelSpec spec(fmt);
        if (make_kernel_spec(fmt, k, spec) && spec.limbs == 2) {
          cases.emplace_back(fmt, k);
          break;
        }
      }
    }
  }
  return cases;
}

TEST(KernelBound, TwoLimbAdversarialWalksRebuildTheExactSum) {
  const auto cases = two_limb_cases();
  ASSERT_GE(cases.size(), 4u);  // posit<8,1>, <7,2>, <6,2>, <8,2> at least
  for (const auto& [fmt, k] : cases) {
    SCOPED_TRACE(fmt.name() + " k=" + std::to_string(k));
    KernelSpec spec(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
    const int split = spec.limb_split;
    const int max_shift = max_product_shift(spec);
    Term lo_pos, lo_neg, hi_pos, hi_neg;
    const std::vector<DecodedOp> ops = finite_operands(fmt);
    ASSERT_TRUE(max_term_at(spec, ops, split - 1, false, lo_pos));
    ASSERT_TRUE(max_term_at(spec, ops, split - 1, true, lo_neg));
    ASSERT_TRUE(max_term_at(spec, ops, max_shift, false, hi_pos));
    ASSERT_TRUE(max_term_at(spec, ops, max_shift, true, hi_neg));
    const std::uint32_t maxpos = find_extremes(fmt).max_mag;

    bool lo_left_int64 = false;
    const auto walk = [&](const std::vector<Term>& terms, std::uint32_t bias) {
      LimbMirror mirror;
      mirror.split = split;
      walk_and_match(fmt, k, terms, bias, mirror);
      lo_left_int64 = lo_left_int64 || mirror.lo_left_int64;
    };
    // Every product at max magnitude with shift T - 1: the largest lo limb.
    walk(std::vector<Term>(k, lo_pos), maxpos);
    walk(std::vector<Term>(k, lo_neg), maxpos);
    // Every product at max magnitude with shift max_shift: the largest hi
    // limb; the lo limb holds the same sum mod 2^64.
    walk(std::vector<Term>(k, hi_pos), maxpos);
    walk(std::vector<Term>(k, hi_neg), maxpos);
    // Alternating signs: the lo limb takes every max-shift term mod 2^64
    // while the exact sum keeps cancelling back to (almost) nothing.
    std::vector<Term> alternating(k);
    for (std::size_t i = 0; i < k; ++i) alternating[i] = i % 2 == 0 ? hi_pos : hi_neg;
    walk(alternating, zero_pattern(fmt));
    // Both limbs at once, cancelling in pairs across the split.
    std::vector<Term> crossing(k);
    for (std::size_t i = 0; i < k; ++i) {
      crossing[i] = i % 4 == 0 ? hi_pos : (i % 4 == 1 ? lo_neg : (i % 4 == 2 ? hi_neg : lo_pos));
    }
    walk(crossing, maxpos);
    // One max term alone at every shift. Sums that large saturate the
    // readout above, but a lone term need not: past shift 63 (posit<8,2>)
    // it never reaches the lo limb, so only the hi limb carries it.
    const std::uint32_t zero = zero_pattern(fmt);
    for (int shift = 0; shift <= max_shift; ++shift) {
      Term t;
      if (!max_term_at(spec, ops, shift, false, t)) continue;
      std::vector<Term> single(k, Term{zero, zero, 0, 0});
      single[k / 2] = t;
      walk(single, zero);
    }
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // The walks must reach sums the lo limb alone cannot hold, or the join
    // would go untested.
    EXPECT_TRUE(lo_left_int64);
  }
}

// --- Per-plane specs ---------------------------------------------------------
// A spec sized for one plane's weight range (plane_scale_range): the weight
// half of the shift bias, the bound, the register, the limb count and the
// readout frame all move with the range, the activation half stays
// format-wide. Planes with weights at both ends of their range, fed the
// format's extreme activations, must still match step() bit for bit, and
// the chosen width must cover their largest partial sum.

/// Sub-ranges of the format's scale range: its bottom and top quarter, the
/// middle half, one scale in the middle, and the whole range.
std::vector<ScaleRange> plane_windows(const num::Format& fmt) {
  const ScaleRange f = format_scale_range(fmt);
  const int q = (f.hi - f.lo) / 4;
  const int mid = f.lo + (f.hi - f.lo) / 2;
  return {{f.lo, f.lo + q}, {f.hi - q, f.hi}, {f.lo + q, f.hi - q}, {mid, mid}, f};
}

/// The finite operands whose sf lies in `window`.
std::vector<DecodedOp> operands_in(const std::vector<DecodedOp>& ops, const ScaleRange& window) {
  std::vector<DecodedOp> in;
  for (const DecodedOp& d : ops) {
    if (d.sf >= window.lo && d.sf <= window.hi) in.push_back(d);
  }
  return in;
}

/// The range a set of finite operands spans.
ScaleRange span_of(const std::vector<DecodedOp>& ops) {
  ScaleRange r{ops.front().sf, ops.front().sf};
  for (const DecodedOp& d : ops) {
    r.lo = std::min(r.lo, d.sf);
    r.hi = std::max(r.hi, d.sf);
  }
  return r;
}

/// Of the operands with scale factor `sf` and the given sign, the one of
/// largest (or smallest) |ssig|.
std::uint32_t pick(const std::vector<DecodedOp>& ops, int sf, bool negative, bool largest) {
  const DecodedOp* best = nullptr;
  for (const DecodedOp& d : ops) {
    if (d.sf != sf || (d.ssig < 0) != negative) continue;
    const auto mag = [](const DecodedOp& o) { return o.ssig < 0 ? -o.ssig : o.ssig; };
    if (best == nullptr || (largest ? mag(d) > mag(*best) : mag(d) < mag(*best))) best = &d;
  }
  return best != nullptr ? best->bits : 0;
}

bool register_covers(AccKind kind, std::size_t need_bits) {
  switch (kind) {
    case AccKind::kI64:
      return need_bits <= 62;
    case AccKind::kI128:
      return need_bits <= 125;
    case AccKind::kWide:
      return need_bits <= 250;
  }
  return false;
}

TEST(KernelBound, PlaneSpecsWithWeightsAtBothEndsMatchStep) {
  std::uint32_t seed = 1801;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const std::vector<DecodedOp> ops = finite_operands(fmt);
      const Extremes e = find_extremes(fmt);
      const std::uint32_t zero = zero_pattern(fmt);
      const num::ReluRule relu = num::relu_rule(fmt);
      const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
      // The smallest finite magnitude, to reach the bottom of the frame.
      std::uint32_t tiny = 0;
      long double tiny_mag = INFINITY;
      for (const DecodedOp& d : ops) {
        const long double mag =
            std::ldexp(static_cast<long double>(d.ssig < 0 ? -d.ssig : d.ssig), d.sf);
        if (mag < tiny_mag) {
          tiny_mag = mag;
          tiny = d.bits;
        }
      }
      for (const ScaleRange& window : plane_windows(fmt)) {
        const std::vector<DecodedOp> in = operands_in(ops, window);
        if (in.empty()) continue;
        const ScaleRange r = span_of(in);
        SCOPED_TRACE(fmt.name() + " weight sf in [" + std::to_string(r.lo) + ", " +
                     std::to_string(r.hi) + "]");
        const std::uint32_t hi_pos = pick(in, r.hi, false, true);
        const std::uint32_t hi_neg = pick(in, r.hi, true, true);
        const std::uint32_t lo_small = pick(in, r.lo, false, false);
        const std::uint32_t lo_big = pick(in, r.lo, true, true);
        for (const std::size_t k : {std::size_t{64}, std::size_t{128}}) {
          std::vector<std::uint32_t> weights;
          for (std::size_t i = 0; i < k; ++i) weights.push_back(hi_pos);
          for (std::size_t i = 0; i < k; ++i) weights.push_back(i % 2 == 0 ? hi_pos : lo_small);
          for (std::size_t i = 0; i < k; ++i) {
            weights.push_back(i % 5 == 4 ? zero : (i % 2 == 0 ? hi_neg : lo_big));
          }
          for (std::size_t i = 0; i < k; ++i) weights.push_back(lo_small);
          const std::vector<std::uint32_t> bias{hi_pos, lo_small, zero, lo_big};

          // All-max, all-most-negative and all-tiny samples, then post-ReLU
          // tiles where three in four activations are zero.
          const std::size_t samples = kMaxKernelTile;
          std::mt19937 rng(seed++);
          std::vector<std::uint32_t> acts;
          for (const std::uint32_t a : {e.max_mag, e.min_val, tiny}) acts.insert(acts.end(), k, a);
          while (acts.size() < samples * k) {
            acts.push_back(rng() % 4 == 0 ? relu(rng() & mask) : zero);
          }

          const ScaleRange got =
              plane_scale_range(fmt, weights.data(), weights.size(), bias.data(), bias.size());
          ASSERT_TRUE(got == r);
          expect_kernels_match_step(fmt, k, weights, bias, acts, samples);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(KernelBound, PlaneSpecWidthCoversItsExtremeWeightsAtTheBenchmarkFanIns) {
  // For every paper-grid format, fan-in 64 and 128 and plane window: the
  // selected register holds k products of the plane's largest weights with
  // the format's largest activations plus the largest bias, a one-limb spec
  // keeps every pre-shifted operand within 2^30, and a two-limb spec keeps
  // each limb's worst case below 2^61.
  int one_limb = 0;
  int two_limb = 0;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const std::vector<DecodedOp> ops = finite_operands(fmt);
      for (const ScaleRange& window : plane_windows(fmt)) {
        const std::vector<DecodedOp> in = operands_in(ops, window);
        if (in.empty()) continue;
        const ScaleRange r = span_of(in);
        for (const std::size_t k : {std::size_t{64}, std::size_t{128}}) {
          SCOPED_TRACE(fmt.name() + " k=" + std::to_string(k) + " weight sf in [" +
                       std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]");
          KernelSpec spec(fmt);
          ASSERT_TRUE(make_kernel_spec(fmt, k, r, spec));
          EXPECT_EQ(spec.w_half_bias, -r.lo);
          EXPECT_EQ(spec.a_half_bias, -format_scale_range(fmt).lo);
          EXPECT_EQ(spec.sf_bias, spec.w_half_bias + spec.a_half_bias);
          EXPECT_TRUE(register_covers(spec.acc_kind, spec.need_bits));
          EXPECT_EQ(spec.limbs == 1, spec.acc_kind == AccKind::kI64);

          // The plane's biases: every window pattern, over zero weights.
          const auto kern = MatmulKernel::create_scalar(fmt, k, r);
          ASSERT_NE(kern, nullptr);
          std::vector<std::uint32_t> biases;
          for (const DecodedOp& d : in) biases.push_back(d.bits);
          const std::vector<DecodedOp> no_weights(biases.size() * k);
          const PackedPlane bias_plane = kern->pack_plane(no_weights.data(), biases.size(),
                                                          biases.data());
          for (std::size_t j = 0; j < biases.size(); ++j) {
            ASSERT_GE(bias_plane.bias_shift[j], 0);
          }
          if (spec.need_bits <= 120) {  // wide-register specs: no u128 mirror
            u128 bias_max = 0;
            for (std::size_t j = 0; j < biases.size(); ++j) {
              bias_max = std::max(bias_max, abs_i128(bias_plane.bias_ssig[j])
                                                << bias_plane.bias_shift[j]);
            }
            u128 prod_max = 0;
            for (const DecodedOp& w : in) {
              for (const DecodedOp& a : ops) {
                const int shift = w.sf + a.sf + spec.sf_bias;
                ASSERT_GE(shift, 0);
                prod_max =
                    std::max(prod_max, abs_i128(static_cast<i128>(w.ssig) * a.ssig) << shift);
              }
            }
            EXPECT_LE(bit_width_u128(prod_max),
                      static_cast<int>(spec.need_bits) - std::bit_width(k) - 1);
            EXPECT_LT(static_cast<u128>(k) * prod_max + bias_max,
                      static_cast<u128>(1) << (spec.need_bits - 1));
          }

          if (spec.limbs == 1) {
            ++one_limb;
            // Every weight in range and every activation of the format,
            // pre-shifted as packed.
            std::vector<DecodedOp> wdec((in.size() + k - 1) / k * k);
            std::copy(in.begin(), in.end(), wdec.begin());
            const std::vector<std::uint32_t> zero_bias(wdec.size() / k, 0);
            const PackedPlane plane = kern->pack_plane(wdec.data(), wdec.size() / k,
                                                       zero_bias.data());
            for (std::size_t i = 0; i < in.size(); ++i) {
              const std::int64_t want = in[i].ssig << (in[i].sf + spec.w_half_bias);
              ASSERT_EQ(plane.ssig[i], want) << "weight pattern " << in[i].bits;
              ASSERT_LE(want < 0 ? -want : want, std::int64_t{1} << 30);
            }
            std::vector<std::uint32_t> patterns;
            for (const DecodedOp& a : ops) patterns.push_back(a.bits);
            ActTile acts;
            kern->pack_acts(patterns.data(), patterns.size(), 1, 1, acts);
            for (std::size_t i = 0; i < ops.size(); ++i) {
              const std::int64_t want = ops[i].ssig << (ops[i].sf + spec.a_half_bias);
              ASSERT_EQ(acts.ssig[i], want) << "activation pattern " << ops[i].bits;
              ASSERT_LE(want < 0 ? -want : want, std::int64_t{1} << 30);
            }
          } else if (spec.limbs == 2) {
            ++two_limb;
            LimbTermMax prod;
            for (const DecodedOp& w : in) {
              for (const DecodedOp& a : ops) {
                const u128 mag = abs_i128(static_cast<i128>(w.ssig) * a.ssig);
                const int shift = w.sf + a.sf + spec.sf_bias;
                if (shift >= spec.limb_split) {
                  prod.hi = std::max(prod.hi, mag << (shift - spec.limb_split));
                } else {
                  prod.lo = std::max(prod.lo, mag << shift);
                }
              }
            }
            LimbTermMax bias;
            for (std::size_t j = 0; j < biases.size(); ++j) {
              const u128 mag = abs_i128(bias_plane.bias_ssig[j]);
              const int shift = bias_plane.bias_shift[j];
              if (shift >= spec.limb_split) {
                bias.hi = std::max(bias.hi, mag << (shift - spec.limb_split));
              } else {
                bias.lo = std::max(bias.lo, mag << shift);
              }
            }
            const u128 limit = static_cast<u128>(1) << 61;
            EXPECT_LT(static_cast<u128>(k) * prod.hi + bias.hi, limit) << "hi limb";
            EXPECT_LT(static_cast<u128>(k) * prod.lo + bias.lo, limit) << "lo limb";
          }
        }
      }
    }
  }
  EXPECT_GT(one_limb, 0);
  EXPECT_GT(two_limb, 0);
}

TEST(KernelBound, PlaneSpecsPickTheirLimbsFromTheRange) {
  const num::Format p81{num::PositFormat{8, 1}};
  // Whether dispatch takes AVX2 here (CPU support, DP_FORCE_SCALAR_KERNEL).
  const bool avx2 =
      std::string(MatmulKernel::create(num::PositFormat{8, 0}, 128)->name()) == "avx2";
  // posit<8,1> weights spanning scales -12..-1, as initialized nets hold:
  // 11 + 24 shift bits, 55 in all at k = 128, one limb.
  KernelSpec narrow(p81);
  ASSERT_TRUE(make_kernel_spec(p81, 128, ScaleRange{-12, -1}, narrow));
  EXPECT_EQ(narrow.need_bits, 55u);
  EXPECT_EQ(narrow.limbs, 1);
  EXPECT_STREQ(MatmulKernel::create(p81, 128, ScaleRange{-12, -1})->name(),
               avx2 ? "avx2" : "scalar-blocked");

  // A plane holding minpos and maxpos spans the whole range: the format-wide
  // spec, 68 bits, still the two-limb kernel.
  std::vector<std::uint32_t> weights(2 * 128, p81.posit().zero_pattern());
  weights[0] = 0x01;                               // minpos, scale -12
  weights[1] = p81.posit().nar_pattern() - 1;      // maxpos, scale 12
  weights[128] = 0x40;                             // 1.0
  weights[129] = 0xc0;                             // -1.0
  std::vector<DecodedOp> wdec(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) wdec[i] = decode_operand(weights[i], p81);
  const std::vector<std::uint32_t> bias{0x40, 0x20};
  const ScaleRange full = plane_scale_range(p81, weights.data(), weights.size(), bias.data(), 2);
  EXPECT_TRUE(full == format_scale_range(p81));
  KernelSpec wide(p81);
  ASSERT_TRUE(make_kernel_spec(p81, 128, full, wide));
  EXPECT_EQ(wide.need_bits, 68u);
  EXPECT_EQ(wide.limbs, 2);
  const auto kern = MatmulKernel::create(p81, 128, full);
  EXPECT_STREQ(kern->name(), avx2 ? "avx2-2limb" : "scalar-blocked");
  std::vector<std::uint32_t> acts(3 * 128, 0x7f);
  for (std::size_t i = 128; i < 256; ++i) acts[i] = 0x01;
  for (std::size_t i = 256; i < 384; i += 2) acts[i] = 0x81;
  expect_kernels_match_step(p81, 128, weights, bias, acts, 3);

  // posit<8,2> moves off the scalar kernel onto two limbs for a narrow
  // plane; its activation half alone (4 + 48 bits) never fits one limb.
  KernelSpec p82(num::Format{num::PositFormat{8, 2}});
  ASSERT_TRUE(make_kernel_spec(num::Format{num::PositFormat{8, 2}}, 128, ScaleRange{-20, -2}, p82));
  EXPECT_EQ(p82.limbs, 2);
  KernelSpec lopsided(num::Format{num::PositFormat{8, 2}});
  ASSERT_TRUE(make_kernel_spec(num::Format{num::PositFormat{8, 2}}, 1, ScaleRange{0, 0}, lopsided));
  EXPECT_LE(lopsided.need_bits, 62u);
  EXPECT_EQ(lopsided.acc_kind, AccKind::kI128);
  EXPECT_EQ(lopsided.limbs, 2);

  // A range outside the format's is a caller error; a weight outside the
  // spec's range must not pack.
  KernelSpec bad(p81);
  EXPECT_THROW(make_kernel_spec(p81, 128, ScaleRange{-13, 0}, bad), std::invalid_argument);
  EXPECT_THROW(make_kernel_spec(p81, 128, ScaleRange{2, 1}, bad), std::invalid_argument);
  for (const ScaleRange& narrower : {ScaleRange{-12, -1}, ScaleRange{0, 12}}) {
    for (const Factory make : kFactories) {
      EXPECT_THROW((*make)(p81, 128, narrower)->pack_plane(wdec.data(), 2, bias.data()),
                   std::invalid_argument);
    }
  }
}

// --- The lane readout --------------------------------------------------------
// readout_kernel_lane — the encode-table readout of posit and float formats
// up to 8 bits, the fixed shift-and-clip, the encoder fallback of wider
// formats — against the accum.hpp register readout plus the generic encoder,
// with the msb at every position of a one-limb and of a joined two-limb
// register and round-to-nearest-even ties built under it.

/// The reference: the AccKulisch64 / AccKulisch128 readout and the format's
/// own encoder after the NaR and zero screens, or the FixedEmac shift and
/// clip.
template <typename Acc>
std::uint32_t reference_readout(const KernelSpec& spec, const Acc& acc, unsigned kinds) {
  const num::Format& fmt = spec.fmt;
  num::Unpacked u;
  switch (fmt.kind()) {
    case num::Kind::kPosit:
      if ((kinds & DecodedOp::kNaR) != 0) return fmt.posit().nar_pattern();
      if (acc.is_zero()) return fmt.posit().zero_pattern();
      acc.readout(u, spec.frame);
      return num::posit_encode(u, fmt.posit());
    case num::Kind::kFloat:
      if (acc.is_zero()) return num::float_zero(fmt.flt());
      acc.readout(u, spec.frame);
      return num::float_encode(u, fmt.flt(), num::FloatOverflow::kSaturate);
    case num::Kind::kFixed: {
      const num::FixedFormat& f = fmt.fixed();
      const i128 shifted = static_cast<i128>(acc.v) >> f.q;
      return num::fixed_from_raw(
          static_cast<std::int64_t>(std::clamp<i128>(shifted, f.raw_min(), f.raw_max())), f);
    }
  }
  return 0;
}

/// Magnitudes with the msb at bit p: the msb alone, all ones under it, and
/// for every guard position g bits below the msb a tie with the bit above
/// the guard clear and set, and the guard with a sticky bit just under it
/// and at bit 0.
std::vector<u128> readout_magnitudes(int p) {
  const u128 one = 1;
  const u128 top = one << p;
  std::vector<u128> mags = {top, (top << 1) - 1};
  for (int g = 1; g <= std::min(p, 10); ++g) {
    const u128 tie = top | (one << (p - g));
    mags.push_back(tie);
    if (g > 1) mags.push_back(tie | (one << (p - g + 1)));
    if (p - g > 0) {
      mags.push_back(tie | (one << (p - g - 1)));
      mags.push_back(tie | 1);
    }
  }
  return mags;
}

KernelSpec::Readout expected_readout(const num::Format& fmt) {
  if (fmt.kind() == num::Kind::kFixed) return KernelSpec::Readout::kFixed;
  return fmt.total_bits() <= 8 ? KernelSpec::Readout::kTable : KernelSpec::Readout::kEncoder;
}

TEST(KernelBound, LaneReadoutMatchesTheRegisterReadoutAndEncoder) {
  std::vector<num::Format> formats;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) formats.push_back(fmt);
  }
  formats.emplace_back(num::PositFormat{16, 1});  // the encoder fallback
  formats.emplace_back(num::FloatFormat{5, 10});
  const unsigned kinds_list[] = {DecodedOp::kFinite, DecodedOp::kFinite | DecodedOp::kZero,
                                 DecodedOp::kFinite | DecodedOp::kNaR, DecodedOp::kZero,
                                 DecodedOp::kNaR};
  for (const num::Format& fmt : formats) {
    SCOPED_TRACE(fmt.name());
    KernelSpec spec(fmt);
    ASSERT_TRUE(make_kernel_spec(fmt, 128, spec));
    ASSERT_EQ(spec.readout, expected_readout(fmt));
    // The two-limb lanes reach the readout through join_kernel_limbs; split
    // every 128-bit register there, at the spec's own T when it has one,
    // raised as far as the hi limb needs to stay inside int64.
    const int split = spec.limbs == 2 ? spec.limb_split : 32;
    for (const unsigned kinds : kinds_list) {
      ASSERT_EQ(readout_kernel_lane(spec, std::int64_t{0}, kinds),
                reference_readout(spec, AccKulisch64{0}, kinds));
      ASSERT_EQ(readout_kernel_lane(spec, i128{0}, kinds),
                reference_readout(spec, AccKulisch128{0}, kinds));
    }
    for (int p = 0; p <= 124; ++p) {
      for (const u128 mag : readout_magnitudes(p)) {
        for (const bool neg : {false, true}) {
          const i128 v = neg ? -static_cast<i128>(mag) : static_cast<i128>(mag);
          const int t = std::max(split, p - 61);
          const i128 joined = join_kernel_limbs(static_cast<std::int64_t>(v >> t),
                                                static_cast<std::int64_t>(v), t);
          ASSERT_TRUE(joined == v) << "p=" << p;
          for (const unsigned kinds : kinds_list) {
            if (p <= 61) {
              const auto v64 = static_cast<std::int64_t>(v);
              ASSERT_EQ(readout_kernel_lane(spec, v64, kinds),
                        reference_readout(spec, AccKulisch64{v64}, kinds))
                  << "one limb, p=" << p << " neg=" << neg << " kinds=" << kinds;
            }
            ASSERT_EQ(readout_kernel_lane(spec, joined, kinds),
                      reference_readout(spec, AccKulisch128{joined}, kinds))
                << "two limbs, p=" << p << " neg=" << neg << " kinds=" << kinds;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace dp::emac
