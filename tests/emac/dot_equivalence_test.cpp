// Property test for one dot product as runtime::Model runs a single row: the
// dispatched MatmulKernel over a one-row plane and a one-sample tile must be
// bit-identical to the reset/step*k/result recurrence for
// every format in the paper's sweep grid, under fully random operands
// (including NaR, zero, Inf/NaN patterns where the format has them) and
// adversarial rows (saturating magnitudes, heavy cancellation, all-zero,
// all-NaR). Also pins the narrow-accumulator selection, the step fallback
// for formats no kernel covers, and the shared-LUT registry.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "emac/decode_lut.hpp"
#include "emac/emac.hpp"
#include "emac/kernel.hpp"
#include "emac/posit_emac.hpp"
#include "emac_oracle.hpp"
#include "numeric/format.hpp"

namespace dp::emac {
namespace {

std::uint32_t width_mask(const num::Format& fmt) {
  return fmt.total_bits() >= 32 ? ~std::uint32_t{0}
                                : ((std::uint32_t{1} << fmt.total_bits()) - 1);
}

std::uint32_t run_step_loop(Emac& e, std::uint32_t bias, const std::vector<std::uint32_t>& w,
                            const std::vector<std::uint32_t>& a) {
  e.reset(bias);
  for (std::size_t i = 0; i < w.size(); ++i) e.step(w[i], a[i]);
  return e.result();
}

/// One neuron through the kernel the way Model runs a lone row: the plane
/// decoded by the unit and packed, the activation vector in lane 0 of a
/// tile whose pad lanes stay zero.
std::uint32_t run_dot(const Emac& e, std::uint32_t bias, const std::vector<std::uint32_t>& w,
                      const std::vector<std::uint32_t>& a) {
  const std::unique_ptr<MatmulKernel> kern = MatmulKernel::create(e.format(), e.max_terms());
  if (kern == nullptr) throw std::logic_error("run_dot: no kernel for this format");
  const std::size_t tile = kern->tile();
  std::vector<DecodedOp> wd(w.size());
  e.decode_plane(w.data(), w.size(), wd.data());
  const PackedPlane plane = kern->pack_plane(wd.data(), 1, &bias);
  std::vector<std::uint32_t> lanes(a.size() * tile, 0);
  for (std::size_t i = 0; i < a.size(); ++i) lanes[i * tile] = a[i];
  ActTile acts;
  kern->pack_acts(lanes.data(), a.size(), 1, tile, acts);
  std::vector<std::uint32_t> out(tile);
  kern->matmul(plane, acts, 1, out.data());
  return out[0];
}

/// The paper's sweep grid (posit es in {0..3} per width, float, fixed for
/// n in [5,8]) plus wider configurations past the LUT-friendly range.
std::vector<num::Format> all_formats() {
  std::vector<num::Format> out;
  for (int n = 5; n <= 8; ++n) {
    for (const auto& f : num::paper_format_grid(n)) out.push_back(f);
  }
  out.push_back(num::PositFormat{16, 1});
  out.push_back(num::FloatFormat{5, 10});
  out.push_back(num::FixedFormat{16, 8});
  return out;
}

/// Saturation / cancellation / special patterns for adversarial rows.
std::vector<std::uint32_t> extreme_patterns(const num::Format& fmt) {
  std::vector<std::uint32_t> out;
  const std::uint32_t mask = width_mask(fmt);
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const auto& f = fmt.posit();
      const std::uint32_t maxpos = (std::uint32_t{1} << (f.n - 1)) - 1;
      out = {f.zero_pattern(), f.nar_pattern(), maxpos, (~maxpos + 1) & mask,
             /*minpos=*/1u, /*-minpos=*/mask};
      break;
    }
    case num::Kind::kFloat: {
      const auto& f = fmt.flt();
      const std::uint32_t maxfin =
          (static_cast<std::uint32_t>(f.expmax()) << f.wf) | ((1u << f.wf) - 1);
      const std::uint32_t sign = 1u << (f.we + f.wf);
      out = {num::float_zero(f), num::float_zero(f, true), maxfin, maxfin | sign,
             /*min subnormal=*/1u, (1u | sign)};
      break;
    }
    case num::Kind::kFixed: {
      const auto& f = fmt.fixed();
      out = {0u, static_cast<std::uint32_t>(f.raw_max()) & mask,
             static_cast<std::uint32_t>(f.raw_min()) & mask, 1u, mask};
      break;
    }
  }
  return out;
}

class DotEquivalenceTest : public ::testing::TestWithParam<num::Format> {};

TEST_P(DotEquivalenceTest, RandomRowsMatchStepLoop) {
  const num::Format fmt = GetParam();
  const std::uint32_t mask = width_mask(fmt);
  std::mt19937 rng(0xD07 + static_cast<unsigned>(fmt.total_bits()));
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}, std::size_t{64}, std::size_t{200}}) {
    auto unit = make_emac(fmt, k);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint32_t> w(k), a(k);
      for (auto& v : w) v = rng() & mask;
      for (auto& v : a) v = rng() & mask;
      const std::uint32_t bias = rng() & mask;
      const std::uint32_t expected = run_step_loop(*unit, bias, w, a);
      const std::uint32_t got = run_dot(*unit, bias, w, a);
      EXPECT_EQ(got, expected) << fmt.name() << " k=" << k << " trial=" << trial;
    }
  }
}

TEST_P(DotEquivalenceTest, ExtremeRowsMatchStepLoop) {
  const num::Format fmt = GetParam();
  const std::vector<std::uint32_t> specials = extreme_patterns(fmt);
  std::mt19937 rng(0xE57A + static_cast<unsigned>(fmt.total_bits()));
  const std::size_t k = 48;
  auto unit = make_emac(fmt, k);
  // Rows drawn only from the special patterns: saturation pile-ups,
  // +maxpos/-maxpos cancellation, zero rows, NaR rows.
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<std::uint32_t> w(k), a(k);
    for (auto& v : w) v = specials[rng() % specials.size()];
    for (auto& v : a) v = specials[rng() % specials.size()];
    const std::uint32_t bias = specials[rng() % specials.size()];
    EXPECT_EQ(run_dot(*unit, bias, w, a), run_step_loop(*unit, bias, w, a))
        << fmt.name() << " trial=" << trial;
  }
  // Deterministic worst cases: every pair saturating with matched signs
  // (monotone pile-up) and alternating signs (exact cancellation to zero).
  const std::uint32_t big = specials[2];
  std::vector<std::uint32_t> w(k, big), a(k, big);
  EXPECT_EQ(run_dot(*unit, 0, w, a), run_step_loop(*unit, 0, w, a)) << fmt.name();
  for (std::size_t i = 1; i < k; i += 2) a[i] = specials[3];
  EXPECT_EQ(run_dot(*unit, 0, w, a), run_step_loop(*unit, 0, w, a)) << fmt.name();
}

INSTANTIATE_TEST_SUITE_P(SweepGrid, DotEquivalenceTest, ::testing::ValuesIn(all_formats()));

TEST(DotEquivalence, RtlModelUsesGenericFallback) {
  // posit<16,2>'s quire passes the 250-bit ceiling at any k: no kernel
  // covers it, make_emac hands out the RTL-faithful unit, and Model runs
  // such a layer on that unit's step() loop — which must still round the
  // exact sum correctly.
  const num::Format fmt{num::PositFormat{16, 2}};
  const std::size_t k = 16;
  EXPECT_EQ(MatmulKernel::create(fmt, k), nullptr);
  auto unit = make_emac(fmt, k);
  ASSERT_NE(dynamic_cast<PositEmacRtl*>(unit.get()), nullptr);
  std::mt19937 rng(77);
  // The exact oracle takes finite values only: NaR patterns become zero.
  const auto finite = [&] {
    const std::uint32_t v = rng() & fmt.posit().mask();
    return v == fmt.posit().nar_pattern() ? fmt.posit().zero_pattern() : v;
  };
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<std::uint32_t> w(k), a(k);
    for (auto& v : w) v = finite();
    for (auto& v : a) v = finite();
    const std::uint32_t bias = finite();
    EXPECT_EQ(run_step_loop(*unit, bias, w, a), testing::oracle_mac(fmt, bias, w, a))
        << "trial=" << trial;
  }
}

TEST(DotEquivalence, NarrowAccumulatorSelection) {
  // The kernel spec picks the narrowest Kulisch register its bound allows.
  // posit<8,0>, k=128: 4*6*1 + 2*6 + 8 + 2 = 46 bits -> int64.
  // posit<8,1>: 4*12 + 2*5 + 8 + 2 = 68 -> __int128. posit<8,3> at k=64:
  // 4*48 + 2*3 + 7 + 2 = 207 -> Acc256.
  const auto acc_kind = [](const num::Format& fmt, std::size_t k) {
    KernelSpec spec(fmt);
    EXPECT_TRUE(make_kernel_spec(fmt, k, spec)) << fmt.name();
    return spec.acc_kind;
  };
  EXPECT_EQ(acc_kind(num::PositFormat{8, 0}, 128), AccKind::kI64);
  EXPECT_EQ(acc_kind(num::PositFormat{8, 1}, 128), AccKind::kI128);
  EXPECT_EQ(acc_kind(num::PositFormat{8, 3}, 64), AccKind::kWide);
  // float<4,3> (we=4, wf=3): 2*14 + 2*3 + 2 + 8 + 1 = 45 -> int64.
  EXPECT_EQ(acc_kind(num::FloatFormat{4, 3}, 128), AccKind::kI64);
  EXPECT_EQ(acc_kind(num::FloatFormat{5, 10}, 128), AccKind::kI128);
}

TEST(DotEquivalence, DecodeLutIsSharedAcrossUnitsAndClones) {
  const num::Format fmt{num::PositFormat{8, 1}};
  const auto lut1 = shared_decode_lut(fmt);
  const auto lut2 = shared_decode_lut(fmt);
  ASSERT_NE(lut1, nullptr);
  EXPECT_EQ(lut1.get(), lut2.get());  // one immutable table per format
  // Formats wider than the LUT cap decode per operand instead.
  EXPECT_EQ(shared_decode_lut(num::Format{num::PositFormat{18, 1}}), nullptr);
  // Entry sanity: zero / NaR / finite classification and the signed
  // significand convention (ssig == 0 for zero and NaR).
  const auto& f = fmt.posit();
  EXPECT_EQ((*lut1)[f.zero_pattern()].kind, DecodedOp::kZero);
  EXPECT_EQ((*lut1)[f.nar_pattern()].kind, DecodedOp::kNaR);
  EXPECT_EQ((*lut1)[f.nar_pattern()].ssig, 0);
  const DecodedOp& one = (*lut1)[0x40];  // posit pattern for +1.0
  EXPECT_EQ(one.kind, DecodedOp::kFinite);
  EXPECT_EQ(one.ssig, static_cast<std::int64_t>(one.sig));
}

}  // namespace
}  // namespace dp::emac
