// Differential fuzz suite for the register-blocked multi-sample matmul
// kernels: for every format of the paper sweep grid (n in [5,8]) and a range
// of accumulation lengths and batch shapes, the dispatched kernel
// (MatmulKernel::create — AVX2 where eligible) and the portable
// scalar-blocked kernel (create_scalar) must both be bit-identical, on every
// output word, to the per-sample step() oracle: reset(bias); step()*k;
// result().
//
// Shapes deliberately include non-multiples of the kernel tile (1, tile-1,
// tile, tile+1, 7, 64, 200 samples) so ragged tails, lone samples, and
// multi-tile batches are all covered. Operand patterns are seeded-random
// over the full encoding space with extra weight on the special patterns
// (zero, posit NaR), so NaR propagation and zero skipping are fuzzed too.
// Every assertion message carries the reproducer: seed, format, k, rows,
// samples, and tile.

#include "emac/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <vector>

#include "emac/emac.hpp"
#include "numeric/format.hpp"

namespace dp::emac {
namespace {

/// Masked-uniform pattern with 1-in-8 odds of a special pattern (zero, or
/// NaR for posits) — specials are rare under pure uniform sampling at n = 8.
std::uint32_t random_pattern(std::mt19937& rng, const num::Format& fmt) {
  const std::uint32_t mask = (1u << fmt.total_bits()) - 1u;
  if (rng() % 8 == 0) {
    switch (fmt.kind()) {
      case num::Kind::kPosit:
        return rng() % 2 == 0 ? fmt.posit().zero_pattern() : fmt.posit().nar_pattern();
      case num::Kind::kFloat:
        return num::float_zero(fmt.flt(), /*neg=*/rng() % 2 == 0);
      case num::Kind::kFixed:
        return num::fixed_from_raw(0, fmt.fixed());
    }
  }
  return rng() & mask;
}

struct Case {
  num::Format fmt;
  std::size_t k;
  std::size_t rows;
  std::size_t samples;
  std::uint32_t seed;
  /// When set, weights and biases come from the finite patterns whose sf
  /// lies here (specials still 1 in 8), and the kernels are sized for the
  /// plane's own range (plane_scale_range) instead of the format's.
  std::optional<ScaleRange> window = std::nullopt;
};

/// Like random_pattern, but finite patterns only from `pool`.
std::uint32_t random_pattern_from(std::mt19937& rng, const num::Format& fmt,
                                  const std::vector<std::uint32_t>& pool) {
  const std::uint32_t b = random_pattern(rng, fmt);
  return decode_operand(b, fmt).kind == DecodedOp::kFinite ? pool[rng() % pool.size()] : b;
}

std::string repro(const Case& c, const MatmulKernel& kern) {
  std::ostringstream os;
  os << "reproducer: seed=" << c.seed << " fmt=" << c.fmt.name() << " k=" << c.k
     << " rows=" << c.rows << " samples=" << c.samples << " kernel=" << kern.name()
     << " tile=" << kern.tile();
  if (c.window) os << " window=[" << c.window->lo << ", " << c.window->hi << "]";
  return os.str();
}

/// Drive one kernel over the whole batch (tiled, last tile ragged) and check
/// every output word against `expected[s*rows + r]`.
void check_kernel(const Case& c, MatmulKernel& kern,
                  const std::vector<std::uint32_t>& weight_bits,
                  const std::vector<std::uint32_t>& bias_bits,
                  const std::vector<std::uint32_t>& act_bits,  // [s*k + i]
                  const std::vector<std::uint32_t>& expected) {
  SCOPED_TRACE(repro(c, kern));
  const std::size_t tile = kern.tile();
  ASSERT_LE(tile, kMaxKernelTile);

  // Weights are packed once per kernel, like runtime::Model does it.
  std::vector<DecodedOp> wdec(weight_bits.size());
  std::unique_ptr<Emac> unit = make_emac(c.fmt, c.k);
  unit->decode_plane(weight_bits.data(), weight_bits.size(), wdec.data());
  const PackedPlane plane = kern.pack_plane(wdec.data(), c.rows, bias_bits.data());

  std::vector<std::uint32_t> interleaved(c.k * tile);
  std::vector<std::uint32_t> out(c.rows * tile);
  ActTile acts;
  for (std::size_t t0 = 0; t0 < c.samples; t0 += tile) {
    const std::size_t nrows = std::min(tile, c.samples - t0);
    interleaved.assign(c.k * tile, 0);
    for (std::size_t i = 0; i < c.k; ++i) {
      for (std::size_t s = 0; s < nrows; ++s) {
        interleaved[i * tile + s] = act_bits[(t0 + s) * c.k + i];
      }
    }
    kern.pack_acts(interleaved.data(), c.k, nrows, tile, acts);
    out.assign(c.rows * tile, 0xffffffffu);
    kern.matmul(plane, acts, nrows, out.data());
    for (std::size_t r = 0; r < c.rows; ++r) {
      for (std::size_t s = 0; s < nrows; ++s) {
        ASSERT_EQ(out[r * tile + s], expected[(t0 + s) * c.rows + r])
            << "mismatch at weight row " << r << ", sample " << (t0 + s);
      }
    }
  }
}

void run_case(const Case& c) {
  std::mt19937 rng(c.seed);
  std::vector<std::uint32_t> weight_bits(c.rows * c.k);
  std::vector<std::uint32_t> bias_bits(c.rows);
  std::vector<std::uint32_t> act_bits(c.samples * c.k);
  std::vector<std::uint32_t> pool;
  if (c.window) {
    for (std::uint32_t b = 0; b < (1u << c.fmt.total_bits()); ++b) {
      const DecodedOp d = decode_operand(b, c.fmt);
      if (d.kind == DecodedOp::kFinite && d.sf >= c.window->lo && d.sf <= c.window->hi) {
        pool.push_back(b);
      }
    }
    ASSERT_FALSE(pool.empty());
  }
  const auto weight_pattern = [&] {
    return c.window ? random_pattern_from(rng, c.fmt, pool) : random_pattern(rng, c.fmt);
  };
  for (auto& b : weight_bits) b = weight_pattern();
  for (auto& b : bias_bits) b = weight_pattern();
  for (auto& b : act_bits) b = random_pattern(rng, c.fmt);

  // The oracle: the step() recurrence, one virtual call per MAC.
  std::unique_ptr<Emac> unit = make_emac(c.fmt, c.k);
  std::vector<std::uint32_t> expected(c.samples * c.rows);  // [s*rows + r]
  for (std::size_t s = 0; s < c.samples; ++s) {
    for (std::size_t r = 0; r < c.rows; ++r) {
      unit->reset(bias_bits[r]);
      for (std::size_t i = 0; i < c.k; ++i) {
        unit->step(weight_bits[r * c.k + i], act_bits[s * c.k + i]);
      }
      expected[s * c.rows + r] = unit->result();
    }
  }

  ScaleRange range = format_scale_range(c.fmt);
  if (c.window) {
    range = plane_scale_range(c.fmt, weight_bits.data(), weight_bits.size(), bias_bits.data(),
                              c.rows);
  }
  std::unique_ptr<MatmulKernel> dispatched = MatmulKernel::create(c.fmt, c.k, range);
  std::unique_ptr<MatmulKernel> scalar = MatmulKernel::create_scalar(c.fmt, c.k, range);
  ASSERT_NE(dispatched, nullptr) << c.fmt.name() << " k=" << c.k;
  ASSERT_NE(scalar, nullptr) << c.fmt.name() << " k=" << c.k;
  check_kernel(c, *dispatched, weight_bits, bias_bits, act_bits, expected);
  check_kernel(c, *scalar, weight_bits, bias_bits, act_bits, expected);
}

/// Sample counts relative to a tile of T: lone sample, T-1/T/T+1 around the
/// boundary, a ragged 7, one full multi-tile burst, and a long tail case.
std::vector<std::size_t> sample_plan(std::size_t tile) {
  std::vector<std::size_t> plan{1, 7, 64, 200};
  if (tile > 1) plan.push_back(tile - 1);
  plan.push_back(tile);
  plan.push_back(tile + 1);
  return plan;
}

TEST(KernelDifferential, BitIdenticalAcrossPaperGridShapesAndKernels) {
  std::uint32_t seed = 20260808u;  // deterministic; bumped per case below
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      for (const std::size_t k : {std::size_t{5}, std::size_t{20}}) {
        // Tile depends on dispatch; probe it once per (fmt, k).
        const auto probe = MatmulKernel::create(fmt, k);
        ASSERT_NE(probe, nullptr) << fmt.name() << " k=" << k;
        for (const std::size_t samples : sample_plan(probe->tile())) {
          run_case({fmt, k, /*rows=*/4, samples, seed++});
        }
      }
    }
  }
}

TEST(KernelDifferential, SingleElementRowsAndSingleRowPlanes) {
  // Degenerate shapes: k = 1 (one MAC per neuron) and rows = 1.
  std::uint32_t seed = 77u;
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 0}}, num::Format{num::FloatFormat{4, 3}},
        num::Format{num::FixedFormat{8, 6}}}) {
    run_case({fmt, /*k=*/1, /*rows=*/3, /*samples=*/9, seed++});
    run_case({fmt, /*k=*/6, /*rows=*/1, /*samples=*/17, seed++});
  }
}

TEST(KernelDifferential, LongAccumulationLengths) {
  // k large enough to stress the carry headroom (bit_width(k) = 8) while
  // staying cheap: 200 MACs per neuron, across one format per family.
  std::uint32_t seed = 3001u;
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 1}}, num::Format{num::FloatFormat{5, 2}},
        num::Format{num::FixedFormat{8, 4}}}) {
    run_case({fmt, /*k=*/200, /*rows=*/3, /*samples=*/21, seed++});
  }
}

TEST(KernelDifferential, TwoLimbFormatsAtTheBenchmarkFanIns) {
  // The formats whose bound passes one int64 but splits into two limbs, at
  // the 64/128 fan-ins of the benchmark network: the dispatched kernel is
  // avx2-2limb wherever the CPU has AVX2.
  std::uint32_t seed = 4201u;
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 1}}, num::Format{num::PositFormat{7, 2}},
        num::Format{num::PositFormat{6, 2}}}) {
    for (const std::size_t k : {std::size_t{64}, std::size_t{128}}) {
      KernelSpec spec(fmt);
      ASSERT_TRUE(make_kernel_spec(fmt, k, spec));
      EXPECT_EQ(spec.limbs, 2) << fmt.name() << " k=" << k;
      run_case({fmt, k, /*rows=*/3, /*samples=*/35, seed++});
    }
  }
}

TEST(KernelDifferential, PerPlaneSpecsAcrossPaperGridWindows) {
  // Planes whose weights and biases hold only part of the format's scale
  // range — its bottom, its top, its middle, one scale — with activations
  // over the full range, at a short and the benchmark's fan-ins.
  std::uint32_t seed = 5301u;
  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const ScaleRange f = format_scale_range(fmt);
      const int q = (f.hi - f.lo) / 4;
      const int mid = f.lo + (f.hi - f.lo) / 2;
      for (const ScaleRange window :
           {ScaleRange{f.lo, f.lo + q}, ScaleRange{f.hi - q, f.hi},
            ScaleRange{f.lo + q, f.hi - q}, ScaleRange{mid, mid}}) {
        for (const std::size_t k : {std::size_t{5}, std::size_t{64}, std::size_t{128}}) {
          const auto probe = MatmulKernel::create(fmt, k, window);
          ASSERT_NE(probe, nullptr) << fmt.name() << " k=" << k;
          for (const std::size_t samples : {std::size_t{1}, probe->tile() + 1}) {
            run_case({fmt, k, /*rows=*/3, samples, seed++, window});
          }
        }
      }
    }
  }
}

TEST(KernelDifferential, RejectsUnsupportedShapes) {
  const num::Format fmt{num::PositFormat{8, 0}};
  EXPECT_EQ(MatmulKernel::create(fmt, 0), nullptr);
  EXPECT_EQ(MatmulKernel::create_scalar(fmt, 0), nullptr);

  const auto kern = MatmulKernel::create_scalar(fmt, 4);
  ASSERT_NE(kern, nullptr);
  std::vector<std::uint32_t> bits(4 * kern->tile(), 0);
  ActTile acts;
  kern->pack_acts(bits.data(), 4, kern->tile(), kern->tile(), acts);
  std::vector<std::uint32_t> out(kern->tile());
  const PackedPlane empty_plane;
  // More live samples than the tile holds must throw, not truncate.
  EXPECT_THROW(kern->matmul(empty_plane, acts, kern->tile() + 1, out.data()),
               std::invalid_argument);
}

}  // namespace
}  // namespace dp::emac
