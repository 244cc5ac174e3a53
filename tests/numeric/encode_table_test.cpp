// EncodeTable against the encoders it caches, for every posit and float
// format of the paper grid (n = 5..8): every cell with both signs, scales
// far past both clamp ends, lone and random fraction bits below the indexed
// ones, and from_double against Format::from_double on every pattern, every
// midpoint between adjacent patterns (the round-to-nearest-even ties) and
// their one-ulp neighbours, plus the special doubles.

#include "numeric/encode_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <vector>

namespace dp::num {
namespace {

std::vector<Format> table_formats() {
  std::vector<Format> out;
  for (int n = 5; n <= 8; ++n) {
    for (const Format& fmt : paper_format_grid(n)) {
      if (fmt.kind() != Kind::kFixed) out.push_back(fmt);
    }
  }
  return out;
}

std::uint32_t encoder(const Format& fmt, const Unpacked& u) {
  return fmt.kind() == Kind::kPosit ? posit_encode(u, fmt.posit())
                                    : float_encode(u, fmt.flt(), FloatOverflow::kSaturate);
}

TEST(EncodeTable, CoversPositAndFloatUpToEightBits) {
  EXPECT_TRUE(EncodeTable::covers(PositFormat{8, 3}));
  EXPECT_TRUE(EncodeTable::covers(PositFormat{5, 0}));
  EXPECT_TRUE(EncodeTable::covers(FloatFormat{4, 3}));
  EXPECT_FALSE(EncodeTable::covers(PositFormat{9, 1}));
  EXPECT_FALSE(EncodeTable::covers(FloatFormat{5, 10}));
  EXPECT_FALSE(EncodeTable::covers(FixedFormat{8, 6}));
  EXPECT_THROW(EncodeTable(FixedFormat{8, 6}), std::invalid_argument);
  EXPECT_EQ(shared_encode_table(FixedFormat{8, 6}), nullptr);
  EXPECT_EQ(shared_encode_table(PositFormat{16, 1}), nullptr);
  const EncodeTable* t = shared_encode_table(PositFormat{8, 1});
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(shared_encode_table(PositFormat{8, 1}), t);  // built once
  EXPECT_NE(shared_encode_table(PositFormat{8, 0}), t);
}

TEST(EncodeTable, ClampBoundsFollowTheFormat) {
  const EncodeTable* p = shared_encode_table(PositFormat{8, 3});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->min_scale(), -49);
  EXPECT_EQ(p->max_scale(), 48);
  const EncodeTable* f = shared_encode_table(FloatFormat{4, 3});
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->min_scale(), -6 - 3 - 2);  // emin - wf - 2
  EXPECT_EQ(f->max_scale(), 8);           // emax + 1
}

TEST(EncodeTable, EveryCellAndScalePastTheClampsMatchesTheEncoder) {
  std::mt19937_64 rng(2019);
  for (const Format& fmt : table_formats()) {
    SCOPED_TRACE(fmt.name());
    const EncodeTable* t = shared_encode_table(fmt);
    ASSERT_NE(t, nullptr);
    const int n = fmt.total_bits();
    const std::uint64_t low_mask = (std::uint64_t{1} << (64 - n)) - 1;
    for (std::int64_t scale = t->min_scale() - 70; scale <= t->max_scale() + 70; ++scale) {
      for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << (n - 1)); ++bits) {
        const std::uint64_t cell_frac = (std::uint64_t{1} << 63) | (bits << (64 - n));
        // The cell itself with sticky clear and set, a lone bit just under
        // the indexed n-1 and one at bit 0, then random lower bits with a
        // random sticky flag.
        const std::uint64_t lows[] = {0, 0, (low_mask >> 1) + 1, 1, rng() & low_mask,
                                      rng() & low_mask};
        for (int variant = 0; variant < 6; ++variant) {
          Unpacked u;
          u.scale = scale;
          u.frac = cell_frac | lows[variant];
          u.sticky = variant < 4 ? variant == 1 : (rng() & 1) != 0;
          for (const bool neg : {false, true}) {
            u.neg = neg;
            ASSERT_EQ(t->encode(neg, scale, u.frac, u.sticky), encoder(fmt, u))
                << "scale=" << scale << " frac=" << u.frac << " sticky=" << u.sticky
                << " neg=" << neg;
          }
        }
      }
    }
  }
}

void expect_from_double(const EncodeTable& t, double x) {
  ASSERT_EQ(t.from_double(x), t.format().from_double(x)) << t.format().name() << " x=" << x;
}

void expect_with_neighbours(const EncodeTable& t, double x) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_from_double(t, x);
  expect_from_double(t, std::nextafter(x, inf));
  expect_from_double(t, std::nextafter(x, -inf));
}

TEST(EncodeTable, FromDoubleMatchesOnPatternsMidpointsAndNeighbours) {
  for (const Format& fmt : table_formats()) {
    const EncodeTable* t = shared_encode_table(fmt);
    ASSERT_NE(t, nullptr);
    std::vector<double> values;
    for (std::uint32_t bits = 0; bits < (1u << fmt.total_bits()); ++bits) {
      const double v = fmt.to_double(bits);
      if (std::isfinite(v)) values.push_back(v);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    for (std::size_t i = 0; i < values.size(); ++i) {
      expect_with_neighbours(*t, values[i]);
      // Adjacent values are dyadic with few significant bits, so their
      // midpoint is exact in double.
      if (i + 1 < values.size()) expect_with_neighbours(*t, (values[i] + values[i + 1]) / 2);
    }
    // Past the extremes on both sides.
    expect_with_neighbours(*t, 2 * values.back());
    expect_with_neighbours(*t, 2 * values.front());
  }
}

TEST(EncodeTable, FromDoubleSpecialsTakeTheGenericPath) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const Format& fmt : table_formats()) {
    const EncodeTable* t = shared_encode_table(fmt);
    ASSERT_NE(t, nullptr);
    for (const double x : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(), -std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
                           inf, -inf, std::numeric_limits<double>::quiet_NaN()}) {
      expect_from_double(*t, x);
    }
  }
}

}  // namespace
}  // namespace dp::num
