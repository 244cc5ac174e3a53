// Tests for the uniform Format descriptor and the paper's format grid.

#include "numeric/format.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "numeric/posit.hpp"

namespace dp::num {
namespace {

TEST(Format, KindAndName) {
  const Format p = PositFormat{8, 2};
  const Format f = FloatFormat{4, 3};
  const Format x = FixedFormat{8, 4};
  EXPECT_EQ(p.kind(), Kind::kPosit);
  EXPECT_EQ(f.kind(), Kind::kFloat);
  EXPECT_EQ(x.kind(), Kind::kFixed);
  EXPECT_EQ(p.total_bits(), 8);
  EXPECT_EQ(f.total_bits(), 8);
  EXPECT_EQ(x.total_bits(), 8);
  EXPECT_EQ(p.name(), "posit<8,2>");
  EXPECT_EQ(f.name(), "float<8;we=4>");
  EXPECT_EQ(x.name(), "fixed<8;q=4>");
}

TEST(Format, AccessorsThrowOnWrongKind) {
  const Format p = PositFormat{8, 2};
  EXPECT_NO_THROW(p.posit());
  EXPECT_THROW(p.flt(), std::bad_variant_access);
  EXPECT_THROW(p.fixed(), std::bad_variant_access);
}

TEST(Format, RoundTripThroughDouble) {
  for (const Format fmt :
       {Format{PositFormat{8, 1}}, Format{FloatFormat{4, 3}}, Format{FixedFormat{8, 5}}}) {
    for (const double x : {0.0, 0.5, -0.5, 1.0, -1.0, 0.124, 3.0, -2.75}) {
      const double q = fmt.to_double(fmt.from_double(x));
      EXPECT_NEAR(q, x, fmt.to_double(fmt.from_double(0.3)) * 0.5 + 0.26)
          << fmt.name() << " x=" << x;
    }
    // Exactly representable values survive untouched.
    EXPECT_EQ(fmt.to_double(fmt.from_double(0.5)), 0.5) << fmt.name();
    EXPECT_EQ(fmt.to_double(fmt.from_double(-1.0)), -1.0) << fmt.name();
  }
}

TEST(Format, SaturationNeverProducesNonFinite) {
  for (const Format fmt :
       {Format{PositFormat{8, 0}}, Format{FloatFormat{4, 3}}, Format{FixedFormat{8, 4}}}) {
    for (const double x : {1e30, -1e30, 1e-30, -1e-30}) {
      const double q = fmt.to_double(fmt.from_double(x));
      EXPECT_TRUE(std::isfinite(q)) << fmt.name() << " x=" << x;
    }
    EXPECT_EQ(fmt.to_double(fmt.from_double(1e30)), fmt.max_value()) << fmt.name();
  }
}

TEST(Format, DynamicRangeOrderingAt8Bits) {
  // Paper (Fig. 6 discussion): at n <= 7-8, posit offers higher dynamic range
  // than float for the right es, and both dwarf fixed-point.
  const Format p = PositFormat{8, 2};
  const Format f = FloatFormat{4, 3};
  const Format x = FixedFormat{8, 4};
  EXPECT_GT(p.dynamic_range(), f.dynamic_range());
  EXPECT_GT(f.dynamic_range(), x.dynamic_range());
}

TEST(FormatGrid, CoversPaperSweeps) {
  for (int n = 5; n <= 8; ++n) {
    const auto grid = paper_format_grid(n);
    ASSERT_FALSE(grid.empty());
    int posits = 0, floats = 0, fixeds = 0;
    std::set<std::string> names;
    for (const auto& fmt : grid) {
      EXPECT_EQ(fmt.total_bits(), n) << fmt.name();
      names.insert(fmt.name());
      switch (fmt.kind()) {
        case Kind::kPosit:
          ++posits;
          break;
        case Kind::kFloat:
          ++floats;
          break;
        case Kind::kFixed:
          ++fixeds;
          break;
      }
    }
    EXPECT_EQ(names.size(), grid.size()) << "duplicate formats in grid";
    EXPECT_GE(posits, 2);
    EXPECT_GE(floats, 2);
    EXPECT_GE(fixeds, 2);
  }
  // The 8-bit grid includes the paper's best configurations es in {0..3} and
  // we in {2..5}.
  const auto grid8 = paper_format_grid(8);
  int es_seen = 0, we_seen = 0;
  for (const auto& fmt : grid8) {
    if (fmt.kind() == Kind::kPosit) ++es_seen;
    if (fmt.kind() == Kind::kFloat) ++we_seen;
  }
  EXPECT_EQ(es_seen, 4);  // es 0..3
  EXPECT_EQ(we_seen, 4);  // we 2..5
}

// num::convert is the mixed-precision layer-boundary re-encoder. The finite
// path is exercised end-to-end by the stitched-reference differential suite
// (tests/runtime/mixed_model_test.cpp); the special values — which finite
// fuzz inputs never reach — get direct coverage here.
TEST(FormatConvert, IdentityAndFiniteRecode) {
  const Format p8{PositFormat{8, 1}};
  const Format f8{FloatFormat{4, 3}};
  // from == to is the verbatim identity, even for NaR.
  EXPECT_EQ(convert(p8.posit().nar_pattern(), p8, p8), p8.posit().nar_pattern());
  // A finite pattern re-encodes exactly as to.from_double(from.to_double(.)).
  for (const double x : {0.0, 0.5, -1.25, 3.0}) {
    const std::uint32_t bits = p8.from_double(x);
    EXPECT_EQ(convert(bits, p8, f8), f8.from_double(p8.to_double(bits)));
  }
}

TEST(FormatConvert, SpecialsCrossBoundariesDeterministically) {
  const Format p8{PositFormat{8, 1}};
  const Format f8{FloatFormat{4, 3}};
  const Format x6{FixedFormat{6, 3}};
  // Posit NaR -> float NaN: the non-real stays non-real.
  const std::uint32_t as_float = convert(p8.posit().nar_pattern(), p8, f8);
  EXPECT_EQ(as_float, float_nan(f8.flt()));
  // Float NaN -> posit NaR, both directions of the non-real bridge.
  EXPECT_EQ(convert(float_nan(f8.flt()), f8, p8), p8.posit().nar_pattern());
  // Fixed has no non-real pattern: a NaR pins to the raw_min poison, which a
  // downstream ReLU clears to zero instead of laundering into a real value.
  const std::uint32_t poison = convert(p8.posit().nar_pattern(), p8, x6);
  EXPECT_EQ(poison, fixed_from_raw(x6.fixed().raw_min(), x6.fixed()));
  // Out-of-range reals saturate rather than wrap or trap.
  const std::uint32_t maxpos = p8.from_double(1e6);
  EXPECT_EQ(convert(maxpos, p8, x6), x6.from_double(p8.to_double(maxpos)));
  EXPECT_TRUE(std::isfinite(x6.to_double(convert(maxpos, p8, x6))));
}

TEST(FormatConvert, TableMatchesConvertForEveryPaperGridPair) {
  // runtime::Model re-encodes mixed-boundary activations through this table;
  // it must be convert() verbatim for every pattern of every ordered pair.
  std::vector<Format> grid;
  for (int n = 5; n <= 8; ++n) {
    for (const Format& fmt : paper_format_grid(n)) grid.push_back(fmt);
  }
  for (const Format& from : grid) {
    for (const Format& to : grid) {
      const std::vector<std::uint32_t> table = convert_table(from, to);
      ASSERT_EQ(table.size(), std::size_t{1} << from.total_bits()) << from.name();
      for (std::uint32_t b = 0; b < table.size(); ++b) {
        ASSERT_EQ(table[b], convert(b, from, to))
            << from.name() << " -> " << to.name() << " pattern " << b;
      }
      // The NaR -> fixed poison rides the table like any other entry.
      if (from.kind() == Kind::kPosit && to.kind() == Kind::kFixed) {
        EXPECT_EQ(table[from.posit().nar_pattern()],
                  fixed_from_raw(to.fixed().raw_min(), to.fixed()))
            << from.name() << " -> " << to.name();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Posit-to-posit conversion through convert(): one rounding, as at a mixed
// model's boundary between two posit layers.
// ---------------------------------------------------------------------------

std::uint32_t posit_convert(std::uint32_t bits, const PositFormat& from, const PositFormat& to) {
  return convert(bits, Format{from}, Format{to});
}

TEST(PositConvert, WideningIsExact) {
  const PositFormat small{8, 1};
  const PositFormat big{16, 1};
  for (std::uint32_t bits = 0; bits < (1u << 8); ++bits) {
    const std::uint32_t wide = posit_convert(bits, small, big);
    if (bits == small.nar_pattern()) {
      EXPECT_EQ(wide, big.nar_pattern());
      continue;
    }
    EXPECT_EQ(posit_to_double(wide, big), posit_to_double(bits, small)) << bits;
    // Round trip back is the identity.
    EXPECT_EQ(posit_convert(wide, big, small), bits) << bits;
  }
}

TEST(PositConvert, NarrowingRoundsCorrectly) {
  const PositFormat big{12, 1};
  const PositFormat small{8, 1};
  for (std::uint32_t bits = 0; bits < (1u << 12); ++bits) {
    if (bits == big.nar_pattern()) continue;
    const std::uint32_t narrow = posit_convert(bits, big, small);
    EXPECT_EQ(narrow, posit_from_double(posit_to_double(bits, big), small)) << bits;
  }
}

TEST(PositConvert, AcrossEsValues) {
  const PositFormat es0{8, 0};
  const PositFormat es2{10, 2};
  for (std::uint32_t bits = 0; bits < (1u << 8); ++bits) {
    if (bits == es0.nar_pattern()) continue;
    const double v = posit_to_double(bits, es0);
    // posit<10,2> covers posit<8,0>'s range with at least as much precision
    // near 1; check correctly rounded conversion.
    EXPECT_EQ(posit_convert(bits, es0, es2), posit_from_double(v, es2)) << bits;
  }
}

/// ReLU by value: a negative value or -0 becomes the +0 pattern, posit NaR
/// passes through, everything else is unchanged. A float NaN has no value
/// sign (to_double drops it), so its sign bit decides, as IEEE signbit reads
/// it.
std::uint32_t relu_by_value(std::uint32_t bits, const Format& fmt) {
  const std::uint32_t plus_zero = fmt.from_double(0.0);
  const double v = fmt.to_double(bits);
  if (std::isnan(v)) {
    if (fmt.kind() == Kind::kPosit) return bits;
    return ((bits >> (fmt.total_bits() - 1)) & 1u) != 0 ? plus_zero : bits;
  }
  return v < 0 || (v == 0 && std::signbit(v)) ? plus_zero : bits;
}

void expect_relu_rule_on_every_pattern(const Format& fmt) {
  SCOPED_TRACE(fmt.name());
  const ReluRule relu = relu_rule(fmt);
  const std::uint32_t mask = (std::uint32_t{1} << fmt.total_bits()) - 1u;
  for (std::uint32_t b = 0; b <= mask; ++b) {
    const std::uint32_t want = relu_by_value(b, fmt);
    ASSERT_EQ(relu(b), want) << "pattern " << b;
    // Bits above the format width are ignored.
    ASSERT_EQ(relu(b | ~mask), want) << "pattern " << b << " with high bits set";
  }
}

TEST(FormatRelu, RuleMatchesTheValueDefinitionOnEveryPattern) {
  for (int n = 3; n <= 16; ++n) {
    for (int es = 0; es <= 3; ++es) expect_relu_rule_on_every_pattern(PositFormat{n, es});
  }
  for (int we = 2; we <= 8; ++we) {
    for (int wf = 1; 1 + we + wf <= 16; ++wf) {
      expect_relu_rule_on_every_pattern(FloatFormat{we, wf});
    }
  }
  for (int n = 2; n <= 16; ++n) {
    for (int q = 0; q < n; ++q) expect_relu_rule_on_every_pattern(FixedFormat{n, q});
  }
}

}  // namespace
}  // namespace dp::num
