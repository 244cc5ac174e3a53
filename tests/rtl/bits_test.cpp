// Unit and property tests for dp::rtl::Bits, the RTL bit-vector substrate.
//
// Property tests model Bits of width <= 127 with unsigned __int128 and check
// every operation against the reference model across random samples and
// boundary widths.

#include "rtl/bits.hpp"

#include <gtest/gtest.h>

#include <random>

namespace dp::rtl {
namespace {

using u128 = unsigned __int128;

u128 mask_for(std::size_t width) {
  return width >= 128 ? ~u128{0} : ((u128{1} << width) - 1);
}

Bits make(std::size_t width, u128 value) {
  Bits out(width);
  value &= mask_for(width);
  for (std::size_t i = 0; i < width && i < 128; ++i) {
    out.set_bit(i, (value >> i) & 1);
  }
  return out;
}

u128 value_of(const Bits& b) {
  u128 v = 0;
  for (std::size_t i = 0; i < b.width() && i < 128; ++i) {
    if (b.bit(i)) v |= u128{1} << i;
  }
  return v;
}

TEST(BitsConstruct, ZeroWidthThrows) { EXPECT_THROW(Bits(0), std::invalid_argument); }

TEST(BitsConstruct, ValueTruncatesToWidth) {
  const Bits b(4, 0xFFu);
  EXPECT_EQ(b.to_u64(), 0xFu);
  EXPECT_EQ(b.width(), 4u);
}

TEST(BitsConstruct, WideZero) {
  const Bits b(200);
  EXPECT_TRUE(b.is_zero());
  EXPECT_EQ(b.lzd(), 200u);
}

TEST(BitsString, RoundTrip) {
  const std::string s = "1011001110001111";
  EXPECT_EQ(Bits::from_string(s).to_string(), s);
}

TEST(BitsString, RejectsBadChar) {
  EXPECT_THROW(Bits::from_string("10x1"), std::invalid_argument);
  EXPECT_THROW(Bits::from_string(""), std::invalid_argument);
}

TEST(BitsString, Hex) {
  EXPECT_EQ(Bits(12, 0xABCu).to_hex(), "abc");
  EXPECT_EQ(Bits(13, 0x1ABCu).to_hex(), "1abc");
}

TEST(BitsAccess, SetAndGet) {
  Bits b(70);
  b.set_bit(69, true);
  b.set_bit(0, true);
  EXPECT_TRUE(b.bit(69));
  EXPECT_TRUE(b.bit(0));
  EXPECT_FALSE(b.bit(35));
  b.set_bit(69, false);
  EXPECT_FALSE(b.bit(69));
  EXPECT_THROW(b.bit(70), std::out_of_range);
  EXPECT_THROW(b.set_bit(70, true), std::out_of_range);
}

TEST(BitsOnes, AllSet) {
  const Bits b = Bits::ones(67);
  EXPECT_TRUE(b.and_reduce());
  EXPECT_EQ(b.popcount(), 67u);
  EXPECT_EQ(b.lzd(), 0u);
}

TEST(BitsOneHot, SingleBit) {
  const Bits b = Bits::one_hot(90, 77);
  EXPECT_EQ(b.popcount(), 1u);
  EXPECT_TRUE(b.bit(77));
  EXPECT_EQ(b.lzd(), 90u - 78u);
  EXPECT_EQ(b.tzd(), 77u);
}

TEST(BitsSlice, Basic) {
  const Bits b = Bits::from_string("11010110");
  EXPECT_EQ(b.slice(7, 4).to_string(), "1101");
  EXPECT_EQ(b.slice(3, 0).to_string(), "0110");
  EXPECT_EQ(b.slice(4, 4).to_string(), "1");
  EXPECT_EQ(b.slice(3, 3).to_string(), "0");
  EXPECT_EQ(b.slice(5, 1).to_string(), "01011");
  EXPECT_THROW(b.slice(8, 0), std::out_of_range);
  EXPECT_THROW(b.slice(2, 3), std::invalid_argument);
}

TEST(BitsConcat, Basic) {
  const Bits hi = Bits::from_string("101");
  const Bits lo = Bits::from_string("0011");
  EXPECT_EQ(Bits::concat(hi, lo).to_string(), "1010011");
}

TEST(BitsConcat, CrossesLimbBoundary) {
  const Bits hi = Bits::ones(60);
  const Bits lo = Bits(10, 0x2AA);
  const Bits c = Bits::concat(hi, lo);
  EXPECT_EQ(c.width(), 70u);
  EXPECT_EQ(c.slice(69, 10), hi);
  EXPECT_EQ(c.slice(9, 0), lo);
}

TEST(BitsResize, TruncateAndExtend) {
  const Bits b = Bits::from_string("1101");
  EXPECT_EQ(b.resize(2).to_string(), "01");
  EXPECT_EQ(b.resize(6).to_string(), "001101");
}

TEST(BitsSext, NegativeAndPositive) {
  EXPECT_EQ(Bits::from_string("10").sext(5).to_string(), "11110");
  EXPECT_EQ(Bits::from_string("01").sext(5).to_string(), "00001");
  EXPECT_EQ(Bits::from_string("101").sext(3).to_string(), "101");
}

TEST(BitsReplicate, Pattern) {
  EXPECT_EQ(Bits::from_string("10").replicate(3).to_string(), "101010");
  EXPECT_THROW(Bits::from_string("1").replicate(0), std::invalid_argument);
}

TEST(BitsLogic, WidthMismatchThrows) {
  EXPECT_THROW(Bits(4) & Bits(5), std::invalid_argument);
  EXPECT_THROW(Bits(4) + Bits(5), std::invalid_argument);
  EXPECT_THROW((void)Bits(4).ult(Bits(5)), std::invalid_argument);
}

TEST(BitsReduce, OrAndXor) {
  EXPECT_FALSE(Bits(80).or_reduce());
  EXPECT_TRUE(Bits::one_hot(80, 79).or_reduce());
  EXPECT_TRUE(Bits::ones(80).and_reduce());
  EXPECT_FALSE(Bits::one_hot(80, 3).and_reduce());
  EXPECT_TRUE(Bits::one_hot(80, 3).xor_reduce());
  EXPECT_FALSE((Bits::one_hot(80, 3) | Bits::one_hot(80, 5)).xor_reduce());
}

TEST(BitsShift, BeyondWidthIsZero) {
  const Bits b = Bits::ones(33);
  EXPECT_TRUE(b.shl(33).is_zero());
  EXPECT_TRUE(b.shr(40).is_zero());
  EXPECT_EQ(b.sra(40), Bits::ones(33));  // MSB set -> all ones
  EXPECT_TRUE(Bits(33, 5).sra(40).is_zero());
}

TEST(BitsArithmetic, NegateExtremes) {
  // Two's complement of the most negative value is itself.
  const Bits most_neg = Bits::one_hot(8, 7);
  EXPECT_EQ(most_neg.negate(), most_neg);
  EXPECT_EQ(Bits(8, 1).negate().to_u64(), 0xFFu);
  EXPECT_TRUE(Bits(8, 0).negate().is_zero());
}

TEST(BitsArithmetic, AddCarriesAcrossLimbs) {
  const Bits a = Bits::ones(130);
  const Bits one(130, 1);
  EXPECT_TRUE((a + one).is_zero());  // modular wraparound
  EXPECT_EQ(a - a, Bits(130));
}

TEST(BitsMul, WideProduct) {
  const Bits a(64, 0xFFFFFFFFFFFFFFFFull);
  const Bits b(64, 0xFFFFFFFFFFFFFFFFull);
  const Bits p = a.mul_wide(b);
  EXPECT_EQ(p.width(), 128u);
  // (2^64-1)^2 = 2^128 - 2^65 + 1
  const u128 expect = (u128{0} - 1) - ((u128{1} << 65) - 2);
  EXPECT_EQ(value_of(p), expect);
}

TEST(BitsConvert, SignedValues) {
  EXPECT_EQ(Bits::from_string("1111").to_i64(), -1);
  EXPECT_EQ(Bits::from_string("1000").to_i64(), -8);
  EXPECT_EQ(Bits::from_string("0111").to_i64(), 7);
  EXPECT_EQ(Bits::from_string("1000").signed_to_double(), -8.0);
  EXPECT_EQ(Bits(70, 5).signed_to_double(), 5.0);
}

TEST(BitsConvert, ToU64Guards) {
  EXPECT_THROW((void)Bits(65).to_u64(), std::logic_error);
  EXPECT_EQ(Bits(65, 42).low_u64(), 42u);
}

TEST(BitsConvert, ScaledDouble) {
  EXPECT_DOUBLE_EQ(Bits(10, 0x300).to_double_scaled(8), 3.0);
  EXPECT_DOUBLE_EQ(Bits(4, 0x8).to_double_scaled(4), 0.5);
}

TEST(BitsLzd64, Reference) {
  EXPECT_EQ(lzd64(0, 8), 8u);
  EXPECT_EQ(lzd64(1, 8), 7u);
  EXPECT_EQ(lzd64(0x80, 8), 0u);
  EXPECT_EQ(lzd64(0x40, 8), 1u);
}

// ---------------------------------------------------------------------------
// Property tests against the u128 reference model.
// ---------------------------------------------------------------------------

class BitsModelTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsModelTest, ArithmeticMatchesModel) {
  const std::size_t w = GetParam();
  std::mt19937_64 rng(0xC0FFEE ^ w);
  const u128 m = mask_for(w);
  for (int iter = 0; iter < 300; ++iter) {
    const u128 xa = ((u128{rng()} << 64) | rng()) & m;
    const u128 xb = ((u128{rng()} << 64) | rng()) & m;
    const Bits a = make(w, xa);
    const Bits b = make(w, xb);

    EXPECT_EQ(value_of(a + b), (xa + xb) & m);
    EXPECT_EQ(value_of(a - b), (xa - xb) & m);
    EXPECT_EQ(value_of(a.negate()), (~xa + 1) & m);
    EXPECT_EQ(value_of(~a), ~xa & m);
    EXPECT_EQ(value_of(a & b), xa & xb);
    EXPECT_EQ(value_of(a | b), xa | xb);
    EXPECT_EQ(value_of(a ^ b), xa ^ xb);
    EXPECT_EQ(a.ult(b), xa < xb);
    EXPECT_EQ(a == b, xa == xb);

    const auto signed_of = [&](u128 v) -> __int128 {
      // Sign-extend in unsigned arithmetic (wraps mod 2^128), then convert:
      // the signed subtraction overflows at w = 127.
      if (w < 128 && (v >> (w - 1)) & 1) return static_cast<__int128>(v - (u128{1} << w));
      return static_cast<__int128>(v);
    };
    if (w < 128) {
      EXPECT_EQ(a.slt(b), signed_of(xa) < signed_of(xb));
    }
  }
}

TEST_P(BitsModelTest, ShiftsMatchModel) {
  const std::size_t w = GetParam();
  std::mt19937_64 rng(0xBEEF ^ w);
  const u128 m = mask_for(w);
  for (int iter = 0; iter < 200; ++iter) {
    const u128 xa = ((u128{rng()} << 64) | rng()) & m;
    const std::size_t k = rng() % (w + 10);
    const Bits a = make(w, xa);
    const u128 shl_ref = k >= w ? 0 : (xa << k) & m;
    const u128 shr_ref = k >= w ? 0 : xa >> k;
    EXPECT_EQ(value_of(a.shl(k)), shl_ref);
    EXPECT_EQ(value_of(a.shr(k)), shr_ref);
    // sra: replicate sign bit.
    u128 sra_ref;
    const bool neg = (xa >> (w - 1)) & 1;
    if (k >= w) {
      sra_ref = neg ? m : 0;
    } else {
      sra_ref = xa >> k;
      if (neg) sra_ref |= m & ~(m >> k);
    }
    EXPECT_EQ(value_of(a.sra(k)), sra_ref);
  }
}

TEST_P(BitsModelTest, SliceConcatInverse) {
  const std::size_t w = GetParam();
  if (w < 2) GTEST_SKIP();
  std::mt19937_64 rng(0xABCD ^ w);
  for (int iter = 0; iter < 100; ++iter) {
    const u128 xa = ((u128{rng()} << 64) | rng()) & mask_for(w);
    const Bits a = make(w, xa);
    const std::size_t cut = 1 + rng() % (w - 1);
    const Bits hi = a.slice(w - 1, cut);
    const Bits lo = a.slice(cut - 1, 0);
    EXPECT_EQ(Bits::concat(hi, lo), a);
  }
}

TEST_P(BitsModelTest, LzdMatchesModel) {
  const std::size_t w = GetParam();
  std::mt19937_64 rng(0x5EED ^ w);
  for (int iter = 0; iter < 100; ++iter) {
    u128 xa = ((u128{rng()} << 64) | rng()) & mask_for(w);
    if (iter % 7 == 0) xa = 0;
    const Bits a = make(w, xa);
    std::size_t ref = 0;
    for (std::size_t i = w; i-- > 0;) {
      if ((xa >> i) & 1) break;
      ++ref;
    }
    EXPECT_EQ(a.lzd(), ref);
  }
}

TEST_P(BitsModelTest, MulWideMatchesModel) {
  const std::size_t w = GetParam();
  if (w > 63) GTEST_SKIP();  // keep the reference product within u128
  std::mt19937_64 rng(0xFACE ^ w);
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint64_t xa = rng() & static_cast<std::uint64_t>(mask_for(w));
    const std::uint64_t xb = rng() & static_cast<std::uint64_t>(mask_for(w));
    const Bits p = Bits(w, xa).mul_wide(Bits(w, xb));
    EXPECT_EQ(p.width(), 2 * w);
    EXPECT_EQ(value_of(p), static_cast<u128>(xa) * xb);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitsModelTest,
                         ::testing::Values(1, 2, 3, 7, 8, 16, 31, 32, 33, 63, 64, 65, 96, 127),
                         [](const auto& info) { return std::string("w") + std::to_string(info.param); });

// mul_wide beyond the model range: check via schoolbook identity on limbs.
TEST(BitsMulWide, VeryWideAssociativityWithShift) {
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    const std::uint64_t x = rng();
    Bits a(200);
    a = a.add_u64(x);
    // (a << 5) * 3 == (a * 3) << 5
    const Bits three(200, 3);
    const Bits lhs = a.shl(5).mul_wide(three);
    const Bits rhs = a.mul_wide(three).shl(5);
    EXPECT_EQ(lhs, rhs);
  }
}

}  // namespace
}  // namespace dp::rtl
