// AVX2 register-blocked EMAC matmul: 4 int64 accumulator lanes per ymm
// register, 4 registers = a 16-sample tile per weight-plane pass. Compiled
// with -mavx2 in its own translation unit; reached only through runtime
// dispatch (MatmulKernel::create checks __builtin_cpu_supports("avx2")), so
// the rest of the library stays baseline-ISA.
//
// Exactness: _mm256_mul_epi32 multiplies the (sign-correct) low 32 bits of
// each lane into an exact int64 product.
//  * One limb (spec.need_bits <= 62): both operands come pre-shifted
//    (kernel.hpp), each within 2^30 as make_kernel_spec proves, so
//    _mm256_set1_epi32 broadcasts the weight into every lane's low half and
//    one mul_epi32 + add_epi64 per 4 lanes adds the same term
//    AccKulisch64::add_product adds; no partial sum ever wraps.
//  * Two limbs (kernel.hpp): ssig fits int32 for n <= 32 formats and
//    _mm256_sllv_epi64 applies the per-lane shift. The lo limb adds
//    prod << shift mod 2^64 — sllv returns 0 for counts past 63, which is
//    that product mod 2^64 — and the hi limb adds prod << (shift - T): a
//    shift below T makes the count negative, it wraps to a huge unsigned
//    count and sllv returns 0, so the hi limb only ever sees the shift >= T
//    terms. join_kernel_limbs rebuilds the exact register from the pair.
// Either way the spilled lanes equal the scalar kernel's registers bit for
// bit and the shared readout produces the identical patterns
// (tests/emac/kernel_differential_test.cpp).

#include "emac/kernel.hpp"

#if defined(DP_HAVE_AVX2_KERNEL)

#include <immintrin.h>

#include <stdexcept>

namespace dp::emac {

namespace {

template <int Limbs>
class Avx2Kernel final : public MatmulKernel {
 public:
  static constexpr std::size_t kTile = 16;

  explicit Avx2Kernel(const KernelSpec& spec)
      : MatmulKernel(spec, kTile, Limbs == 1 ? "avx2" : "avx2-2limb") {
    if (spec.limbs != Limbs) {
      throw std::logic_error("Avx2Kernel: spec.limbs does not match the kernel");
    }
  }

  void matmul(const PackedPlane& w, const ActTile& acts, std::size_t samples,
              std::uint32_t* out) const override {
    const std::size_t stride = acts.tile;
    if (samples > stride || samples > kMaxKernelTile || stride % 4 != 0) {
      throw std::invalid_argument("Avx2Kernel::matmul: bad tile shape");
    }
    const std::size_t groups = (samples + 3) / 4;  // live 4-lane ymm groups
    const std::size_t k = w.k;
    const int split = spec_.limb_split;
    alignas(32) std::int64_t lanes[kMaxKernelTile];
    alignas(32) std::int64_t hi_lanes[kMaxKernelTile];
    for (std::size_t r = 0; r < w.rows; ++r) {
      // Bias image = ssig << shift, split into limbs by the same rule as the
      // products. A NaR bias poisons the row through the kind mask instead
      // of the register.
      const std::int64_t bias = w.bias_nar[r] != 0 ? 0 : w.bias_ssig[r];
      const int bias_shift = w.bias_shift[r];
      const std::int64_t bias_lo =
          bias_shift < 64
              ? static_cast<std::int64_t>(static_cast<std::uint64_t>(bias) << bias_shift)
              : 0;
      __m256i acc[4];
      __m256i hi[4];
      for (std::size_t g = 0; g < groups; ++g) acc[g] = _mm256_set1_epi64x(bias_lo);
      if constexpr (Limbs == 2) {
        const std::int64_t bias_hi = bias_shift >= split ? bias << (bias_shift - split) : 0;
        for (std::size_t g = 0; g < groups; ++g) hi[g] = _mm256_set1_epi64x(bias_hi);
      }
      const std::int32_t* ws = w.ssig.data() + r * k;
      if constexpr (Limbs == 1) {
        // A compile-time group count keeps the accumulators in registers.
        const auto mac = [&]<std::size_t G>() {
          for (std::size_t i = 0; i < k; ++i) {
            const __m256i wv = _mm256_set1_epi32(ws[i]);
            const std::int64_t* as = acts.ssig.data() + i * stride;
            for (std::size_t g = 0; g < G; ++g) {
              const __m256i a =
                  _mm256_loadu_si256(reinterpret_cast<const __m256i*>(as + 4 * g));
              acc[g] = _mm256_add_epi64(acc[g], _mm256_mul_epi32(wv, a));
            }
          }
        };
        switch (groups) {
          case 1: mac.template operator()<1>(); break;
          case 2: mac.template operator()<2>(); break;
          case 3: mac.template operator()<3>(); break;
          default: mac.template operator()<4>(); break;
        }
      } else {
        const std::int32_t* wsh = w.shift.data() + r * k;
        for (std::size_t i = 0; i < k; ++i) {
          const __m256i wss = _mm256_set1_epi64x(ws[i]);
          const __m256i wshv = _mm256_set1_epi64x(wsh[i]);
          const std::int64_t* as = acts.ssig.data() + i * stride;
          const std::int64_t* af = acts.sf.data() + i * stride;
          for (std::size_t g = 0; g < groups; ++g) {
            const __m256i a =
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(as + 4 * g));
            const __m256i sh = _mm256_add_epi64(
                wshv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(af + 4 * g)));
            // Shift counts are non-negative for live and padded lanes alike
            // (pads carry ssig = 0, sf = zero_sf; see kernel.hpp).
            const __m256i prod = _mm256_mul_epi32(wss, a);
            acc[g] = _mm256_add_epi64(acc[g], _mm256_sllv_epi64(prod, sh));
            const __m256i sh_hi = _mm256_sub_epi64(sh, _mm256_set1_epi64x(split));
            hi[g] = _mm256_add_epi64(hi[g], _mm256_sllv_epi64(prod, sh_hi));
          }
        }
      }
      for (std::size_t g = 0; g < groups; ++g) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4 * g), acc[g]);
        if constexpr (Limbs == 2) {
          _mm256_store_si256(reinterpret_cast<__m256i*>(hi_lanes + 4 * g), hi[g]);
        }
      }
      const unsigned rk =
          w.row_kinds[r] |
          (w.bias_nar[r] != 0 ? static_cast<unsigned>(DecodedOp::kNaR) : 0u);
      for (std::size_t s = 0; s < samples; ++s) {
        const unsigned kinds = rk | acts.kinds[s];
        if constexpr (Limbs == 1) {
          out[r * stride + s] = readout_kernel_lane(spec_, lanes[s], kinds);
        } else {
          out[r * stride + s] = readout_kernel_lane(
              spec_, join_kernel_limbs(hi_lanes[s], lanes[s], split), kinds);
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<MatmulKernel> make_avx2_kernel(const KernelSpec& spec) {
  if (spec.limbs == 2) return std::make_unique<Avx2Kernel<2>>(spec);
  return std::make_unique<Avx2Kernel<1>>(spec);
}

}  // namespace dp::emac

#endif  // DP_HAVE_AVX2_KERNEL
