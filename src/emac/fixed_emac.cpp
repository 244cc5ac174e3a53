#include "emac/fixed_emac.hpp"

#include <stdexcept>

namespace dp::emac {

FixedEmac::FixedEmac(const num::FixedFormat& fmt, std::size_t k)
    : format_(fmt), fmt_(fmt), k_(k) {
  num::validate(fmt);
  if (k == 0) throw std::invalid_argument("FixedEmac: k must be >= 1");
  if (accumulator_width() > 120) {
    throw std::invalid_argument("FixedEmac: accumulator exceeds 120 bits");
  }
  lut_ = shared_decode_lut(format_);
}

void FixedEmac::reset(std::uint32_t bias_bits) {
  // Bias has q fraction bits; the accumulator carries 2q. Align by << q.
  acc_ = static_cast<__int128>(num::fixed_raw(bias_bits, fmt_)) << fmt_.q;
  steps_ = 0;
}

void FixedEmac::step(std::uint32_t weight_bits, std::uint32_t activation_bits) {
  if (steps_ >= k_) throw std::logic_error("FixedEmac: more than k accumulation steps");
  const std::int64_t w = num::fixed_raw(weight_bits, fmt_);
  const std::int64_t a = num::fixed_raw(activation_bits, fmt_);
  acc_ += static_cast<__int128>(w) * a;  // exact 2n-bit product
  ++steps_;
}

std::uint32_t FixedEmac::result() const {
  // ">> q" on a negative two's-complement register is an arithmetic shift:
  // truncation toward -inf, as in the hardware.
  const __int128 shifted = acc_ >> fmt_.q;
  const __int128 lo = fmt_.raw_min();
  const __int128 hi = fmt_.raw_max();
  const __int128 clipped = shifted < lo ? lo : (shifted > hi ? hi : shifted);
  return num::fixed_from_raw(static_cast<std::int64_t>(clipped), fmt_);
}

std::size_t FixedEmac::accumulator_width() const {
  return accumulator_width_eq3(fmt_.max_value(), fmt_.min_positive(), k_);
}

void FixedEmac::decode_plane(const std::uint32_t* bits, std::size_t count,
                             DecodedOp* out) const {
  decode_plane_with(lut_.get(), format_, fmt_.mask(), bits, count, out);
}

}  // namespace dp::emac
