#include "numeric/encode_table.hpp"

#include <memory>
#include <mutex>
#include <stdexcept>

namespace dp::num {

bool EncodeTable::covers(const Format& fmt) {
  return fmt.kind() != Kind::kFixed && fmt.total_bits() <= kMaxEncodeTableBits;
}

EncodeTable::EncodeTable(const Format& fmt) : fmt_(fmt) {
  if (!covers(fmt)) {
    throw std::invalid_argument("EncodeTable: " + fmt.name() + " is not a posit or float "
                                "format of at most 8 bits");
  }
  n_ = fmt.total_bits();
  mask_ = (std::uint32_t{1} << n_) - 1;
  if (fmt.kind() == Kind::kPosit) {
    smin_ = -fmt.posit().max_scale() - 1;
    smax_ = fmt.posit().max_scale();
    neg_xor_ = mask_;
    neg_add_ = 1;
  } else {
    const FloatFormat& f = fmt.flt();
    smin_ = f.emin() - f.wf - 2;
    smax_ = f.emax() + 1;
    neg_xor_ = std::uint32_t{1} << (n_ - 1);
    neg_add_ = 0;
  }
  const std::size_t row = std::size_t{1} << n_;
  cells_.resize(static_cast<std::size_t>(smax_ - smin_ + 1) * row);
  for (std::size_t cell = 0; cell < cells_.size(); ++cell) {
    // The cell's representative: the indexed bits under the hidden bit, and
    // for the sticky bit the sticky flag (the encoders treat a set sticky
    // and a set lower fraction bit alike).
    Unpacked u;
    u.scale = smin_ + static_cast<std::int64_t>(cell >> n_);
    u.frac = (std::uint64_t{1} << 63) |
             (static_cast<std::uint64_t>((cell & (row - 1)) >> 1) << (64 - n_));
    u.sticky = (cell & 1) != 0;
    cells_[cell] = static_cast<std::uint8_t>(
        fmt.kind() == Kind::kPosit ? posit_encode(u, fmt.posit())
                                   : float_encode(u, fmt.flt(), FloatOverflow::kSaturate));
  }
}

const EncodeTable* shared_encode_table(const Format& fmt) {
  if (!EncodeTable::covers(fmt)) return nullptr;
  static std::mutex mutex;
  // Leaked on purpose: tables live for the process, so kernels may keep raw
  // pointers to them.
  static auto& tables = *new std::vector<std::unique_ptr<const EncodeTable>>();
  const std::lock_guard<std::mutex> lock(mutex);
  for (const auto& t : tables) {
    if (t->format() == fmt) return t.get();
  }
  tables.push_back(std::make_unique<const EncodeTable>(fmt));
  return tables.back().get();
}

}  // namespace dp::num
