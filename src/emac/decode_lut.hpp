#pragma once
// Process-wide registry of immutable operand-decode lookup tables, shared by
// every EMAC unit of the same format.
//
// Inference pushes millions of operands through the units and kernels, so
// each fronts its decode with a 2^n-entry table of pre-decoded operands.
// Tables are pure functions of the format, so they are built once, cached
// behind a shared_ptr, and handed out to every EMAC unit, every kernel's
// activation packing and every weight-plane decode. Entries are immutable
// after construction; concurrent readers need no synchronization.

#include <cstdint>
#include <memory>
#include <vector>

#include "emac/emac.hpp"
#include "numeric/format.hpp"

namespace dp::emac {

/// Indexed by the raw n-bit pattern; entry i decodes pattern i.
using DecodeLut = std::vector<DecodedOp>;

/// Maximum format width for which tables are built (2^16 entries, ~1.5 MiB).
inline constexpr int kMaxLutBits = 16;

/// The shared table for `fmt`, built on first request and cached for the
/// process lifetime. Returns nullptr when the format is wider than
/// kMaxLutBits — callers fall back to per-operand decode. Thread-safe.
std::shared_ptr<const DecodeLut> shared_decode_lut(const num::Format& fmt);

/// Decode one pattern without a table (the wide-format fallback and the
/// builder's kernel). Exactly matches the corresponding LUT entry.
DecodedOp decode_operand(std::uint32_t bits, const num::Format& fmt);

/// Shared Emac::decode_plane body: LUT gather when a table exists (`mask`
/// is the format's width mask), per-operand decode otherwise.
inline void decode_plane_with(const DecodeLut* lut, const num::Format& fmt,
                              std::uint32_t mask, const std::uint32_t* bits,
                              std::size_t count, DecodedOp* out) {
  if (lut != nullptr) {
    for (std::size_t i = 0; i < count; ++i) out[i] = (*lut)[bits[i] & mask];
    return;
  }
  for (std::size_t i = 0; i < count; ++i) out[i] = decode_operand(bits[i], fmt);
}

}  // namespace dp::emac
