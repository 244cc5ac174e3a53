#pragma once
// runtime::Model — the immutable, shareable half of the inference API.
//
// A Model wraps a QuantizedNetwork together with everything derived from it
// that is read-only at serving time: the validated per-layer EMAC
// configuration, one register-blocked MatmulKernel per layer with its weight
// plane re-packed for it, and the boundary conversion tables of a mixed
// model. Once constructed it is never mutated, so any number of Sessions
// (and any number of threads inside each Session's worker pool) can share
// one Model via std::shared_ptr<const Model>.
//
// forward_tile_into is the one forward path: a tile of rows streams through
// every layer's kernel in one weight-plane pass, single rows included. A
// layer with no kernel (a posit whose quire passes the kernels' 250-bit
// ceiling, e.g. posit<16,2>) runs the paper's Emac::step recurrence per row
// instead. Every output is bit-identical to that recurrence run per row
// (tests/runtime/blocked_session_test.cpp).
//
// All mutable inference state lives in a TileScratch, which must never be
// shared between threads; Sessions keep one per worker-pool slot.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "emac/emac.hpp"
#include "emac/kernel.hpp"
#include "nn/quantize.hpp"
#include "runtime/batch.hpp"

namespace dp::runtime {

class Model {
 public:
  /// Validates every format/fan-in combination, picks each layer's kernel
  /// and packs its weight plane for it.
  explicit Model(nn::QuantizedNetwork network);

  /// The idiomatic spelling for serving code: a shared immutable handle,
  /// ready to hand to any number of Sessions.
  static std::shared_ptr<const Model> create(nn::QuantizedNetwork network);

  /// The deployment spelling: reload a shipped artifact straight into a
  /// shared Model — quantize offline, ship the file, hot-load it into a
  /// serve::ModelRegistry (docs/deployment.md). Reads both artifact formats
  /// transparently: the "dpnet-quant" text file (nn::save_quantized) and the
  /// entropy-coded ".dpnetz" container (nn::save_quantized_compressed),
  /// sniffed by magic — so shipping compressed weights changes nothing here
  /// (docs/compression.md). Throws std::runtime_error on malformed input.
  static std::shared_ptr<const Model> load(const std::string& path);

  /// The uniform format — or, for a mixed-precision model, the first layer's
  /// (== the input quantization format, so wire clients and Session callers
  /// keep one encode rule either way). Alias: input_format().
  const num::Format& format() const { return net_.format; }
  const num::Format& input_format() const { return net_.input_format(); }
  /// The format of the readout activations (the last layer's) — what
  /// argmax_bits and every reply decoder interpret bits with.
  const num::Format& output_format() const { return net_.output_format(); }
  /// True when at least two layers carry distinct formats.
  bool mixed_format() const { return !net_.uniform_format(); }
  /// Average parameter bits per stored parameter — the dp::tune budget axis.
  double bits_per_weight() const { return net_.bits_per_weight(); }
  const nn::QuantizedNetwork& network() const { return net_; }
  std::size_t input_dim() const { return net_.input_dim(); }
  std::size_t output_dim() const { return net_.output_dim(); }

  /// Total number of MAC operations for one inference (for energy models).
  std::size_t macs_per_inference() const;

  /// Bytes of packed weight operands per weight over the layers that run a
  /// kernel: 4 for one-limb planes (pre-shifted operands), 8 for wider ones
  /// (significand and shift); 0 when no layer has a kernel.
  double packed_bytes_per_weight() const;

  /// argmax over a row of readout patterns in output_format(): the first
  /// strictly greatest decoded score wins.
  int argmax_bits(std::span<const std::uint32_t> bits) const;

  /// The kernels' preferred samples-per-pass (the minimum across layers when
  /// dispatch differs per layer); 1 when no layer has a kernel. Serving
  /// front-ends align micro-batch flushes to a multiple of this.
  std::size_t preferred_tile() const { return tile_; }

  /// The matvec every layer runs: "avx2", "avx2-2limb", "scalar-blocked",
  /// "step" (the Emac::step fallback of a layer with no kernel), or "mixed"
  /// when layers differ.
  const char* kernel_name() const;

  /// Per-thread mutable state for forward_tile_into: the lane-interleaved
  /// activation tile, the ping-pong pattern buffers and the EMAC units of
  /// the step-fallback layers. Never share one between threads.
  class TileScratch {
   private:
    friend class Model;
    emac::ActTile acts_;
    std::vector<std::uint32_t> bits_;  // current activations, [i*tile + s]
    std::vector<std::uint32_t> next_;  // next layer's outputs, same layout
    std::vector<std::unique_ptr<emac::Emac>> emacs_;  // per layer; null if it has a kernel
  };

  TileScratch make_tile_scratch() const;

  /// Run rows [row0, row0 + nrows) of `xs` through every layer as one tile
  /// (1 <= nrows <= preferred_tile()) and write sample s's readout to
  /// out[s*output_dim() .. (s+1)*output_dim()). Throws
  /// std::invalid_argument on a bad range or row width.
  void forward_tile_into(BatchView xs, std::size_t row0, std::size_t nrows,
                         TileScratch& scratch, std::uint32_t* out) const;

 private:
  /// Re-encode an activation of layer li - 1 into layer li's format (a
  /// mixed boundary): a table lookup where one was built, else num::convert.
  std::uint32_t to_layer_format(std::size_t li, std::uint32_t bits) const;

  nn::QuantizedNetwork net_;
  // Per layer li: num::convert_table(layer_format(li - 1), layer_format(li))
  // where the two formats differ and the upstream one is at most
  // emac::kMaxLutBits wide; empty otherwise.
  std::vector<std::vector<std::uint32_t>> convert_tables_;
  // Per layer: the kernel and its re-packed weight plane, or null and an
  // empty plane for a step-fallback layer. Immutable after construction.
  std::vector<std::unique_ptr<emac::MatmulKernel>> kernels_;
  std::vector<emac::PackedPlane> packed_planes_;
  // The input quantizer: the shared encode table of the input format, or
  // null (fixed or wider formats: Format::from_double).
  const num::EncodeTable* input_table_ = nullptr;
  // argmax_bits' integer order on output_format() patterns.
  num::OrderRule output_order_;
  std::size_t tile_ = 1;
};

}  // namespace dp::runtime
