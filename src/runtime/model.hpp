#pragma once
// runtime::Model — the immutable, shareable half of the inference API.
//
// A Model wraps a QuantizedNetwork together with everything derived from it
// that is read-only at serving time: the pre-decoded weight planes for the
// fused Emac::dot() kernels and the validated per-layer EMAC configuration.
// Once constructed it is never mutated, so any number of Sessions (and any
// number of threads inside each Session's worker pool) can share one Model
// via std::shared_ptr<const Model>.
//
// All mutable inference state — the per-layer EMAC accumulators and the
// activation ping-pong buffers — lives in a Scratch. A Scratch must never be
// shared between threads; Sessions keep one per worker-pool slot.
//
// Every path through forward_into (fused or step, any Scratch, any thread)
// produces bit-identical outputs: rows are independent and each is computed
// by the same deterministic EMAC recurrence.

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

/// Which matvec kernel Model::forward_into drives.
///  * kFused — one Emac::dot() call per neuron against the model's
///    pre-decoded weight planes and a per-sample pre-decoded activation
///    vector (the hot path; bit-identical to kStep, see
///    tests/nn/fused_path_test.cpp).
///  * kStep — the legacy reset/step*k/result recurrence, one virtual call
///    per MAC. Kept for cross-checking; also forced for every model by
///    setting the environment variable DP_FORCE_STEP_PATH=1.
enum class ForwardPath { kFused, kStep };

/// Per-thread mutable inference state: one EMAC per layer (neurons of a
/// layer share the unit in this software model; hardware instantiates one
/// per neuron — see dp::arch for the parallel-latency model) plus the
/// activation ping-pong buffers. Reusable across any number of samples;
/// never share one Scratch between threads.
class Scratch {
 public:
  explicit Scratch(const nn::QuantizedNetwork& net);

  /// The readout activations (network-format bit patterns) left by the last
  /// Model::forward_into call; valid until the next call with this Scratch.
  std::span<const std::uint32_t> activations() const { return act_; }

 private:
  friend class Model;
  std::vector<std::unique_ptr<emac::Emac>> emacs_;  // one per layer
  std::vector<std::uint32_t> act_;                  // current activations
  std::vector<std::uint32_t> next_;                 // next layer's outputs
  std::vector<emac::DecodedOp> act_dec_;            // pre-decoded activations
};

class Model {
 public:
  /// Validates every format/fan-in combination and pre-decodes the static
  /// weight memories (fused path only; a step-path model never reads the
  /// planes, and a DecodedOp is 8x the raw pattern size).
  explicit Model(nn::QuantizedNetwork network, ForwardPath path = ForwardPath::kFused);

  /// The idiomatic spelling for serving code: a shared immutable handle,
  /// ready to hand to any number of Sessions.
  static std::shared_ptr<const Model> create(nn::QuantizedNetwork network,
                                             ForwardPath path = ForwardPath::kFused);

  /// The deployment spelling: reload a shipped artifact straight into a
  /// shared Model — quantize offline, ship the file, hot-load it into a
  /// serve::ModelRegistry (docs/deployment.md). Reads both artifact formats
  /// transparently: the "dpnet-quant" text file (nn::save_quantized) and the
  /// entropy-coded ".dpnetz" container (nn::save_quantized_compressed),
  /// sniffed by magic — so shipping compressed weights changes nothing here
  /// (docs/compression.md). Throws std::runtime_error on malformed input.
  static std::shared_ptr<const Model> load(const std::string& path,
                                           ForwardPath forward = ForwardPath::kFused);

  ForwardPath forward_path() const { return path_; }
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

  /// Fresh per-thread mutable state for forward_into.
  Scratch make_scratch() const;

  /// Core matvec chain: quantize `x` into the network format, stream through
  /// every layer; the readout activations are left in `scratch` (read them
  /// via scratch.activations()). Throws std::invalid_argument unless
  /// x.size() == input_dim().
  void forward_into(std::span<const double> x, Scratch& scratch) const;

  /// argmax class prediction over the decoded readout left in `scratch` by
  /// the last forward_into.
  int readout_argmax(const Scratch& scratch) const;

  /// argmax over a row of network-format readout patterns (what the blocked
  /// path and serving buffers hold); readout_argmax delegates here.
  int argmax_bits(std::span<const std::uint32_t> bits) const;

  // --- Register-blocked multi-sample path ----------------------------------
  // Built at construction (fused models only) when every layer's (format,
  // fan-in) has a MatmulKernel: a tile of samples streams through each
  // weight plane in one pass, bit-identical to forward_into per sample
  // (tests/runtime/blocked_session_test.cpp). Sessions drive it for
  // multi-row batches; the per-sample path remains for everything else.

  /// True when forward_tile_into is available.
  bool blocked_available() const { return !kernels_.empty(); }

  /// The kernels' preferred samples-per-pass (the minimum across layers when
  /// dispatch differs per layer); 1 when no blocked path exists. Serving
  /// front-ends align micro-batch flushes to a multiple of this.
  std::size_t preferred_tile() const { return tile_; }

  /// Dispatched kernel: "avx2", "avx2-2limb", "scalar-blocked", "mixed"
  /// (per-layer dispatch differs) or "none" (no blocked path).
  const char* kernel_name() const;

  /// Per-thread mutable state for forward_tile_into: the lane-interleaved
  /// activation tile and the ping-pong pattern buffers. Never share one
  /// between threads.
  class TileScratch {
   private:
    friend class Model;
    emac::ActTile acts_;
    std::vector<std::uint32_t> bits_;  // current activations, [i*tile + s]
    std::vector<std::uint32_t> next_;  // next layer's outputs, same layout
  };

  TileScratch make_tile_scratch() const;

  /// Run rows [row0, row0 + nrows) of `xs` through the blocked kernels as
  /// one tile (nrows <= preferred_tile()) and write sample s's readout to
  /// out[s*output_dim() .. (s+1)*output_dim()). Requires blocked_available().
  void forward_tile_into(BatchView xs, std::size_t row0, std::size_t nrows,
                         TileScratch& scratch, std::uint32_t* out) const;

 private:
  static std::uint32_t relu(std::uint32_t bits, const num::Format& fmt);
  /// Re-encode an activation of layer li - 1 into layer li's format (a
  /// mixed boundary): a table lookup where one was built, else num::convert.
  std::uint32_t to_layer_format(std::size_t li, std::uint32_t bits) const;

  nn::QuantizedNetwork net_;
  ForwardPath path_;
  // Per layer li: num::convert_table(layer_format(li - 1), layer_format(li))
  // where the two formats differ and the upstream one is at most
  // emac::kMaxLutBits wide; empty otherwise. Both forward paths read it.
  std::vector<std::vector<std::uint32_t>> convert_tables_;
  // Pre-decoded weight planes, one per layer, row-major like the raw
  // patterns: the static weight memories are decoded exactly once at
  // construction and shared read-only by every Scratch on every thread.
  std::vector<std::vector<emac::DecodedOp>> weight_planes_;
  // Blocked kernels + re-packed planes, one per layer; empty when any layer
  // is unsupported (or the model runs the step path). Immutable after
  // construction, shared read-only like the planes above.
  std::vector<std::unique_ptr<emac::MatmulKernel>> kernels_;
  std::vector<emac::PackedPlane> packed_planes_;
  // forward_tile_into's input quantizer: the shared encode table of the
  // input format, or null (fixed or wider formats: Format::from_double).
  const num::EncodeTable* input_table_ = nullptr;
  std::size_t tile_ = 1;
};

}  // namespace dp::runtime
