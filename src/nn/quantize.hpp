#pragma once
// Quantization of a trained float32 network into one of the low-precision
// formats: every weight and bias is independently converted with
// round-to-nearest-even (saturating). The paper quantizes the TensorFlow
// parameters the same way before loading them into the layer-local memories.
//
// Format is a PER-LAYER property: a network may carry one format for every
// layer (the paper's uniform configuration, `layer_formats` empty) or one
// format per layer (mixed precision, the PositNN direction — docs/formats.md
// describes the artifact encodings). Activations crossing a boundary between
// two differently-formatted layers are re-encoded with num::convert.

#include <cstdint>
#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "numeric/format.hpp"

namespace dp::nn {

struct QuantizedLayer {
  std::vector<std::uint32_t> weights;  ///< row-major, out x in patterns
  std::vector<std::uint32_t> bias;     ///< out patterns
  std::size_t fan_in = 0;
  std::size_t fan_out = 0;
  Activation activation = Activation::kReLU;
};

struct QuantizedNetwork {
  /// The uniform format — or, for a mixed network, the FIRST layer's format
  /// (always equal to layer_formats.front() then), which is also the format
  /// inputs are quantized into, so wire clients keep one quantization rule.
  num::Format format;
  std::vector<QuantizedLayer> layers;
  /// Empty = every layer uses `format` (uniform; the only state that existed
  /// before mixed precision). Otherwise exactly one entry per layer, with
  /// entry 0 == format (validate_layer_formats enforces both).
  std::vector<num::Format> layer_formats{};

  std::size_t input_dim() const { return layers.front().fan_in; }
  std::size_t output_dim() const { return layers.back().fan_out; }

  bool uniform_format() const { return layer_formats.empty(); }
  const num::Format& layer_format(std::size_t li) const {
    return layer_formats.empty() ? format : layer_formats[li];
  }
  /// The format inputs are quantized into (layer 0's).
  const num::Format& input_format() const { return format; }
  /// The format of the readout activations (the last layer's).
  const num::Format& output_format() const {
    return layer_formats.empty() ? format : layer_formats.back();
  }
  /// Parameter bits per stored parameter (weights and biases), the budget
  /// axis of dp::tune: sum over layers of params * layer bits / total params.
  double bits_per_weight() const;
};

/// Throws std::invalid_argument unless the per-layer format table is
/// well-formed: empty, or exactly one entry per layer with entry 0 == format.
/// Every consumer that trusts the table (runtime::Model, the artifact
/// writers) calls this first.
void validate_layer_formats(const QuantizedNetwork& net);

/// Quantize all parameters of `net` into `fmt`.
QuantizedNetwork quantize(const Mlp& net, const num::Format& fmt);

/// Per-layer (mixed-precision) quantization: layer i's weights and bias are
/// quantized into fmts[i]. Requires one format per layer (throws
/// std::invalid_argument otherwise). A table whose entries are all equal
/// canonicalizes to the uniform representation — the artifacts and runtime
/// treat "mixed with identical formats" and "uniform" as one state, so
/// legacy single-format files stay byte-for-byte reproducible.
QuantizedNetwork quantize(const Mlp& net, std::span<const num::Format> fmts);

/// Mean and max absolute quantization error over all parameters — useful for
/// studying which format represents a trained network best (cf. Fig. 2).
struct QuantError {
  double mean_abs = 0;
  double max_abs = 0;
};
QuantError quantization_error(const Mlp& net, const num::Format& fmt);

}  // namespace dp::nn
