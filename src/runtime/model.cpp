#include "runtime/model.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "emac/decode_lut.hpp"
#include "nn/io.hpp"
#include "numeric/encode_table.hpp"

namespace dp::runtime {

namespace {

/// DP_FORCE_STEP_PATH=1 (any value other than unset/empty/"0") forces every
/// model onto the legacy per-MAC step() path — the no-rebuild cross-check
/// knob documented in docs/reproducing.md.
bool step_path_forced() {
  const char* v = std::getenv("DP_FORCE_STEP_PATH");
  return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace

Scratch::Scratch(const nn::QuantizedNetwork& net) {
  emacs_.reserve(net.layers.size());
  std::size_t widest = net.input_dim();
  std::size_t widest_in = net.input_dim();
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net.layers[li];
    emacs_.push_back(emac::make_emac(net.layer_format(li), layer.fan_in));
    widest = std::max(widest, layer.fan_out);
    widest_in = std::max(widest_in, layer.fan_in);
  }
  act_.reserve(widest);
  next_.reserve(widest);
  act_dec_.reserve(widest_in);
}

Model::Model(nn::QuantizedNetwork network, ForwardPath path)
    : net_(std::move(network)), path_(step_path_forced() ? ForwardPath::kStep : path) {
  if (net_.layers.empty()) throw std::invalid_argument("runtime::Model: empty network");
  // A malformed per-layer format table must fail here, before any of it is
  // trusted to size an accumulator or pick a kernel.
  nn::validate_layer_formats(net_);
  // Fails fast on unsupported format/fan-in combinations and provides the
  // units that decode the weight planes below.
  Scratch probe(net_);
  convert_tables_.resize(net_.layers.size());
  for (std::size_t li = 1; li < net_.layers.size(); ++li) {
    const num::Format& prev = net_.layer_format(li - 1);
    if (!(prev == net_.layer_format(li)) && prev.total_bits() <= emac::kMaxLutBits) {
      convert_tables_[li] = num::convert_table(prev, net_.layer_format(li));
    }
  }
  if (path_ == ForwardPath::kFused) {
    weight_planes_.resize(net_.layers.size());
    for (std::size_t li = 0; li < net_.layers.size(); ++li) {
      const nn::QuantizedLayer& layer = net_.layers[li];
      weight_planes_[li].resize(layer.weights.size());
      probe.emacs_[li]->decode_plane(layer.weights.data(), layer.weights.size(),
                                     weight_planes_[li].data());
    }
    // Blocked multi-sample kernels: all-or-nothing so forward_tile_into
    // never mixes kernel and per-sample layers. Dispatch (AVX2 vs portable,
    // DP_FORCE_SCALAR_KERNEL) — and with it the accumulator width — is
    // resolved here PER LAYER, against each layer's own format: in a mixed
    // model one layer may take the one-limb AVX2 kernel while a wider-quire
    // neighbour takes the two-limb or the scalar-blocked one (kernel_name()
    // then reports "mixed").
    kernels_.reserve(net_.layers.size());
    bool blocked = true;
    for (std::size_t li = 0; li < net_.layers.size() && blocked; ++li) {
      auto kern =
          emac::MatmulKernel::create(net_.layer_format(li), net_.layers[li].fan_in);
      if (kern == nullptr) {
        blocked = false;
        break;
      }
      kernels_.push_back(std::move(kern));
    }
    if (blocked) {
      input_table_ = num::shared_encode_table(net_.input_format());
      tile_ = kernels_.front()->tile();
      packed_planes_.reserve(net_.layers.size());
      for (std::size_t li = 0; li < net_.layers.size(); ++li) {
        const nn::QuantizedLayer& layer = net_.layers[li];
        tile_ = std::min(tile_, kernels_[li]->tile());
        packed_planes_.push_back(kernels_[li]->pack_plane(
            weight_planes_[li].data(), layer.fan_out, layer.bias.data()));
      }
    } else {
      kernels_.clear();
      tile_ = 1;
    }
  }
}

std::shared_ptr<const Model> Model::create(nn::QuantizedNetwork network, ForwardPath path) {
  return std::make_shared<const Model>(std::move(network), path);
}

std::shared_ptr<const Model> Model::load(const std::string& path, ForwardPath forward) {
  return create(nn::load_quantized(path), forward);
}

Scratch Model::make_scratch() const {
  // Fresh units carry only immutable configuration (the decode tables come
  // from the process-wide shared registry, so construction is cheap), never
  // accumulator or buffer state.
  return Scratch(net_);
}

std::uint32_t Model::relu(std::uint32_t bits, const num::Format& fmt) {
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const auto& f = fmt.posit();
      bits &= f.mask();
      if (bits == f.nar_pattern()) return bits;  // NaR passes through
      // Negative iff the sign bit is set (and not NaR).
      return ((bits >> (f.n - 1)) & 1u) ? f.zero_pattern() : bits;
    }
    case num::Kind::kFloat: {
      const auto& f = fmt.flt();
      bits &= f.mask();
      // Clear negatives (including -0) to +0.
      return ((bits >> (f.we + f.wf)) & 1u) ? num::float_zero(f) : bits;
    }
    case num::Kind::kFixed: {
      const auto& f = fmt.fixed();
      return num::fixed_raw(bits, f) < 0 ? num::fixed_from_raw(0, f) : (bits & f.mask());
    }
  }
  throw std::logic_error("runtime::Model::relu: bad kind");
}

std::uint32_t Model::to_layer_format(std::size_t li, std::uint32_t bits) const {
  const std::vector<std::uint32_t>& table = convert_tables_[li];
  if (!table.empty()) return table[bits & (table.size() - 1)];
  return num::convert(bits, net_.layer_format(li - 1), net_.layer_format(li));
}

void Model::forward_into(std::span<const double> x, Scratch& scratch) const {
  if (x.size() != net_.input_dim()) {
    throw std::invalid_argument("runtime::Model::forward_into: bad input size");
  }
  std::vector<std::uint32_t>& act = scratch.act_;
  std::vector<std::uint32_t>& next = scratch.next_;
  act.clear();
  for (const double v : x) act.push_back(net_.input_format().from_double(v));

  const bool fused = path_ == ForwardPath::kFused;
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net_.layers[li];
    const num::Format& fmt = net_.layer_format(li);
    // Activations produced upstream carry the previous layer's format; at a
    // mixed boundary re-encode them into this layer's before they feed the
    // layer's EMACs.
    if (li > 0 && !(net_.layer_format(li - 1) == fmt)) {
      for (std::uint32_t& a : act) a = to_layer_format(li, a);
    }
    emac::Emac& unit = *scratch.emacs_[li];
    next.assign(layer.fan_out, 0);
    if (fused) {
      // Decode this layer's activation vector once for all fan_out neurons;
      // the static weights were decoded once at model construction.
      std::vector<emac::DecodedOp>& adec = scratch.act_dec_;
      adec.resize(layer.fan_in);
      unit.decode_plane(act.data(), layer.fan_in, adec.data());
      const emac::DecodedOp* wplane = weight_planes_[li].data();
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        std::uint32_t out =
            unit.dot(layer.bias[j], wplane + j * layer.fan_in, adec.data(), layer.fan_in);
        if (layer.activation == nn::Activation::kReLU) out = relu(out, fmt);
        next[j] = out;
      }
    } else {
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        unit.reset(layer.bias[j]);
        const std::uint32_t* wrow = layer.weights.data() + j * layer.fan_in;
        for (std::size_t i = 0; i < layer.fan_in; ++i) {
          unit.step(wrow[i], act[i]);
        }
        std::uint32_t out = unit.result();
        if (layer.activation == nn::Activation::kReLU) out = relu(out, fmt);
        next[j] = out;
      }
    }
    act.swap(next);
  }
}

int Model::readout_argmax(const Scratch& scratch) const {
  return argmax_bits(scratch.activations());
}

int Model::argmax_bits(std::span<const std::uint32_t> bits) const {
  const num::Format& fmt = net_.output_format();
  int best = 0;
  double best_score = bits.empty() ? 0.0 : fmt.to_double(bits[0]);
  for (std::size_t i = 1; i < bits.size(); ++i) {
    const double score = fmt.to_double(bits[i]);
    if (score > best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

const char* Model::kernel_name() const {
  if (kernels_.empty()) return "none";
  const char* name = kernels_.front()->name();
  for (const auto& kern : kernels_) {
    if (std::strcmp(kern->name(), name) != 0) return "mixed";
  }
  return name;
}

Model::TileScratch Model::make_tile_scratch() const {
  TileScratch ts;
  if (!kernels_.empty()) {
    std::size_t widest = net_.input_dim();
    for (const nn::QuantizedLayer& layer : net_.layers) {
      widest = std::max(widest, layer.fan_out);
    }
    ts.bits_.reserve(widest * tile_);
    ts.next_.reserve(widest * tile_);
  }
  return ts;
}

void Model::forward_tile_into(BatchView xs, std::size_t row0, std::size_t nrows,
                              TileScratch& scratch, std::uint32_t* out) const {
  if (kernels_.empty()) {
    throw std::logic_error("runtime::Model::forward_tile_into: no blocked path");
  }
  if (nrows == 0 || nrows > tile_ || row0 + nrows > xs.rows()) {
    throw std::invalid_argument("runtime::Model::forward_tile_into: bad tile range");
  }
  if (xs.row_width() != net_.input_dim()) {
    throw std::invalid_argument("runtime::Model::forward_tile_into: bad input size");
  }
  const std::size_t tile = tile_;
  std::vector<std::uint32_t>& bits = scratch.bits_;
  std::vector<std::uint32_t>& next = scratch.next_;
  // Quantize the tile straight into the lane-interleaved layout the kernels
  // consume: element i of sample s at [i*tile + s]. Pad lanes stay zero
  // (never read: pack_acts and the output copy only touch s < nrows).
  // Posit and float inputs of <= 8 bits round through the shared encode
  // table, bit-identical to Format::from_double (the single-row path).
  const std::size_t in_dim = net_.input_dim();
  bits.assign(in_dim * tile, 0);
  for (std::size_t s = 0; s < nrows; ++s) {
    const std::span<const double> row = xs.row(row0 + s);
    for (std::size_t i = 0; i < in_dim; ++i) {
      bits[i * tile + s] = input_table_ != nullptr ? input_table_->from_double(row[i])
                                                   : net_.input_format().from_double(row[i]);
    }
  }
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net_.layers[li];
    const num::Format& fmt = net_.layer_format(li);
    // Mixed boundary: re-encode the live lanes only — pad lanes are zero and
    // never read (pack_acts and the output copy stop at s < nrows).
    if (li > 0 && !(net_.layer_format(li - 1) == fmt)) {
      for (std::size_t i = 0; i < layer.fan_in; ++i) {
        for (std::size_t s = 0; s < nrows; ++s) {
          bits[i * tile + s] = to_layer_format(li, bits[i * tile + s]);
        }
      }
    }
    const emac::MatmulKernel& kern = *kernels_[li];
    kern.pack_acts(bits.data(), layer.fan_in, nrows, tile, scratch.acts_);
    next.resize(layer.fan_out * tile);
    kern.matmul(packed_planes_[li], scratch.acts_, nrows, next.data());
    if (layer.activation == nn::Activation::kReLU) {
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        std::uint32_t* lane = next.data() + j * tile;
        for (std::size_t s = 0; s < nrows; ++s) lane[s] = relu(lane[s], fmt);
      }
    }
    bits.swap(next);
  }
  // De-interleave the readout to the caller's planar rows.
  const std::size_t out_dim = net_.output_dim();
  for (std::size_t s = 0; s < nrows; ++s) {
    for (std::size_t j = 0; j < out_dim; ++j) out[s * out_dim + j] = bits[j * tile + s];
  }
}

std::size_t Model::macs_per_inference() const {
  std::size_t macs = 0;
  for (const auto& layer : net_.layers) macs += layer.fan_in * layer.fan_out;
  return macs;
}

}  // namespace dp::runtime
