#include "runtime/model.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "emac/decode_lut.hpp"
#include "nn/io.hpp"
#include "numeric/encode_table.hpp"

namespace dp::runtime {

Model::Model(nn::QuantizedNetwork network) : net_(std::move(network)) {
  if (net_.layers.empty()) throw std::invalid_argument("runtime::Model: empty network");
  // A malformed per-layer format table must fail here, before any of it is
  // trusted to size an accumulator or pick a kernel.
  nn::validate_layer_formats(net_);
  convert_tables_.resize(net_.layers.size());
  for (std::size_t li = 1; li < net_.layers.size(); ++li) {
    const num::Format& prev = net_.layer_format(li - 1);
    if (!(prev == net_.layer_format(li)) && prev.total_bits() <= emac::kMaxLutBits) {
      convert_tables_[li] = num::convert_table(prev, net_.layer_format(li));
    }
  }
  input_table_ = num::shared_encode_table(net_.input_format());
  output_order_ = num::order_rule(net_.output_format());
  // Dispatch (AVX2 vs portable, DP_FORCE_SCALAR_KERNEL) — and with it the
  // accumulator width — is resolved per layer against the layer's own
  // format, so one layer may take the one-limb AVX2 kernel while a
  // wider-quire neighbour takes the two-limb, the scalar-blocked kernel or
  // the step fallback (kernel_name() then reports "mixed").
  kernels_.resize(net_.layers.size());
  packed_planes_.resize(net_.layers.size());
  std::size_t tile = emac::kMaxKernelTile;
  bool any_kernel = false;
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net_.layers[li];
    const num::Format& fmt = net_.layer_format(li);
    // Building the unit fails fast on an unsupported format/fan-in; it also
    // decodes the plane, which lives only until the kernel has packed it.
    // The layer's accumulator is sized from the scales its weights and
    // biases actually hold (emac/kernel.hpp), not the format's whole range.
    const std::unique_ptr<emac::Emac> unit = emac::make_emac(fmt, layer.fan_in);
    const emac::ScaleRange range = emac::plane_scale_range(
        fmt, layer.weights.data(), layer.weights.size(), layer.bias.data(), layer.fan_out);
    kernels_[li] = emac::MatmulKernel::create(fmt, layer.fan_in, range);
    if (kernels_[li] == nullptr) continue;
    std::vector<emac::DecodedOp> plane(layer.weights.size());
    unit->decode_plane(layer.weights.data(), plane.size(), plane.data());
    packed_planes_[li] = kernels_[li]->pack_plane(plane.data(), layer.fan_out, layer.bias.data());
    tile = std::min(tile, kernels_[li]->tile());
    any_kernel = true;
  }
  tile_ = any_kernel ? tile : 1;
}

std::shared_ptr<const Model> Model::create(nn::QuantizedNetwork network) {
  return std::make_shared<const Model>(std::move(network));
}

std::shared_ptr<const Model> Model::load(const std::string& path) {
  return create(nn::load_quantized(path));
}

std::uint32_t Model::to_layer_format(std::size_t li, std::uint32_t bits) const {
  const std::vector<std::uint32_t>& table = convert_tables_[li];
  if (!table.empty()) return table[bits & (table.size() - 1)];
  return num::convert(bits, net_.layer_format(li - 1), net_.layer_format(li));
}

int Model::argmax_bits(std::span<const std::uint32_t> bits) const {
  // Integer keys in value order, the winner comparing decoded scores would
  // pick: a NaR/NaN score compares false both ways, so one in slot 0 wins
  // and a later one never does.
  if (bits.empty() || output_order_.is_nan(bits[0])) return 0;
  int best = 0;
  std::int32_t best_key = output_order_.key(bits[0]);
  for (std::size_t i = 1; i < bits.size(); ++i) {
    if (output_order_.is_nan(bits[i])) continue;
    const std::int32_t key = output_order_.key(bits[i]);
    if (key > best_key) {
      best = static_cast<int>(i);
      best_key = key;
    }
  }
  return best;
}

const char* Model::kernel_name() const {
  const auto layer_name = [](const std::unique_ptr<emac::MatmulKernel>& kern) {
    return kern != nullptr ? kern->name() : "step";
  };
  const char* name = layer_name(kernels_.front());
  for (const auto& kern : kernels_) {
    if (std::strcmp(layer_name(kern), name) != 0) return "mixed";
  }
  return name;
}

Model::TileScratch Model::make_tile_scratch() const {
  TileScratch ts;
  std::size_t widest = net_.input_dim();
  ts.emacs_.resize(net_.layers.size());
  for (std::size_t li = 0; li < net_.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net_.layers[li];
    widest = std::max(widest, layer.fan_out);
    if (kernels_[li] == nullptr) {
      ts.emacs_[li] = emac::make_emac(net_.layer_format(li), layer.fan_in);
    }
  }
  ts.bits_.reserve(widest * tile_);
  ts.next_.reserve(widest * tile_);
  return ts;
}

void Model::forward_tile_into(BatchView xs, std::size_t row0, std::size_t nrows,
                              TileScratch& scratch, std::uint32_t* out) const {
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
  // (never read: pack_acts, the step fallback and the output copy only
  // touch s < nrows). Posit and float inputs of <= 8 bits round through the
  // shared encode table, bit-identical to Format::from_double.
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
    // never read.
    if (li > 0 && !(net_.layer_format(li - 1) == fmt)) {
      for (std::size_t i = 0; i < layer.fan_in; ++i) {
        for (std::size_t s = 0; s < nrows; ++s) {
          bits[i * tile + s] = to_layer_format(li, bits[i * tile + s]);
        }
      }
    }
    next.resize(layer.fan_out * tile);
    if (kernels_[li] != nullptr) {
      const emac::MatmulKernel& kern = *kernels_[li];
      kern.pack_acts(bits.data(), layer.fan_in, nrows, tile, scratch.acts_);
      kern.matmul(packed_planes_[li], scratch.acts_, nrows, next.data());
    } else {
      // Step fallback: the paper's EMAC recurrence, one live lane at a time.
      emac::Emac& unit = *scratch.emacs_[li];
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        const std::uint32_t* wrow = layer.weights.data() + j * layer.fan_in;
        for (std::size_t s = 0; s < nrows; ++s) {
          unit.reset(layer.bias[j]);
          for (std::size_t i = 0; i < layer.fan_in; ++i) unit.step(wrow[i], bits[i * tile + s]);
          next[j * tile + s] = unit.result();
        }
      }
    }
    // ReLU with the format resolved once per layer (num::ReluRule), for
    // kernel and step-fallback layers alike.
    if (layer.activation == nn::Activation::kReLU) {
      const num::ReluRule relu = num::relu_rule(fmt);
      for (std::size_t j = 0; j < layer.fan_out; ++j) {
        std::uint32_t* lane = next.data() + j * tile;
        for (std::size_t s = 0; s < nrows; ++s) lane[s] = relu(lane[s]);
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

double Model::packed_bytes_per_weight() const {
  std::size_t bytes = 0;
  std::size_t weights = 0;
  for (std::size_t li = 0; li < kernels_.size(); ++li) {
    if (kernels_[li] == nullptr) continue;
    const emac::PackedPlane& p = packed_planes_[li];
    bytes += (p.ssig.size() + p.shift.size()) * sizeof(std::int32_t);
    weights += p.rows * p.k;
  }
  return weights == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(weights);
}

}  // namespace dp::runtime
