#pragma once
// The step oracle: a reference forward pass built only from emac::make_emac
// + reset/step/result and num::convert — the paper's per-neuron EMAC
// recurrence (§III), run one row at a time. It shares no code with
// runtime::Model's kernels, packed planes, input encode tables or boundary
// conversion tables, so every Session output must equal it bit for bit.

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "emac/emac.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/batch.hpp"

namespace dp::testing {

/// Bit-level ReLU on a readout pattern: NaR passes through, negatives
/// (float -0 included) become the format's +0.
inline std::uint32_t step_relu(std::uint32_t bits, const num::Format& fmt) {
  switch (fmt.kind()) {
    case num::Kind::kPosit: {
      const num::PositFormat& f = fmt.posit();
      bits &= f.mask();
      if (bits == f.nar_pattern()) return bits;
      return ((bits >> (f.n - 1)) & 1u) ? f.zero_pattern() : bits;
    }
    case num::Kind::kFloat: {
      const num::FloatFormat& f = fmt.flt();
      bits &= f.mask();
      return ((bits >> (f.we + f.wf)) & 1u) ? num::float_zero(f) : bits;
    }
    case num::Kind::kFixed: {
      const num::FixedFormat& f = fmt.fixed();
      return num::fixed_raw(bits, f) < 0 ? num::fixed_from_raw(0, f) : (bits & f.mask());
    }
  }
  throw std::logic_error("step_relu: bad kind");
}

/// Readout patterns of one row: quantize with Format::from_double, then per
/// layer re-encode at a format boundary with num::convert and run
/// reset(bias); step()*fan_in; result() per neuron.
inline std::vector<std::uint32_t> step_forward(const nn::QuantizedNetwork& net,
                                               std::span<const double> x) {
  if (x.size() != net.input_dim()) throw std::invalid_argument("step_forward: bad input size");
  std::vector<std::uint32_t> act;
  for (const double v : x) act.push_back(net.input_format().from_double(v));
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = net.layers[li];
    const num::Format& fmt = net.layer_format(li);
    if (li > 0 && !(net.layer_format(li - 1) == fmt)) {
      for (std::uint32_t& a : act) a = num::convert(a, net.layer_format(li - 1), fmt);
    }
    const std::unique_ptr<emac::Emac> unit = emac::make_emac(fmt, layer.fan_in);
    std::vector<std::uint32_t> next(layer.fan_out);
    for (std::size_t j = 0; j < layer.fan_out; ++j) {
      unit->reset(layer.bias[j]);
      for (std::size_t i = 0; i < layer.fan_in; ++i) {
        unit->step(layer.weights[j * layer.fan_in + i], act[i]);
      }
      const std::uint32_t out = unit->result();
      next[j] = layer.activation == nn::Activation::kReLU ? step_relu(out, fmt) : out;
    }
    act.swap(next);
  }
  return act;
}

/// step_forward over every row, concatenated row-major (the layout of
/// runtime::BatchResult::data).
inline std::vector<std::uint32_t> step_forward_rows(const nn::QuantizedNetwork& net,
                                                    runtime::BatchView xs) {
  std::vector<std::uint32_t> out;
  for (std::size_t r = 0; r < xs.rows(); ++r) {
    const std::vector<std::uint32_t> row = step_forward(net, xs.row(r));
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

/// Class prediction of one row: the first strictly greatest decoded score.
inline int step_predict(const nn::QuantizedNetwork& net, std::span<const double> x) {
  const std::vector<std::uint32_t> bits = step_forward(net, x);
  const num::Format& fmt = net.output_format();
  int best = 0;
  for (std::size_t i = 1; i < bits.size(); ++i) {
    if (fmt.to_double(bits[i]) > fmt.to_double(bits[static_cast<std::size_t>(best)])) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace dp::testing
