// The traced run's kernel-level probe: direct calls into each layer's public
// functions over the offline grid batch — MatmulKernel::pack_acts/matmul per
// layer (with num::convert at mixed boundaries) as an external replica of the
// blocked forward pass, Session::predict at 1 and 2 threads, the single-row
// path, the .dpnetz container, payload blocks and protocol frames. Also
// derive_span_metrics, which turns any span set into per-layer metrics.

#include <algorithm>
#include <cmath>
#include <optional>

#include "codec/container.hpp"
#include "codec/payload.hpp"
#include "common.hpp"
#include "emac/emac.hpp"
#include "emac/kernel.hpp"
#include "runtime/session.hpp"
#include "runtime/worker_pool.hpp"
#include "serve/protocol.hpp"

namespace pb {
namespace {

using namespace dp;

constexpr int kPredictRepeats = 3;
constexpr std::size_t kProbeRows = 2048;  // single-row, payload and frame probes
constexpr int kArtifactDecodes = 10;

void mismatch(WindowResult& checks, const std::string& what) {
  if (checks.mismatches++ == 0) checks.first_mismatch = what;
}

/// The blocked forward pass rebuilt outside the runtime from the kernels'
/// public API, one span per call. Checks its readout against `want`.
void external_forward(const nn::QuantizedNetwork& q, const std::vector<double>& batch,
                      const std::vector<std::uint32_t>& want, const std::string& label,
                      SpanLog& log, WindowResult& checks) {
  struct Layer {
    std::unique_ptr<emac::MatmulKernel> kern;
    emac::PackedPlane plane;
    const char* span = "";
  };
  std::vector<Layer> layers;
  std::size_t tile = emac::kMaxKernelTile;
  for (std::size_t li = 0; li < q.layers.size(); ++li) {
    const nn::QuantizedLayer& layer = q.layers[li];
    const num::Format& fmt = q.layer_format(li);
    Layer l;
    l.kern = emac::MatmulKernel::create(fmt, layer.fan_in);
    if (l.kern == nullptr) {
      mismatch(checks, label + ": no MatmulKernel for layer " + std::to_string(li));
      return;
    }
    std::vector<emac::DecodedOp> dec(layer.weights.size());
    emac::make_emac(fmt, layer.fan_in)->decode_plane(layer.weights.data(), dec.size(), dec.data());
    l.plane = l.kern->pack_plane(dec.data(), layer.fan_out, layer.bias.data());
    l.span = intern("emac.matmul." + format_label(fmt));
    tile = std::min(tile, l.kern->tile());
    layers.push_back(std::move(l));
  }
  const std::size_t in_dim = q.input_dim();
  const std::size_t out_dim = q.output_dim();
  const std::size_t rows = batch.size() / in_dim;
  std::vector<std::uint32_t> bits, next;
  emac::ActTile acts;
  Scope whole(&log, intern("probe.external_forward." + label));
  for (std::size_t row0 = 0; row0 < rows; row0 += tile) {
    const std::size_t n = std::min(tile, rows - row0);
    bits.assign(in_dim * tile, 0);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t i = 0; i < in_dim; ++i) {
        bits[i * tile + s] = q.input_format().from_double(batch[(row0 + s) * in_dim + i]);
      }
    }
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const nn::QuantizedLayer& layer = q.layers[li];
      const num::Format& fmt = q.layer_format(li);
      const double elems = static_cast<double>(layer.fan_in * n);
      if (li > 0 && !(q.layer_format(li - 1) == fmt)) {
        Scope s(&log, "numeric.convert", 0, elems);
        const num::Format& prev = q.layer_format(li - 1);
        for (std::size_t i = 0; i < layer.fan_in; ++i) {
          for (std::size_t k = 0; k < n; ++k) {
            bits[i * tile + k] = num::convert(bits[i * tile + k], prev, fmt);
          }
        }
      }
      {
        Scope s(&log, "emac.pack_acts", 0, elems);
        layers[li].kern->pack_acts(bits.data(), layer.fan_in, n, tile, acts);
      }
      next.resize(layer.fan_out * tile);
      {
        Scope s(&log, layers[li].span, 0, elems * static_cast<double>(layer.fan_out));
        layers[li].kern->matmul(layers[li].plane, acts, n, next.data());
      }
      if (layer.activation == nn::Activation::kReLU) {
        for (std::size_t j = 0; j < layer.fan_out; ++j) {
          for (std::size_t k = 0; k < n; ++k) next[j * tile + k] = relu_bits(next[j * tile + k], fmt);
        }
      }
      bits.swap(next);
    }
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t j = 0; j < out_dim; ++j) {
        if (bits[j * tile + s] != want[(row0 + s) * out_dim + j]) {
          mismatch(checks, label + " row " + std::to_string(row0 + s) +
                               ": external MatmulKernel forward != Session::forward_bits");
          return;
        }
      }
    }
  }
}

double span_total(const std::map<std::string, Agg>& aggs, const std::string& prefix) {
  double total = 0;
  for (const auto& [name, a] : aggs) {
    if (name.rfind(prefix, 0) == 0) total += a.total_ns;
  }
  return total;
}

}  // namespace

void probe_kernels(std::uint64_t seed, SpanLog& log, Metrics& out, WindowResult& checks) {
  SpanLog plog;
  const std::size_t dim = kGridTopology.front();
  const std::vector<double> batch = make_rows(seed, kGridRows, dim);
  const runtime::BatchView view(batch, dim);
  const nn::Mlp net(kGridTopology, static_cast<std::uint32_t>(mix(seed, 1)));
  auto pool2 = std::make_shared<runtime::WorkerPool>(2);
  double predict_1t = 0, predict_2t = 0;
  std::shared_ptr<const runtime::Model> uniform;  // posit<8,0>, for the single-model probes
  for (const Assignment& asn : grid_assignments(kGridTopology.size() - 1)) {
    std::optional<nn::QuantizedNetwork> q;
    {
      Scope s(&plog, "nn.quantize");
      q.emplace(nn::quantize(net, asn.formats));
    }
    std::shared_ptr<const runtime::Model> model;
    {
      Scope s(&plog, "runtime.model_create");
      model = runtime::Model::create(*q);
    }
    if (uniform == nullptr) uniform = model;
    runtime::Session s1(model);
    runtime::SessionOptions o2;
    o2.pool = pool2;
    runtime::Session s2(model, o2);
    const std::vector<std::uint32_t> want = s1.forward_bits(view).data;  // also warms s1
    (void)s2.predict(view);
    const double macs = static_cast<double>(model->macs_per_inference() * kGridRows);
    const char* name1 = intern("runtime.predict_1t." + asn.label);
    const char* name2 = intern("runtime.predict_2t." + asn.label);
    std::vector<double> t1, t2;
    for (int rep = 0; rep < kPredictRepeats; ++rep) {
      std::int64_t t0 = now_ns();
      {
        Scope s(&plog, name1, 0, macs);
        (void)s1.predict(view);
      }
      t1.push_back(static_cast<double>(now_ns() - t0));
      t0 = now_ns();
      {
        Scope s(&plog, name2, 0, macs);
        (void)s2.predict(view);
      }
      t2.push_back(static_cast<double>(now_ns() - t0));
    }
    predict_1t += median(t1);
    predict_2t += median(t2);
    external_forward(*q, batch, want, asn.label, plog, checks);
  }
  const std::map<std::string, Agg> aggs = aggregate(plog);
  const double kernel_ns = span_total(aggs, "emac.") + span_total(aggs, "numeric.convert");
  offer(out, "runtime.pool_speedup_2t", predict_1t / predict_2t, "x");
  // The external replica runs each model once; predict_1t is one call per model.
  offer(out, "runtime.overhead_share", 1.0 - kernel_ns / predict_1t, "ratio");

  runtime::Session single(uniform);
  const nn::QuantizedNetwork& q = uniform->network();
  const num::Format& fmt = q.input_format();
  const int width = fmt.total_bits();
  for (std::size_t r = 0; r < kProbeRows; ++r) {
    Scope s(&plog, "runtime.forward_bits_row");
    (void)single.forward_bits(view.row(r));
  }

  std::vector<std::uint8_t> artifact = codec::encode_network(q);
  double params = 0;
  for (const nn::QuantizedLayer& layer : q.layers) {
    params += static_cast<double>(layer.weights.size() + layer.bias.size());
  }
  offer(out, "codec.artifact_vs_packed",
        static_cast<double>(artifact.size()) / std::ceil(params * width / 8), "ratio");
  for (int i = 0; i < kArtifactDecodes; ++i) {
    std::optional<nn::QuantizedNetwork> back;
    {
      Scope s(&plog, "codec.artifact_decode", 0, static_cast<double>(artifact.size()));
      back.emplace(codec::decode_network(artifact));
    }
    if (back->layers.size() != q.layers.size() || back->layers[0].weights != q.layers[0].weights) {
      mismatch(checks, "codec: .dpnetz round trip changed the network");
    }
  }

  double coded = 0, packed = 0;
  std::size_t consumed = 0;
  for (std::size_t r = 0; r < kProbeRows; ++r) {
    serve::Frame f;
    f.request_id = r + 1;
    for (const double v : view.row(r)) f.payload.push_back(fmt.from_double(v));
    std::vector<std::uint32_t> block, back;
    {
      Scope s(&plog, "codec.payload_encode", r + 1, static_cast<double>(dim));
      block = codec::encode_payload(f.payload, width);
    }
    {
      Scope s(&plog, "codec.payload_decode", r + 1, static_cast<double>(dim));
      back = codec::decode_payload(block, width, dim);
    }
    if (back != f.payload) mismatch(checks, "codec: payload block round trip changed a row");
    coded += static_cast<double>(block.size() * 4);
    packed += std::ceil(static_cast<double>(dim * static_cast<std::size_t>(width)) / 8);
    std::vector<std::uint8_t> bytes;
    {
      Scope s(&plog, "protocol.encode", r + 1);
      bytes = serve::encode(f);
    }
    std::optional<serve::Frame> g;
    {
      Scope s(&plog, "protocol.extract", r + 1);
      g = serve::try_extract(bytes, consumed);
    }
    if (!g || *g != f || consumed != bytes.size()) {
      mismatch(checks, "protocol: encode/try_extract round trip changed a frame");
    }
  }
  offer(out, "codec.payload_vs_packed", coded / packed, "ratio");
  derive_span_metrics(plog, out);
  log.merge(plog);
}

void derive_span_metrics(const SpanLog& log, Metrics& out) {
  const std::map<std::string, Agg> aggs = aggregate(log);
  const auto find = [&](const char* name) -> const Agg* {
    const auto it = aggs.find(name);
    return it == aggs.end() || it->second.dur_ns.empty() ? nullptr : &it->second;
  };
  const struct {
    const char* span;
    const char* metric;
    double scale;  // ns -> metric unit
    const char* unit;
  } medians[] = {
      {"nn.quantize", "nn.quantize_ms", 1e-6, "ms"},
      {"runtime.model_create", "runtime.model_create_ms", 1e-6, "ms"},
      {"codec.artifact_decode", "codec.artifact_decode_ms", 1e-6, "ms"},
      {"registry.swap", "registry.swap_ms_p50", 1e-6, "ms"},
      {"codec.payload_encode", "codec.payload_encode_ns", 1, "ns"},
      {"codec.payload_decode", "codec.payload_decode_ns", 1, "ns"},
      {"protocol.encode", "protocol.encode_ns", 1, "ns"},
      {"protocol.extract", "protocol.extract_ns", 1, "ns"},
      {"runtime.forward_bits_row", "runtime.single_row_us", 1e-3, "us"},
  };
  for (const auto& m : medians) {
    if (const Agg* a = find(m.span)) offer(out, m.metric, a->median_ns() * m.scale, m.unit);
  }
  if (const Agg* a = find("registry.swap")) {
    offer(out, "registry.swap_ms_max", *std::max_element(a->dur_ns.begin(), a->dur_ns.end()) / 1e6,
          "ms");
    offer(out, "registry.swaps", static_cast<double>(a->dur_ns.size()), "count");
  }
  if (const Agg* a = find("numeric.convert")) {
    offer(out, "numeric.convert_ns_per_elem", a->ns_per_work(), "ns");
  }
  if (const Agg* a = find("emac.pack_acts")) {
    offer(out, "emac.pack_acts_ns_per_elem", a->ns_per_work(), "ns");
  }
  for (const auto& [name, a] : aggs) {
    if (name.rfind("emac.matmul.", 0) == 0) {
      offer(out, "emac.matmul_ns_per_mac." + name.substr(12), a.ns_per_work(), "ns");
    } else if (name.rfind("runtime.predict_1t.", 0) == 0 && a.work > 0) {
      const double macs_per_call = a.work / static_cast<double>(a.dur_ns.size());
      offer(out, "runtime.predict_ns_per_mac." + name.substr(19), a.median_ns() / macs_per_call,
            "ns");
    }
  }
}

}  // namespace pb
