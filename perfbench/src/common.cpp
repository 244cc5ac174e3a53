#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <stdexcept>

#include "emac/emac.hpp"

namespace pb {

using namespace dp;

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double exact = p / 100.0 * static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<double> make_rows(std::uint64_t seed, std::size_t rows, std::size_t dim) {
  std::mt19937_64 rng(mix(seed, 0x5EED));
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

std::vector<Assignment> grid_assignments(std::size_t layers) {
  const num::Format p80{num::PositFormat{8, 0}};
  const num::Format p81{num::PositFormat{8, 1}};
  const num::Format fx86{num::FixedFormat{8, 6}};
  const num::Format fl84{num::FloatFormat{4, 3}};
  const num::Format p51{num::PositFormat{5, 1}};
  std::vector<Assignment> out;
  for (const num::Format& f : {p80, p81, fx86, fl84}) {
    out.push_back({format_label(f), std::vector<num::Format>(layers, f)});
  }
  std::vector<num::Format> mixed(layers, p51);
  mixed.front() = p80;
  mixed.back() = p80;
  out.push_back({"mixed", std::move(mixed)});
  return out;
}

std::string format_label(const num::Format& f) {
  switch (f.kind()) {
    case num::Kind::kPosit:
      return "posit" + std::to_string(f.posit().n) + "_" + std::to_string(f.posit().es);
    case num::Kind::kFloat:
      return "float" + std::to_string(f.flt().n()) + "_" + std::to_string(f.flt().we);
    case num::Kind::kFixed:
      return "fixed" + std::to_string(f.fixed().n) + "_" + std::to_string(f.fixed().q);
  }
  throw std::logic_error("format_label: bad kind");
}

std::uint32_t relu_bits(std::uint32_t bits, const num::Format& fmt) {
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
  throw std::logic_error("relu_bits: bad kind");
}

std::vector<std::uint32_t> oracle_forward(const nn::QuantizedNetwork& net,
                                          std::span<const double> x) {
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
      next[j] = layer.activation == nn::Activation::kReLU ? relu_bits(out, fmt) : out;
    }
    act.swap(next);
  }
  return act;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss carries the launching
  // process's peak across fork+exec, so launched from run.py it reports
  // Python's RSS. VmHWM belongs to this process's own address space.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
}

double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};  // user nice system idle iowait irq softirq steal
  stat >> cpu;
  for (double& f : fields) stat >> f;
  return stat ? fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

}  // namespace pb
