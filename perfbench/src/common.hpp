#pragma once
// Shared pieces of the benchmark: the metric map, order statistics, the
// seeded input generators, the 64-128-128-64-10 format grid, and the
// reference forward pass built only from emac::make_emac + num::convert.

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "trace.hpp"

namespace pb {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Insert unless already present: measurements closer to the workload
/// (its own window) are recorded first and win over probe fallbacks.
inline void offer(Metrics& m, const std::string& name, double value, const std::string& unit) {
  m.emplace(name, Metric{value, unit});
}

double median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);

/// splitmix64 — stateless mixing, so "which row does request i of
/// connection c send" is a pure function of the seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// `rows` x `dim` values uniform in [-1, 1], row-major.
std::vector<double> make_rows(std::uint64_t seed, std::size_t rows, std::size_t dim);

/// The serving-sized net the older throughput benches use.
inline const std::vector<std::size_t> kGridTopology{64, 128, 128, 64, 10};
inline constexpr std::size_t kGridRows = 4096;

/// One model of the offline grid: a label ("posit8_1", "mixed") and one
/// format per layer.
struct Assignment {
  std::string label;
  std::vector<dp::num::Format> formats;
};
/// posit<8,0>, posit<8,1>, fixed<8;q=6>, float<8;we=4>, and the
/// dp::tune-shaped mixed model (posit<8,0> ends, posit<5,1> interior).
std::vector<Assignment> grid_assignments(std::size_t layers);

/// Metric-name spelling of a format: posit8_0, fixed8_6, float8_4.
std::string format_label(const dp::num::Format& f);

/// Bit-level ReLU on a readout pattern, matching the runtime's rule (NaR
/// passes, negatives and -0 become +0, fixed clamps at 0).
std::uint32_t relu_bits(std::uint32_t bits, const dp::num::Format& fmt);

/// Reference forward pass: quantize `x` with Format::from_double, then per
/// layer num::convert at format boundaries and one make_emac unit per layer
/// driven through reset(bias) / step()*k / result(), then ReLU. Returns the
/// readout patterns.
std::vector<std::uint32_t> oracle_forward(const dp::nn::QuantizedNetwork& net,
                                          std::span<const double> x);

/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

/// CPU time the hypervisor took from the host's vCPUs since boot (the
/// steal column of /proc/stat), seconds summed over CPUs; 0 where the
/// kernel does not report it.
double steal_seconds();

/// What one timed window measured. The end-to-end fields mean the same on
/// every workload (see perfbench/README.md for the per-workload reading);
/// `layer` holds per-layer metrics derived from the window when traced.
struct WindowResult {
  double inferences_per_s = 0;
  double goodput_rps = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  double rtt_samples = 0;
  double wire_bytes_per_req = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      ///< errors + refusals + lost
  std::uint64_t mismatches = 0;  ///< outputs that differ from the reference
  std::string first_mismatch;
  Metrics layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build everything the timed window needs (timed as setup_s).
  virtual void setup(SpanLog* log) = 0;
  /// Benchmark-side references (untimed). `flip` flips one reference bit
  /// that the checks are certain to compare — the self-test.
  virtual void prepare_reference(bool flip) = 0;
  /// One timed window; may be called more than once on one set-up.
  virtual WindowResult run(double seconds, SpanLog* log) = 0;
  /// Checks that run after the window (outside the timed interval).
  virtual void verify(WindowResult& r) = 0;
};

std::unique_ptr<Workload> make_offline_grid(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_trickle(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_burst(std::uint64_t seed);

/// Internal layer-metric key: the client RTT p50 of the window that also
/// produced the batcher metrics, so serve.residual_p50_us pairs them.
inline const char* const kRttP50Key = "_client.rtt_p50_us";

/// Traced-run fallbacks for layers a workload's own window does not reach:
/// a kernel-level probe over the offline grid batch, and a short served
/// window (1 shard, compressed payloads, hot swaps). Both only offer().
void probe_kernels(std::uint64_t seed, SpanLog& log, Metrics& out, WindowResult& checks);
void probe_serve(std::uint64_t seed, SpanLog& log, Metrics& out, WindowResult& checks);

/// Per-layer metrics every traced span set can yield (model construction,
/// codec, protocol, client spans); only offer()s what the spans cover.
void derive_span_metrics(const SpanLog& log, Metrics& out);

}  // namespace pb
