// Batched inference throughput and latency of the runtime Model/Session API
// (persistent worker pool, contiguous zero-copy batches, register-blocked
// multi-sample kernels), for the 8-bit format families, with every pool
// size's output checked bit for bit against the per-MAC step() recurrence
// run row by row (tests/step_oracle.hpp); any mismatch exits non-zero. This
// is the engineering bench for the batch engine (no paper counterpart; the
// paper reports per-inference hardware latency, see bench_latency).
//
// Two modes, each dumped as machine-readable JSON so CI can archive one
// artifact per commit and track the perf trajectory PR-over-PR:
//
//  * throughput (default): inferences/sec of Session::predict vs pool size,
//    best-of-N timed repetitions over one large batch. The Session (and its
//    pool) persists across repetitions, so no repetition pays a thread
//    spawn.
//    -> BENCH_throughput.json
//  * latency (--latency): per-submit wall-time distribution (p50/p99/mean)
//    across repeated submits per batch size on one persistent Session — the
//    serving-side tail-latency view.
//    -> BENCH_latency.json
//
// Usage: bench_batch_throughput [rows] [repeats] [json_path]
//          rows      batch size (default 256)
//          repeats   timed repetitions per point, best-of (default 3)
//          json_path output JSON file, "-" to disable (default BENCH_throughput.json)
//        bench_batch_throughput --latency [iters] [json_path]
//          iters     timed submits per batch size (default 200)
//          json_path output JSON file, "-" to disable (default BENCH_latency.json)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/percentile.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"
#include "step_oracle.hpp"

namespace {

using namespace dp;
using Clock = std::chrono::steady_clock;

// A serving-sized MLP (33k MACs/inference) so per-row EMAC work dominates
// pool overhead; weights are random — throughput does not depend on them.
const char* kNetName = "64-128-128-64-10";
nn::Mlp bench_net() { return nn::Mlp({64, 128, 128, 64, 10}, /*seed=*/7); }

std::vector<double> random_batch(std::size_t rows, std::size_t dim) {
  std::mt19937 rng(2019);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

double best_seconds(runtime::Session& session, runtime::BatchView xs, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    const auto out = session.predict(xs);
    const std::chrono::duration<double> dt = Clock::now() - t0;
    if (out.size() == xs.rows() && dt.count() < best) best = dt.count();
  }
  return best;
}

// ---------------------------------------------------------------------------
// throughput mode
// ---------------------------------------------------------------------------

struct Point {
  std::string format;              // uniform name, or "mixed" for a per-layer sweep entry
  std::string layer_formats_json;  // every layer's format name, as a JSON array
  double bits_per_weight;          // parameter-weighted mean storage bits
  double packed_bytes_per_weight;  // Model::packed_bytes_per_weight(): kernel operand bytes
  const char* kernel;  // Model::kernel_name(): "avx2", "avx2-2limb", "scalar-blocked",
                       // "step" or "mixed"
  std::size_t tile;    // samples per weight-plane pass
  std::size_t threads;
  double inferences_per_s;
  double mmacs_per_s;
  double speedup_vs_1t;
  double per_core_efficiency;  // speedup_vs_1t / threads: 1.0 = perfect scaling
  bool bit_identical;
};

void write_throughput_json(const std::string& path, std::size_t rows, int repeats,
                           std::size_t macs_per_inference,
                           const std::vector<Point>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_batch_throughput\",\n");
  std::fprintf(f, "  \"mode\": \"throughput\",\n");
  std::fprintf(f, "  \"net\": \"%s\",\n", kNetName);
  std::fprintf(f, "  \"rows\": %zu,\n", rows);
  std::fprintf(f, "  \"repeats\": %d,\n", repeats);
  std::fprintf(f, "  \"macs_per_inference\": %zu,\n", macs_per_inference);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"layer_formats\": %s, "
                 "\"bits_per_weight\": %.4f, \"packed_bytes_per_weight\": %.2f, "
                 "\"kernel\": \"%s\", "
                 "\"tile\": %zu, \"threads\": %zu, "
                 "\"inferences_per_s\": %.1f, \"mmacs_per_s\": %.2f, "
                 "\"speedup_vs_1t\": %.3f, \"per_core_efficiency\": %.3f, "
                 "\"bit_identical\": %s}%s\n",
                 p.format.c_str(), p.layer_formats_json.c_str(), p.bits_per_weight,
                 p.packed_bytes_per_weight, p.kernel,
                 p.tile, p.threads, p.inferences_per_s, p.mmacs_per_s,
                 p.speedup_vs_1t, p.per_core_efficiency, p.bit_identical ? "true" : "false",
                 i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int run_throughput(std::size_t rows, int repeats, const std::string& json_path) {
  const nn::Mlp net = bench_net();
  // One per-layer assignment per sweep entry: the four uniform baselines,
  // plus one genuinely mixed assignment of the shape dp::tune ships (wide
  // endpoints, narrow interior) so the mixed dispatch path is on the board.
  const std::size_t nlayers = net.layers().size();
  std::vector<std::vector<num::Format>> sweeps;
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 0}}, num::Format{num::PositFormat{8, 1}},
        num::Format{num::FloatFormat{4, 3}}, num::Format{num::FixedFormat{8, 6}}}) {
    sweeps.emplace_back(nlayers, fmt);
  }
  {
    std::vector<num::Format> mixed(nlayers, num::Format{num::PositFormat{5, 1}});
    mixed.front() = num::Format{num::PositFormat{8, 0}};
    mixed.back() = num::Format{num::PositFormat{8, 0}};
    sweeps.push_back(std::move(mixed));
  }
  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};

  std::printf("bench_batch_throughput: Session::predict over %zu rows, net %s\n", rows,
              kNetName);
  std::printf("hardware_concurrency = %u, best of %d runs per point\n\n",
              std::thread::hardware_concurrency(), repeats);

  std::vector<Point> points;
  std::size_t macs_per_inference = 0;
  for (const std::vector<num::Format>& asn : sweeps) {
    const nn::QuantizedNetwork qnet = nn::quantize(net, asn);
    const auto model = runtime::Model::create(qnet);
    const std::string label = model->mixed_format() ? "mixed" : asn.front().name();
    std::string lf_json = "[";
    for (std::size_t li = 0; li < asn.size(); ++li) {
      if (li != 0) lf_json += ", ";
      lf_json += '"';
      lf_json += asn[li].name();
      lf_json += '"';
    }
    lf_json += "]";
    const std::vector<double> flat = random_batch(rows, net.input_dim());
    const runtime::BatchView xs(flat, net.input_dim());
    // The reference: every row through the step() recurrence on its own.
    const std::vector<std::uint32_t> reference = testing::step_forward_rows(qnet, xs);
    macs_per_inference = model->macs_per_inference();
    const double macs = static_cast<double>(macs_per_inference) * static_cast<double>(rows);

    std::printf("%s (%zu MACs/inference, kernel=%s tile=%zu, %.0f B/weight packed)\n",
                label.c_str(), macs_per_inference, model->kernel_name(),
                model->preferred_tile(), model->packed_bytes_per_weight());
    std::printf("  %8s  %14s  %12s  %10s  %10s  %s\n", "threads", "inferences/s", "MMAC/s",
                "speedup", "per-core", "bit-identical");
    double base = 0;
    for (const std::size_t t : thread_counts) {
      runtime::SessionOptions so;
      so.num_threads = t;
      runtime::Session session(model, so);
      const bool identical = session.forward_bits(xs).data == reference;
      const double secs = best_seconds(session, xs, repeats);
      const double ips = static_cast<double>(rows) / secs;
      if (t == 1) base = ips;
      const double speedup = ips / base;
      const double per_core = speedup / static_cast<double>(t);
      std::printf("  %8zu  %14.1f  %12.2f  %9.2fx  %10.3f  %s\n", t, ips, macs / secs / 1e6,
                  speedup, per_core, identical ? "yes" : "NO <-- BUG");
      points.push_back({label, lf_json, model->bits_per_weight(),
                        model->packed_bytes_per_weight(), model->kernel_name(),
                        model->preferred_tile(), t, ips, macs / secs / 1e6, speedup, per_core,
                        identical});
      if (!identical) return 1;
    }
    std::printf("\n");
  }
  if (json_path != "-") {
    write_throughput_json(json_path, rows, repeats, macs_per_inference, points);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// latency mode
// ---------------------------------------------------------------------------

struct LatencyPoint {
  std::string format;
  std::size_t batch;
  std::size_t threads;
  double p50_us;
  double p99_us;
  double mean_us;
  double inferences_per_s;
};

void write_latency_json(const std::string& path, int iters, std::size_t threads,
                        const std::vector<LatencyPoint>& points) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_batch_throughput\",\n");
  std::fprintf(f, "  \"mode\": \"latency\",\n");
  std::fprintf(f, "  \"net\": \"%s\",\n", kNetName);
  std::fprintf(f, "  \"iters\": %d,\n", iters);
  std::fprintf(f, "  \"threads\": %zu,\n", threads);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const LatencyPoint& p = points[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"batch\": %zu, \"threads\": %zu, "
                 "\"p50_us\": %.2f, \"p99_us\": %.2f, \"mean_us\": %.2f, "
                 "\"inferences_per_s\": %.1f}%s\n",
                 p.format.c_str(), p.batch, p.threads, p.p50_us, p.p99_us, p.mean_us,
                 p.inferences_per_s, i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int run_latency(int iters, const std::string& json_path) {
  const nn::Mlp net = bench_net();
  const std::vector<num::Format> formats{num::Format{num::PositFormat{8, 0}},
                                         num::Format{num::FixedFormat{8, 6}}};
  const std::vector<std::size_t> batch_sizes{1, 8, 64, 256};
  const std::size_t threads =
      std::min<std::size_t>(8, std::max(1u, std::thread::hardware_concurrency()));

  std::printf("bench_batch_throughput --latency: per-submit wall time, net %s\n", kNetName);
  std::printf("pool = %zu threads (persistent), %d submits per point\n\n", threads, iters);

  std::vector<LatencyPoint> points;
  for (const num::Format& fmt : formats) {
    // One Session per format, reused for every batch size and submit: the
    // pool threads are created here, once, and only woken per submit.
    runtime::SessionOptions so;
    so.num_threads = threads;
    runtime::Session session(runtime::Model::create(nn::quantize(net, fmt)), so);
    std::printf("%s\n", fmt.name().c_str());
    std::printf("  %8s  %10s  %10s  %10s  %14s\n", "batch", "p50 us", "p99 us", "mean us",
                "inferences/s");
    for (const std::size_t batch : batch_sizes) {
      const std::vector<double> flat = random_batch(batch, net.input_dim());
      const runtime::BatchView xs(flat, net.input_dim());
      session.predict(xs);  // warm-up (first touch of result allocation sizes)
      std::vector<double> us;
      us.reserve(static_cast<std::size_t>(iters));
      double total = 0;
      for (int i = 0; i < iters; ++i) {
        const auto t0 = Clock::now();
        const auto out = session.predict(xs);
        const std::chrono::duration<double, std::micro> dt = Clock::now() - t0;
        if (out.size() != batch) {
          std::fprintf(stderr, "FAIL: predict returned %zu results for a %zu-row batch\n",
                       out.size(), batch);
          return 1;
        }
        us.push_back(dt.count());
        total += dt.count();
      }
      std::sort(us.begin(), us.end());
      const double p50 = core::percentile(us, 50), p99 = core::percentile(us, 99);
      const double mean = total / static_cast<double>(iters);
      const double ips = static_cast<double>(batch) / (mean * 1e-6);
      std::printf("  %8zu  %10.2f  %10.2f  %10.2f  %14.1f\n", batch, p50, p99, mean, ips);
      points.push_back({fmt.name(), batch, threads, p50, p99, mean, ips});
    }
    std::printf("\n");
  }
  if (json_path != "-") write_latency_json(json_path, iters, threads, points);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--latency") == 0) {
    const int iters = argc > 2 ? std::atoi(argv[2]) : 200;
    const std::string json_path = argc > 3 ? argv[3] : "BENCH_latency.json";
    if (iters <= 0) {
      std::fprintf(stderr, "usage: bench_batch_throughput --latency [iters>0] [json|-]\n");
      return 2;
    }
    return run_latency(iters, json_path);
  }
  const long long rows_arg = argc > 1 ? std::strtoll(argv[1], nullptr, 10) : 256;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 3;
  const std::string json_path = argc > 3 ? argv[3] : "BENCH_throughput.json";
  if (rows_arg <= 0 || rows_arg > 10'000'000 || repeats <= 0) {
    std::fprintf(stderr,
                 "usage: bench_batch_throughput [rows 1..10000000] [repeats>0] [json|-]\n"
                 "       bench_batch_throughput --latency [iters>0] [json|-]\n");
    return 2;
  }
  return run_throughput(static_cast<std::size_t>(rows_arg), repeats, json_path);
}
