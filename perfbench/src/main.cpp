// dp_perfbench — one workload per process, seeded, timed for --seconds.
//
//   dp_perfbench --workload <offline-grid|serve-trickle|serve-burst>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--flip-reference-bit]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 runs the same set-up and window untraced and then traced (half
// the seconds each), keeps every span in memory, writes them under
// .bench_trace/ at exit, and prints the per-layer metrics derived from them.
// The last stdout line is the result object; any output that differs from
// its reference makes it {"correct": false, ...} and the exit status 1.
// --flip-reference-bit flips one reference bit before the window: the
// self-test that proves the checks can fail.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

namespace {

using namespace pb;

constexpr int kSetupRepeats = 7;

struct WorkloadInfo {
  const char* name;
  const char* why;
  std::unique_ptr<Workload> (*make)(std::uint64_t);
};

const WorkloadInfo kWorkloads[] = {
    {"offline-grid",
     "Session::predict over 4096 rows of five 8-bit/mixed models on 2 threads: emac and "
     "numeric do the work, serve is idle",
     make_offline_grid},
    {"serve-trickle",
     "open-loop Poisson 2000 req/s of single raw rows to 1 shard: batcher deadline flush, "
     "shard wake-ups and the single-row runtime path set the latency floor",
     make_serve_trickle},
    {"serve-burst",
     "closed loop, 2 connections x 32 in flight of compressed WBC rows to 2 shards with 4 "
     "hot swaps/s: protocol, codec payload, shard loop and batcher do the work",
     make_serve_burst},
};

struct Unit {
  const char* name;
  const char* unit;
};

const Unit kEndToEnd[] = {
    {"inferences_per_s", "rows/s"}, {"goodput_rps", "1/s"}, {"rtt_p50_us", "us"},
    {"wire_bytes_per_req", "B"},    {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
};

/// Every per-layer metric a traced run must emit (BENCHMARK.json lists the
/// same names); a missing one is a benchmark bug and fails the run.
const char* const kPerLayer[] = {
    "numeric.convert_ns_per_elem",
    "emac.matmul_ns_per_mac.posit8_0",
    "emac.matmul_ns_per_mac.posit8_1",
    "emac.matmul_ns_per_mac.fixed8_6",
    "emac.matmul_ns_per_mac.float8_4",
    "emac.matmul_ns_per_mac.posit5_1",
    "emac.pack_acts_ns_per_elem",
    "runtime.predict_ns_per_mac.posit8_0",
    "runtime.predict_ns_per_mac.posit8_1",
    "runtime.predict_ns_per_mac.fixed8_6",
    "runtime.predict_ns_per_mac.float8_4",
    "runtime.predict_ns_per_mac.mixed",
    "runtime.overhead_share",
    "runtime.pool_speedup_2t",
    "runtime.single_row_us",
    "runtime.model_create_ms",
    "nn.quantize_ms",
    "codec.artifact_decode_ms",
    "registry.swap_ms_p50",
    "registry.swap_ms_max",
    "registry.swaps",
    "codec.payload_encode_ns",
    "codec.payload_decode_ns",
    "codec.payload_vs_packed",
    "codec.artifact_vs_packed",
    "protocol.encode_ns",
    "protocol.extract_ns",
    "batcher.queue_wait_p50_us",
    "batcher.queue_wait_p99_us",
    "batcher.rows_per_batch",
    "batcher.rejected",
    "server.dropped",
    "server.overloaded",
    "serve.residual_p50_us",
    "client.send_us_p50",
    "client.late_us_max",
    "rtt_p99_us",
    "client.rtt_samples",
    "client.fail_ratio",
    "host.steal_share",
    "trace.overhead_share.inferences_per_s",
    "trace.overhead_share.goodput_rps",
    "trace.overhead_share.rtt_p50_us",
    "trace.overhead_share.rtt_p99_us",
    "trace.overhead_share.wire_bytes_per_req",
    "trace.overhead_share.setup_s",
};

struct Args {
  const WorkloadInfo* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool flip = false;
};

const char* const kTraceDir = ".bench_trace";

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dp_perfbench: %s\nusage: dp_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--flip-reference-bit]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--flip-reference-bit") {
      a.flip = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      for (const WorkloadInfo& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload");
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      have_trace = a.trace || std::strcmp(v, "0") == 0;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (a.workload == nullptr || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (0 < s <= 600) and --trace 0|1 are required");
  }
  return a;
}

/// Build the workload kSetupRepeats times (twice as many when `log` is set,
/// alternating untraced and traced set-ups so neither gets the warmer
/// caches) and keep the last. Returns the median untraced set-up seconds and
/// stores the traced median in `traced_s`.
double timed_setups(const Args& a, SpanLog* log, std::unique_ptr<Workload>& keep,
                    double* traced_s = nullptr) {
  std::vector<double> plain, traced;
  const int n = log != nullptr ? 2 * kSetupRepeats : kSetupRepeats;
  for (int i = 0; i < n; ++i) {
    SpanLog* l = log != nullptr && i % 2 == 1 ? log : nullptr;
    keep.reset();
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Workload> w = a.workload->make(a.seed);
    w->setup(l);
    (l != nullptr ? traced : plain).push_back(static_cast<double>(now_ns() - t0) / 1e9);
    keep = std::move(w);
  }
  if (traced_s != nullptr) *traced_s = median(traced);
  return median(plain);
}

void add_checks(WindowResult& total, const WindowResult& r) {
  total.attempted += r.attempted;
  total.failed += r.failed;
  total.mismatches += r.mismatches;
  if (total.first_mismatch.empty()) total.first_mismatch = r.first_mismatch;
}

double cpus() { return std::max(1u, std::thread::hardware_concurrency()); }

/// What tracing cost a metric, as a share of its untraced value: positive
/// when the traced half read worse, whichever direction is better.
double cost_share(double traced, double untraced, bool higher_is_better) {
  if (untraced == 0) return 0;
  const double delta = (traced - untraced) / untraced;
  return higher_is_better ? -delta : delta;
}

int run(const Args& a) {
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n# why: %s\n",
              a.workload->name, static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace ? 1 : 0, a.workload->why);
  Metrics metrics;
  WindowResult checks;  // what the result line's correct/attempted/failed report
  std::unique_ptr<Workload> w;
  if (!a.trace) {
    const double setup_s = timed_setups(a, nullptr, w);
    w->prepare_reference(a.flip);
    const double steal0 = steal_seconds();
    WindowResult r = w->run(a.seconds, nullptr);
    const double steal_share = (steal_seconds() - steal0) / (a.seconds * cpus());
    w->verify(r);
    add_checks(checks, r);
    const double values[] = {r.inferences_per_s,   r.goodput_rps, r.rtt_p50_us,
                             r.wire_bytes_per_req, setup_s,       peak_rss_mb()};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics[kEndToEnd[i].name] = {values[i], kEndToEnd[i].unit};
    }
    std::fprintf(stderr, "rtt p99 %.1f us over %.0f samples; host steal %.4f of the CPUs\n",
                 r.rtt_p99_us, r.rtt_samples, steal_share);
  } else {
    SpanLog log;
    double setup_traced = 0;
    const double setup_plain = timed_setups(a, &log, w, &setup_traced);
    w->prepare_reference(a.flip);
    const double steal0 = steal_seconds();
    WindowResult r0 = w->run(a.seconds / 2, nullptr);
    const double steal_share = (steal_seconds() - steal0) / (a.seconds / 2 * cpus());
    w->verify(r0);
    WindowResult r1 = w->run(a.seconds / 2, &log);
    w->verify(r1);
    add_checks(checks, r0);
    add_checks(checks, r1);
    w.reset();  // stop the workload's server before the probes start theirs

    metrics = r1.layer;
    derive_span_metrics(log, metrics);
    WindowResult probe_checks;
    probe_serve(a.seed, log, metrics, probe_checks);
    probe_kernels(a.seed, log, metrics, probe_checks);
    checks.mismatches += probe_checks.mismatches;
    if (checks.first_mismatch.empty()) checks.first_mismatch = probe_checks.first_mismatch;

    const double rtt = metrics.at(kRttP50Key).value;
    metrics.erase(kRttP50Key);
    metrics["serve.residual_p50_us"] = {
        rtt - metrics["batcher.queue_wait_p50_us"].value - metrics["runtime.single_row_us"].value,
        "us"};
    // rtt_p99_us is a per-layer metric: on a shared 4-vCPU VM its run-to-run
    // spread is far wider than any bound an end-to-end metric may carry.
    metrics["rtt_p99_us"] = {r0.rtt_p99_us, "us"};
    metrics["client.rtt_samples"] = {r0.rtt_samples, "count"};
    metrics["host.steal_share"] = {steal_share, "ratio"};
    metrics["client.fail_ratio"] = {
        r1.attempted > 0 ? static_cast<double>(r1.failed) / static_cast<double>(r1.attempted) : 0,
        "ratio"};
    const std::pair<const char*, double> overhead[] = {
        {"inferences_per_s", cost_share(r1.inferences_per_s, r0.inferences_per_s, true)},
        {"goodput_rps", cost_share(r1.goodput_rps, r0.goodput_rps, true)},
        {"rtt_p50_us", cost_share(r1.rtt_p50_us, r0.rtt_p50_us, false)},
        {"rtt_p99_us", cost_share(r1.rtt_p99_us, r0.rtt_p99_us, false)},
        {"wire_bytes_per_req", cost_share(r1.wire_bytes_per_req, r0.wire_bytes_per_req, false)},
        {"setup_s", cost_share(setup_traced, setup_plain, false)},
    };
    for (const auto& [name, v] : overhead) {
      metrics[std::string("trace.overhead_share.") + name] = {v, "ratio"};
    }

    std::filesystem::create_directories(kTraceDir);
    const std::string base = std::string(kTraceDir) + "/" + a.workload->name;
    if (!write_trace(log, base + ".spans.csv", base + ".summary.json")) {
      std::fprintf(stderr, "dp_perfbench: cannot write the trace under %s\n", kTraceDir);
      return 1;
    }
    Metrics kept;
    for (const char* name : kPerLayer) {
      const auto it = metrics.find(name);
      if (it == metrics.end()) {
        std::fprintf(stderr, "dp_perfbench: traced run produced no %s\n", name);
        return 3;
      }
      kept.insert(*it);
    }
    metrics = std::move(kept);
  }

  const bool correct = checks.mismatches == 0;
  if (!correct) {
    std::fprintf(stderr, "dp_perfbench: %llu output mismatch(es); first: %s\n",
                 static_cast<unsigned long long>(checks.mismatches),
                 checks.first_mismatch.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, checks.attempted)) +
                     ", \"failed\": " + std::to_string(checks.failed + checks.mismatches) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dp_perfbench: %s\n", e.what());
    return 1;
  }
}
