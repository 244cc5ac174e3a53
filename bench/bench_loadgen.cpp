// Open-loop load generator for the sharded serve::Server — the proof bench
// for the event-loop sharding work. Drives the server over real TCP
// (SO_REUSEPORT fan-out) with many concurrent client connections, once per
// shard count in {1, min(4, hardware_concurrency)}, and records the latency
// distribution and per-core throughput into BENCH_loadgen.json.
//
// Open-loop means the arrival process is a SCHEDULE, not a reaction: every
// client sends at fixed intervals whether or not earlier responses have come
// back, and each request's latency is measured from its *scheduled* send
// time. A closed-loop generator (send, wait, send) silently stops offering
// load exactly when the server stalls, so its tail percentiles measure the
// generator's politeness, not the server — the coordinated-omission trap.
// Here a stall keeps the schedule ticking, queues the unsent frames, and
// every queued microsecond lands in the recorded p99/p99.9.
//
// Usage: bench_loadgen [--duration-ms D] [--rate R] [--clients C] [--shards S] [--json PATH]
//                      [--chaos] [--chaos-seed N] [--deadline-us B]
//          --duration-ms  measurement window per shard count    (default 2000)
//          --rate         total offered request rate, req/s     (default 4000)
//          --clients      concurrent TCP connections            (default 64)
//          --shards       multi-shard point to compare against 1 shard
//                         (default min(4, hardware_concurrency))
//          --json         output path, "-" to disable           (default BENCH_loadgen.json)
//          --chaos        dial every connection through a seeded FaultInjector
//                         (sliced I/O, latency spikes, resets, refused
//                         connects); clients redial and re-issue unanswered
//                         requests, so chaos must cost latency, never answers
//          --chaos-seed   FaultProfile seed for --chaos           (default 1)
//          --deadline-us  per-request v3 deadline budget, 0 = none (default 0);
//                         requests the server sheds come back kDeadlineExceeded
//                         and land in the shed column, not the error count
//
// Exit status is nonzero if any request was lost (scheduled and sent but
// never answered) or answered with an unexpected error status — the bench is
// also a correctness check that the server answers EVERYTHING it accepts,
// chaos or not. Rejections the resilience layer is SUPPOSED to produce
// (kOverloaded, kDeadlineExceeded) are counted and reported, not failed.

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/percentile.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/model.hpp"
#include "serve/fault_injection.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

using namespace dp;
using Clock = std::chrono::steady_clock;

// Small enough that the box can absorb the offered rate with one shard (the
// bench compares shard counts, so the 1-shard run must not be pinned at 100%
// CPU by EMAC work alone); big enough that a request is real inference.
const char* kNetName = "32-64-64-10";
nn::Mlp bench_net() { return nn::Mlp({32, 64, 64, 10}, /*seed=*/11); }

std::shared_ptr<const runtime::Model> bench_model() {
  return runtime::Model::create(
      nn::quantize(bench_net(), num::Format{num::PositFormat{8, 0}}));
}

/// JSON array of every layer's format name — the honest spelling now that a
/// model's format is a per-layer property (uniform here, but consumers of
/// this JSON should not assume that).
std::string layer_formats_json(const runtime::Model& model) {
  const nn::QuantizedNetwork& net = model.network();
  std::string out = "[";
  for (std::size_t li = 0; li < net.layers.size(); ++li) {
    if (li != 0) out += ", ";
    out += '"';
    out += net.layer_format(li).name();
    out += '"';
  }
  return out + "]";
}

struct Config {
  int duration_ms = 2000;
  double rate = 4000;     // total offered req/s across all clients
  int clients = 64;
  int shards = 0;  // 0 = min(4, hardware_concurrency)
  std::string json_path = "BENCH_loadgen.json";
  bool chaos = false;             // dial through a seeded FaultInjector
  std::uint64_t chaos_seed = 1;   // FaultProfile seed for --chaos
  std::uint64_t deadline_us = 0;  // v3 deadline budget per request, 0 = none
};

/// What one client thread saw. rtt_us holds one sample per ANSWERED request
/// (whatever the status) measured from the scheduled send instant.
struct ClientTally {
  std::vector<double> rtt_us;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;           // kQueueFull / kShutdown
  std::uint64_t overloaded = 0;         // kOverloaded (admission / rate limit)
  std::uint64_t deadline_exceeded = 0;  // kDeadlineExceeded (shed while queued)
  std::uint64_t retried = 0;            // requests re-issued after a chaos drop
  std::uint64_t reconnects = 0;         // redials after the first connect
  std::uint64_t errors = 0;             // any other non-kOk status (unexpected)
  std::uint64_t lost = 0;               // sent, never answered
};

/// How a client opens (and under --chaos, reopens) its connection.
using Dialer = std::function<serve::FdStream()>;

/// One open-loop client: its own nonblocking connection, a fixed-rate send
/// schedule, and a poll loop that interleaves writes and reads. Under
/// --chaos the connection can die (reset) or refuse (dropped connect) at
/// any moment; the client then redials and re-issues every unanswered
/// request with its ORIGINAL id and scheduled instant — responses ride the
/// connection they were requested on, so a dead connection can never answer,
/// re-issuing cannot duplicate, and the fault's cost lands in the recorded
/// tail latency instead of vanishing from the books.
void client_main(const Dialer& dial, bool chaos, std::uint64_t deadline_us,
                 const std::vector<std::uint32_t>& payload, Clock::time_point t0,
                 Clock::time_point end, double interval_s, double phase_s, ClientTally& tally) {
  using namespace std::chrono;
  std::unordered_map<std::uint64_t, Clock::time_point> scheduled;
  std::vector<std::uint8_t> wbuf, rbuf;
  std::size_t whead = 0;
  std::uint64_t next_id = 1;
  const auto interval = duration_cast<Clock::duration>(duration<double>(interval_s));
  Clock::time_point next_send = t0 + duration_cast<Clock::duration>(duration<double>(phase_s));
  const Clock::time_point drain_deadline = end + seconds(3);

  serve::Frame req;
  req.type = serve::FrameType::kRequest;
  req.payload = payload;
  if (deadline_us > 0) {
    req.version = serve::kProtocolV3;
    req.deadline_us = deadline_us;
  }
  const auto enqueue_frame = [&](std::uint64_t id) {
    req.request_id = id;
    const std::vector<std::uint8_t> bytes = serve::encode(req);
    wbuf.insert(wbuf.end(), bytes.begin(), bytes.end());
  };

  std::optional<serve::FdStream> conn;
  // (Re)dial until connected or the drain deadline passes. On a redial the
  // old connection's buffers are garbage (torn frames) and its in-flight
  // responses are gone with it: rebuild the write queue from every request
  // still unanswered.
  const auto redial = [&](bool first) -> bool {
    for (;;) {
      try {
        serve::FdStream s = dial();
        s.set_nonblocking(true);
        conn = std::move(s);
        if (!first) {
          ++tally.reconnects;
          rbuf.clear();
          wbuf.clear();
          whead = 0;
          std::vector<std::uint64_t> ids;
          ids.reserve(scheduled.size());
          for (const auto& [id, when] : scheduled) ids.push_back(id);
          std::sort(ids.begin(), ids.end());
          for (const std::uint64_t id : ids) enqueue_frame(id);
          tally.retried += ids.size();
        }
        return true;
      } catch (const std::exception&) {
        if (!chaos || Clock::now() >= drain_deadline) return false;
        std::this_thread::sleep_for(milliseconds(2));  // refused: brief backoff
      }
    }
  };

  if (!redial(/*first=*/true)) {
    // Could not even open the first connection: nothing was ever scheduled,
    // but the run must notice the dead client.
    std::fprintf(stderr, "client error: initial connect failed\n");
    tally.lost += 1;
    return;
  }

  for (;;) {
    const Clock::time_point now = Clock::now();

    // The open-loop heart: emit every send whose scheduled instant has
    // passed, no matter how many responses are still outstanding. The
    // latency clock of each request starts at its SCHEDULED time, so time
    // spent queued behind a slow socket is measured, not forgiven.
    while (next_send <= now && next_send < end) {
      scheduled.emplace(next_id, next_send);
      enqueue_frame(next_id);
      ++next_id;
      ++tally.sent;
      next_send += interval;
    }

    const bool done_sending = now >= end || next_send >= end;
    if (done_sending && scheduled.empty()) break;       // all answered
    if (now >= drain_deadline) {                        // server went dark
      tally.lost += scheduled.size();
      break;
    }

    try {
      pollfd pfd{conn->fd(), POLLIN, 0};
      if (whead < wbuf.size()) pfd.events |= POLLOUT;
      Clock::time_point wake = done_sending ? drain_deadline : std::min(next_send, drain_deadline);
      const auto timeout_ms =
          duration_cast<milliseconds>(wake - now).count();
      (void)::poll(&pfd, 1, static_cast<int>(std::clamp<long long>(timeout_ms, 0, 100)));

      if ((pfd.revents & POLLOUT) != 0 && whead < wbuf.size()) {
        const ssize_t n = conn->write_some(wbuf.data() + whead, wbuf.size() - whead);
        if (n > 0) whead += static_cast<std::size_t>(n);
        if (whead == wbuf.size()) {
          wbuf.clear();
          whead = 0;
        }
      }

      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        char chunk[64 * 1024];
        const ssize_t n = conn->read_some(chunk, sizeof(chunk));
        if (n == 0) throw serve::TransportError("connection closed");
        if (n > 0) rbuf.insert(rbuf.end(), chunk, chunk + n);
        std::size_t head = 0;
        for (;;) {
          std::size_t consumed = 0;
          const auto frame = serve::try_extract(
              std::span<const std::uint8_t>(rbuf.data() + head, rbuf.size() - head), consumed);
          if (!frame.has_value()) break;
          head += consumed;
          const auto it = scheduled.find(frame->request_id);
          if (it == scheduled.end()) continue;  // duplicate/foreign id: ignore
          const duration<double, std::micro> rtt = Clock::now() - it->second;
          tally.rtt_us.push_back(rtt.count());
          scheduled.erase(it);
          switch (frame->status) {
            case serve::Status::kOk: ++tally.ok; break;
            case serve::Status::kOverloaded: ++tally.overloaded; break;
            case serve::Status::kDeadlineExceeded: ++tally.deadline_exceeded; break;
            case serve::Status::kQueueFull:
            case serve::Status::kShutdown: ++tally.rejected; break;
            default: ++tally.errors; break;
          }
        }
        rbuf.erase(rbuf.begin(), rbuf.begin() + static_cast<std::ptrdiff_t>(head));
      }
    } catch (const std::exception& e) {
      // The connection died (reset, peer close, torn frame). Under chaos
      // that is the weather: redial and re-issue. Otherwise it is a real
      // server failure and everything unanswered is lost.
      if (chaos && redial(/*first=*/false)) continue;
      std::fprintf(stderr, "client error: %s\n", e.what());
      tally.lost += scheduled.size();
      break;
    }
  }
}

struct RunResult {
  std::size_t shards = 0;
  double offered_rps = 0;
  double achieved_rps = 0;   // kOk responses per second of the send window
  std::uint64_t completed_ok = 0;
  std::uint64_t rejected = 0;           // kQueueFull / kShutdown
  std::uint64_t overloaded = 0;         // kOverloaded answers observed
  std::uint64_t deadline_exceeded = 0;  // kDeadlineExceeded answers observed
  std::uint64_t retried = 0;            // requests re-issued after chaos drops
  std::uint64_t reconnects = 0;         // client redials after chaos drops
  std::uint64_t server_shed = 0;          // batcher-side deadline sheds
  std::uint64_t server_rate_limited = 0;  // token-bucket refusals
  std::uint64_t chaos_resets = 0;           // injector: mid-stream resets
  std::uint64_t chaos_dropped_connects = 0; // injector: refused connects
  std::uint64_t errors = 0;
  std::uint64_t lost = 0;
  double rtt_p50_us = 0;
  double rtt_p99_us = 0;
  double rtt_p999_us = 0;
  double queue_wait_p50_us = 0;
  double queue_wait_p99_us = 0;
  double queue_wait_p999_us = 0;
  double per_core_rps = 0;       // achieved_rps / shards
  double per_core_efficiency = 0;  // per_core_rps / the 1-shard per_core_rps
};

RunResult run_one(std::size_t shards, const Config& cfg) {
  const nn::Mlp net = bench_net();
  const auto model = bench_model();

  serve::ServerOptions opts;
  opts.batcher.max_batch = 16;
  opts.batcher.max_wait = std::chrono::microseconds(200);
  opts.batcher.queue_capacity = 4096;
  opts.tcp_port = 0;
  opts.shards = shards;
  serve::Server server(model, opts);

  // Under --chaos every client dials through one shared seeded injector, so
  // the whole run's fault schedule replays from --chaos-seed.
  std::shared_ptr<serve::FaultInjector> injector;
  if (cfg.chaos) {
    serve::FaultProfile profile;
    profile.seed = cfg.chaos_seed;
    profile.max_slice = 4096;  // slicing at frame scale, not byte-at-a-time
    profile.delay_probability = 0.001;
    profile.max_delay = std::chrono::microseconds(2000);
    profile.reset_probability = 0.0002;
    profile.drop_connect_probability = 0.05;
    injector = std::make_shared<serve::FaultInjector>(profile);
  }
  const std::uint16_t port = server.tcp_port();
  const Dialer dial = [injector, port] {
    return injector ? injector->connect(port) : serve::tcp_connect(port);
  };

  // One fixed input row, quantized once — request content does not affect
  // serving throughput, and a constant payload keeps the generator cheap.
  std::mt19937 rng(2019);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<std::uint32_t> payload;
  for (std::size_t i = 0; i < net.input_dim(); ++i) {
    payload.push_back(model->input_format().from_double(u(rng)));
  }

  const double interval_s = static_cast<double>(cfg.clients) / cfg.rate;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end = t0 + std::chrono::milliseconds(cfg.duration_ms);

  std::vector<ClientTally> tallies(static_cast<std::size_t>(cfg.clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < cfg.clients; ++c) {
    // De-phase the schedules so the aggregate arrival process is smooth at
    // the target rate instead of `clients`-sized synchronized bursts.
    const double phase_s = static_cast<double>(c) / cfg.rate;
    threads.emplace_back(client_main, std::cref(dial), cfg.chaos, cfg.deadline_us,
                         std::cref(payload), t0, end, interval_s, phase_s,
                         std::ref(tallies[static_cast<std::size_t>(c)]));
  }
  for (std::thread& t : threads) t.join();

  // Scrape the server-side queue-wait distribution BEFORE stop() tears the
  // batcher lanes down.
  const serve::ServerStats ss = server.stats();
  RunResult r;
  r.queue_wait_p50_us = ss.batcher.wait_p50_us;
  r.queue_wait_p99_us = ss.batcher.wait_p99_us;
  r.queue_wait_p999_us = ss.batcher.wait_p999_us;
  r.server_shed = ss.batcher.deadline_exceeded;
  r.server_rate_limited = ss.rate_limited;
  server.stop();
  if (injector) {
    const serve::FaultInjector::Counters fc = injector->counters();
    r.chaos_resets = fc.resets;
    r.chaos_dropped_connects = fc.dropped_connects;
  }

  std::vector<double> rtt;
  std::uint64_t sent = 0;
  for (const ClientTally& t : tallies) {
    rtt.insert(rtt.end(), t.rtt_us.begin(), t.rtt_us.end());
    sent += t.sent;
    r.completed_ok += t.ok;
    r.rejected += t.rejected;
    r.overloaded += t.overloaded;
    r.deadline_exceeded += t.deadline_exceeded;
    r.retried += t.retried;
    r.reconnects += t.reconnects;
    r.errors += t.errors;
    r.lost += t.lost;
  }
  std::sort(rtt.begin(), rtt.end());
  const double window_s = static_cast<double>(cfg.duration_ms) / 1000.0;
  r.shards = shards;
  r.offered_rps = static_cast<double>(sent) / window_s;
  r.achieved_rps = static_cast<double>(r.completed_ok) / window_s;
  r.rtt_p50_us = core::percentile(rtt, 50);
  r.rtt_p99_us = core::percentile(rtt, 99);
  r.rtt_p999_us = core::percentile(rtt, 99.9);
  r.per_core_rps = r.achieved_rps / static_cast<double>(shards);
  return r;
}

void write_json(const Config& cfg, const std::vector<RunResult>& results) {
  std::FILE* f = std::fopen(cfg.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", cfg.json_path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_loadgen\",\n");
  std::fprintf(f, "  \"net\": \"%s\",\n", kNetName);
  const auto model = bench_model();
  std::fprintf(f, "  \"format\": \"%s\",\n", model->input_format().name().c_str());
  std::fprintf(f, "  \"layer_formats\": %s,\n", layer_formats_json(*model).c_str());
  std::fprintf(f, "  \"bits_per_weight\": %.4f,\n", model->bits_per_weight());
  std::fprintf(f, "  \"open_loop\": true,\n");
  std::fprintf(f, "  \"duration_ms\": %d,\n", cfg.duration_ms);
  std::fprintf(f, "  \"target_rate_rps\": %.1f,\n", cfg.rate);
  std::fprintf(f, "  \"clients\": %d,\n", cfg.clients);
  std::fprintf(f, "  \"chaos\": %s,\n", cfg.chaos ? "true" : "false");
  std::fprintf(f, "  \"chaos_seed\": %llu,\n", static_cast<unsigned long long>(cfg.chaos_seed));
  std::fprintf(f, "  \"deadline_us\": %llu,\n", static_cast<unsigned long long>(cfg.deadline_us));
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", std::thread::hardware_concurrency());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"offered_rps\": %.1f, \"achieved_rps\": %.1f, "
                 "\"completed_ok\": %llu, \"rejected\": %llu, \"overloaded\": %llu, "
                 "\"deadline_exceeded\": %llu, \"retried\": %llu, \"reconnects\": %llu, "
                 "\"server_shed\": %llu, \"server_rate_limited\": %llu, "
                 "\"chaos_resets\": %llu, \"chaos_dropped_connects\": %llu, "
                 "\"errors\": %llu, \"lost\": %llu, "
                 "\"rtt_p50_us\": %.2f, \"rtt_p99_us\": %.2f, \"rtt_p999_us\": %.2f, "
                 "\"queue_wait_p50_us\": %.2f, \"queue_wait_p99_us\": %.2f, "
                 "\"queue_wait_p999_us\": %.2f, "
                 "\"per_core_rps\": %.1f, \"per_core_efficiency\": %.3f}%s\n",
                 r.shards, r.offered_rps, r.achieved_rps,
                 static_cast<unsigned long long>(r.completed_ok),
                 static_cast<unsigned long long>(r.rejected),
                 static_cast<unsigned long long>(r.overloaded),
                 static_cast<unsigned long long>(r.deadline_exceeded),
                 static_cast<unsigned long long>(r.retried),
                 static_cast<unsigned long long>(r.reconnects),
                 static_cast<unsigned long long>(r.server_shed),
                 static_cast<unsigned long long>(r.server_rate_limited),
                 static_cast<unsigned long long>(r.chaos_resets),
                 static_cast<unsigned long long>(r.chaos_dropped_connects),
                 static_cast<unsigned long long>(r.errors),
                 static_cast<unsigned long long>(r.lost), r.rtt_p50_us, r.rtt_p99_us,
                 r.rtt_p999_us, r.queue_wait_p50_us, r.queue_wait_p99_us,
                 r.queue_wait_p999_us, r.per_core_rps, r.per_core_efficiency,
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", cfg.json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const auto flag = [&](const char* name) {
      return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
    };
    if (flag("--duration-ms")) cfg.duration_ms = std::atoi(argv[++i]);
    else if (flag("--rate")) cfg.rate = std::atof(argv[++i]);
    else if (flag("--clients")) cfg.clients = std::atoi(argv[++i]);
    else if (flag("--shards")) cfg.shards = std::atoi(argv[++i]);
    else if (flag("--json")) cfg.json_path = argv[++i];
    else if (std::strcmp(argv[i], "--chaos") == 0) cfg.chaos = true;
    else if (flag("--chaos-seed")) cfg.chaos_seed = std::strtoull(argv[++i], nullptr, 10);
    else if (flag("--deadline-us")) cfg.deadline_us = std::strtoull(argv[++i], nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: bench_loadgen [--duration-ms D] [--rate R] [--clients C] "
                   "[--shards S] [--json PATH|-] [--chaos] [--chaos-seed N] "
                   "[--deadline-us B]\n");
      return 2;
    }
  }
  if (cfg.duration_ms <= 0 || cfg.rate <= 0 || cfg.clients <= 0 || cfg.clients > 4096 ||
      cfg.shards < 0 || cfg.shards > 256) {
    std::fprintf(stderr, "bench_loadgen: all of duration, rate, clients must be positive\n");
    return 2;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> shard_counts{1};
  const std::size_t multi = cfg.shards > 0 ? static_cast<std::size_t>(cfg.shards)
                                           : std::min<std::size_t>(4, hw);
  if (multi > 1) shard_counts.push_back(multi);

  std::printf("bench_loadgen: open-loop, %d clients, %.0f req/s offered, %d ms window, net %s\n",
              cfg.clients, cfg.rate, cfg.duration_ms, kNetName);
  if (cfg.chaos) {
    std::printf("chaos mode: fault injection on every client connection (seed %llu)\n",
                static_cast<unsigned long long>(cfg.chaos_seed));
  }
  if (cfg.deadline_us > 0) {
    std::printf("deadline budget: %llu us per request (protocol v3)\n",
                static_cast<unsigned long long>(cfg.deadline_us));
  }
  std::printf("hardware_concurrency = %u, shard counts:", hw);
  for (const std::size_t s : shard_counts) std::printf(" %zu", s);
  std::printf("\n\n");

  std::vector<RunResult> results;
  for (const std::size_t s : shard_counts) results.push_back(run_one(s, cfg));
  // Per-core efficiency is relative to the 1-shard run: 1.0 means adding
  // shards kept every core as productive as the single-shard core was.
  const double base = results[0].per_core_rps;
  for (RunResult& r : results) r.per_core_efficiency = base > 0 ? r.per_core_rps / base : 0;

  std::printf("%7s %12s %13s %9s %6s %6s %8s %9s %6s %12s %12s %13s %13s %12s\n", "shards",
              "offered/s", "achieved/s", "rejected", "overl", "shed", "retried", "errors",
              "lost", "rtt p50 us", "rtt p99 us", "rtt p99.9 us", "per-core r/s", "efficiency");
  bool failed = false;
  for (const RunResult& r : results) {
    std::printf(
        "%7zu %12.1f %13.1f %9llu %6llu %6llu %8llu %9llu %6llu %12.2f %12.2f %13.2f "
        "%13.1f %11.3f\n",
        r.shards, r.offered_rps, r.achieved_rps, static_cast<unsigned long long>(r.rejected),
        static_cast<unsigned long long>(r.overloaded),
        static_cast<unsigned long long>(r.deadline_exceeded),
        static_cast<unsigned long long>(r.retried), static_cast<unsigned long long>(r.errors),
        static_cast<unsigned long long>(r.lost), r.rtt_p50_us, r.rtt_p99_us, r.rtt_p999_us,
        r.per_core_rps, r.per_core_efficiency);
    if (r.lost != 0 || r.errors != 0) failed = true;
  }
  if (cfg.json_path != "-") write_json(cfg, results);
  if (failed) {
    std::fprintf(stderr, "FAIL: lost or erroneous responses — the server dropped work\n");
    return 1;
  }
  return 0;
}
