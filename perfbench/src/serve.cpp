// serve-trickle and serve-burst: a real serve::Server on 127.0.0.1 with an
// external ModelRegistry, driven by the benchmark's own client — one thread
// polling every nonblocking TCP connection, plus one thread for hot swaps. Every kOk reply is checked bit-for-bit against a
// Session::forward_bits reference computed before the window.

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <exception>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>

#include "codec/container.hpp"
#include "codec/payload.hpp"
#include "common.hpp"
#include "core/experiment.hpp"
#include "runtime/batch.hpp"
#include "runtime/session.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace pb {
namespace {

using namespace dp;

const char* const kEntry = "bench";
constexpr std::size_t kGridPoolRows = 4096;  // distinct request rows (grid model)
constexpr double kDrainSeconds = 5;          // wait for replies after the window

enum class ModelSource { kGrid, kWbc };

/// The traffic and server shape of one serve workload.
struct ServeShape {
  ModelSource source = ModelSource::kGrid;
  std::size_t shards = 1;
  std::size_t max_batch = 16;
  std::chrono::microseconds max_wait{200};
  std::size_t connections = 1;
  double rate_rps = 0;       ///< open loop (Poisson) when > 0, across connections
  std::size_t inflight = 0;  ///< closed loop: requests kept in flight per connection
  bool compress = false;     ///< protocol v4 range-coded payloads
  double swap_hz = 0;        ///< hot reloads of the entry from a .dpnetz artifact
  std::uint64_t trace_every = 1;  ///< traced runs record spans of 1 in N requests
};

constexpr double kSliceSeconds = 0.5;     // goodput is the median over slices
constexpr int kMaxRedials = 64;           // connect_spread gives up balancing after this

struct Pending {
  std::int64_t sched = 0;
  std::size_t row = 0;
  std::size_t req_bytes = 0;
  std::int32_t span = -1;
};

struct Conn {
  serve::FdStream stream;
  std::vector<std::uint8_t> rbuf;
  std::size_t rhead = 0;
  std::vector<std::uint8_t> wbuf;
  std::size_t whead = 0;
  std::uint64_t next_id = 1;
  // Per-window generator state.
  std::unordered_map<std::uint64_t, Pending> pending;
  std::size_t next = 0;         ///< open loop: next schedule entry
  std::int64_t slot_free = 0;   ///< closed loop: when the free slots opened
};

/// A uniform sample of at most kCap values (Algorithm R, seeded), so the
/// generator's memory does not grow with the request rate — peak_rss_mb
/// measures the program, not the benchmark's bookkeeping.
class Samples {
 public:
  static constexpr std::size_t kCap = 1u << 16;
  explicit Samples(std::uint64_t seed) : rng_(seed) {}
  void add(double x) {
    if (v_.size() < kCap) {
      v_.push_back(x);
    } else if (const std::uint64_t k = rng_() % (seen_ + 1); k < kCap) {
      v_[k] = x;
    }
    ++seen_;
  }
  const std::vector<double>& values() const { return v_; }
  std::uint64_t seen() const { return seen_; }

 private:
  std::vector<double> v_;
  std::uint64_t seen_ = 0;
  std::mt19937_64 rng_;
};

/// What the generator saw in one window.
struct Tally {
  explicit Tally(std::uint64_t seed) : rtt_us(mix(seed, 1)), send_us(mix(seed, 2)) {}
  Samples rtt_us;   ///< answered requests, from the scheduled send
  Samples send_us;  ///< time inside send (encode into the write buffer)
  double late_us_max = 0;  ///< how late the generator left its schedule, worst send
  std::vector<std::uint64_t> ok_per_slice;
  std::uint64_t sent = 0, ok = 0, refused = 0, errors = 0, lost = 0, mismatches = 0;
  double wire_bytes = 0;    ///< request + reply frame bytes of answered requests
  double coded_bytes = 0;   ///< compressed request payload blocks
  double packed_bytes = 0;  ///< the same payloads as plain n-bit packing
  std::string first_mismatch;
  SpanLog log;
  std::exception_ptr error;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(std::uint64_t seed, ServeShape shape) : seed_(seed), shape_(shape) {}

  void setup(SpanLog* log) override {
    nn::Mlp net;
    if (shape_.source == ModelSource::kWbc) {
      // The paper's task as specified (its own data and training seeds):
      // the workload seed picks which test row each request sends.
      core::TrainedTask task;
      {
        Scope s(log, "core.prepare_task");
        task = core::prepare_task(core::wbc_task());
      }
      dim_ = task.split.test.features();
      rows_ = runtime::pack_rows(task.split.test.x, dim_);
      net = std::move(task.net);
    } else {
      dim_ = kGridTopology.front();
      rows_ = make_rows(seed_, kGridPoolRows, dim_);
      net = nn::Mlp(kGridTopology, static_cast<std::uint32_t>(mix(seed_, 1)));
    }
    std::optional<nn::QuantizedNetwork> q;
    {
      Scope s(log, "nn.quantize");
      q.emplace(nn::quantize(net, num::Format{num::PositFormat{8, 0}}));
    }
    if (shape_.swap_hz > 0) {
      Scope s(log, "codec.artifact_encode");
      artifact_ = codec::encode_network(*q);
    }
    {
      Scope s(log, "runtime.model_create");
      model_ = runtime::Model::create(std::move(*q));
    }
    bopts_.max_batch = shape_.max_batch;
    bopts_.max_wait = shape_.max_wait;
    registry_ = std::make_unique<serve::ModelRegistry>(shape_.shards);
    registry_->load(kEntry, model_, bopts_);
    serve::ServerOptions so;
    so.tcp_port = 0;
    so.shards = shape_.shards;
    server_ = std::make_unique<serve::Server>(*registry_, so);
    connect_spread();
  }

  void prepare_reference(bool flip) override {
    // The client quantizes each distinct row once; requests reuse the
    // patterns, so the generator's own cost stays off the measured path.
    const num::Format& in = model_->input_format();
    row_bits_.clear();
    for (const double v : rows_) row_bits_.push_back(in.from_double(v));
    runtime::Session session(model_);
    ref_ = session.forward_bits(runtime::BatchView(rows_, dim_)).data;
    if (flip) ref_[row_of(0, conns_.front()->next_id) * model_->output_dim()] ^= 1u;
  }

  WindowResult run(double seconds, SpanLog* log) override;

  void verify(WindowResult&) override {}  // every reply is checked as it lands

 private:
  /// Open shape_.connections connections, one per shard while shards are
  /// free: SO_REUSEPORT hashes each connection to a shard, and two that hash
  /// to one shard would leave the other idle and halve capacity at random.
  /// A connection that lands on an occupied shard is closed and redialed.
  void connect_spread() {
    std::vector<std::size_t> used(server_->shards(), 0);
    for (std::size_t c = 0; c < shape_.connections; ++c) {
      for (int attempt = 0;; ++attempt) {
        const std::vector<serve::ShardStats> before = server_->shard_stats();
        serve::FdStream stream = serve::tcp_connect(server_->tcp_port());
        const std::size_t shard = accepted_on(before);
        const bool spread = used[shard] == *std::min_element(used.begin(), used.end());
        if (spread || attempt == kMaxRedials) {
          ++used[shard];
          stream.set_nonblocking(true);
          conns_.push_back(std::make_unique<Conn>());
          conns_.back()->stream = std::move(stream);
          break;
        }
      }
    }
  }

  /// The shard whose accept counter moves past `before` (waits for it).
  std::size_t accepted_on(const std::vector<serve::ShardStats>& before) const {
    const std::int64_t give_up = now_ns() + 2'000'000'000;
    while (now_ns() < give_up) {
      const std::vector<serve::ShardStats> now = server_->shard_stats();
      for (std::size_t i = 0; i < now.size(); ++i) {
        if (now[i].connections > before[i].connections) return i;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    throw serve::TransportError("no shard accepted the benchmark's connection");
  }

  std::size_t row_of(std::size_t conn, std::uint64_t id) const {
    return static_cast<std::size_t>(mix(mix(seed_, 10 + conn), id) % (rows_.size() / dim_));
  }

  void drive(std::int64_t t_start, std::int64_t t_end,
             const std::vector<std::vector<std::int64_t>>& schedules, bool traced, Tally& t);
  void send_one(Conn& c, std::size_t ci, std::int64_t sched, bool traced, Tally& t);
  void receive(Conn& c, std::int64_t t_start, bool traced, Tally& t);
  void swapper(std::int64_t t_start, std::int64_t t_end, std::uint64_t run_index,
               SpanLog* log, std::vector<serve::BatcherStats>& retired,
               std::exception_ptr& error);

  std::uint64_t seed_;
  ServeShape shape_;
  std::size_t dim_ = 0;
  std::vector<double> rows_;
  std::vector<std::uint32_t> row_bits_;  // rows_ quantized to the input format
  std::vector<std::uint32_t> ref_;
  std::vector<std::uint8_t> artifact_;
  std::shared_ptr<const runtime::Model> model_;
  serve::BatcherOptions bopts_;
  std::unique_ptr<serve::ModelRegistry> registry_;  // outlives server_
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<Conn>> conns_;  // closed before server_ stops
  std::uint64_t runs_ = 0;
};

void flush(Conn& c) {
  while (c.whead < c.wbuf.size()) {
    const ssize_t n = c.stream.write_some(c.wbuf.data() + c.whead, c.wbuf.size() - c.whead);
    if (n < 0) break;  // socket buffer full; poll for POLLOUT
    c.whead += static_cast<std::size_t>(n);
  }
  if (c.whead == c.wbuf.size()) {
    c.wbuf.clear();
    c.whead = 0;
  }
}

void ServeWorkload::send_one(Conn& c, std::size_t ci, std::int64_t sched, bool traced,
                             Tally& t) {
  const std::int64_t t0 = now_ns();
  const std::uint64_t id = c.next_id++;
  const std::size_t row = row_of(ci, id);
  SpanLog* log = traced && id % shape_.trace_every == 0 ? &t.log : nullptr;
  const std::int32_t req_span = log != nullptr ? log->add("request", sched, -1, -1, id) : -1;
  std::size_t bytes = 0;
  {
    Scope send(log, "client.send", id, 0, req_span);
    serve::Frame f;
    f.version = shape_.compress ? serve::kProtocolV4 : serve::kProtocolV1;
    f.type = serve::FrameType::kRequest;
    f.request_id = id;
    f.payload.assign(row_bits_.begin() + static_cast<std::ptrdiff_t>(row * dim_),
                     row_bits_.begin() + static_cast<std::ptrdiff_t>((row + 1) * dim_));
    if (shape_.compress) {
      const int width = model_->input_format().total_bits();
      const double packed = std::ceil(static_cast<double>(dim_ * static_cast<std::size_t>(width)) / 8);
      {
        Scope enc(log, "codec.payload_encode", id, static_cast<double>(dim_));
        f.payload = codec::encode_payload(f.payload, width);
      }
      f.payload_encoding = serve::kPayloadEncodingCodec;
      t.coded_bytes += static_cast<double>(f.payload.size() * 4);
      t.packed_bytes += packed;
    }
    std::vector<std::uint8_t> frame;
    {
      Scope enc(log, "protocol.encode", id);
      frame = serve::encode(f);
    }
    bytes = frame.size();
    c.wbuf.insert(c.wbuf.end(), frame.begin(), frame.end());
  }
  c.pending.emplace(id, Pending{sched, row, bytes, req_span});
  ++t.sent;
  t.late_us_max = std::max(t.late_us_max, static_cast<double>(t0 - sched) / 1e3);
  t.send_us.add(static_cast<double>(now_ns() - t0) / 1e3);
}

void ServeWorkload::receive(Conn& c, std::int64_t t_start, bool traced, Tally& t) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = c.stream.read_some(buf, sizeof buf);
    if (n < 0) break;
    if (n == 0) throw serve::TransportError("server closed the connection");
    c.rbuf.insert(c.rbuf.end(), buf, buf + n);
  }
  const std::int64_t t_recv = now_ns();
  const auto slice = static_cast<std::size_t>(static_cast<double>(t_recv - t_start) /
                                              (kSliceSeconds * 1e9));
  const std::size_t out_dim = model_->output_dim();
  const int out_width = model_->output_format().total_bits();
  for (;;) {
    const std::int64_t e0 = traced ? now_ns() : 0;
    std::size_t consumed = 0;
    std::optional<serve::Frame> fr = serve::try_extract(
        std::span<const std::uint8_t>(c.rbuf.data() + c.rhead, c.rbuf.size() - c.rhead),
        consumed);
    if (!fr) break;
    c.rhead += consumed;
    const auto it = c.pending.find(fr->request_id);
    if (it == c.pending.end()) {
      ++t.errors;  // a reply to nothing we sent
      continue;
    }
    const Pending p = it->second;
    c.pending.erase(it);
    SpanLog* log = traced && p.span >= 0 ? &t.log : nullptr;
    if (log != nullptr) log->add("protocol.extract", e0, now_ns(), p.span, fr->request_id);
    t.rtt_us.add(static_cast<double>(t_recv - p.sched) / 1e3);
    t.wire_bytes += static_cast<double>(p.req_bytes + consumed);
    if (fr->status == serve::Status::kOk) {
      std::vector<std::uint32_t> bits;
      if (fr->payload_encoding == serve::kPayloadEncodingCodec) {
        Scope dec(log, "codec.payload_decode", fr->request_id, static_cast<double>(out_dim),
                  p.span);
        bits = codec::decode_payload(fr->payload, out_width, out_dim);
      } else {
        bits = std::move(fr->payload);
      }
      const std::uint32_t* want = ref_.data() + p.row * out_dim;
      if (bits.size() == out_dim && std::equal(bits.begin(), bits.end(), want)) {
        ++t.ok;
        if (slice < t.ok_per_slice.size()) ++t.ok_per_slice[slice];
      } else if (t.mismatches++ == 0) {
        t.first_mismatch = "request " + std::to_string(fr->request_id) + " (row " +
                           std::to_string(p.row) + "): reply differs from Session::forward_bits";
      }
    } else if (fr->status == serve::Status::kQueueFull ||
               fr->status == serve::Status::kOverloaded ||
               fr->status == serve::Status::kShutdown ||
               fr->status == serve::Status::kDeadlineExceeded) {
      ++t.refused;
    } else {
      ++t.errors;
    }
    if (log != nullptr) log->finish(p.span, now_ns());
  }
  if (c.rhead > (1u << 16)) {
    c.rbuf.erase(c.rbuf.begin(), c.rbuf.begin() + static_cast<std::ptrdiff_t>(c.rhead));
    c.rhead = 0;
  }
}

void ServeWorkload::drive(std::int64_t t_start, std::int64_t t_end,
                          const std::vector<std::vector<std::int64_t>>& schedules, bool traced,
                          Tally& t) {
  try {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on schedule, not 50 us late
    std::this_thread::sleep_for(std::chrono::nanoseconds(t_start - now_ns()));
    for (auto& c : conns_) {
      c->pending.clear();
      c->next = 0;
      c->slot_free = t_start;
    }
    const auto drain_end = t_end + static_cast<std::int64_t>(kDrainSeconds * 1e9);
    std::vector<pollfd> pfds(conns_.size());
    for (;;) {
      const std::int64_t now = now_ns();
      bool sending = false, waiting = false;
      std::int64_t wake = drain_end;
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        Conn& c = *conns_[ci];
        const std::vector<std::int64_t>& sched = schedules[ci];
        if (shape_.rate_rps > 0) {
          while (c.next < sched.size() && sched[c.next] <= now) {
            send_one(c, ci, sched[c.next++], traced, t);
          }
          if (c.next < sched.size()) {
            sending = true;
            wake = std::min(wake, sched[c.next]);
          }
        } else if (now < t_end) {
          while (c.pending.size() < shape_.inflight) send_one(c, ci, c.slot_free, traced, t);
          sending = true;
          wake = std::min(wake, t_end);
        }
        if (!c.wbuf.empty()) flush(c);  // one write for every frame queued this turn
        waiting = waiting || !c.pending.empty();
        pfds[ci] = pollfd{c.stream.fd(),
                          static_cast<short>(POLLIN | (c.wbuf.empty() ? 0 : POLLOUT)), 0};
      }
      if (!sending && (!waiting || now >= drain_end)) break;
      const std::int64_t wait_ns = std::max<std::int64_t>(0, wake - now_ns());
      const timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                        static_cast<long>(wait_ns % 1000000000)};
      if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) {
        throw serve::TransportError("ppoll failed");
      }
      for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
        Conn& c = *conns_[ci];
        if (pfds[ci].revents & POLLOUT) flush(c);
        if (pfds[ci].revents & (POLLIN | POLLHUP | POLLERR)) {
          receive(c, t_start, traced, t);
          c.slot_free = now_ns();
        }
      }
    }
    for (const auto& c : conns_) t.lost += c->pending.size();
  } catch (...) {
    t.error = std::current_exception();
  }
}

void ServeWorkload::swapper(std::int64_t t_start, std::int64_t t_end, std::uint64_t run_index,
                            SpanLog* log, std::vector<serve::BatcherStats>& retired,
                            std::exception_ptr& error) {
  try {
    std::mt19937_64 rng(mix(seed_, 1000 + run_index));
    std::uniform_real_distribution<double> jitter(-0.25, 0.25);
    const double period_ns = 1e9 / shape_.swap_hz;
    for (int k = 0;; ++k) {
      const auto at = t_start + static_cast<std::int64_t>((k + 0.5 + jitter(rng)) * period_ns);
      if (at >= t_end) break;
      std::this_thread::sleep_for(std::chrono::nanoseconds(std::max<std::int64_t>(0, at - now_ns())));
      std::optional<nn::QuantizedNetwork> q;
      {
        Scope s(log, "codec.artifact_decode", 0, static_cast<double>(artifact_.size()));
        q.emplace(codec::decode_network(artifact_));
      }
      std::shared_ptr<const runtime::Model> m;
      {
        Scope s(log, "runtime.model_create");
        m = runtime::Model::create(std::move(*q));
      }
      // The entry's batcher counters die with it; keep its last snapshot.
      retired.push_back(registry_->stats(kEntry).value());
      Scope s(log, "registry.swap");
      registry_->load(kEntry, std::move(m), bopts_);
    }
  } catch (...) {
    error = std::current_exception();
  }
}

WindowResult ServeWorkload::run(double seconds, SpanLog* log) {
  const std::uint64_t run_index = runs_++;
  const bool traced = log != nullptr;
  const serve::ServerStats before = server_->stats();
  const std::int64_t t_start = now_ns() + 2'000'000;  // let every thread reach its loop
  const std::int64_t t_end = t_start + static_cast<std::int64_t>(seconds * 1e9);

  std::vector<std::vector<std::int64_t>> schedules(conns_.size());
  if (shape_.rate_rps > 0) {
    const double per_conn = shape_.rate_rps / static_cast<double>(conns_.size());
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      std::mt19937_64 rng(mix(mix(seed_, 2000 + run_index), c));
      std::exponential_distribution<double> gap(per_conn);
      for (double at = gap(rng); at < seconds; at += gap(rng)) {
        schedules[c].push_back(t_start + static_cast<std::int64_t>(at * 1e9));
      }
    }
  }
  Tally all(mix(seed_, 3000 + run_index));
  all.ok_per_slice.assign(static_cast<std::size_t>(seconds / kSliceSeconds), 0);
  std::vector<serve::BatcherStats> retired;
  std::exception_ptr swap_error;
  SpanLog swap_log;
  {
    // One generator thread for every connection, plus the swapper.
    std::thread gen([&] { drive(t_start, t_end, schedules, traced, all); });
    std::thread swap;
    if (shape_.swap_hz > 0) {
      swap = std::thread([&] {
        swapper(t_start, t_end, run_index, traced ? &swap_log : nullptr, retired, swap_error);
      });
    }
    gen.join();
    if (swap.joinable()) swap.join();
  }
  if (all.error) std::rethrow_exception(all.error);
  if (swap_error) std::rethrow_exception(swap_error);
  const serve::ServerStats after = server_->stats();
  if (log != nullptr) {
    log->merge(all.log);
    log->merge(swap_log);
  }

  WindowResult r;
  const double answered = static_cast<double>(all.rtt_us.seen());
  std::vector<double> slices(all.ok_per_slice.begin(), all.ok_per_slice.end());
  r.goodput_rps = median(slices) / kSliceSeconds;
  r.inferences_per_s = r.goodput_rps;  // one row per request
  r.rtt_p50_us = percentile(all.rtt_us.values(), 50);
  r.rtt_p99_us = percentile(all.rtt_us.values(), 99);
  r.rtt_samples = answered;
  r.wire_bytes_per_req = answered > 0 ? all.wire_bytes / answered : 0;
  r.attempted = all.sent;
  r.failed = all.errors + all.refused + all.lost;
  r.mismatches = all.mismatches;
  r.first_mismatch = all.first_mismatch;

  // Batcher counters: the live entry's delta plus every entry a swap retired
  // during the window (each retired snapshot is taken just before its swap).
  double completed = static_cast<double>(after.batcher.completed) -
                     static_cast<double>(before.batcher.completed);
  double batches = static_cast<double>(after.batcher.batches) -
                   static_cast<double>(before.batcher.batches);
  double rejected = static_cast<double>(after.batcher.rejected) -
                    static_cast<double>(before.batcher.rejected);
  for (const serve::BatcherStats& s : retired) {
    completed += static_cast<double>(s.completed);
    batches += static_cast<double>(s.batches);
    rejected += static_cast<double>(s.rejected);
  }
  Metrics& m = r.layer;
  m["batcher.queue_wait_p50_us"] = {after.batcher.wait_p50_us, "us"};
  m["batcher.queue_wait_p99_us"] = {after.batcher.wait_p99_us, "us"};
  m["batcher.rows_per_batch"] = {batches > 0 ? completed / batches : 0, "rows"};
  m["batcher.rejected"] = {rejected, "count"};
  m["server.dropped"] = {static_cast<double>(after.dropped - before.dropped), "count"};
  m["server.overloaded"] = {static_cast<double>(after.overloaded - before.overloaded), "count"};
  m["client.send_us_p50"] = {percentile(all.send_us.values(), 50), "us"};
  m["client.late_us_max"] = {all.late_us_max, "us"};
  m[kRttP50Key] = {r.rtt_p50_us, "us"};
  if (all.packed_bytes > 0) {
    m["codec.payload_vs_packed"] = {all.coded_bytes / all.packed_bytes, "ratio"};
  }
  return r;
}

ServeShape trickle_shape() {
  ServeShape s;
  s.source = ModelSource::kGrid;
  s.shards = 1;
  s.max_batch = 16;
  s.connections = 1;
  s.rate_rps = 2000;
  return s;
}

}  // namespace

std::unique_ptr<Workload> make_serve_trickle(std::uint64_t seed) {
  return std::make_unique<ServeWorkload>(seed, trickle_shape());
}

std::unique_ptr<Workload> make_serve_burst(std::uint64_t seed) {
  ServeShape s;
  s.source = ModelSource::kWbc;
  s.shards = 2;
  s.max_batch = 32;
  s.connections = 2;
  s.inflight = 32;
  s.compress = true;
  s.swap_hz = 4;
  s.trace_every = 8;
  return std::make_unique<ServeWorkload>(seed, s);
}

void probe_serve(std::uint64_t seed, SpanLog& log, Metrics& out, WindowResult& checks) {
  // A short trickle with compressed payloads and hot swaps: the served
  // layers an offline or raw-payload window never reaches.
  ServeShape s = trickle_shape();
  s.compress = true;
  s.swap_hz = 4;
  ServeWorkload w(mix(seed, 77), s);
  w.setup(nullptr);
  w.prepare_reference(false);
  SpanLog probe_log;
  WindowResult r = w.run(1.0, &probe_log);
  for (const auto& [name, metric] : r.layer) offer(out, name, metric.value, metric.unit);
  derive_span_metrics(probe_log, out);
  log.merge(probe_log);
  checks.attempted += r.attempted;
  checks.failed += r.failed;
  checks.mismatches += r.mismatches;
  if (checks.first_mismatch.empty()) checks.first_mismatch = r.first_mismatch;
}

}  // namespace pb
