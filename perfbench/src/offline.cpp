// offline-grid: Session::predict over one seeded 4096-row batch of the
// 64-128-128-64-10 net, one pass through each of five models per pass, on a
// 2-slot worker pool. The emac and numeric layers do nearly all the work;
// serve is idle.

#include <algorithm>
#include <optional>

#include "common.hpp"
#include "runtime/session.hpp"
#include "runtime/worker_pool.hpp"

namespace pb {
namespace {

using namespace dp;

constexpr std::size_t kPoolThreads = 2;
constexpr std::size_t kOracleRowsPerModel = 6;
constexpr int kMinPasses = 3;

class OfflineGrid final : public Workload {
 public:
  explicit OfflineGrid(std::uint64_t seed) : seed_(seed) {}

  void setup(SpanLog* log) override {
    dim_ = kGridTopology.front();
    batch_ = make_rows(seed_, kGridRows, dim_);
    const nn::Mlp net(kGridTopology, static_cast<std::uint32_t>(mix(seed_, 1)));
    pool_ = std::make_shared<runtime::WorkerPool>(kPoolThreads);
    for (Assignment& asn : grid_assignments(kGridTopology.size() - 1)) {
      Model m;
      m.label = intern(asn.label);
      m.span = intern("runtime.predict." + asn.label);
      std::optional<nn::QuantizedNetwork> q;
      {
        Scope s(log, "nn.quantize");
        q.emplace(nn::quantize(net, asn.formats));
      }
      {
        Scope s(log, "runtime.model_create");
        m.model = runtime::Model::create(std::move(*q));
      }
      runtime::SessionOptions opts;
      opts.pool = pool_;
      m.session = std::make_unique<runtime::Session>(m.model, opts);
      models_.push_back(std::move(m));
    }
  }

  void prepare_reference(bool flip) override {
    // The oracle subset: seeded rows per model through the make_emac step
    // recurrence — independent of every kernel the runtime dispatches.
    for (std::size_t mi = 0; mi < models_.size(); ++mi) {
      Model& m = models_[mi];
      for (std::size_t k = 0; k < kOracleRowsPerModel; ++k) {
        const std::size_t row = mix(seed_, 100 + mi * kOracleRowsPerModel + k) % kGridRows;
        m.oracle_rows.push_back(row);
        m.oracle_bits.push_back(oracle_forward(m.model->network(), row_span(row)));
      }
    }
    if (flip) models_.front().oracle_bits.front().front() ^= 1u;
  }

  WindowResult run(double seconds, SpanLog* log) override {
    WindowResult r;
    const runtime::BatchView view(batch_, dim_);
    // Untimed warm-up pass: first-touch of every pool scratch and tile
    // buffer; its outputs become the reference later passes must repeat.
    for (Model& m : models_) check_pass(m, m.session->predict(view), r);
    std::vector<double> pass_ns;
    const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    while (static_cast<int>(pass_ns.size()) < kMinPasses || now_ns() < t_end) {
      std::int64_t pass = 0;
      for (Model& m : models_) {
        const double macs =
            static_cast<double>(m.model->macs_per_inference() * kGridRows);
        const std::int64_t t0 = now_ns();
        std::vector<int> out;
        {
          Scope s(log, m.span, 0, macs);
          out = m.session->predict(view);
        }
        pass += now_ns() - t0;
        check_pass(m, out, r);
      }
      pass_ns.push_back(static_cast<double>(pass));
    }
    const double rows_per_pass = static_cast<double>(models_.size() * kGridRows);
    const double p50 = median(pass_ns);
    r.inferences_per_s = rows_per_pass / (p50 / 1e9);
    r.goodput_rps = static_cast<double>(models_.size()) / (p50 / 1e9);
    r.rtt_p50_us = p50 / 1e3;
    r.rtt_p99_us = percentile(pass_ns, 99) / 1e3;
    r.rtt_samples = static_cast<double>(pass_ns.size());
    // No wire: the bytes a row moves across the Session API (doubles in, one
    // class id out).
    r.wire_bytes_per_req = static_cast<double>(dim_ * sizeof(double) + sizeof(int));
    r.attempted = static_cast<std::uint64_t>(pass_ns.size() * models_.size() * kGridRows);
    return r;
  }

  void verify(WindowResult& r) override {
    // Every batched row against the single-row path, then the single-row
    // readout bit-for-bit against the step-recurrence oracle subset.
    for (Model& m : models_) {
      runtime::Session single(m.model);
      for (std::size_t row = 0; row < kGridRows; ++row) {
        const std::span<const std::uint32_t> bits = single.forward_bits(row_span(row));
        if (m.model->argmax_bits(bits) != m.first[row]) {
          mismatch(r, m.label, row, "batched predict != single-row forward_bits argmax");
        }
        for (std::size_t k = 0; k < m.oracle_rows.size(); ++k) {
          if (m.oracle_rows[k] == row &&
              !std::equal(bits.begin(), bits.end(), m.oracle_bits[k].begin(),
                          m.oracle_bits[k].end())) {
            mismatch(r, m.label, row, "single-row forward_bits != make_emac step oracle");
          }
        }
      }
    }
  }

 private:
  struct Model {
    const char* label = "";
    const char* span = "";
    std::shared_ptr<const runtime::Model> model;
    std::unique_ptr<runtime::Session> session;
    std::vector<int> first;  // the warm-up pass's predictions
    std::vector<std::size_t> oracle_rows;
    std::vector<std::vector<std::uint32_t>> oracle_bits;
  };

  std::span<const double> row_span(std::size_t row) const {
    return std::span<const double>(batch_).subspan(row * dim_, dim_);
  }

  static void mismatch(WindowResult& r, const char* model, std::size_t row, const char* what) {
    if (r.mismatches++ == 0) {
      r.first_mismatch = std::string(model) + " row " + std::to_string(row) + ": " + what;
    }
  }

  static void check_pass(Model& m, const std::vector<int>& out, WindowResult& r) {
    if (m.first.empty()) {
      m.first = out;
    } else if (out != m.first) {
      mismatch(r, m.label, 0, "a pass's predictions differ from the first pass");
    }
  }

  std::uint64_t seed_;
  std::size_t dim_ = 0;
  std::vector<double> batch_;
  std::shared_ptr<runtime::WorkerPool> pool_;
  std::vector<Model> models_;
};

}  // namespace

std::unique_ptr<Workload> make_offline_grid(std::uint64_t seed) {
  return std::make_unique<OfflineGrid>(seed);
}

}  // namespace pb
