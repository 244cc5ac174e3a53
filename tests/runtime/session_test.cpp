// Acceptance tests for the runtime Model/Session API: Session outputs must
// equal the legacy per-MAC step() recurrence (the step oracle,
// tests/step_oracle.hpp) bit-for-bit for every format in the paper sweep
// grid (n in [5,8]), across batch sizes {1, 7, 64} and pool sizes {1, 2, 8}
// — the execution engine is pure plumbing, never a numerics change. Plus the
// Session-level contracts: zero-copy single-sample spans, input validation,
// and model sharing.

#include "runtime/session.hpp"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "step_oracle.hpp"

namespace dp::runtime {
namespace {

// An untrained (random-init) net is enough: equality with the step oracle is
// a property of the execution engine, not of the weights.
nn::Mlp random_net() { return nn::Mlp({6, 16, 8, 3}, /*seed=*/42); }

std::vector<double> random_batch(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

std::vector<double> row_of(const BatchView& view, std::size_t i) {
  const auto r = view.row(i);
  return std::vector<double>(r.begin(), r.end());
}

TEST(RuntimeSession, BitIdenticalToLegacyAcrossSweepGridBatchAndPoolSizes) {
  const nn::Mlp net = random_net();
  const std::vector<double> flat = random_batch(64, net.input_dim(), 5);
  const BatchView all(flat, net.input_dim());

  for (int n = 5; n <= 8; ++n) {
    for (const num::Format& fmt : num::paper_format_grid(n)) {
      const nn::QuantizedNetwork qnet = nn::quantize(net, fmt);
      // Step-oracle reference, one row at a time.
      std::vector<std::vector<std::uint32_t>> ref_bits;
      std::vector<int> ref_pred;
      for (std::size_t i = 0; i < all.rows(); ++i) {
        ref_bits.push_back(testing::step_forward(qnet, row_of(all, i)));
        ref_pred.push_back(testing::step_predict(qnet, row_of(all, i)));
      }

      const auto model = Model::create(qnet);
      for (const std::size_t pool : {1u, 2u, 8u}) {
        Session session(model, {pool});
        for (const std::size_t batch : {1u, 7u, 64u}) {
          const BatchView view(std::span<const double>(flat).first(batch * all.row_width()),
                               all.row_width());
          const BatchResult<std::uint32_t> bits = session.forward_bits(view);
          ASSERT_EQ(bits.rows(), batch);
          for (std::size_t i = 0; i < batch; ++i) {
            ASSERT_EQ(std::vector<std::uint32_t>(bits.row(i).begin(), bits.row(i).end()),
                      ref_bits[i])
                << fmt.name() << " pool " << pool << " batch " << batch << " row " << i;
          }
          const std::vector<int> pred = session.predict(view);
          ASSERT_EQ(pred, std::vector<int>(ref_pred.begin(),
                                           ref_pred.begin() + static_cast<long>(batch)))
              << fmt.name() << " pool " << pool << " batch " << batch;
        }
      }
    }
  }
}

TEST(RuntimeSession, SingleSampleSpansMatchBatchRows) {
  const nn::Mlp net = random_net();
  const num::Format fmt{num::PositFormat{8, 1}};
  Session session(Model::create(nn::quantize(net, fmt)), {2});
  const std::vector<double> flat = random_batch(16, net.input_dim(), 9);
  const BatchView view(flat, net.input_dim());

  const BatchResult<std::uint32_t> bits = session.forward_bits(view);
  const BatchResult<double> scores = session.forward(view);
  const std::vector<int> preds = session.predict(view);
  for (std::size_t i = 0; i < view.rows(); ++i) {
    const auto b = session.forward_bits(view.row(i));
    EXPECT_EQ(std::vector<std::uint32_t>(b.begin(), b.end()),
              std::vector<std::uint32_t>(bits.row(i).begin(), bits.row(i).end()));
    const auto s = session.forward(view.row(i));
    EXPECT_EQ(std::vector<double>(s.begin(), s.end()),
              std::vector<double>(scores.row(i).begin(), scores.row(i).end()));
    EXPECT_EQ(session.predict(view.row(i)), preds[i]);
  }
}

TEST(RuntimeSession, StepAndFusedModelsAreBitIdentical) {
  // The fused kernel path of a Model, batched and one row at a time, against
  // the per-MAC step recurrence of the step oracle.
  const nn::Mlp net = random_net();
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{8, 0}}, num::Format{num::FloatFormat{4, 3}},
        num::Format{num::FixedFormat{8, 6}}}) {
    const nn::QuantizedNetwork qnet = nn::quantize(net, fmt);
    Session fused(Model::create(qnet), {2});
    const std::vector<double> flat = random_batch(24, net.input_dim(), 21);
    const BatchView view(flat, net.input_dim());
    const std::vector<std::uint32_t> step = testing::step_forward_rows(qnet, view);
    EXPECT_EQ(fused.forward_bits(view).data, step) << fmt.name();
    std::vector<std::uint32_t> rows;
    for (std::size_t i = 0; i < view.rows(); ++i) {
      const auto b = fused.forward_bits(view.row(i));
      rows.insert(rows.end(), b.begin(), b.end());
    }
    EXPECT_EQ(rows, step) << fmt.name() << " single rows";
  }
}

TEST(RuntimeSession, ForwardBitsIntoWritesCallerBufferIdentically) {
  // The serving hook (serve::DynamicBatcher writes micro-batch results
  // straight into response storage): same bits as the allocating overload,
  // and a strict size check on the caller's buffer.
  const nn::Mlp net = random_net();
  Session session(Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}})), {2});
  const std::vector<double> flat = random_batch(10, net.input_dim(), 33);
  const BatchView view(flat, net.input_dim());

  const BatchResult<std::uint32_t> want = session.forward_bits(view);
  std::vector<std::uint32_t> out(view.rows() * session.model().output_dim(), 0xffffffffu);
  session.forward_bits_into(view, out);
  EXPECT_EQ(out, want.data);

  std::vector<std::uint32_t> wrong_size(out.size() - 1);
  EXPECT_THROW(session.forward_bits_into(view, wrong_size), std::invalid_argument);
}

TEST(RuntimeSession, AccuracyMatchesLegacyAndIsPoolInvariant) {
  const nn::Mlp net = random_net();
  const std::vector<double> flat = random_batch(50, net.input_dim(), 11);
  const BatchView view(flat, net.input_dim());
  const nn::QuantizedNetwork qnet = nn::quantize(net, num::Format{num::PositFormat{8, 0}});
  std::vector<int> ys;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < view.rows(); ++i) {
    ys.push_back(static_cast<int>(i % 3));
    if (testing::step_predict(qnet, view.row(i)) == ys.back()) ++hits;
  }
  const double ref = static_cast<double>(hits) / static_cast<double>(view.rows());
  const auto model = Model::create(qnet);
  for (const std::size_t pool : {1u, 2u, 8u}) {
    Session session(model, {pool});
    EXPECT_EQ(session.accuracy(view, ys), ref) << "pool " << pool;
  }
}

TEST(RuntimeSession, SharedModelServesManySessions) {
  const nn::Mlp net = random_net();
  const auto model = Model::create(nn::quantize(net, num::Format{num::PositFormat{7, 0}}));
  Session a(model, {1});
  Session b(model, {4});
  EXPECT_EQ(a.model_ptr().get(), b.model_ptr().get());
  const std::vector<double> flat = random_batch(12, net.input_dim(), 3);
  const BatchView view(flat, net.input_dim());
  EXPECT_EQ(a.predict(view), b.predict(view));
  EXPECT_EQ(b.num_threads(), 4u);
}

TEST(RuntimeSession, ValidatesInputs) {
  const nn::Mlp net = random_net();
  Session session(Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 1}})), {2});

  EXPECT_THROW(Session(nullptr), std::invalid_argument);

  // Batch row width must match the model input width.
  const std::vector<double> flat(12, 0.5);
  EXPECT_THROW(session.forward_bits(BatchView(flat, 4)), std::invalid_argument);
  EXPECT_THROW(session.predict(BatchView(flat, 4)), std::invalid_argument);

  // Single-sample inputs must be exactly input_dim() wide.
  EXPECT_THROW(session.predict(std::span<const double>(flat.data(), 4)),
               std::invalid_argument);
  // ...not a whole number of rows either: two rows are not one.
  EXPECT_THROW(session.forward_bits(std::span<const double>(flat)), std::invalid_argument);

  // Label count must match the batch.
  const BatchView ok(flat, net.input_dim());
  const std::vector<int> labels(ok.rows() + 1, 0);
  EXPECT_THROW(session.accuracy(ok, labels), std::invalid_argument);

  // Empty batches are fine everywhere.
  const BatchView empty(std::span<const double>{}, net.input_dim());
  EXPECT_TRUE(session.predict(empty).empty());
  EXPECT_EQ(session.forward_bits(empty).rows(), 0u);
  EXPECT_EQ(session.accuracy(empty, std::span<const int>{}), 0.0);
}

/// The decoded-score argmax Model::argmax_bits replaced: the first strictly
/// greatest Format::to_double score, NaN comparing false.
int to_double_argmax(const num::Format& fmt, const std::vector<std::uint32_t>& bits) {
  int best = 0;
  double best_score = bits.empty() ? 0.0 : fmt.to_double(bits[0]);
  for (std::size_t i = 1; i < bits.size(); ++i) {
    const double score = fmt.to_double(bits[i]);
    if (score > best_score) {
      best = static_cast<int>(i);
      best_score = score;
    }
  }
  return best;
}

TEST(RuntimeSession, ArgmaxBitsMatchesDecodedScoresOnEveryPatternPair) {
  // Every ordered pair of patterns of every 8-bit paper-grid format, plus
  // rows with NaR/NaN and both zeros at the front, the middle and the end.
  for (const num::Format& fmt : num::paper_format_grid(8)) {
    SCOPED_TRACE(fmt.name());
    nn::QuantizedNetwork qnet{fmt, {}};
    nn::QuantizedLayer layer;
    layer.fan_in = 1;
    layer.fan_out = 2;
    layer.weights.assign(2, fmt.from_double(1.0));
    layer.bias.assign(2, fmt.from_double(0.0));
    qnet.layers.push_back(std::move(layer));
    const auto model = Model::create(qnet);
    for (std::uint32_t a = 0; a < 256; ++a) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        const std::vector<std::uint32_t> row{a, b};
        ASSERT_EQ(model->argmax_bits(row), to_double_argmax(fmt, row)) << a << ", " << b;
      }
    }
    std::vector<std::uint32_t> specials{fmt.from_double(0.0), fmt.from_double(-0.0)};
    switch (fmt.kind()) {
      case num::Kind::kPosit:
        specials.push_back(fmt.posit().nar_pattern());
        break;
      case num::Kind::kFloat:
        specials.push_back(num::float_zero(fmt.flt(), /*neg=*/true));
        specials.push_back(num::float_nan(fmt.flt()));
        specials.push_back(num::float_nan(fmt.flt()) | 0x80u);
        break;
      case num::Kind::kFixed:
        break;
    }
    const std::vector<std::uint32_t> others{fmt.from_double(-1.0), fmt.from_double(0.5),
                                            fmt.from_double(-0.25), fmt.from_double(0.5)};
    for (const std::uint32_t sp : specials) {
      for (std::size_t at = 0; at <= others.size(); ++at) {
        std::vector<std::uint32_t> row = others;
        row.insert(row.begin() + static_cast<std::ptrdiff_t>(at), sp);
        EXPECT_EQ(model->argmax_bits(row), to_double_argmax(fmt, row)) << sp << " at " << at;
        std::vector<std::uint32_t> pair_row(row.size(), sp);
        pair_row[at] = fmt.from_double(-0.0);
        EXPECT_EQ(model->argmax_bits(pair_row), to_double_argmax(fmt, pair_row))
            << sp << " around " << at;
      }
    }
  }
}

TEST(RuntimeSession, HardwareConcurrencyDefaultWorks) {
  const nn::Mlp net = random_net();
  Session session(Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 1}})),
                  {0});  // 0 = hardware concurrency
  EXPECT_GE(session.num_threads(), 1u);
  const std::vector<double> flat = random_batch(5, net.input_dim(), 1);
  EXPECT_EQ(session.predict(BatchView(flat, net.input_dim())).size(), 5u);
}

}  // namespace
}  // namespace dp::runtime
