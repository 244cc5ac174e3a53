// Acceptance tests for the Session's one forward path: for every pool size
// and batch shape (tile-aligned, ragged and single rows), a Session must be
// bit-identical to the per-sample step oracle (tests/step_oracle.hpp) — on
// the dispatched kernels, on the forced scalar kernel
// (DP_FORCE_SCALAR_KERNEL), and on layers with no kernel at all, which run
// the step fallback. Plus the serve-layer contract: tile-aligned flushes
// never delay a lone request.

#include "runtime/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <future>
#include <random>
#include <string>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "serve/batcher.hpp"
#include "step_oracle.hpp"

namespace dp::runtime {
namespace {

nn::Mlp random_net() { return nn::Mlp({6, 16, 8, 3}, /*seed=*/42); }

std::vector<double> random_batch(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

/// The posit<8,1> random net with minpos and maxpos planted in every layer:
/// its planes span the format's whole scale range, so they get the
/// format-wide accumulator.
nn::QuantizedNetwork full_range_posit81_net() {
  const num::PositFormat f{8, 1};
  nn::QuantizedNetwork qnet = nn::quantize(random_net(), num::Format{f});
  for (nn::QuantizedLayer& layer : qnet.layers) {
    layer.weights[0] = 0x01;  // minpos, scale -12
    layer.weights[1] = f.nar_pattern() - 1;  // maxpos, scale 12
  }
  return qnet;
}

std::vector<num::Format> rep_formats() {
  return {num::Format{num::PositFormat{8, 0}}, num::Format{num::PositFormat{8, 1}},
          num::Format{num::PositFormat{5, 1}}, num::Format{num::FloatFormat{4, 3}},
          num::Format{num::FixedFormat{8, 6}}};
}

TEST(BlockedSession, BitIdenticalToPerSamplePathAcrossPoolAndBatchShapes) {
  const nn::Mlp net = random_net();
  for (const num::Format& fmt : rep_formats()) {
    const nn::QuantizedNetwork qnet = nn::quantize(net, fmt);
    const auto model = Model::create(qnet);
    ASSERT_STRNE(model->kernel_name(), "step") << fmt.name();
    const std::size_t tile = model->preferred_tile();
    ASSERT_GE(tile, 2u) << fmt.name();

    // Batch shapes around the tile boundary plus a long ragged burst.
    const std::vector<std::size_t> shapes{1,        tile - 1, tile,
                                          tile + 1, 2 * tile + 3, 64};
    const std::size_t max_rows = *std::max_element(shapes.begin(), shapes.end());
    const std::vector<double> flat = random_batch(max_rows, net.input_dim(), 5);
    const BatchView all(flat, net.input_dim());

    // Reference: the per-sample step oracle.
    const std::vector<std::uint32_t> want_bits = testing::step_forward_rows(qnet, all);
    std::vector<int> want_pred;
    std::vector<double> want_scores;
    for (std::size_t r = 0; r < all.rows(); ++r) {
      want_pred.push_back(testing::step_predict(qnet, all.row(r)));
    }
    for (const std::uint32_t b : want_bits) {
      want_scores.push_back(model->output_format().to_double(b));
    }
    const std::size_t width = model->output_dim();

    for (const std::size_t pool : {1u, 2u, 8u}) {
      Session blocked(model, {.num_threads = pool});
      EXPECT_EQ(blocked.preferred_batch_multiple(), tile);
      for (const std::size_t rows : shapes) {
        const BatchView view(std::span<const double>(flat).first(rows * net.input_dim()),
                             net.input_dim());
        const auto n = static_cast<std::ptrdiff_t>(rows * width);
        ASSERT_EQ(blocked.forward_bits(view).data,
                  std::vector<std::uint32_t>(want_bits.begin(), want_bits.begin() + n))
            << fmt.name() << " pool=" << pool << " rows=" << rows << " tile=" << tile;
        EXPECT_EQ(blocked.predict(view),
                  std::vector<int>(want_pred.begin(),
                                   want_pred.begin() + static_cast<std::ptrdiff_t>(rows)))
            << fmt.name() << " pool=" << pool << " rows=" << rows;
        EXPECT_EQ(blocked.forward(view).data,
                  std::vector<double>(want_scores.begin(), want_scores.begin() + n))
            << fmt.name() << " pool=" << pool << " rows=" << rows;
      }
    }
  }
}

TEST(BlockedSession, ForcedScalarKernelIsBitIdenticalToDispatched) {
  // DP_FORCE_SCALAR_KERNEL pins dispatch at Model construction, so a model
  // built under the env var runs the portable kernel; its outputs must match
  // a dispatched model (AVX2 where available) exactly.
  const nn::Mlp net = random_net();
  const num::Format fmt{num::PositFormat{8, 1}};
  const auto dispatched = Model::create(nn::quantize(net, fmt));

  setenv("DP_FORCE_SCALAR_KERNEL", "1", /*overwrite=*/1);
  const auto forced = Model::create(nn::quantize(net, fmt));
  unsetenv("DP_FORCE_SCALAR_KERNEL");

  EXPECT_STREQ(forced->kernel_name(), "scalar-blocked");

  Session a(dispatched, {2});
  Session b(forced, {2});
  const std::size_t rows = 2 * std::max(a.preferred_batch_multiple(),
                                        b.preferred_batch_multiple()) + 3;
  const std::vector<double> flat = random_batch(rows, net.input_dim(), 13);
  const BatchView view(flat, net.input_dim());
  EXPECT_EQ(a.forward_bits(view).data, b.forward_bits(view).data)
      << "dispatched kernel=" << dispatched->kernel_name();
}

TEST(BlockedSession, PositEightOneDispatchIsPinned) {
  // The random net's posit<8,1> planes span a few binades, so their
  // accumulators fit one limb: with AVX2 the one-limb kernel at tile 16 and
  // pre-shifted planes at 4 B a weight. Planes spanning the format's whole
  // range still pass 62 bits and take the two-limb kernel. Under
  // DP_FORCE_SCALAR_KERNEL both pin the portable kernel at tile 8. Every leg
  // is built here whatever the caller's environment says.
  const nn::QuantizedNetwork qnet = nn::quantize(random_net(), num::Format{num::PositFormat{8, 1}});
  const nn::QuantizedNetwork full = full_range_posit81_net();
  const char* prior = std::getenv("DP_FORCE_SCALAR_KERNEL");
  const std::string saved = prior != nullptr ? prior : "";
  unsetenv("DP_FORCE_SCALAR_KERNEL");
  const auto native = Model::create(qnet);
  const auto native_full = Model::create(full);
  setenv("DP_FORCE_SCALAR_KERNEL", "1", /*overwrite=*/1);
  const auto forced = Model::create(qnet);
  const auto forced_full = Model::create(full);
  if (prior != nullptr) {
    setenv("DP_FORCE_SCALAR_KERNEL", saved.c_str(), /*overwrite=*/1);
  } else {
    unsetenv("DP_FORCE_SCALAR_KERNEL");
  }

  bool avx2 = false;
#if defined(DP_HAVE_AVX2_KERNEL)
  avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
  EXPECT_STREQ(native->kernel_name(), avx2 ? "avx2" : "scalar-blocked");
  EXPECT_EQ(native->preferred_tile(), avx2 ? 16u : 8u);
  EXPECT_EQ(native->packed_bytes_per_weight(), 4.0);
  EXPECT_STREQ(native_full->kernel_name(), avx2 ? "avx2-2limb" : "scalar-blocked");
  EXPECT_EQ(native_full->preferred_tile(), avx2 ? 16u : 8u);
  EXPECT_EQ(native_full->packed_bytes_per_weight(), 8.0);
  for (const auto* model : {&forced, &forced_full}) {
    EXPECT_STREQ((*model)->kernel_name(), "scalar-blocked");
    EXPECT_EQ((*model)->preferred_tile(), 8u);
  }

  // Every leg against the step oracle.
  const std::vector<double> flat = random_batch(35, qnet.input_dim(), 23);
  const BatchView all(flat, qnet.input_dim());
  const std::vector<std::uint32_t> want = testing::step_forward_rows(qnet, all);
  const std::vector<std::uint32_t> want_full = testing::step_forward_rows(full, all);
  EXPECT_EQ(Session(native, {2}).forward_bits(all).data, want);
  EXPECT_EQ(Session(forced, {2}).forward_bits(all).data, want);
  EXPECT_EQ(Session(native_full, {2}).forward_bits(all).data, want_full);
  EXPECT_EQ(Session(forced_full, {2}).forward_bits(all).data, want_full);
}

TEST(BlockedSession, StepPathModelHasNoBlockedKernels) {
  // posit<16,2>'s quire passes the kernels' 250-bit ceiling at every fan-in,
  // so every layer runs the step fallback on the RTL-faithful unit.
  const nn::Mlp net = random_net();
  const auto model = Model::create(nn::quantize(net, num::Format{num::PositFormat{16, 2}}));
  EXPECT_EQ(model->preferred_tile(), 1u);
  EXPECT_STREQ(model->kernel_name(), "step");
  Session session(model, {2});
  EXPECT_EQ(session.preferred_batch_multiple(), 1u);
  const std::vector<double> flat = random_batch(9, net.input_dim(), 3);
  EXPECT_EQ(session.predict(BatchView(flat, net.input_dim())).size(), 9u);
}

TEST(BlockedSession, StepFallbackLayersMatchStepOracleAcrossPools) {
  // A model with no kernel at all, and a mixed model whose middle layer has
  // none between two kernel layers: single rows and batches, every pool.
  const nn::Mlp net = random_net();
  const num::Format p16{num::PositFormat{16, 2}};
  const num::Format p8{num::PositFormat{8, 0}};
  const std::vector<std::vector<num::Format>> assignments{{p16, p16, p16}, {p8, p16, p8}};
  const std::vector<const char*> kernels{"step", "mixed"};
  const std::vector<double> flat = random_batch(21, net.input_dim(), 41);
  const BatchView all(flat, net.input_dim());
  for (std::size_t a = 0; a < assignments.size(); ++a) {
    const nn::QuantizedNetwork qnet = nn::quantize(net, assignments[a]);
    const auto model = Model::create(qnet);
    EXPECT_STREQ(model->kernel_name(), kernels[a]);
    const std::vector<std::uint32_t> want = testing::step_forward_rows(qnet, all);
    for (const std::size_t pool : {1u, 2u, 4u}) {
      Session session(model, {pool});
      EXPECT_EQ(session.forward_bits(all).data, want) << kernels[a] << " pool=" << pool;
      for (std::size_t r = 0; r < all.rows(); ++r) {
        const auto got = session.forward_bits(all.row(r));
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                  testing::step_forward(qnet, all.row(r)))
            << kernels[a] << " pool=" << pool << " row=" << r;
      }
    }
  }
}

TEST(BlockedSession, ReluLayerSeesEveryPatternAndMatchesStepOracle) {
  // One ReLU layer with fan-in 1, a zero bias and one row per weight
  // pattern: the input 1.0 makes each neuron's exact sum its own weight, -1.0
  // its negation, so the ReLU sees every pattern of the format (NaR and both
  // zeros included). posit<16,2> has no kernel and runs the step fallback;
  // the others run their kernels.
  for (const num::Format& fmt :
       {num::Format{num::PositFormat{16, 2}}, num::Format{num::PositFormat{8, 0}},
        num::Format{num::FloatFormat{4, 3}}, num::Format{num::FixedFormat{8, 6}}}) {
    SCOPED_TRACE(fmt.name());
    const std::size_t count = std::size_t{1} << fmt.total_bits();
    nn::QuantizedNetwork qnet{fmt, {}};
    nn::QuantizedLayer layer;
    layer.fan_in = 1;
    layer.fan_out = count;
    layer.activation = nn::Activation::kReLU;
    for (std::size_t b = 0; b < count; ++b) layer.weights.push_back(static_cast<std::uint32_t>(b));
    layer.bias.assign(count, fmt.from_double(0.0));
    qnet.layers.push_back(std::move(layer));
    const auto model = Model::create(qnet);
    if (fmt.total_bits() == 16) {
      EXPECT_STREQ(model->kernel_name(), "step");
    }

    const std::vector<double> xs{1.0, -1.0};
    const BatchView rows(xs, 1);
    const std::vector<std::uint32_t> want = testing::step_forward_rows(qnet, rows);
    Session session(model, {2});
    EXPECT_EQ(session.forward_bits(rows).data, want);
    const num::ReluRule relu = num::relu_rule(fmt);
    for (std::size_t b = 0; b < count; ++b) {
      // Row 0 hands each weight to the ReLU as it is — bar float Inf/NaN
      // patterns, which the EMAC reads as finite and saturates.
      if (fmt.kind() == num::Kind::kFloat && !std::isfinite(fmt.to_double(b))) continue;
      ASSERT_EQ(want[b], relu(static_cast<std::uint32_t>(b))) << "pattern " << b;
    }
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      const auto got = session.forward_bits(rows.row(r));
      ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                std::vector<std::uint32_t>(want.begin() + static_cast<std::ptrdiff_t>(r * count),
                                           want.begin() +
                                               static_cast<std::ptrdiff_t>((r + 1) * count)))
          << "row " << r;
    }
  }
}

TEST(BlockedSession, PackedPlanesTakeFourBytesPerWeightOnOneLimb) {
  // One-limb kernels keep one pre-shifted int32 operand a weight; the
  // two-limb kernel keeps significand and shift; a model with no kernel
  // packs nothing. posit<8,1> takes one limb for the random net's planes and
  // two for planes spanning the format's whole range.
  const nn::Mlp net = random_net();
  EXPECT_EQ(Model(nn::quantize(net, num::Format{num::PositFormat{8, 0}})).packed_bytes_per_weight(),
            4.0);
  EXPECT_EQ(Model(nn::quantize(net, num::Format{num::FixedFormat{8, 6}})).packed_bytes_per_weight(),
            4.0);
  EXPECT_EQ(Model(nn::quantize(net, num::Format{num::PositFormat{8, 1}})).packed_bytes_per_weight(),
            4.0);
  EXPECT_EQ(Model(full_range_posit81_net()).packed_bytes_per_weight(), 8.0);
  EXPECT_EQ(
      Model(nn::quantize(net, num::Format{num::PositFormat{16, 2}})).packed_bytes_per_weight(),
      0.0);
}

TEST(BlockedSession, SingleRowsMatchStepOracleForEveryRepFormat) {
  // The single-row entry points run the kernels as a one-row tile; under
  // DP_FORCE_SCALAR_KERNEL this covers the scalar kernel at one row too.
  const nn::Mlp net = random_net();
  const std::vector<double> flat = random_batch(12, net.input_dim(), 17);
  const BatchView all(flat, net.input_dim());
  for (const num::Format& fmt : rep_formats()) {
    const nn::QuantizedNetwork qnet = nn::quantize(net, fmt);
    Session session(Model::create(qnet), {2});
    for (std::size_t r = 0; r < all.rows(); ++r) {
      const std::vector<std::uint32_t> want = testing::step_forward(qnet, all.row(r));
      const auto bits = session.forward_bits(all.row(r));
      ASSERT_EQ(std::vector<std::uint32_t>(bits.begin(), bits.end()), want)
          << fmt.name() << " row=" << r;
      const auto scores = session.forward(all.row(r));
      for (std::size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(scores[j], fmt.to_double(want[j])) << fmt.name() << " row=" << r;
      }
      EXPECT_EQ(session.predict(all.row(r)), testing::step_predict(qnet, all.row(r)))
          << fmt.name() << " row=" << r;
    }
  }
}

TEST(BlockedSession, BatcherTileAlignedFlushesHonorMaxWaitForLoneRequests) {
  const nn::Mlp net = random_net();
  const auto model = Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}}));
  const std::size_t tile = model->preferred_tile();
  ASSERT_GE(tile, 2u);

  serve::BatcherOptions opts;
  opts.max_batch = 4 * tile;
  opts.max_wait = std::chrono::microseconds(2000);
  serve::DynamicBatcher batcher(model, opts);
  EXPECT_EQ(batcher.tile(), tile);

  // A lone request (far fewer than one tile pending) must still complete:
  // the idle lane carves it untrimmed, since tile alignment only trims
  // size-triggered carves.
  const std::vector<double> x(net.input_dim(), 0.25);
  const auto t0 = std::chrono::steady_clock::now();
  std::future<serve::Reply> lone = batcher.submit(x);
  ASSERT_EQ(lone.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  const serve::Reply reply = lone.get();
  EXPECT_EQ(reply.status, serve::Status::kOk);
  // Generous ceiling (scheduling noise aside, this is ~one service time):
  // the point is "milliseconds, not the 10 s timeout".
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));

  // A burst larger than several tiles: every request completes with bits
  // identical to a direct Session on the same rows.
  const std::size_t burst = 2 * tile + 3;
  const std::vector<double> flat = random_batch(burst, net.input_dim(), 29);
  const BatchView view(flat, net.input_dim());
  std::vector<std::future<serve::Reply>> futs;
  for (std::size_t i = 0; i < burst; ++i) futs.push_back(batcher.submit(view.row(i)));

  Session direct(model, {1});
  const BatchResult<std::uint32_t> want = direct.forward_bits(view);
  for (std::size_t i = 0; i < burst; ++i) {
    const serve::Reply r = futs[i].get();
    ASSERT_EQ(r.status, serve::Status::kOk) << "request " << i;
    EXPECT_EQ(r.bits, std::vector<std::uint32_t>(want.row(i).begin(), want.row(i).end()))
        << "request " << i;
  }
  batcher.shutdown();
  const serve::BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.completed, burst + 1);
}

TEST(BlockedSession, ExplicitTileAlignOverrideWins) {
  const nn::Mlp net = random_net();
  const auto model = Model::create(nn::quantize(net, num::Format{num::PositFormat{8, 0}}));
  serve::BatcherOptions opts;
  opts.tile_align = 3;
  serve::DynamicBatcher batcher(model, opts);
  EXPECT_EQ(batcher.tile(), 3u);
}

}  // namespace
}  // namespace dp::runtime
