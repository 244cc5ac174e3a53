// Tests for quantization and EMAC-backed inference of quantized networks
// through runtime::Session, across the format families.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "nn/quantize.hpp"
#include "nn/trainer.hpp"
#include "runtime/session.hpp"

namespace dp::nn {
namespace {

runtime::Session session_for(QuantizedNetwork q) {
  return runtime::Session(runtime::Model::create(std::move(q)));
}

/// Single-row forward of a braced row, decoded to doubles.
std::vector<double> forward(runtime::Session& s, const std::vector<double>& x) {
  const std::span<const double> out = s.forward(x);
  return std::vector<double>(out.begin(), out.end());
}

Mlp tiny_trained_net() {
  // 2-in, 2-class separable problem.
  std::mt19937 rng(8);
  std::normal_distribution<float> g(0.0f, 0.3f);
  Matrix x(100, 2);
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    const int c = i % 2;
    x(static_cast<std::size_t>(i), 0) = (c == 0 ? 0.25f : 0.75f) + g(rng) * 0.2f;
    x(static_cast<std::size_t>(i), 1) = (c == 0 ? 0.75f : 0.25f) + g(rng) * 0.2f;
    y.push_back(c);
  }
  Mlp net({2, 6, 2}, 10);
  TrainConfig cfg;
  cfg.epochs = 150;
  cfg.batch_size = 10;
  train(net, x, y, cfg);
  return net;
}

TEST(Quantize, PreservesShapeAndActivation) {
  const Mlp net({3, 5, 2}, 1);
  const QuantizedNetwork q = quantize(net, num::Format{num::PositFormat{8, 1}});
  ASSERT_EQ(q.layers.size(), 2u);
  EXPECT_EQ(q.layers[0].fan_in, 3u);
  EXPECT_EQ(q.layers[0].fan_out, 5u);
  EXPECT_EQ(q.layers[0].weights.size(), 15u);
  EXPECT_EQ(q.layers[0].bias.size(), 5u);
  EXPECT_EQ(q.layers[0].activation, Activation::kReLU);
  EXPECT_EQ(q.layers[1].activation, Activation::kIdentity);
  EXPECT_EQ(q.input_dim(), 3u);
  EXPECT_EQ(q.output_dim(), 2u);
}

TEST(Quantize, WideFormatIsNearLossless) {
  const Mlp net = tiny_trained_net();
  const QuantError e16 = quantization_error(net, num::Format{num::PositFormat{16, 1}});
  const QuantError e8 = quantization_error(net, num::Format{num::PositFormat{8, 1}});
  const QuantError e5 = quantization_error(net, num::Format{num::PositFormat{5, 1}});
  EXPECT_LT(e16.max_abs, 1e-3);
  EXPECT_LT(e16.mean_abs, e8.mean_abs);
  EXPECT_LT(e8.mean_abs, e5.mean_abs);
}

TEST(Quantize, PositBeatsFixedOnTrainedWeights) {
  // Fig. 2's premise: trained weights cluster in [-1, 1], where posit's
  // tapered precision is densest; an 8-bit fixed-point format with the same
  // total width represents them with more error.
  const Mlp net = tiny_trained_net();
  const QuantError ep = quantization_error(net, num::Format{num::PositFormat{8, 0}});
  const QuantError ex = quantization_error(net, num::Format{num::FixedFormat{8, 4}});
  EXPECT_LT(ep.mean_abs, ex.mean_abs);
}

TEST(Inference, WidePositMatchesFloat32Predictions) {
  const Mlp net = tiny_trained_net();
  runtime::Session engine = session_for(quantize(net, num::Format{num::PositFormat{16, 2}}));
  std::mt19937 rng(12);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  int agree = 0;
  const int total = 300;
  for (int i = 0; i < total; ++i) {
    const double a = u(rng), b = u(rng);
    const int pf = net.predict({static_cast<float>(a), static_cast<float>(b)});
    const int pq = engine.predict(std::vector<double>{a, b});
    agree += (pf == pq);
  }
  EXPECT_GE(agree, total - 3) << "16-bit posit inference should track float32";
}

TEST(Inference, ScoresTrackFloat32Closely) {
  const Mlp net = tiny_trained_net();
  runtime::Session engine = session_for(quantize(net, num::Format{num::PositFormat{16, 2}}));
  const std::vector<double> x{0.3, 0.6};
  const auto ref = net.forward(std::vector<float>{0.3f, 0.6f});
  const auto got = forward(engine, x);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], static_cast<double>(ref[i]), 0.02) << i;
  }
}

class InferenceFormats : public ::testing::TestWithParam<num::Format> {};

TEST_P(InferenceFormats, RunsAndStaysFinite) {
  const Mlp net = tiny_trained_net();
  runtime::Session engine = session_for(quantize(net, GetParam()));
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int i = 0; i < 50; ++i) {
    const auto out = forward(engine, {u(rng), u(rng)});
    ASSERT_EQ(out.size(), 2u);
    for (const double v : out) EXPECT_TRUE(std::isfinite(v)) << GetParam().name();
  }
}

TEST_P(InferenceFormats, ReluOutputsAreNonNegativeInHiddenLayer) {
  // The readout is affine, so force a ReLU readout to see the hidden-layer
  // activation directly.
  const num::Format fmt = GetParam();
  std::mt19937 rng(4);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  Mlp hidden_only({2, 4, 4}, 5);
  hidden_only.layers()[1].activation = Activation::kReLU;  // force ReLU readout
  runtime::Session relu_engine = session_for(quantize(hidden_only, fmt));
  for (int i = 0; i < 100; ++i) {
    for (const double v : forward(relu_engine, {u(rng), u(rng)})) {
      EXPECT_GE(v, 0.0) << fmt.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, InferenceFormats,
                         ::testing::Values(num::Format{num::PositFormat{8, 0}},
                                           num::Format{num::PositFormat{8, 2}},
                                           num::Format{num::PositFormat{5, 1}},
                                           num::Format{num::FloatFormat{4, 3}},
                                           num::Format{num::FloatFormat{3, 1}},
                                           num::Format{num::FixedFormat{8, 4}},
                                           num::Format{num::FixedFormat{5, 3}}),
                         [](const auto& info) {
                           std::string s = info.param.name();
                           for (char& c : s) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return s;
                         });

TEST(Inference, AccuracyDegradesGracefullyWithWidth) {
  const Mlp net = tiny_trained_net();
  std::mt19937 rng(6);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> xs;
  std::vector<int> ys;
  for (int i = 0; i < 200; ++i) {
    const int c = i % 2;
    xs.push_back((c == 0 ? 0.25 : 0.75) + (u(rng) - 0.5) * 0.1);
    xs.push_back((c == 0 ? 0.75 : 0.25) + (u(rng) - 0.5) * 0.1);
    ys.push_back(c);
  }
  const runtime::BatchView view(xs, 2);
  runtime::Session p16 = session_for(quantize(net, num::Format{num::PositFormat{16, 1}}));
  runtime::Session p8 = session_for(quantize(net, num::Format{num::PositFormat{8, 0}}));
  const double a16 = p16.accuracy(view, ys);
  const double a8 = p8.accuracy(view, ys);
  EXPECT_GT(a16, 0.97);
  EXPECT_GT(a8, 0.9);
  EXPECT_GE(a16 + 1e-12, a8 - 0.05);
}

TEST(Inference, RejectsBadInput) {
  const Mlp net({2, 2}, 1);
  runtime::Session engine = session_for(quantize(net, num::Format{num::PositFormat{8, 1}}));
  EXPECT_THROW(engine.forward(std::vector<double>{1.0}), std::invalid_argument);
  const std::vector<double> one_row{1.0, 2.0};
  EXPECT_THROW(engine.accuracy(runtime::BatchView(one_row, 2), std::vector<int>{0, 1}),
               std::invalid_argument);
}

TEST(Inference, MacsPerInference) {
  const Mlp net({4, 10, 6, 3}, 1);
  const auto model = runtime::Model::create(quantize(net, num::Format{num::PositFormat{8, 1}}));
  EXPECT_EQ(model->macs_per_inference(), 4u * 10 + 10 * 6 + 6 * 3);
}

}  // namespace
}  // namespace dp::nn
