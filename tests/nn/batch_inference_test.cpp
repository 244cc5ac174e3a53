// Tests for batched multi-threaded inference through runtime::Session:
// predict / forward_bits / forward over a BatchView must be bit-exact
// against the single-row entry points for every format family and for every
// pool size (the identical-results guarantee of the engine).

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "emac/emac.hpp"
#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "runtime/session.hpp"

namespace dp::nn {
namespace {

using runtime::BatchView;
using runtime::Model;
using runtime::Session;

// An untrained (random-init) net is enough here: batch vs scalar equality is
// a property of the execution engine, not of the weights.
Mlp random_net() { return Mlp({6, 16, 8, 3}, /*seed=*/42); }

std::vector<std::vector<double>> random_batch(std::size_t rows, std::size_t dim,
                                              std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<std::vector<double>> xs(rows, std::vector<double>(dim));
  for (auto& row : xs) {
    for (double& v : row) v = u(rng);
  }
  return xs;
}

std::vector<num::Format> formats_under_test() {
  return {num::Format{num::PositFormat{8, 1}}, num::Format{num::PositFormat{7, 0}},
          num::Format{num::FloatFormat{4, 3}}, num::Format{num::FixedFormat{8, 6}}};
}

TEST(BatchInference, PredictBatchMatchesScalarAcrossFormatsAndThreads) {
  const Mlp net = random_net();
  const auto xs = random_batch(67, net.input_dim(), 5);
  const std::vector<double> flat = runtime::pack_rows(xs, net.input_dim());
  for (const num::Format& fmt : formats_under_test()) {
    const auto model = Model::create(quantize(net, fmt));
    Session engine(model);
    std::vector<int> scalar;
    scalar.reserve(xs.size());
    for (const auto& x : xs) scalar.push_back(engine.predict(x));
    for (const std::size_t threads : {1u, 2u, 8u}) {
      Session pooled(model, {threads});
      EXPECT_EQ(pooled.predict(BatchView(flat, net.input_dim())), scalar)
          << fmt.name() << " with " << threads << " threads";
    }
  }
}

TEST(BatchInference, ForwardBitsBatchIsBitExactAcrossThreadCounts) {
  const Mlp net = random_net();
  const auto xs = random_batch(41, net.input_dim(), 9);
  const std::vector<double> flat = runtime::pack_rows(xs, net.input_dim());
  for (const num::Format& fmt : formats_under_test()) {
    const auto model = Model::create(quantize(net, fmt));
    Session engine(model);
    std::vector<std::uint32_t> scalar;
    for (const auto& x : xs) {
      const auto bits = engine.forward_bits(x);
      scalar.insert(scalar.end(), bits.begin(), bits.end());
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      Session pooled(model, {threads});
      EXPECT_EQ(pooled.forward_bits(BatchView(flat, net.input_dim())).data, scalar)
          << fmt.name() << " with " << threads << " threads";
    }
  }
}

TEST(BatchInference, ForwardBatchMatchesScalarScores) {
  const Mlp net = random_net();
  const auto xs = random_batch(23, net.input_dim(), 3);
  const std::vector<double> flat = runtime::pack_rows(xs, net.input_dim());
  const auto model = Model::create(quantize(net, num::Format{num::PositFormat{8, 1}}));
  Session pooled(model, {8});
  Session engine(model);
  const auto batched = pooled.forward(BatchView(flat, net.input_dim()));
  ASSERT_EQ(batched.rows(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto row = batched.row(i);
    const auto scores = engine.forward(xs[i]);
    EXPECT_EQ(std::vector<double>(row.begin(), row.end()),
              std::vector<double>(scores.begin(), scores.end()))
        << "row " << i;
  }
}

TEST(BatchInference, ScratchReuseMatchesFreshScratch) {
  const Mlp net = random_net();
  const auto xs = random_batch(16, net.input_dim(), 7);
  const auto model = Model::create(quantize(net, num::Format{num::FloatFormat{4, 3}}));
  Session reused(model);
  for (const auto& x : xs) {
    Session fresh(model);
    const auto a = reused.forward_bits(x);
    const auto b = fresh.forward_bits(x);
    EXPECT_EQ(std::vector<std::uint32_t>(a.begin(), a.end()),
              std::vector<std::uint32_t>(b.begin(), b.end()));
  }
}

TEST(BatchInference, AccuracyIsThreadCountInvariant) {
  const Mlp net = random_net();
  const auto xs = random_batch(50, net.input_dim(), 11);
  const std::vector<double> flat = runtime::pack_rows(xs, net.input_dim());
  const BatchView view(flat, net.input_dim());
  std::vector<int> ys;
  for (std::size_t i = 0; i < xs.size(); ++i) ys.push_back(static_cast<int>(i % 3));
  const auto model = Model::create(quantize(net, num::Format{num::PositFormat{8, 0}}));
  const double serial = Session(model).accuracy(view, ys);
  EXPECT_EQ(Session(model, {2}).accuracy(view, ys), serial);
  EXPECT_EQ(Session(model, {8}).accuracy(view, ys), serial);
}

TEST(BatchInference, EmptyBatchAndDefaultThreads) {
  const Mlp net = random_net();
  const auto model = Model::create(quantize(net, num::Format{num::PositFormat{8, 1}}));
  const BatchView empty(std::span<const double>{}, net.input_dim());
  EXPECT_TRUE(Session(model, {4}).predict(empty).empty());
  // num_threads = 0 (hardware concurrency) must work on any machine.
  const auto xs = random_batch(5, net.input_dim(), 1);
  const std::vector<double> flat = runtime::pack_rows(xs, net.input_dim());
  EXPECT_EQ(Session(model, {0}).predict(BatchView(flat, net.input_dim())).size(), xs.size());
}

TEST(BatchInference, BadRowSizeThrowsFromWorkerPool) {
  const Mlp net = random_net();
  const auto model = Model::create(quantize(net, num::Format{num::PositFormat{8, 1}}));
  auto xs = random_batch(12, net.input_dim(), 2);
  xs[7].pop_back();
  EXPECT_THROW(runtime::pack_rows(xs, net.input_dim()), std::invalid_argument);
  // A batch whose rows are one value short of the model's input width.
  const std::vector<double> narrow(12 * (net.input_dim() - 1), 0.5);
  EXPECT_THROW(Session(model, {4}).predict(BatchView(narrow, net.input_dim() - 1)),
               std::invalid_argument);
  EXPECT_THROW(Session(model, {1}).predict(BatchView(narrow, net.input_dim() - 1)),
               std::invalid_argument);
}

TEST(BatchInference, EmacCloneIsIndependent) {
  const num::Format fmt{num::PositFormat{8, 1}};
  const auto original = emac::make_emac(fmt, 16);
  original->reset(fmt.from_double(1.0));
  original->step(fmt.from_double(0.5), fmt.from_double(0.5));
  const auto copy = original->clone();  // config only, empty accumulator
  EXPECT_EQ(copy->max_terms(), original->max_terms());
  EXPECT_EQ(copy->accumulator_width(), original->accumulator_width());
  copy->reset(fmt.from_double(2.0));
  copy->step(fmt.from_double(1.0), fmt.from_double(1.0));
  EXPECT_EQ(fmt.to_double(copy->result()), 3.0);
  EXPECT_EQ(fmt.to_double(original->result()), 1.25);  // untouched by the clone
}

}  // namespace
}  // namespace dp::nn
