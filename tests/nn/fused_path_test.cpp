// The fused inference path (each layer's MatmulKernel over packed weight
// planes, single rows run as a one-row tile) must be bit-identical to the
// per-MAC step() recurrence (the step oracle, tests/step_oracle.hpp) for
// every format in the paper's sweep grid and at every pool size — the fused
// path is a pure execution-engine optimization, never a numerics change.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/session.hpp"
#include "step_oracle.hpp"

namespace dp::nn {
namespace {

using runtime::BatchView;
using runtime::Model;
using runtime::Session;

Mlp random_net() { return Mlp({6, 16, 8, 3}, /*seed=*/42); }

std::vector<double> random_batch(std::size_t rows, std::size_t dim, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

/// The full paper sweep: every format of every width in [5,8].
std::vector<num::Format> sweep_formats() {
  std::vector<num::Format> out;
  for (int n = 5; n <= 8; ++n) {
    for (const auto& f : num::paper_format_grid(n)) out.push_back(f);
  }
  return out;
}

TEST(FusedPath, BitIdenticalToStepPathAcrossSweepGridAndThreads) {
  const Mlp net = random_net();
  const std::vector<double> flat = random_batch(24, net.input_dim(), 13);
  const BatchView xs(flat, net.input_dim());
  for (const num::Format& fmt : sweep_formats()) {
    const QuantizedNetwork qnet = quantize(net, fmt);
    const std::vector<std::uint32_t> reference = testing::step_forward_rows(qnet, xs);
    const auto model = Model::create(qnet);
    const std::size_t width = net.output_dim();
    for (const std::size_t threads : {1u, 2u, 8u}) {
      Session session(model, {threads});
      EXPECT_EQ(session.forward_bits(xs).data, reference)
          << fmt.name() << " fused batch vs step at " << threads << " threads";
      for (std::size_t r = 0; r < xs.rows(); ++r) {
        const auto bits = session.forward_bits(xs.row(r));
        EXPECT_EQ(std::vector<std::uint32_t>(bits.begin(), bits.end()),
                  std::vector<std::uint32_t>(reference.begin() + r * width,
                                             reference.begin() + (r + 1) * width))
            << fmt.name() << " fused row " << r << " vs step at " << threads << " threads";
      }
    }
  }
}

}  // namespace
}  // namespace dp::nn
