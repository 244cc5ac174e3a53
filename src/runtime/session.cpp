#include "runtime/session.hpp"

#include <algorithm>
#include <stdexcept>

namespace dp::runtime {

namespace {

/// Validate before any member construction: a null model must not cost a
/// worker-pool spawn/teardown just to report the error.
std::shared_ptr<const Model> require_model(std::shared_ptr<const Model> model) {
  if (!model) throw std::invalid_argument("runtime::Session: null model");
  return model;
}

}  // namespace

Session::Session(std::shared_ptr<const Model> model, SessionOptions opts)
    : model_(require_model(std::move(model))),
      pool_(opts.pool != nullptr ? std::move(opts.pool)
                                 : std::make_shared<WorkerPool>(opts.num_threads)) {
  scratch_.reserve(pool_->slots());
  for (std::size_t s = 0; s < pool_->slots(); ++s) scratch_.push_back(model_->make_tile_scratch());
  bits_.resize(model_->output_dim());
  scores_.reserve(model_->output_dim());
}

void Session::forward_row(std::span<const double> x) {
  if (x.size() != model_->input_dim()) {
    throw std::invalid_argument("runtime::Session: input size != model input_dim");
  }
  model_->forward_tile_into(BatchView(x, x.size()), 0, 1, scratch_[0], bits_.data());
}

std::span<const std::uint32_t> Session::forward_bits(std::span<const double> x) {
  forward_row(x);
  return bits_;
}

std::span<const double> Session::forward(std::span<const double> x) {
  forward_row(x);
  scores_.clear();
  for (const std::uint32_t b : bits_) scores_.push_back(model_->output_format().to_double(b));
  return scores_;
}

int Session::predict(std::span<const double> x) {
  forward_row(x);
  return model_->argmax_bits(bits_);
}

void Session::check_view(const BatchView& xs) const {
  if (xs.rows() != 0 && xs.row_width() != model_->input_dim()) {
    throw std::invalid_argument("runtime::Session: batch row width != model input_dim");
  }
}

BatchResult<std::uint32_t> Session::forward_bits(BatchView xs) {
  const std::size_t width = model_->output_dim();
  BatchResult<std::uint32_t> out{std::vector<std::uint32_t>(xs.rows() * width), width};
  forward_bits_into(xs, out.data);
  return out;
}

void Session::forward_bits_into(BatchView xs, std::span<std::uint32_t> out) {
  check_view(xs);
  const std::size_t width = model_->output_dim();
  if (out.size() != xs.rows() * width) {
    throw std::invalid_argument(
        "runtime::Session::forward_bits_into: out.size() != rows * output_dim");
  }
  // The batch is partitioned into preferred_tile()-row tiles (the last one
  // ragged), each tile one pool row with chunk 1 so a handful of heavy tiles
  // still spreads across slots. Every row's readout is independent of the
  // tile it rides in, so the result is identical for every pool size and
  // batch shape.
  const std::size_t tile = model_->preferred_tile();
  const std::size_t tiles = (xs.rows() + tile - 1) / tile;
  pool_->run(
      tiles,
      [&](std::size_t t, std::size_t slot) {
        const std::size_t row0 = t * tile;
        const std::size_t nrows = std::min(tile, xs.rows() - row0);
        model_->forward_tile_into(xs, row0, nrows, scratch_[slot], out.data() + row0 * width);
      },
      /*chunk=*/1);
}

BatchResult<double> Session::forward(BatchView xs) {
  const BatchResult<std::uint32_t> bits = forward_bits(xs);
  const num::Format& fmt = model_->output_format();
  BatchResult<double> out{std::vector<double>(bits.data.size()), bits.row_width};
  for (std::size_t i = 0; i < bits.data.size(); ++i) out.data[i] = fmt.to_double(bits.data[i]);
  return out;
}

std::vector<int> Session::predict(BatchView xs) {
  const BatchResult<std::uint32_t> bits = forward_bits(xs);
  std::vector<int> out(xs.rows());
  for (std::size_t row = 0; row < xs.rows(); ++row) out[row] = model_->argmax_bits(bits.row(row));
  return out;
}

double Session::accuracy(BatchView xs, std::span<const int> labels) {
  if (labels.size() != xs.rows()) {
    throw std::invalid_argument("runtime::Session::accuracy: size mismatch");
  }
  if (xs.rows() == 0) return 0.0;
  const std::vector<int> preds = predict(xs);
  std::size_t hits = 0;
  for (std::size_t row = 0; row < preds.size(); ++row) {
    if (preds[row] == labels[row]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(xs.rows());
}

}  // namespace dp::runtime
