#pragma once
// Experiment drivers for the paper's evaluation (§IV): train the float32
// reference network for each task, quantize it into every format of the
// sweep, run Deep Positron inference and report accuracy/degradation plus
// the hardware figures. Benches (bench/) are thin wrappers over this module.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "nn/quantize.hpp"
#include "nn/mlp.hpp"
#include "nn/trainer.hpp"
#include "numeric/format.hpp"

namespace dp::core {

/// Specification of one benchmark task.
struct TaskSpec {
  std::string name;
  std::vector<std::size_t> topology;  ///< e.g. {4, 16, 8, 3}
  nn::TrainConfig train_cfg;
  std::uint32_t data_seed = 7;
  std::uint32_t net_seed = 21;
};

TaskSpec iris_task();
TaskSpec wbc_task();
TaskSpec mushroom_task();
std::vector<TaskSpec> paper_tasks();  ///< the three Table II tasks

/// A task with generated data, normalized splits and a trained float32 net.
struct TrainedTask {
  TaskSpec spec;
  data::Split split;
  nn::Mlp net;
  double float32_train_accuracy = 0;
  double float32_test_accuracy = 0;
};

/// Generate data, split (paper test sizes), normalize, train.
TrainedTask prepare_task(const TaskSpec& spec);

/// Result of evaluating one low-precision format on a trained task.
struct FormatResult {
  num::Format format;
  double accuracy = 0;                ///< test accuracy in [0,1]
  double degradation_points = 0;      ///< float32 acc - this acc, percentage points
};

/// Deep Positron inference accuracy of `fmt` on the task's test split,
/// evaluated through a runtime::Session over the packed (contiguous) split.
/// `num_threads` sizes the Session's worker pool (0 = all hardware threads);
/// the default keeps the historical serial evaluation. Results are
/// bit-identical across thread counts.
FormatResult evaluate_format(const TrainedTask& task, const num::Format& fmt,
                             std::size_t num_threads = 1);

/// Result of evaluating one per-layer format assignment (mixed precision).
struct AssignmentResult {
  std::vector<num::Format> formats;  ///< one per layer
  double accuracy = 0;               ///< test accuracy in [0,1]
  double degradation_points = 0;     ///< float32 acc - this acc, percentage points
  double bits_per_weight = 0;        ///< parameter-weighted mean storage bits
};

/// evaluate_format generalized to a per-layer assignment: quantize mixed,
/// run the same Session accuracy driver. Requires one format per layer.
/// Deterministic and bit-identical across thread counts, like
/// evaluate_format — dp::tune leans on both properties.
AssignmentResult evaluate_assignment(const TrainedTask& task,
                                     std::span<const num::Format> fmts,
                                     std::size_t num_threads = 1);

/// Evaluate the whole paper grid at total width n.
std::vector<FormatResult> sweep_formats(const TrainedTask& task, int n,
                                        std::size_t num_threads = 1);

/// The format set the paper's Table II / Fig. 9 comparisons use: posit with
/// es swept, float with we swept, fixed-point in the natural pure-fractional
/// configuration q = n-1 (weights and activations live in [-1, 1); the paper
/// reports no q sweep, and only this choice reproduces its fixed-point
/// clipping collapse — see EXPERIMENTS.md).
std::vector<num::Format> paper_comparison_formats(int n);

/// Evaluate the paper_comparison_formats set.
std::vector<FormatResult> sweep_paper_formats(const TrainedTask& task, int n,
                                              std::size_t num_threads = 1);

/// Best (max accuracy) result of a kind within a sweep; nullopt if absent.
std::optional<FormatResult> best_of_kind(const std::vector<FormatResult>& results,
                                         num::Kind kind);

/// Matrix/labels views of a dataset for the float32 net.
nn::Matrix to_matrix(const data::Dataset& d);

}  // namespace dp::core
