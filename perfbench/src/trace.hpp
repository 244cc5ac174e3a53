#pragma once
// In-memory span log for the traced run (--trace 1).
//
// Every span wraps one of the benchmark's own calls into a layer's public
// functions — nothing inside src/ is instrumented. A span records its name,
// start, end, the span that caused it (parent index in the same log, -1 for
// a root), the request id for serve spans, and the work it covered (MACs,
// elements, bytes — whatever the metric divides by). Each thread owns its
// own SpanLog, so recording never locks; logs are merged after the threads
// join and written out when the benchmark ends.
//
// With tracing off the log pointer is null and a Scope costs one branch.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< interned (see intern()), outlives the log
  std::int64_t start = 0;
  std::int64_t end = -1;  ///< -1 while open
  std::int32_t parent = -1;
  std::uint64_t req = 0;  ///< request id for serve spans, 0 otherwise
  double work = 0;
};

/// Stable storage for span names built at run time ("emac.matmul.posit8_1").
const char* intern(const std::string& name);

class SpanLog {
 public:
  /// Parent value meaning "the innermost span still open on this log".
  static constexpr std::int32_t kStackParent = -2;

  /// Open a span (nested spans opened after it take it as their parent).
  std::int32_t open(const char* name, std::uint64_t req = 0, double work = 0,
                    std::int32_t parent = kStackParent) {
    if (parent == kStackParent) parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), -1, parent, req, work});
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end = now_ns();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }
  /// A span whose interval is already known, with an explicit parent (spans
  /// of one request that outlive any call stack, e.g. scheduled send ->
  /// reply). end = -1 leaves it open for finish().
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent, std::uint64_t req = 0, double work = 0) {
    spans_.push_back(Span{name, start, end, parent, req, work});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void finish(std::int32_t idx, std::int64_t end) {
    spans_[static_cast<std::size_t>(idx)].end = end;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Append another thread's log, re-basing its parent indexes.
  void merge(const SpanLog& other);

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a no-op when `log` is null (untraced run).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t req = 0, double work = 0,
        std::int32_t parent = SpanLog::kStackParent)
      : log_(log), idx_(log != nullptr ? log->open(name, req, work, parent) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

/// Per-name aggregate of a closed-span set: every duration, the summed work,
/// and self time (duration minus the part covered by child spans).
struct Agg {
  std::vector<double> dur_ns;
  double work = 0;
  double total_ns = 0;
  double self_ns = 0;

  double median_ns() const;
  double ns_per_work() const { return work > 0 ? total_ns / work : 0; }
};

std::map<std::string, Agg> aggregate(const SpanLog& log);

/// Write every span as CSV (name,start_ns,end_ns,parent,req,work) plus a
/// per-name self-time summary; returns false if the files cannot be written.
bool write_trace(const SpanLog& log, const std::string& csv_path,
                 const std::string& summary_path);

}  // namespace pb
