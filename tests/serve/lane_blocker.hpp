#pragma once
// LaneBlocker — holds one dispatcher of a DynamicBatcher busy, so a test can
// pin what the batcher does behind a busy dispatcher by counts and ordering
// instead of by timing.
//
// The batcher is work-conserving: a dispatcher that finds rows queued while
// no sibling is busy carves them at once. The blocker submits one row of its
// own whose completion callback parks until release(). While it parks, the
// dispatcher that carved it counts as busy, so
//
//   * with dispatchers = 1 nothing else is carved: every request stays
//     queued (admission, queue-full and in-flight caps act on a known depth);
//   * with dispatchers >= 2 the free siblings apply the max_wait / size rule,
//     so tests of the max_wait hold and of shed-at-front keep their meaning.
//
// The blocker's own row counts in the batcher's stats like any request: one
// more accepted and completed row, one more batch. The destructor releases,
// so a failed assertion cannot leave a dispatcher parked and hang
// shutdown(): declare the blocker after the batcher or server it holds.

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/registry.hpp"

namespace dp::serve::testing {

class LaneBlocker {
 public:
  /// Submit the blocker row to `lane` and return once a dispatcher is parked
  /// in its callback. Throws std::runtime_error if the lane refuses the row
  /// or no dispatcher picks it up within 10 s.
  explicit LaneBlocker(DynamicBatcher& lane) : state_(std::make_shared<State>()) {
    std::future<Status> held = state_->held.get_future();
    const std::vector<double> row(lane.model().input_dim(), 0.0);
    lane.submit(row, [state = state_](Status s, std::span<const std::uint32_t>) {
      state->held.set_value(s);
      // A rejection completes inline on the submitting thread: never park it.
      if (s == Status::kOk) state->released.wait();
    });
    if (held.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      release();
      throw std::runtime_error("LaneBlocker: no dispatcher picked up the blocker row");
    }
    if (held.get() != Status::kOk) {
      release();
      throw std::runtime_error("LaneBlocker: the lane refused the blocker row");
    }
  }

  /// Hold lane `lane` of the registry entry `name` (empty = the default
  /// entry; a Server's lanes through Server::registry()).
  LaneBlocker(ModelRegistry& registry, std::size_t lane, const std::string& name = "")
      : LaneBlocker(registry.acquire(name)->lane(lane)) {}

  ~LaneBlocker() { release(); }

  LaneBlocker(const LaneBlocker&) = delete;
  LaneBlocker& operator=(const LaneBlocker&) = delete;

  /// Let the parked dispatcher go. Idempotent.
  void release() {
    if (!state_->release_called) {
      state_->release_called = true;
      state_->release.set_value();
    }
  }

 private:
  struct State {
    std::promise<Status> held;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    bool release_called = false;  // touched by the test thread only
  };
  std::shared_ptr<State> state_;
};

/// Poll `done` (a count read from stats()) until it holds or `limit` passes;
/// returns its last value. Each poll sleeps 50 us, so a one-core host still
/// runs the threads the count waits on.
inline bool await(const std::function<bool()>& done,
                  std::chrono::milliseconds limit = std::chrono::seconds(10)) {
  const auto give_up = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= give_up) return done();
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

}  // namespace dp::serve::testing
