// Run-level sharding: whole independent simulation runs homed on shards.
//
// The fig benches sweep many mutually independent runs (algorithm x
// path-count points, tenant mixes, failure scenarios); each run builds its
// own Simulator + ClosFabric + engines, so the natural parallel unit is
// the *run*, not the packet. ShardedRunSet combines the two pieces built
// for that:
//
//   * sim/parallel.h RunSet — index-deterministic job placement across
//     worker threads (job i on worker i % threads, each worker in index
//     order);
//   * obs/run_capture.h RunCaptureSet — a private ObsHub per run,
//     installed thread-locally for the job's duration and merged into the
//     base hub in run-index order at the end.
//
// Jobs must write their results into index-addressed slots and the caller
// prints them after execute() returns, in index order — then stdout,
// BENCH JSON and traces are byte-identical for every --threads=N.
// Per-run capture is used even at threads=1, so the single-thread
// reference shares the exact emission semantics it is compared against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

#include "obs/obs.h"
#include "obs/run_capture.h"
#include "sim/parallel.h"

namespace stellar {

class ShardedRunSet {
 public:
  /// Captures into the hub installed at construction (if any); `threads`
  /// as in RunSet::execute.
  explicit ShardedRunSet(std::uint32_t threads)
      : threads_(threads == 0 ? 1 : threads), base_(obs::hub()) {}

  /// Queue the next run-job; its index is the number of jobs queued before
  /// it. The callable runs on a worker thread with the run's capture hub
  /// installed; anything it touches must be private to the run or
  /// internally synchronized (bench EngineMeter is).
  template <typename Fn>
  void add(Fn job) {
    const std::size_t index = runs_.size();
    runs_.add([this, index, job = std::move(job)]() mutable {
      obs::RunCaptureSet::Scope scope(*capture_, index);
      job();
    });
  }

  /// Allocates one capture hub per queued job, runs every job, then merges
  /// per-run observability into the base hub in run-index order.
  /// Single-use.
  void execute() {
    capture_.emplace(base_, runs_.size());
    runs_.execute(threads_);
    capture_->merge_into_base();
  }

  std::uint32_t threads() const { return threads_; }

 private:
  std::uint32_t threads_;
  obs::ObsHub* base_;
  std::optional<obs::RunCaptureSet> capture_;
  RunSet runs_;
};

}  // namespace stellar
