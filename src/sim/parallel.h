// Run-level parallelism: whole independent simulations on worker threads.
//
// Every fig bench's --threads=N runs its sweep points (one Simulator each)
// through a RunSet. Placement is index-deterministic, so emitters that
// buffer per run and print in index order are byte-identical for any
// thread count, with --threads=1 as the reference. tools/ci_checks.sh
// gates on exactly that. core/run_shard.h adds per-run observability
// capture on top (ShardedRunSet).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_action.h"

namespace stellar {

/// Deterministic executor for independent run-jobs. Job i is
/// assigned to worker (i % threads) and every worker executes its jobs in
/// ascending index order, so each job sees an identical schedule for any
/// thread count. Jobs must be mutually independent and write results into
/// index-addressed slots; callers emit output after execute() returns, in
/// index order, making it byte-identical by construction.
class RunSet {
 public:
  using Job = InlineFunction<void()>;

  /// Returns the job's index.
  std::size_t add(Job job);
  std::size_t size() const { return jobs_.size(); }

  /// Runs all jobs and returns when the last one finishes. threads <= 1
  /// executes inline on the caller. A RunSet is single-use.
  void execute(std::uint32_t threads);

  /// Worker slot executing the innermost current job on this thread
  /// (0..threads-1 during execute(), 0 for inline execution), or -1
  /// outside any job. Lets shared sinks (bench EngineMeter) attribute
  /// work to shards without threading a handle through every call site.
  static int current_worker();

 private:
  std::vector<Job> jobs_;
  bool executed_ = false;
};

}  // namespace stellar
