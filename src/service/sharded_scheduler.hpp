#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <optional>
#include <vector>

#include "experiments/campaign.hpp"

namespace rt::service {

/// Knobs of the multi-process sharder.
struct ShardOptions {
  /// Forked worker processes, and the thread count of the in-process path
  /// that recovers cells no worker delivered. Clamped to [1, cell count];
  /// 0 = one per hardware core (runtime::ThreadPool::default_threads()).
  unsigned workers{2};
  /// Per-worker silence budget: a worker whose pipe delivers no bytes for
  /// longer is declared dead (killed + reaped) and its undelivered cells
  /// are recovered in-process. Each worker has its own timer, and EINTR
  /// storms cannot extend it.
  int read_timeout_ms{600000};
  /// Test hooks: the `crash_shard`-th forked worker (fork order, from 0)
  /// calls _exit(42) instead of streaming its (`crash_after_cells` + 1)-th
  /// claimed cell, so the harness can prove death -> recovery -> identical
  /// results. -1 = disabled.
  int crash_shard{-1};
  int crash_after_cells{0};
};

/// Per-request execution controls (deadline today; cancellation later).
struct RunControl {
  /// Hard deadline: execution stops at the next cell/frame boundary once
  /// passed. Campaigns with missing cells become typed error records.
  std::optional<std::chrono::steady_clock::time_point> deadline{};
};

/// What a sharded run observed about its workers.
struct ShardStats {
  unsigned workers{0};          ///< workers the wave forks (clamped count)
  int worker_deaths{0};         ///< abnormal exits / corrupt streams / timeouts
  int fork_failures{0};         ///< fork()/pipe()/mmap() failures (EAGAIN etc.)
  int cells_recovered_in_process{0};  ///< cells the parent ran itself
  bool deadline_expired{false};  ///< the RunControl deadline fired mid-grid
};

/// A checked grid run: complete campaigns in `results` (spec order; an
/// errored spec's `runs` is left empty, never partially filled), one typed
/// error per incomplete campaign in `errors` (spec_index ascending).
struct GridOutcome {
  std::vector<experiments::CampaignResult> results;
  std::vector<experiments::CampaignError> errors;
  /// First exception an in-process cell raised (run_all rethrows it to
  /// keep its always-complete contract; run_all_checked types it instead).
  std::exception_ptr first_failure{};
};

/// The in-process checked executor: runs every cell of the grid over a
/// thread pool (`threads == 0` = one per hardware core), skips cells once
/// the deadline has passed, and turns every incomplete campaign into a
/// typed error record instead of throwing. It is the same path that
/// recovers the cells a sharded run's workers did not deliver.
[[nodiscard]] GridOutcome run_in_process_checked(
    const experiments::CampaignRunner& runner,
    const std::vector<experiments::CampaignSpec>& specs, unsigned threads,
    const RunControl& ctl);

/// Multi-process campaign grid execution with the thread pool's dispatch
/// model: N forked workers claim cells of the flattened grid
/// (experiments::grid_cells) one at a time from a claim counter in shared
/// memory, stream one checksummed, serialized RunResult frame per cell
/// back over their own pipe, and the parent, polling every pipe at once,
/// merges frames into pre-assigned slots.
///
/// Because every run's randomness is a pure function of (spec.seed,
/// run_index) and doubles cross the pipe as raw bit patterns, a sharded
/// run is bit-identical to the in-process CampaignScheduler at ANY worker
/// count and under any claim interleaving. A dead, hung or corrupt worker
/// (crash, kill, checksum or framing error, silence past the timeout) is
/// killed and loses only the cells it had claimed but not delivered; the
/// surviving workers keep claiming the rest. After the single wave, every
/// missing cell — all of them on total fork failure — runs in-process
/// (run_in_process_checked's path), so results are complete and identical
/// even under worker loss. All syscalls go through the rt::service
/// fault-injection shims (service/fault_injection.hpp); the chaos suite
/// drives every failure path above deterministically.
class ShardedCampaignScheduler {
 public:
  explicit ShardedCampaignScheduler(const experiments::CampaignRunner& runner,
                                    ShardOptions opts = {});

  /// Runs every spec to completion and returns results in spec order.
  /// (Rethrows a runner exception, like the in-process scheduler.)
  [[nodiscard]] std::vector<experiments::CampaignResult> run_all(
      const std::vector<experiments::CampaignSpec>& specs) const;

  /// Like run_all, but honours `ctl` and converts failures into typed
  /// per-campaign error records instead of throwing or hanging.
  [[nodiscard]] GridOutcome run_all_checked(
      const std::vector<experiments::CampaignSpec>& specs,
      const RunControl& ctl) const;

  /// Stats of the most recent run.
  [[nodiscard]] const ShardStats& stats() const { return stats_; }

 private:
  const experiments::CampaignRunner& runner_;
  ShardOptions opts_;
  mutable ShardStats stats_;
};

}  // namespace rt::service
