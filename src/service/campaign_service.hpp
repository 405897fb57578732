#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "experiments/campaign.hpp"
#include "service/cell_cache.hpp"
#include "service/sharded_scheduler.hpp"

namespace rt::service {

/// How a CampaignService executes and caches grids.
struct ServiceConfig {
  /// Content-hash result cache; nullopt = always re-run.
  std::optional<CacheConfig> cache{};
  /// Forked worker processes for cache-miss execution. 0 = in-process
  /// threads (run_in_process_checked with `threads`); >= 1 = the
  /// multi-process ShardedCampaignScheduler with this many workers.
  unsigned workers{0};
  /// Thread count of the in-process path when workers == 0
  /// (0 = one per hardware core).
  unsigned threads{0};
  /// Consecutive failed cache stores before the service latches the cache
  /// off for its remaining lifetime (a full disk would otherwise add a
  /// failing write + fsync to every spec of every request, forever).
  /// Lookups and stores both stop; execution continues undegraded.
  int cache_fail_threshold{3};
};

/// What the most recent run_grid / run_grid_checked did.
struct RequestStats {
  std::size_t specs{0};        ///< specs in the request
  std::size_t cache_hits{0};   ///< specs served from the cache
  std::size_t errors{0};       ///< specs that became typed error records
  double wall_ms{0.0};         ///< end-to-end request wall time
};

/// One grid request with per-request execution controls.
struct GridRequest {
  std::vector<experiments::CampaignSpec> specs;
  /// Wall-clock budget for the whole request; 0 = unbounded. On expiry,
  /// execution stops at the next cell boundary and every unfinished
  /// campaign becomes a kDeadlineExceeded error record.
  double deadline_ms{0.0};
};

/// The answer: complete campaigns in `results` (spec order; an errored
/// spec's `runs` is empty), one typed error per incomplete campaign in
/// `errors` (spec_index ascending, indexing into the request's specs).
struct GridResponse {
  std::vector<experiments::CampaignResult> results;
  std::vector<experiments::CampaignError> errors;
  /// First underlying exception, when one caused the errors (run_grid
  /// rethrows it; checked callers may log `errors` and move on).
  std::exception_ptr first_failure{};
};

/// The campaign-as-a-service facade: one long-lived object that answers
/// grid requests, consulting the content-hash cache first and executing
/// only the misses (in-process or via forked shards), then storing fresh
/// results back. Because cache entries round-trip bit-exactly and both
/// executors honour the counter-based seeding contract, any mix of cached
/// and freshly-computed cells is indistinguishable from a cold in-process
/// run of the whole grid.
///
/// The service degrades, never dies: cells lost to worker death or fork
/// failure run in-process (inside the sharder), cache IO errors are
/// absorbed and — after a streak of failed stores — latch the cache off,
/// and a request deadline turns unfinished campaigns into typed error
/// records (run_grid_checked).
class CampaignService {
 public:
  CampaignService(const experiments::CampaignRunner& runner,
                  ServiceConfig config);

  /// Runs (or recalls) every spec; results in spec order. Throws on an
  /// execution failure (historical contract — use run_grid_checked for
  /// typed degradation instead).
  [[nodiscard]] std::vector<experiments::CampaignResult> run_grid(
      const std::vector<experiments::CampaignSpec>& specs);

  /// Like run_grid, but honours the request deadline and degrades instead
  /// of throwing: campaigns that cannot be completed come back as typed
  /// error records next to the completed results.
  [[nodiscard]] GridResponse run_grid_checked(const GridRequest& request);

  /// Stats of the most recent run_grid.
  [[nodiscard]] const RequestStats& last_request() const {
    return request_stats_;
  }

  /// Cumulative cache counters (all zero when caching is off).
  [[nodiscard]] CacheStats cache_stats() const;

  /// Sharder stats of the most recent run_grid (empty when workers == 0
  /// or every spec was a cache hit).
  [[nodiscard]] const ShardStats& shard_stats() const {
    return shard_stats_;
  }

  /// The cache, or nullptr when caching is off.
  [[nodiscard]] CampaignCellCache* cache() { return cache_.get(); }

  /// True once `cache_fail_threshold` consecutive stores failed and the
  /// service latched the cache off (see ServiceConfig).
  [[nodiscard]] bool cache_degraded() const { return cache_degraded_; }

  /// This service as a pluggable experiments::GridExecutor, for dropping
  /// cached / sharded execution into grid harnesses (defense grid,
  /// scenario search) that know nothing about rt::service.
  [[nodiscard]] experiments::GridExecutor executor();

  [[nodiscard]] const ServiceConfig& config() const { return config_; }

 private:
  const experiments::CampaignRunner& runner_;
  ServiceConfig config_;
  std::unique_ptr<CampaignCellCache> cache_;
  RequestStats request_stats_;
  ShardStats shard_stats_;
  int cache_fail_streak_{0};
  bool cache_degraded_{false};
};

}  // namespace rt::service
