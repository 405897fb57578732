#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "experiments/campaign.hpp"

namespace rt::service {

/// Simulation-semantics version baked into every cache key and cache-file
/// header. Bump whenever a change anywhere in the stack alters campaign
/// results for an unchanged spec (scenario generators, sensor/noise models,
/// planner, attacker, per-run seed derivation): entries written by another
/// code version are ignored — counted as `stale`, never served.
inline constexpr std::uint64_t kCampaignCodeVersion = 1;

/// Content hash of one campaign cell — the generalization of the PR 3
/// oracle-cache fingerprint to whole campaigns. Folds the code version plus
/// every result-determining field of the spec: scenario key, attack vector,
/// mode, runs, seed, explicit scenario params (so every sweep value gets
/// its own key) and the monitor stack; `name` is folded too (it is derived
/// from the axes, and keeping it in means a cached result's spec is exactly
/// the requested spec). Equal fingerprints at equal code versions imply
/// bit-identical CampaignResults.
[[nodiscard]] std::uint64_t campaign_cell_fingerprint(
    const experiments::CampaignSpec& spec,
    std::uint64_t code_version = kCampaignCodeVersion);

/// Hit/miss/hygiene counters of one cache instance.
struct CacheStats {
  std::uint64_t hits{0};
  std::uint64_t misses{0};     ///< no entry on disk (or unreadable)
  std::uint64_t stale{0};      ///< entry ignored: other code/header version
  std::uint64_t corrupt{0};    ///< entry ignored: malformed/truncated/mismatched
  std::uint64_t evictions{0};  ///< files removed by the LRU size sweep
  std::uint64_t stores{0};     ///< entries durably written (store() == true)
  /// IO failures (write/fsync/rename on store, read errors on lookup). The
  /// cache absorbs these — a failed store declines, a failed read misses —
  /// and the service layer watches this counter to latch the cache off
  /// after repeated failures (see CampaignService).
  std::uint64_t io_errors{0};

  [[nodiscard]] std::uint64_t lookups() const {
    return hits + misses + stale + corrupt;
  }
};

struct CacheConfig {
  std::string dir;
  /// LRU byte budget: after each store the least recently used entries
  /// (by the cache's in-memory use clock, which stores and hits advance)
  /// are evicted until the indexed bytes are back under this. 0 = unbounded.
  std::size_t max_bytes{256ull * 1024 * 1024};
  std::uint64_t code_version{kCampaignCodeVersion};
};

/// Content-addressed on-disk cache of campaign results:
/// `<dir>/cell_<fingerprint hex16>.rtcr`, each file one header line
/// (`RTCACHE 2 <code_version> <fingerprint> <content fnv64>`) plus the
/// serialized CampaignResult (experiments::serialize_campaign_result).
/// Damaged, stale or mismatched files are counted misses — never wrong
/// results: the header's FNV-1a content checksum catches byte corruption
/// that would still parse (a flipped bit inside a hex-encoded double), and
/// the serde layer underneath throws on any truncation, so a partial write
/// can never load as zeros. Stores are crash-durable: write-temp, fsync,
/// rename, then a best-effort fsync of the directory, so a power cut leaves
/// either the old entry or the complete new one. All file IO goes through
/// the rt::service fault-injection shims; IO failures are absorbed (a store
/// declines, a lookup misses) and counted in CacheStats::io_errors, never
/// thrown. Instance methods are mutex-serialized, safe from concurrent
/// threads.
///
/// LRU order lives in memory, rebuilt once at open from the entries' mtimes.
/// One process owns a cache directory at a time: entries another process
/// writes meanwhile are still served by path and count against the
/// budget at the next open. Today's only writer is the CampaignService in
/// `campaign_server` or in a bench driver given `--cache-dir`; forked shard
/// workers never touch the cache. Sharing a directory anyway can misjudge
/// the budget but never serve a wrong result (per-file fingerprint and
/// checksum checks).
class CampaignCellCache {
 public:
  explicit CampaignCellCache(CacheConfig config);

  /// The cached result for this exact spec (at this cache's code version),
  /// or nullopt. A hit takes the next use for LRU and refreshes the file's
  /// mtime (best effort) for the next open; a lookup that finds no file
  /// drops the entry from the index.
  [[nodiscard]] std::optional<experiments::CampaignResult> lookup(
      const experiments::CampaignSpec& spec);

  /// Serializes and stores the result under the spec's fingerprint, then
  /// runs the LRU sweep if a byte budget is configured. Returns false (and
  /// counts an io_error) when the entry could not be durably written; the
  /// cache is unchanged in that case and the caller may decide to stop
  /// trying (see CampaignService's cache-off latch).
  bool store(const experiments::CampaignSpec& spec,
             const experiments::CampaignResult& result);

  /// Evicts least recently used entries until the indexed bytes are within
  /// `limit_bytes`. Returns the number of files removed; an indexed entry
  /// whose file is already gone is dropped without counting.
  std::size_t evict_to_limit(std::size_t limit_bytes);

  /// On-disk path an entry for this spec would use.
  [[nodiscard]] std::string entry_path(
      const experiments::CampaignSpec& spec) const;

  [[nodiscard]] CacheStats stats() const;

 private:
  struct Slot {
    std::uint64_t bytes;
    std::uint64_t last_use;
  };

  [[nodiscard]] std::string path_for(std::uint64_t fp) const;
  /// Sets the entry's size (replacing its old one) and gives it the next
  /// use; caller holds mutex_.
  void use_locked(std::uint64_t fp, std::uint64_t bytes);
  /// Forgets the entry; caller holds mutex_.
  void drop_locked(std::uint64_t fp);
  /// Sweep body; caller holds mutex_. Returns files removed.
  std::size_t evict_locked(std::size_t limit_bytes);

  CacheConfig config_;
  mutable std::mutex mutex_;
  CacheStats stats_;
  /// Fingerprint -> {size, last use}: the LRU order, keyed by the u64 (not
  /// the path) to stay small.
  std::unordered_map<std::uint64_t, Slot> index_;
  std::uint64_t total_bytes_{0};
  /// Monotonic use clock: exact even where fs::last_write_time has 1 s
  /// granularity, so a hit never ties with a cold store.
  std::uint64_t use_clock_{0};
};

}  // namespace rt::service
