#include "service/cell_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <vector>

#include "experiments/campaign_serde.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/fault_injection.hpp"
#include "sim/scenario_registry.hpp"
#include "stats/hash.hpp"

namespace rt::service {

namespace fs = std::filesystem;

namespace {

/// The registry mirror of CacheStats: one counter per field, process-wide
/// across every CampaignCellCache instance. test_service pins that the
/// registry deltas equal the per-instance CacheStats deltas.
struct CacheCounters {
  obs::Counter hits;
  obs::Counter misses;
  obs::Counter stale;
  obs::Counter corrupt;
  obs::Counter evictions;
  obs::Counter stores;
  obs::Counter io_errors;
};

const CacheCounters& cache_counters() {
  static const CacheCounters c = [] {
    auto& reg = obs::MetricsRegistry::global();
    return CacheCounters{
        reg.counter("rt_campaign_cache_hits_total",
                    "Cell-cache lookups served from disk"),
        reg.counter("rt_campaign_cache_misses_total",
                    "Cell-cache lookups that fell through to execution"),
        reg.counter("rt_campaign_cache_stale_total",
                    "Entries ignored for version mismatch"),
        reg.counter("rt_campaign_cache_corrupt_total",
                    "Entries rejected by checksum/parse validation"),
        reg.counter("rt_campaign_cache_evictions_total",
                    "Entries evicted by the LRU size budget"),
        reg.counter("rt_campaign_cache_stores_total",
                    "Entries durably stored"),
        reg.counter("rt_campaign_cache_io_errors_total",
                    "Cache reads/writes declined on I/O failure")};
  }();
  return c;
}

/// Mirrors whatever a cache method did to `live` into the registry when
/// the scope exits, so each early return in lookup() stays one line.
class StatsMirror {
 public:
  explicit StatsMirror(const CacheStats& live)
      : live_(live), before_(live) {}
  ~StatsMirror() {
    const CacheCounters& c = cache_counters();
    const auto bump = [](const obs::Counter& counter, std::uint64_t now,
                         std::uint64_t then) {
      if (now > then) counter.inc(now - then);
    };
    bump(c.hits, live_.hits, before_.hits);
    bump(c.misses, live_.misses, before_.misses);
    bump(c.stale, live_.stale, before_.stale);
    bump(c.corrupt, live_.corrupt, before_.corrupt);
    bump(c.evictions, live_.evictions, before_.evictions);
    bump(c.stores, live_.stores, before_.stores);
    bump(c.io_errors, live_.io_errors, before_.io_errors);
  }

 private:
  const CacheStats& live_;
  CacheStats before_;
};

constexpr const char* kCacheMagic = "RTCACHE";
/// v2 added the content checksum column; v1 entries are counted `stale`
/// (ignored and re-stored), exactly like a code-version bump.
constexpr std::uint64_t kCacheHeaderVersion = 2;

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fp);
  return buf;
}

std::uint64_t content_checksum(std::string_view payload) {
  return stats::fnv1a_str(stats::kFnv1aOffset, payload);
}

enum class ReadOutcome { kOk, kNotFound, kIoError };

/// Whole-file read through the fault-injection shims, so a chaos schedule
/// can hit cache lookups with EIO/EINTR like any other syscall site.
ReadOutcome read_file(const fs::path& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return errno == ENOENT ? ReadOutcome::kNotFound : ReadOutcome::kIoError;
  }
  out.clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n =
        sys_read(FaultSite::kCacheRead, fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ReadOutcome::kIoError;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ReadOutcome::kOk;
}

std::string entry_name(std::uint64_t fp) {
  return "cell_" + fingerprint_hex(fp) + ".rtcr";
}

/// `fp` for a file named exactly `entry_name(fp)`, else nullopt.
std::optional<std::uint64_t> entry_fingerprint(const std::string& fname) {
  if (fname.size() != 26) return std::nullopt;  // "cell_" 16 hex ".rtcr"
  std::uint64_t fp = 0;
  const char* hex = fname.data() + 5;
  const auto parsed = std::from_chars(hex, hex + 16, fp, 16);
  if (parsed.ec != std::errc() || fname != entry_name(fp)) return std::nullopt;
  return fp;
}

}  // namespace

std::uint64_t campaign_cell_fingerprint(
    const experiments::CampaignSpec& spec, std::uint64_t code_version) {
  std::uint64_t h = stats::kFnv1aOffset;
  h = stats::fnv1a_str(h, "rt.campaign.cell.v1");
  h = stats::fnv1a_u64(h, code_version);
  h = stats::fnv1a_str(h, spec.name);
  h = stats::fnv1a_str(h, spec.scenario);
  h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(spec.vector));
  h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(spec.mode));
  h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(spec.runs));
  h = stats::fnv1a_u64(h, spec.seed);
  h = stats::fnv1a_u64(h, spec.params.has_value() ? 1 : 0);
  if (spec.params) {
    for (const auto& name : sim::scenario_param_names()) {
      h = stats::fnv1a_str(h, name);
      h = stats::fnv1a_double(h, sim::get_scenario_param(*spec.params, name));
    }
  }
  h = stats::fnv1a_u64(h, spec.monitors.size());
  for (const auto& m : spec.monitors) h = stats::fnv1a_str(h, m);
  return h;
}

CampaignCellCache::CampaignCellCache(CacheConfig config)
    : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("CampaignCellCache: empty cache dir");
  }
  fs::create_directories(config_.dir);
  // Rebuild the LRU order once: the entries already on disk, oldest mtime
  // first (path breaks ties), take uses 1..n before anything this process
  // stores or hits.
  std::vector<std::tuple<fs::file_time_type, std::string, std::uint64_t,
                         std::uintmax_t>>
      found;  // {mtime, name, fingerprint, bytes}; names are unique
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(config_.dir, ec)) {
    std::string name = de.path().filename().string();
    const auto fp = entry_fingerprint(name);
    std::error_code size_ec;
    std::error_code time_ec;
    const auto bytes = de.file_size(size_ec);
    const auto mtime = de.last_write_time(time_ec);
    if (fp && !size_ec && !time_ec) {
      found.emplace_back(mtime, std::move(name), *fp, bytes);
    }
  }
  std::sort(found.begin(), found.end());
  for (const auto& f : found) use_locked(std::get<2>(f), std::get<3>(f));
}

std::string CampaignCellCache::path_for(std::uint64_t fp) const {
  return (fs::path(config_.dir) / entry_name(fp)).string();
}

void CampaignCellCache::use_locked(std::uint64_t fp, std::uint64_t bytes) {
  Slot& slot = index_[fp];  // a new slot starts at {0, 0}
  total_bytes_ = total_bytes_ - slot.bytes + bytes;
  slot = {bytes, ++use_clock_};
}

void CampaignCellCache::drop_locked(std::uint64_t fp) {
  const auto it = index_.find(fp);
  if (it == index_.end()) return;
  total_bytes_ -= it->second.bytes;
  index_.erase(it);
}

std::string CampaignCellCache::entry_path(
    const experiments::CampaignSpec& spec) const {
  return path_for(campaign_cell_fingerprint(spec, config_.code_version));
}

std::optional<experiments::CampaignResult> CampaignCellCache::lookup(
    const experiments::CampaignSpec& spec) {
  RT_TRACE_SPAN("cache_lookup", "cache");
  std::lock_guard<std::mutex> lock(mutex_);
  StatsMirror mirror(stats_);
  const std::uint64_t fp =
      campaign_cell_fingerprint(spec, config_.code_version);
  const fs::path path = path_for(fp);

  std::string blob;
  switch (read_file(path, blob)) {
    case ReadOutcome::kOk:
      break;
    case ReadOutcome::kNotFound:
      drop_locked(fp);
      ++stats_.misses;
      return std::nullopt;
    case ReadOutcome::kIoError:
      // Disk trouble reading an entry that exists: absorbed as a miss (the
      // grid re-runs the cell), counted so the service layer can notice.
      ++stats_.io_errors;
      ++stats_.misses;
      return std::nullopt;
  }

  // Header line:
  //   RTCACHE <header version> <code_version> <fingerprint> <content fnv>
  const std::size_t eol = blob.find('\n');
  if (eol == std::string::npos) {
    ++stats_.corrupt;
    return std::nullopt;
  }
  const std::string header = blob.substr(0, eol);
  char magic[16] = {0};
  unsigned long long header_version = 0;
  if (std::sscanf(header.c_str(), "%15s %llu", magic, &header_version) != 2 ||
      std::string(magic) != kCacheMagic) {
    ++stats_.corrupt;
    return std::nullopt;
  }
  if (header_version != kCacheHeaderVersion) {
    // A well-formed entry from another header generation (e.g. pre-checksum
    // v1): stale, not corrupt — nothing is damaged, the format just moved.
    ++stats_.stale;
    return std::nullopt;
  }
  unsigned long long file_code_version = 0;
  unsigned long long file_fp = 0;
  unsigned long long file_checksum = 0;
  if (std::sscanf(header.c_str(), "%15s %llu %llu %llx %llx", magic,
                  &header_version, &file_code_version, &file_fp,
                  &file_checksum) != 5) {
    ++stats_.corrupt;
    return std::nullopt;
  }
  if (file_code_version != config_.code_version) {
    // Written by a build with different simulation semantics: ignore it
    // (it will be overwritten by the store that follows the re-run).
    ++stats_.stale;
    return std::nullopt;
  }
  if (file_fp != fp) {
    ++stats_.corrupt;
    return std::nullopt;
  }
  const std::string_view payload = std::string_view(blob).substr(eol + 1);
  if (content_checksum(payload) != file_checksum) {
    // Byte rot that might still parse (e.g. a flipped bit inside a hex
    // double): without this check it would be served as a wrong result.
    ++stats_.corrupt;
    return std::nullopt;
  }

  experiments::CampaignResult result;
  try {
    result = experiments::deserialize_campaign_result(
        std::string_view(blob).substr(eol + 1));
  } catch (const experiments::SerdeError&) {
    ++stats_.corrupt;
    return std::nullopt;
  }
  // Belt and braces against a fingerprint collision or a renamed file: the
  // stored spec must be the requested one.
  if (result.spec.name != spec.name || result.spec.seed != spec.seed ||
      result.spec.runs != spec.runs ||
      result.spec.scenario != spec.scenario) {
    ++stats_.corrupt;
    return std::nullopt;
  }

  ++stats_.hits;
  // LRU: the use clock orders this process; the mtime refresh carries the
  // hit's recency to the next open.
  use_locked(fp, blob.size());
  std::error_code ec;
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  return result;
}

bool CampaignCellCache::store(const experiments::CampaignSpec& spec,
                              const experiments::CampaignResult& result) {
  RT_TRACE_SPAN("cache_store", "cache");
  std::lock_guard<std::mutex> lock(mutex_);
  StatsMirror mirror(stats_);
  const std::uint64_t fp =
      campaign_cell_fingerprint(spec, config_.code_version);
  const fs::path path = path_for(fp);
  const fs::path tmp = path.string() + ".tmp";

  const std::string payload = experiments::serialize_campaign_result(result);
  std::string blob = std::string(kCacheMagic) + ' ' +
                     std::to_string(kCacheHeaderVersion) + ' ' +
                     std::to_string(config_.code_version) + ' ' +
                     fingerprint_hex(fp) + ' ' +
                     fingerprint_hex(content_checksum(payload)) + '\n';
  blob += payload;

  // Crash-durable store: write the temp file, fsync IT, then rename over
  // the final name, then (best effort) fsync the directory so the rename
  // itself survives a power cut. Any failure declines the store — the tmp
  // file is removed, the previous entry (if any) is untouched.
  const auto decline = [&](int fd) {
    if (fd >= 0) ::close(fd);
    std::error_code ec;
    fs::remove(tmp, ec);
    ++stats_.io_errors;
    return false;
  };
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return decline(-1);
  if (!write_all_fd(FaultSite::kCacheWrite, fd, blob.data(), blob.size())) {
    return decline(fd);
  }
  if (sys_fsync(FaultSite::kCacheFsync, fd) != 0) return decline(fd);
  if (::close(fd) != 0) return decline(-1);
  if (sys_rename(FaultSite::kCacheRename, tmp.c_str(), path.c_str()) != 0) {
    return decline(-1);
  }
  const int dirfd = ::open(config_.dir.c_str(), O_RDONLY);
  if (dirfd >= 0) {
    // Directory fsync is best-effort: some filesystems refuse it, and the
    // entry itself is already durable and complete either way.
    (void)sys_fsync(FaultSite::kCacheFsync, dirfd);
    ::close(dirfd);
  }
  ++stats_.stores;
  use_locked(fp, blob.size());

  if (config_.max_bytes > 0) {
    stats_.evictions += evict_locked(config_.max_bytes);
  }
  return true;
}

std::size_t CampaignCellCache::evict_to_limit(std::size_t limit_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  StatsMirror mirror(stats_);
  const std::size_t removed = evict_locked(limit_bytes);
  stats_.evictions += removed;
  return removed;
}

std::size_t CampaignCellCache::evict_locked(std::size_t limit_bytes) {
  if (total_bytes_ <= limit_bytes) return 0;
  // Least recently used first; uses are unique, so the order is total.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> by_use;  // {use, fp}
  by_use.reserve(index_.size());
  for (const auto& [fp, slot] : index_) by_use.emplace_back(slot.last_use, fp);
  std::sort(by_use.begin(), by_use.end());
  std::size_t removed = 0;
  for (const auto& use_fp : by_use) {
    if (total_bytes_ <= limit_bytes) break;
    const std::uint64_t fp = use_fp.second;
    std::error_code ec;
    const bool existed = fs::remove(path_for(fp), ec);
    if (ec) continue;  // still on disk: keep it indexed
    drop_locked(fp);   // a file already gone is forgotten, not counted
    if (existed) ++removed;
  }
  return removed;
}

CacheStats CampaignCellCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace rt::service
