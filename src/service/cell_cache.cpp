#include "service/cell_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
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

fs::path touch_sidecar(const fs::path& entry) {
  return fs::path(entry.string() + ".touch");
}

/// Access counter from an entry's `.touch` sidecar; 0 (== "no recorded
/// access, fall back to mtime") when absent or unreadable.
std::uint64_t read_touch(const fs::path& entry) {
  std::ifstream in(touch_sidecar(entry));
  std::uint64_t v = 0;
  if (in >> v) return v;
  return 0;
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
  // Re-seed the monotonic access sequence from the max persisted counter,
  // so a restarted process keeps strictly increasing LRU order.
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(config_.dir, ec)) {
    if (de.path().extension() != ".touch") continue;
    std::ifstream in(de.path());
    std::uint64_t v = 0;
    if (in >> v) touch_seq_ = std::max(touch_seq_, v);
  }
}

void CampaignCellCache::touch_locked(const std::string& entry_path) {
  const fs::path sidecar = touch_sidecar(entry_path);
  const fs::path tmp = sidecar.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << ++touch_seq_ << '\n';
    if (!out.good()) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return;  // counter write failed: the entry falls back to mtime order
    }
  }
  std::error_code ec;
  fs::rename(tmp, sidecar, ec);
  if (ec) fs::remove(tmp, ec);
}

std::string CampaignCellCache::entry_path(
    const experiments::CampaignSpec& spec) const {
  const std::uint64_t fp =
      campaign_cell_fingerprint(spec, config_.code_version);
  return (fs::path(config_.dir) / ("cell_" + fingerprint_hex(fp) + ".rtcr"))
      .string();
}

std::optional<experiments::CampaignResult> CampaignCellCache::lookup(
    const experiments::CampaignSpec& spec) {
  RT_TRACE_SPAN("cache_lookup", "cache");
  std::lock_guard<std::mutex> lock(mutex_);
  StatsMirror mirror(stats_);
  const std::uint64_t fp =
      campaign_cell_fingerprint(spec, config_.code_version);
  const fs::path path =
      fs::path(config_.dir) / ("cell_" + fingerprint_hex(fp) + ".rtcr");

  std::string blob;
  switch (read_file(path, blob)) {
    case ReadOutcome::kOk:
      break;
    case ReadOutcome::kNotFound:
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
  // LRU re-touch: the authoritative order is the monotonic counter (mtime
  // has 1 s granularity on some filesystems, which let a hit tie with a
  // cold store and lose to the path tie-break); the mtime refresh stays as
  // the fallback signal for entries handled by older builds.
  touch_locked(path.string());
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
  const fs::path path =
      fs::path(config_.dir) / ("cell_" + fingerprint_hex(fp) + ".rtcr");
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
  touch_locked(path.string());

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

std::size_t CampaignCellCache::evict_to_limit() {
  return config_.max_bytes > 0 ? evict_to_limit(config_.max_bytes) : 0;
}

std::size_t CampaignCellCache::evict_locked(std::size_t limit_bytes) {
  struct Entry {
    std::uint64_t touch;  ///< 0 = no counter, order by mtime
    fs::file_time_type mtime;
    std::uintmax_t size;
    fs::path path;
  };
  std::vector<Entry> entries;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(config_.dir, ec)) {
    const std::string fname = de.path().filename().string();
    if (fname.rfind("cell_", 0) != 0 ||
        de.path().extension() != ".rtcr") {
      continue;
    }
    std::error_code fec;
    const auto size = fs::file_size(de.path(), fec);
    if (fec) continue;
    total += size;
    entries.push_back({0, {}, size, de.path()});
  }
  if (total <= limit_bytes) return 0;
  // Over budget: only now read each entry's access order (mtime and the
  // `.touch` sidecar), so an under-budget store costs one stat per entry.
  for (Entry& e : entries) {
    std::error_code fec;
    e.mtime = fs::last_write_time(e.path, fec);
    e.touch = read_touch(e.path);
  }

  // Oldest access first. Primary key: the monotonic touch counter (every
  // store and every hit bumps it), immune to the 1 s mtime granularity that
  // used to let a just-hit entry tie with — and evict before — a cold one.
  // Counterless entries sort first among themselves by mtime; path is the
  // final deterministic tie-break.
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    if (a.touch != b.touch) return a.touch < b.touch;
    if (a.mtime != b.mtime) return a.mtime < b.mtime;
    return a.path < b.path;
  });
  std::size_t removed = 0;
  for (const Entry& e : entries) {
    if (total <= limit_bytes) break;
    std::error_code rec;
    if (fs::remove(e.path, rec)) {
      total -= e.size;
      ++removed;
      fs::remove(touch_sidecar(e.path), rec);  // evicted entry's sidecar too
    }
  }
  return removed;
}

CacheStats CampaignCellCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace rt::service
