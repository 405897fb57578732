#pragma once

// Shared helpers for the benchmark/reproduction binaries.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/reporting.hpp"
#include "experiments/sh_training.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/campaign_service.hpp"

namespace rt::bench {

/// Campaign result-cache directory shared by the table_* drivers and the
/// campaign server: empty = no caching. Override with RT_CAMPAIGN_CACHE.
inline std::string campaign_cache_dir() {
  if (const char* env = std::getenv("RT_CAMPAIGN_CACHE")) return env;
  return {};
}

/// Loads (or trains once and caches under data/) the three per-vector
/// safety-hijacker oracles.
inline experiments::OracleSet oracles(const experiments::LoopConfig& loop) {
  experiments::ShTrainingConfig cfg;
  return experiments::load_or_train_oracles(
      experiments::default_cache_dir(), loop, cfg);
}

inline void header(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Shared CLI options of the grid drivers. Defaults come from the
/// environment knobs (ROBOTACK_RUNS / ROBOTACK_THREADS) so existing
/// invocations keep working; flags override the environment.
struct BenchOptions {
  int runs{0};
  unsigned threads{0};  ///< 0 = one thread per hardware core
  std::uint64_t seed{0};
  std::string csv_path;   ///< empty = no CSV output
  std::string cache_dir;  ///< empty = no result cache (env RT_CAMPAIGN_CACHE)
  unsigned workers{0};    ///< forked grid workers; 0 = in-process threads
  std::string trace_path;    ///< Chrome trace JSON written on exit
  std::string metrics_path;  ///< Prometheus metrics text written on exit
};

/// Parses --runs N, --seed S, --threads T, --csv PATH, --cache-dir PATH,
/// --workers N, --trace PATH, --metrics PATH (and --help). Unknown flags,
/// missing values and malformed or out-of-range numbers (flag or
/// environment) print usage and exit 2 before any work starts.
inline BenchOptions parse_options(int argc, char** argv,
                                  std::uint64_t default_seed) {
  // Runs per campaign: the paper uses 131-185; the default is sized to keep
  // every bench binary under ~a minute.
  constexpr int kDefaultRuns = 60;
  constexpr std::uint64_t kMaxRuns = std::numeric_limits<int>::max();
  // Thread and worker counts share the campaign server's bound.
  constexpr std::uint64_t kMaxThreads = 4096;
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--runs N] [--seed S] [--threads T] [--csv PATH] "
                 "[--cache-dir PATH] [--workers N]\n"
                 "  --runs N     runs per campaign (default %d; "
                 "env ROBOTACK_RUNS, min 4)\n"
                 "  --seed S     base campaign seed (default %llu)\n"
                 "  --threads T  campaign-engine threads, 0 = per core, "
                 "max %llu (env ROBOTACK_THREADS)\n"
                 "  --csv PATH   also write the result table as CSV\n"
                 "  --cache-dir PATH  campaign result cache "
                 "(env RT_CAMPAIGN_CACHE; empty = off)\n"
                 "  --workers N  forked grid worker processes "
                 "(0 = in-process threads, max %llu)\n"
                 "  --trace PATH    arm span tracing, write a Chrome trace "
                 "JSON on exit (env RT_TRACE=PATH)\n"
                 "  --metrics PATH  write the final metrics snapshot as "
                 "Prometheus text on exit\n",
                 argv[0], kDefaultRuns,
                 static_cast<unsigned long long>(default_seed),
                 static_cast<unsigned long long>(kMaxThreads),
                 static_cast<unsigned long long>(kMaxThreads));
  };
  const auto number = [&](const char* what, const char* text,
                          std::uint64_t hi) -> std::uint64_t {
    const auto v = experiments::parse_uint(text, 0, hi);
    if (!v) {
      std::fprintf(stderr, "%s: bad value '%s' for %s\n", argv[0], text,
                   what);
      usage(stderr);
      std::exit(2);
    }
    return *v;
  };

  BenchOptions opts;
  opts.runs = kDefaultRuns;
  if (const char* env = std::getenv("ROBOTACK_RUNS")) {
    opts.runs = std::max(4, static_cast<int>(
                                number("ROBOTACK_RUNS", env, kMaxRuns)));
  }
  if (const char* env = std::getenv("ROBOTACK_THREADS")) {
    opts.threads = std::max(1u, static_cast<unsigned>(number(
                                    "ROBOTACK_THREADS", env, kMaxThreads)));
  }
  opts.seed = default_seed;
  opts.cache_dir = campaign_cache_dir();
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
        usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    const char* flag = argv[i];
    if (std::strcmp(flag, "--runs") == 0) {
      opts.runs =
          std::max(1, static_cast<int>(number(flag, value(), kMaxRuns)));
    } else if (std::strcmp(flag, "--seed") == 0) {
      opts.seed =
          number(flag, value(), std::numeric_limits<std::uint64_t>::max());
    } else if (std::strcmp(flag, "--threads") == 0) {
      opts.threads = static_cast<unsigned>(number(flag, value(), kMaxThreads));
    } else if (std::strcmp(flag, "--csv") == 0) {
      opts.csv_path = value();
    } else if (std::strcmp(flag, "--cache-dir") == 0) {
      opts.cache_dir = value();
    } else if (std::strcmp(flag, "--workers") == 0) {
      opts.workers = static_cast<unsigned>(number(flag, value(), kMaxThreads));
    } else if (std::strcmp(flag, "--trace") == 0) {
      opts.trace_path = value();
    } else if (std::strcmp(flag, "--metrics") == 0) {
      opts.metrics_path = value();
    } else if (std::strcmp(flag, "--help") == 0 ||
               std::strcmp(flag, "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], flag);
      usage(stderr);
      std::exit(2);
    }
  }
  // Arm tracing before any instrumented work runs: RT_TRACE=PATH or
  // --trace PATH (the flag wins for the output path).
  if (!obs::Tracer::global().arm_from_env() && !opts.trace_path.empty()) {
    obs::Tracer::global().arm();
  }
  if (opts.trace_path.empty()) {
    opts.trace_path = obs::Tracer::global().env_path();
  }
  return opts;
}

/// Shared observability epilogue: writes the Chrome trace (when tracing
/// was armed) and/or the Prometheus metrics snapshot, confirming paths on
/// stdout like the CSV epilogue does. Call once, after the last
/// instrumented work of the driver.
inline void finish_observability(const BenchOptions& opts) {
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.armed() && !opts.trace_path.empty()) {
    if (tracer.write_chrome_trace(opts.trace_path)) {
      std::printf("wrote %s (%zu spans, %llu dropped)\n",
                  opts.trace_path.c_str(), tracer.span_count(),
                  static_cast<unsigned long long>(tracer.dropped_spans()));
    } else {
      std::fprintf(stderr, "failed to write trace %s\n",
                   opts.trace_path.c_str());
    }
  }
  if (!opts.metrics_path.empty()) {
    const std::string text =
        obs::render_prometheus(obs::MetricsRegistry::global().snapshot());
    std::FILE* f = std::fopen(opts.metrics_path.c_str(), "w");
    if (f != nullptr) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", opts.metrics_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics %s\n",
                   opts.metrics_path.c_str());
    }
  }
}

/// Shared CSV epilogue of the grid drivers: writes the table when --csv
/// was given and confirms the path on stdout.
inline void maybe_write_csv(const BenchOptions& opts,
                            const std::vector<std::string>& header,
                            const std::vector<std::vector<std::string>>& rows) {
  if (opts.csv_path.empty()) return;
  experiments::write_csv(opts.csv_path, header, rows);
  std::printf("wrote %s\n", opts.csv_path.c_str());
}

/// Builds the CampaignService implied by --cache-dir/--workers (plus
/// --threads for in-process misses). The service outlives the returned
/// executor, so drivers keep it alive for the whole grid run and may read
/// its cache/request stats afterwards.
inline std::unique_ptr<service::CampaignService> make_service(
    const experiments::CampaignRunner& runner, const BenchOptions& opts) {
  service::ServiceConfig cfg;
  if (!opts.cache_dir.empty()) {
    cfg.cache = service::CacheConfig{opts.cache_dir};
  }
  cfg.workers = opts.workers;
  cfg.threads = opts.threads;
  return std::make_unique<service::CampaignService>(runner, cfg);
}

/// Shared grid-run epilogue for drivers that route through a service:
/// reports cache traffic when a cache was configured.
inline void report_service_stats(const service::CampaignService& svc) {
  if (svc.config().cache) {
    const auto cs = svc.cache_stats();
    std::printf(
        "cache: hits=%llu misses=%llu stale=%llu corrupt=%llu (dir %s)\n",
        static_cast<unsigned long long>(cs.hits),
        static_cast<unsigned long long>(cs.misses),
        static_cast<unsigned long long>(cs.stale),
        static_cast<unsigned long long>(cs.corrupt),
        svc.config().cache->dir.c_str());
  }
  if (svc.config().workers >= 1) {
    const auto& ss = svc.shard_stats();
    std::printf("workers: %u forked, %d deaths, %d cells recovered\n",
                ss.workers, ss.worker_deaths, ss.cells_recovered_in_process);
  }
}

}  // namespace rt::bench
