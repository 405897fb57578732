#pragma once

// Shared helpers for the benchmark/reproduction binaries.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// Number of runs per campaign: paper uses 131-185; default is sized to
/// keep every bench binary under ~a minute. Override with ROBOTACK_RUNS.
inline int runs_per_campaign() {
  if (const char* env = std::getenv("ROBOTACK_RUNS")) {
    return std::max(4, std::atoi(env));
  }
  return 60;
}

/// Campaign-engine thread count: 0 = one thread per hardware core.
/// Override with ROBOTACK_THREADS (e.g. =1 for the serial baseline).
inline unsigned campaign_threads() {
  if (const char* env = std::getenv("ROBOTACK_THREADS")) {
    return static_cast<unsigned>(std::max(1, std::atoi(env)));
  }
  return 0;
}

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
  std::string json_path;  ///< empty = no JSON perf records
  std::string cache_dir;  ///< empty = no result cache (env RT_CAMPAIGN_CACHE)
  unsigned workers{0};    ///< forked grid workers; 0 = in-process threads
  std::string trace_path;    ///< Chrome trace JSON written on exit
  std::string metrics_path;  ///< Prometheus metrics text written on exit
};

/// Parses --runs N, --seed S, --threads T, --csv PATH, --json PATH,
/// --cache-dir PATH, --workers N, --trace PATH, --metrics PATH (and
/// --help). Unknown flags or missing values print usage and exit non-zero.
inline BenchOptions parse_options(int argc, char** argv,
                                  std::uint64_t default_seed) {
  BenchOptions opts;
  opts.runs = runs_per_campaign();
  opts.threads = campaign_threads();
  opts.seed = default_seed;
  opts.cache_dir = campaign_cache_dir();
  const auto usage = [&](std::FILE* out) {
    std::fprintf(out,
                 "usage: %s [--runs N] [--seed S] [--threads T] [--csv PATH] "
                 "[--json PATH] [--cache-dir PATH] [--workers N]\n"
                 "  --runs N     runs per campaign (default %d; env ROBOTACK_RUNS)\n"
                 "  --seed S     base campaign seed (default %llu)\n"
                 "  --threads T  campaign-engine threads, 0 = per core "
                 "(env ROBOTACK_THREADS)\n"
                 "  --csv PATH   also write the result table as CSV\n"
                 "  --json PATH  also write machine-readable perf records\n"
                 "  --cache-dir PATH  campaign result cache "
                 "(env RT_CAMPAIGN_CACHE; empty = off)\n"
                 "  --workers N  forked grid worker processes "
                 "(0 = in-process threads)\n"
                 "  --trace PATH    arm span tracing, write a Chrome trace "
                 "JSON on exit (env RT_TRACE=PATH)\n"
                 "  --metrics PATH  write the final metrics snapshot as "
                 "Prometheus text on exit\n",
                 argv[0], opts.runs,
                 static_cast<unsigned long long>(default_seed));
  };
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
        usage(stderr);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto numeric = [&](const char* text) -> unsigned long long {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(text, &end, 10);
      if (end == text || *end != '\0') {
        std::fprintf(stderr, "%s: %s expects a number, got '%s'\n", argv[0],
                     argv[i - 1], text);
        usage(stderr);
        std::exit(2);
      }
      return parsed;
    };
    if (std::strcmp(argv[i], "--runs") == 0) {
      opts.runs = std::max(1, static_cast<int>(numeric(value())));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opts.seed = numeric(value());
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opts.threads = static_cast<unsigned>(numeric(value()));
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      opts.csv_path = value();
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opts.json_path = value();
    } else if (std::strcmp(argv[i], "--cache-dir") == 0) {
      opts.cache_dir = value();
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      opts.workers = static_cast<unsigned>(numeric(value()));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      opts.trace_path = value();
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      opts.metrics_path = value();
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], argv[i]);
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
/// stdout like the CSV/JSON epilogues do. Call once, after the last
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

/// Shared JSON epilogue: writes the perf records when --json was given and
/// confirms the path on stdout. CI uses this to track the perf trajectory
/// across PRs (BENCH_campaign.json).
inline void maybe_write_bench_json(
    const BenchOptions& opts,
    const std::vector<experiments::BenchJsonRecord>& records) {
  if (opts.json_path.empty()) return;
  experiments::write_bench_json(opts.json_path, records);
  std::printf("wrote %s\n", opts.json_path.c_str());
}

}  // namespace rt::bench
