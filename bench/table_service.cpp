// Campaign-service benchmark: runs the Table II grid through one
// content-hash result cache — a cold pass (all misses, real simulation), a
// warm pass (all hits, pure cache reads) and a chaos pass (fresh cache,
// deterministic fault injection on the cache-write and pipe-write sites) —
// and enforces the service contract: the warm pass must be >= 10x faster
// and bit-identical to the cold pass, and the chaos pass must absorb every
// injected fault and still reproduce the cold bytes. With --workers N the
// cold and chaos passes additionally exercise the forked multi-process
// sharder. Chaos accounting is asserted against the metrics registry
// (rt_fault_injections_total, rt_shard_*), not scraped from stderr.

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "bench_util.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/reporting.hpp"
#include "service/fault_injection.hpp"

using namespace rt;

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/20200613);
  bench::header("Campaign service — cold vs warm cache over Table II");

  experiments::LoopConfig loop;
  const auto oracles = bench::oracles(loop);
  experiments::CampaignRunner runner(loop, oracles);

  // --cache-dir reuses (and keeps) a caller-owned cache; the default is a
  // private scratch dir wiped before the cold pass and removed at exit, so
  // "cold" genuinely means cold.
  namespace fs = std::filesystem;
  std::string cache_dir = opts.cache_dir;
  const bool owned = cache_dir.empty();
  if (owned) {
    cache_dir = (fs::temp_directory_path() /
                 ("rt_table_service_" + std::to_string(::getpid())))
                    .string();
  }
  std::error_code ec;
  if (owned) fs::remove_all(cache_dir, ec);

  auto run_pass = [&](const char* label, const std::string& dir,
                      double& elapsed_s, std::size_t& hits,
                      service::ShardStats* shard_out = nullptr) {
    bench::BenchOptions pass = opts;
    pass.cache_dir = dir;
    auto svc = bench::make_service(runner, pass);
    const auto specs = experiments::table2_campaigns(opts.runs, opts.seed);
    const obs::Stopwatch watch;
    const auto results = svc->run_grid(specs);
    elapsed_s = watch.elapsed_s();
    hits = svc->last_request().cache_hits;
    if (shard_out != nullptr) *shard_out = svc->shard_stats();
    int grid_runs = 0;
    for (const auto& r : results) grid_runs += r.n();
    std::printf("%s: %zu specs, %d runs in %.3f s (hits=%zu)\n", label,
                specs.size(), grid_runs, elapsed_s, hits);
    bench::report_service_stats(*svc);
    // Canonical bytes of the whole grid, for the bit-identity check.
    std::string blob;
    for (const auto& r : results) {
      blob += experiments::serialize_campaign_result(r);
    }
    return blob;
  };

  double cold_s = 0.0;
  double warm_s = 0.0;
  std::size_t cold_hits = 0;
  std::size_t warm_hits = 0;
  const std::string cold = run_pass("cold", cache_dir, cold_s, cold_hits);
  const std::string warm = run_pass("warm", cache_dir, warm_s, warm_hits);
  if (owned) fs::remove_all(cache_dir, ec);

  // Chaos pass: a fresh cache directory with the deterministic fault
  // injector armed against the cache-write and pipe-write sites at 50%.
  // Every fault must be absorbed (stores decline, a dead worker's cells run
  // in-process) and the grid must still come back byte-identical to the
  // cold pass.
  const std::string chaos_dir =
      (fs::temp_directory_path() /
       ("rt_table_service_chaos_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(chaos_dir, ec);
  double chaos_s = 0.0;
  std::size_t chaos_hits = 0;
  std::string chaos;
  std::uint64_t chaos_faults = 0;
  service::ShardStats chaos_shards;
  // The registry is cumulative, so the chaos pass is judged on deltas
  // around it; the firing counter must agree with the injector's own
  // tally (both count parent-process events only).
  const auto before = obs::MetricsRegistry::global().snapshot();
  {
    service::FaultPlan plan;
    plan.seed = opts.seed;
    plan.rules.push_back({service::FaultSite::kCacheWrite,
                          service::FaultType::kIoError, 0.5, -1, 0});
    plan.rules.push_back({service::FaultSite::kPipeWrite,
                          service::FaultType::kIoError, 0.5, -1, 0});
    service::ArmedFaults armed(std::move(plan));
    chaos = run_pass("chaos", chaos_dir, chaos_s, chaos_hits, &chaos_shards);
    chaos_faults = service::FaultInjector::instance().injected_total();
  }
  const auto after = obs::MetricsRegistry::global().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter(name) - before.counter(name);
  };
  fs::remove_all(chaos_dir, ec);
  std::printf("chaos: %llu faults injected (parent process)\n",
              static_cast<unsigned long long>(chaos_faults));

  const auto specs = experiments::table2_campaigns(opts.runs, opts.seed);
  const double speedup = warm_s > 0.0 ? cold_s / warm_s : 0.0;
  std::printf("warm speedup: %.1fx (contract: >= 10x)\n", speedup);

  bool ok = true;
  if (warm != cold) {
    std::printf("FAIL: warm results differ from cold results\n");
    ok = false;
  }
  if (cold_hits != 0) {
    std::printf("FAIL: cold pass hit the cache (%zu hits)\n", cold_hits);
    ok = false;
  }
  if (warm_hits != specs.size()) {
    std::printf("FAIL: warm pass missed the cache (%zu/%zu hits)\n",
                warm_hits, specs.size());
    ok = false;
  }
  if (speedup < 10.0) {
    std::printf("FAIL: warm pass only %.1fx faster than cold\n", speedup);
    ok = false;
  }
  if (chaos != cold) {
    std::printf("FAIL: chaos results differ from cold results\n");
    ok = false;
  }
  if (chaos_hits != 0) {
    std::printf("FAIL: chaos pass hit its fresh cache (%zu hits)\n",
                chaos_hits);
    ok = false;
  }
  // Chaos accounting through the metrics registry: every parent-process
  // firing the injector counted must also have landed in
  // rt_fault_injections_total, and the sharder's recovery counters must
  // match the ShardStats of the chaos request.
  if (delta("rt_fault_injections_total") != chaos_faults) {
    std::printf("FAIL: rt_fault_injections_total moved %llu, injector "
                "counted %llu\n",
                static_cast<unsigned long long>(
                    delta("rt_fault_injections_total")),
                static_cast<unsigned long long>(chaos_faults));
    ok = false;
  }
  if (chaos_faults == 0) {
    std::printf("FAIL: chaos pass injected no faults\n");
    ok = false;
  }
  if (opts.workers >= 1) {
    const struct {
      const char* metric;
      std::uint64_t expect;
    } shard_checks[] = {
        {"rt_shard_worker_deaths_total",
         static_cast<std::uint64_t>(chaos_shards.worker_deaths)},
        {"rt_shard_fork_failures_total",
         static_cast<std::uint64_t>(chaos_shards.fork_failures)},
        {"rt_shard_cells_recovered_in_process_total",
         static_cast<std::uint64_t>(chaos_shards.cells_recovered_in_process)},
    };
    for (const auto& check : shard_checks) {
      if (delta(check.metric) != check.expect) {
        std::printf("FAIL: %s moved %llu, ShardStats says %llu\n",
                    check.metric,
                    static_cast<unsigned long long>(delta(check.metric)),
                    static_cast<unsigned long long>(check.expect));
        ok = false;
      }
    }
  }
  std::printf("%s\n", ok ? "service contract holds" : "service contract VIOLATED");
  bench::finish_observability(opts);
  return ok ? 0 : 1;
}
