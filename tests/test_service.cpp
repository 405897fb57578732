#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/defense_grid.hpp"
#include "experiments/transfer_matrix.hpp"
#include "obs/trace.hpp"
#include "obs/trace_reader.hpp"
#include "service/campaign_service.hpp"
#include "service/cell_cache.hpp"
#include "service/sharded_scheduler.hpp"
#include "sim/scenario_registry.hpp"

namespace rt::service {
namespace {

namespace fs = std::filesystem;
using experiments::AttackMode;
using experiments::CampaignResult;
using experiments::CampaignRunner;
using experiments::CampaignScheduler;
using experiments::CampaignSpec;
using experiments::LoopConfig;

/// Canonical bytes of a whole grid: the strongest possible equality (every
/// field of every run, bit-exact doubles, via the serde layer).
std::string grid_bytes(const std::vector<CampaignResult>& results) {
  std::string blob;
  for (const auto& r : results) {
    blob += experiments::serialize_campaign_result(r);
  }
  return blob;
}

/// Fresh per-test scratch dir under the gtest temp root.
std::string scratch_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Every registered scenario family × its natural vector, hermetic NoSh
/// mode (no oracles), `runs` runs each.
std::vector<CampaignSpec> family_grid(int runs, std::uint64_t seed) {
  experiments::CampaignGridBuilder builder;
  builder.runs(runs).seed(seed).modes({AttackMode::kNoSh});
  for (const auto& family : sim::ScenarioRegistry::global().keys()) {
    builder.scenarios({family})
        .vectors({experiments::transfer_vector_for(family)})
        .add_grid();
  }
  return builder.build();
}

CampaignSpec small_spec(const char* name = "DS-1-Disappear-RwoSH-t",
                        std::uint64_t seed = 4242) {
  return {name, "DS-1", core::AttackVector::kDisappear, AttackMode::kNoSh,
          2,    seed};
}

// ------------------------------------------------- ShardedCampaignScheduler

TEST(ShardedScheduler, BitIdenticalToInProcessAtAnyWorkerCount) {
  // The tentpole contract: an 8-family grid forked over 1, 2 and 4 worker
  // processes reassembles bit-identically to the in-process scheduler —
  // every per-run double crosses the pipe as its raw bit pattern.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/1122);
  ASSERT_GE(specs.size(), 8u);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));
  for (unsigned workers : {1u, 2u, 4u}) {
    ShardOptions opts;
    opts.workers = workers;
    const ShardedCampaignScheduler sharded(runner, opts);
    const auto results = sharded.run_all(specs);
    EXPECT_EQ(grid_bytes(results), reference) << workers << " workers";
    EXPECT_EQ(sharded.stats().workers, workers);
    EXPECT_EQ(sharded.stats().worker_deaths, 0) << workers << " workers";
    EXPECT_EQ(sharded.stats().cells_recovered_in_process, 0)
        << workers << " workers";
  }
}

TEST(ShardedScheduler, MoreWorkersThanCellsClampsAndCompletes) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::vector<CampaignSpec> specs{small_spec()};  // 2 cells
  ShardOptions opts;
  opts.workers = 16;
  const ShardedCampaignScheduler sharded(runner, opts);
  const auto results = sharded.run_all(specs);
  EXPECT_EQ(sharded.stats().workers, 2u);
  EXPECT_EQ(grid_bytes(results),
            grid_bytes(CampaignScheduler(runner, 1).run_all(specs)));
}

TEST(ShardedScheduler, EmptyGridReturnsEmptyResults) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const ShardedCampaignScheduler sharded(runner, {});
  EXPECT_TRUE(sharded.run_all({}).empty());
}

TEST(ShardedScheduler, WorkerDeathIsRecoveredToIdenticalResults) {
  // A worker that dies mid-grid (here: _exit(42) after streaming one cell)
  // degrades to an in-process run of its undelivered cell — never a hung
  // parent, never a hole, and the reassembled grid is still bit-identical.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/3344);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));

  ShardOptions opts;
  opts.workers = 2;
  opts.crash_shard = 0;
  opts.crash_after_cells = 1;
  const ShardedCampaignScheduler sharded(runner, opts);
  const auto results = sharded.run_all(specs);
  EXPECT_EQ(grid_bytes(results), reference);
  EXPECT_GE(sharded.stats().worker_deaths, 1);
  EXPECT_GE(sharded.stats().cells_recovered_in_process, 1);
}

TEST(ShardedScheduler, DeadWorkerLosesOnlyItsInFlightCell) {
  // Claim dispatch: the first worker dies on the first cell it claims, the
  // surviving worker keeps claiming the rest of the grid, and the parent
  // recovers exactly the one cell that died in flight.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/7788);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));

  ShardOptions opts;
  opts.workers = 2;
  opts.crash_shard = 0;
  opts.crash_after_cells = 0;
  const ShardedCampaignScheduler sharded(runner, opts);
  const auto results = sharded.run_all(specs);
  EXPECT_EQ(grid_bytes(results), reference);
  EXPECT_EQ(sharded.stats().worker_deaths, 1);
  EXPECT_EQ(sharded.stats().cells_recovered_in_process, 1);
}

#if RT_OBS_TRACING
TEST(ShardedScheduler, TwoWorkerTraceMergesParentAndBothWorkers) {
  // Spans recorded inside forked workers ship back over the result pipe
  // and land on the parent's timeline under their own pid lane — and an
  // armed tracer must not move a single result byte.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/5566);
  const std::string reference =
      grid_bytes(CampaignScheduler(runner, 2).run_all(specs));
  std::size_t cells = 0;
  for (const auto& s : specs) cells += static_cast<std::size_t>(s.runs);

  obs::Tracer::global().clear();
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  ShardOptions opts;
  opts.workers = 2;
  const ShardedCampaignScheduler sharded(runner, opts);
  const auto results = sharded.run_all(specs);
  obs::Tracer::global().disarm();

  EXPECT_EQ(grid_bytes(results), reference) << "tracing changed the bytes";
  EXPECT_EQ(obs::Tracer::global().absorb_failures(), 0u);
  const obs::ParsedTrace parsed =
      obs::parse_chrome_trace(obs::Tracer::global().render_chrome_trace());
  EXPECT_TRUE(parsed.has_span("shard_wave"));
  EXPECT_EQ(parsed.count_spans("shard_worker"), 2u);
  // Every grid cell ran (exactly once) inside a worker.
  EXPECT_EQ(parsed.count_spans("campaign_cell"), cells);
  // pid 0 = parent, pids 1 and 2 = the two forked workers.
  const auto pids = parsed.span_pids();
  ASSERT_EQ(pids.size(), 3u);
  for (const std::uint64_t pid : {0u, 1u, 2u}) {
    EXPECT_EQ(std::count(pids.begin(), pids.end(), pid), 1) << "pid " << pid;
  }
  obs::Tracer::global().clear();
}
#endif  // RT_OBS_TRACING

// ------------------------------------------------------------ fingerprint

TEST(CellCache, FingerprintChangesOnEveryResultDeterminingField) {
  const CampaignSpec base = small_spec();
  const std::uint64_t fp = campaign_cell_fingerprint(base);
  EXPECT_EQ(campaign_cell_fingerprint(small_spec()), fp) << "not stable";

  CampaignSpec m = base;
  m.name = "other-name";
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "name";
  m = base;
  m.scenario = "DS-2";
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "scenario";
  m = base;
  m.vector = core::AttackVector::kMoveOut;
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "vector";
  m = base;
  m.mode = AttackMode::kGolden;
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "mode";
  m = base;
  m.runs += 1;
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "runs";
  m = base;
  m.seed += 1;
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "seed";
  m = base;
  m.params = sim::ScenarioParams{};
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "params presence";
  {
    CampaignSpec p1 = base;
    p1.params = sim::ScenarioParams{};
    CampaignSpec p2 = p1;
    const auto name = sim::scenario_param_names().front();
    sim::set_scenario_param(*p2.params,name,
                            sim::get_scenario_param(*p1.params, name) + 0.5);
    EXPECT_NE(campaign_cell_fingerprint(p1), campaign_cell_fingerprint(p2))
        << "param value";
  }
  m = base;
  m.monitors = {"innovation-gate"};
  EXPECT_NE(campaign_cell_fingerprint(m), fp) << "monitors";
  EXPECT_NE(campaign_cell_fingerprint(base, kCampaignCodeVersion + 1), fp)
      << "code version";
}

// ------------------------------------------------------------- cell cache

TEST(CellCache, MissThenStoreThenBitExactHit) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignCellCache cache({scratch_dir("cache_hit")});
  const CampaignSpec spec = small_spec();

  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);

  const CampaignResult fresh = runner.run(spec);
  cache.store(spec, fresh);
  EXPECT_EQ(cache.stats().stores, 1u);

  const auto hit = cache.lookup(spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(experiments::serialize_campaign_result(*hit),
            experiments::serialize_campaign_result(fresh));
}

TEST(CellCache, StaleCodeVersionIsIgnoredNeverServed) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_stale");
  const CampaignSpec spec = small_spec();
  const CampaignResult fresh = runner.run(spec);
  {
    CampaignCellCache old_cache({dir, 0, kCampaignCodeVersion});
    old_cache.store(spec, fresh);
  }
  // Same directory, newer simulation semantics: fingerprints differ, so
  // even a same-named file (forced here by writing under the new key's
  // path) is rejected on its header, counted stale.
  CampaignCellCache new_cache({dir, 0, kCampaignCodeVersion + 1});
  EXPECT_FALSE(new_cache.lookup(spec).has_value());
  EXPECT_EQ(new_cache.stats().stale + new_cache.stats().misses, 1u);

  // Force the stale-header path precisely: copy the old entry to the path
  // the new cache would use.
  CampaignCellCache old_cache({dir, 0, kCampaignCodeVersion});
  fs::copy_file(old_cache.entry_path(spec), new_cache.entry_path(spec),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(new_cache.lookup(spec).has_value());
  EXPECT_EQ(new_cache.stats().stale, 1u);
}

TEST(CellCache, CorruptAndTruncatedEntriesAreCountedNotServed) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  CampaignCellCache cache({scratch_dir("cache_corrupt")});
  const CampaignSpec spec = small_spec();
  cache.store(spec, runner.run(spec));

  // Truncate the entry: the serde layer throws, the cache counts corrupt.
  const std::string path = cache.entry_path(spec);
  std::string blob;
  {
    std::ifstream in(path, std::ios::binary);
    blob.assign(std::istreambuf_iterator<char>(in), {});
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << blob.substr(0, blob.size() / 2);
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.stats().corrupt, 1u);

  // Garbage header.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "not a cache file\n";
  }
  EXPECT_FALSE(cache.lookup(spec).has_value());
  EXPECT_EQ(cache.stats().corrupt, 2u);
}

TEST(CellCache, LruEvictionRemovesOldestFirst) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_lru");
  CampaignCellCache cache({dir, /*max_bytes=*/0});  // store unbounded
  std::vector<CampaignSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(small_spec("lru", 1000 + static_cast<std::uint64_t>(i)));
    cache.store(specs.back(), runner.run(specs.back()));
  }
  // Deterministic ages regardless of filesystem timestamp granularity:
  // entry i is i hours old, entry 0 oldest.
  const auto now = fs::file_time_type::clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    fs::last_write_time(cache.entry_path(specs[i]),
                        now - std::chrono::hours(specs.size() - i));
  }
  const std::uintmax_t entry_size =
      fs::file_size(cache.entry_path(specs[0]));
  // Budget for two entries: the two oldest must go, the two newest stay.
  const std::size_t removed = cache.evict_to_limit(
      static_cast<std::size_t>(entry_size) * 2 + entry_size / 2);
  EXPECT_EQ(removed, 2u);
  EXPECT_FALSE(fs::exists(cache.entry_path(specs[0])));
  EXPECT_FALSE(fs::exists(cache.entry_path(specs[1])));
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[2])));
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[3])));
  EXPECT_EQ(cache.stats().evictions, 2u);

  // A hit re-touches its entry: after hitting specs[2], adding age to
  // specs[3] and evicting to one entry keeps the freshly-hit specs[2].
  fs::last_write_time(cache.entry_path(specs[3]),
                      now - std::chrono::hours(1));
  ASSERT_TRUE(cache.lookup(specs[2]).has_value());
  cache.evict_to_limit(static_cast<std::size_t>(entry_size) +
                       entry_size / 2);
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[2])));
  EXPECT_FALSE(fs::exists(cache.entry_path(specs[3])));
}

TEST(CellCache, TouchCounterLruBeatsCoarseMtimeTies) {
  // Regression (PR 8): eviction order used to be (mtime, path). On a
  // filesystem with 1 s timestamp granularity a hit and a cold store land
  // on the SAME mtime, so the just-hit entry could lose the path tie-break
  // and be evicted before a cold one. The persisted monotonic touch
  // counter orders accesses exactly even when every mtime is equal.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_touch");
  std::vector<CampaignSpec> specs;
  std::size_t hit = 0;
  {
    CampaignCellCache cache({dir, /*max_bytes=*/0});
    for (int i = 0; i < 3; ++i) {
      specs.push_back(
          small_spec("touch", 3000 + static_cast<std::uint64_t>(i)));
      cache.store(specs.back(), runner.run(specs.back()));
    }
    // Worst case: every entry carries the identical mtime.
    const auto now = fs::file_time_type::clock::now();
    for (const auto& s : specs) {
      fs::last_write_time(cache.entry_path(s), now);
    }
    // Hit the entry whose path sorts FIRST — exactly the entry the old
    // (mtime, path) ordering would pick as the eviction victim.
    for (std::size_t i = 1; i < specs.size(); ++i) {
      if (cache.entry_path(specs[i]) < cache.entry_path(specs[hit])) {
        hit = i;
      }
    }
    ASSERT_TRUE(cache.lookup(specs[hit]).has_value());
    const auto entry_size = fs::file_size(cache.entry_path(specs[0]));
    cache.evict_to_limit(static_cast<std::size_t>(entry_size) * 2 +
                         static_cast<std::size_t>(entry_size) / 2);
    EXPECT_TRUE(fs::exists(cache.entry_path(specs[hit])))
        << "just-hit entry was evicted before a cold one";
    // The evicted entry takes its sidecar with it.
    std::size_t rtcr = 0;
    std::size_t touch = 0;
    for (const auto& de : fs::directory_iterator(dir)) {
      rtcr += de.path().extension() == ".rtcr" ? 1 : 0;
      touch += de.path().extension() == ".touch" ? 1 : 0;
    }
    EXPECT_EQ(rtcr, 2u);
    EXPECT_EQ(touch, 2u);
  }
  // A reopened cache reseeds its counter from the persisted max, so a hit
  // in the new process still outranks every access of the old one.
  {
    CampaignCellCache cache({dir, /*max_bytes=*/0});
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (fs::exists(cache.entry_path(specs[i]))) alive.push_back(i);
    }
    ASSERT_EQ(alive.size(), 2u);
    const auto now = fs::file_time_type::clock::now();
    for (const std::size_t i : alive) {
      fs::last_write_time(cache.entry_path(specs[i]), now);
    }
    ASSERT_TRUE(cache.lookup(specs[alive[0]]).has_value());
    const auto entry_size = fs::file_size(cache.entry_path(specs[alive[0]]));
    cache.evict_to_limit(static_cast<std::size_t>(entry_size) +
                         static_cast<std::size_t>(entry_size) / 2);
    EXPECT_TRUE(fs::exists(cache.entry_path(specs[alive[0]])));
    EXPECT_FALSE(fs::exists(cache.entry_path(specs[alive[1]])));
  }
}

TEST(CellCache, EvictionFallsBackToMtimeForCounterlessEntries) {
  // Entries as an older build left them (no .touch sidecar) still evict in
  // mtime order, and sort before any counter-bearing entry.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_mtime_fallback");
  CampaignCellCache cache({dir, /*max_bytes=*/0});
  std::vector<CampaignSpec> specs;
  for (int i = 0; i < 3; ++i) {
    specs.push_back(
        small_spec("fallback", 4000 + static_cast<std::uint64_t>(i)));
    cache.store(specs.back(), runner.run(specs.back()));
  }
  for (const auto& s : specs) {
    fs::remove(fs::path(cache.entry_path(s) + ".touch"));
  }
  const auto now = fs::file_time_type::clock::now();
  for (const auto& s : specs) fs::last_write_time(cache.entry_path(s), now);
  fs::last_write_time(cache.entry_path(specs[1]),
                      now - std::chrono::hours(2));
  const auto entry_size = fs::file_size(cache.entry_path(specs[0]));
  cache.evict_to_limit(static_cast<std::size_t>(entry_size) * 2 +
                       static_cast<std::size_t>(entry_size) / 2);
  EXPECT_FALSE(fs::exists(cache.entry_path(specs[1])));
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[0])));
  EXPECT_TRUE(fs::exists(cache.entry_path(specs[2])));
}

TEST(CellCache, StoreSweepsToConfiguredBudget) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const std::string dir = scratch_dir("cache_budget");
  const CampaignSpec probe = small_spec("probe", 1);
  std::uintmax_t entry_size = 0;
  {
    CampaignCellCache sizer({dir, 0});
    sizer.store(probe, runner.run(probe));
    entry_size = fs::file_size(sizer.entry_path(probe));
  }
  fs::remove_all(dir);
  // Budget of ~2 entries: after storing 4, at most 2 files remain.
  CampaignCellCache cache(
      {dir, static_cast<std::size_t>(entry_size) * 2 + entry_size / 2});
  for (int i = 0; i < 4; ++i) {
    const auto spec =
        small_spec("budget", 2000 + static_cast<std::uint64_t>(i));
    cache.store(spec, runner.run(spec));
  }
  std::size_t files = 0;
  for (const auto& de : fs::directory_iterator(dir)) {
    files += de.path().extension() == ".rtcr" ? 1 : 0;
  }
  EXPECT_LE(files, 2u);
  EXPECT_GE(cache.stats().evictions, 2u);
}

// ------------------------------------------------------- CampaignService

TEST(CampaignService, SecondRequestIsAllHitsAndBitIdentical) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/5566);
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_repeat")};
  cfg.threads = 2;
  CampaignService svc(runner, cfg);

  const auto cold = svc.run_grid(specs);
  EXPECT_EQ(svc.last_request().specs, specs.size());
  EXPECT_EQ(svc.last_request().cache_hits, 0u);

  const auto warm = svc.run_grid(specs);
  EXPECT_EQ(svc.last_request().cache_hits, specs.size());
  EXPECT_EQ(grid_bytes(warm), grid_bytes(cold));
  EXPECT_EQ(svc.cache_stats().hits, specs.size());
  EXPECT_EQ(svc.cache_stats().misses, specs.size());
}

TEST(CampaignService, PartialOverlapRunsOnlyTheMisses) {
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  ServiceConfig cfg;
  cfg.cache = CacheConfig{scratch_dir("svc_partial")};
  CampaignService svc(runner, cfg);

  const std::vector<CampaignSpec> first{small_spec("a", 1),
                                        small_spec("b", 2)};
  (void)svc.run_grid(first);
  const std::vector<CampaignSpec> second{small_spec("b", 2),
                                         small_spec("c", 3)};
  const auto results = svc.run_grid(second);
  EXPECT_EQ(svc.last_request().cache_hits, 1u);
  ASSERT_EQ(results.size(), 2u);
  // Order follows the request, hit or miss.
  EXPECT_EQ(results[0].spec.name, "b");
  EXPECT_EQ(results[1].spec.name, "c");
  EXPECT_EQ(experiments::serialize_campaign_result(results[1]),
            experiments::serialize_campaign_result(
                runner.run(small_spec("c", 3))));
}

TEST(CampaignService, ShardedCacheEntriesMatchInProcessEntries) {
  // The same grid, cached once via the in-process path and once via forked
  // workers, produces byte-identical cache files — the cache is execution-
  // path agnostic, so mixed fleets can share one cache dir.
  LoopConfig loop;
  CampaignRunner runner(loop, {});
  const auto specs = family_grid(/*runs=*/2, /*seed=*/7788);

  ServiceConfig in_proc;
  in_proc.cache = CacheConfig{scratch_dir("svc_inproc")};
  CampaignService a(runner, in_proc);
  (void)a.run_grid(specs);

  ServiceConfig forked;
  forked.cache = CacheConfig{scratch_dir("svc_forked")};
  forked.workers = 3;
  CampaignService b(runner, forked);
  (void)b.run_grid(specs);
  EXPECT_EQ(b.shard_stats().workers, 3u);

  for (const auto& spec : specs) {
    std::ifstream fa(a.cache()->entry_path(spec), std::ios::binary);
    std::ifstream fb(b.cache()->entry_path(spec), std::ios::binary);
    ASSERT_TRUE(fa.good() && fb.good()) << spec.name;
    const std::string ba(std::istreambuf_iterator<char>(fa), {});
    const std::string bb(std::istreambuf_iterator<char>(fb), {});
    EXPECT_EQ(ba, bb) << spec.name;
  }
}

TEST(CampaignService, ExecutorPlugsIntoDefenseGrid) {
  // The GridExecutor hook: a defense grid routed through a cached service
  // equals the plain in-process grid, and a second routed run is all hits.
  LoopConfig loop;
  experiments::DefenseGridConfig cfg;
  cfg.scenarios = {"DS-1"};
  cfg.monitors = {"", "innovation-gate"};
  cfg.modes = {AttackMode::kNoSh, AttackMode::kGolden};
  cfg.runs = 2;
  cfg.threads = 1;
  const auto plain = experiments::run_defense_grid(cfg, loop, {});

  CampaignRunner runner(loop, {});
  ServiceConfig svc_cfg;
  svc_cfg.cache = CacheConfig{scratch_dir("svc_grid")};
  CampaignService svc(runner, svc_cfg);
  cfg.executor = svc.executor();
  const auto routed = experiments::run_defense_grid(cfg, loop, {});
  const auto again = experiments::run_defense_grid(cfg, loop, {});
  EXPECT_EQ(svc.last_request().cache_hits, svc.last_request().specs);

  ASSERT_EQ(routed.cells.size(), plain.cells.size());
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    EXPECT_EQ(routed.cells[i].campaign, plain.cells[i].campaign);
    EXPECT_EQ(routed.cells[i].detected, plain.cells[i].detected);
    EXPECT_EQ(routed.cells[i].triggered, plain.cells[i].triggered);
    EXPECT_DOUBLE_EQ(routed.cells[i].detection_rate,
                     plain.cells[i].detection_rate);
    EXPECT_EQ(again.cells[i].detected, plain.cells[i].detected);
  }
}

}  // namespace
}  // namespace rt::service
