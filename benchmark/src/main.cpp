// rtbench: the in-process half of the repository benchmark (run by
// benchmark/run.py; see benchmark/README.md).
//
//   rtbench setup
//       Loads the oracle set and builds the runner, prints `ready`, exits.
//   rtbench inproc --workload table2_paper|defense_serial --seed N
//                  --seconds T --trace 0|1
//       Runs one in-process workload for about T seconds.
//   rtbench cache-scan --dir DIR --seconds T --trace 0|1
//       Reads the campaigns a campaign_server stored in its cache DIR,
//       counts their runs and frames and, when traced, replays a sample of
//       their cells through the traced frame loop.
//
// Readable lines go to stdout first; the last line is one JSON object.

#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/sh_training.hpp"
#include "experiments/thread_pool.hpp"
#include "experiments/transfer_matrix.hpp"
#include "frame_tracer.hpp"
#include "obs/clock.hpp"
#include "obs/trace.hpp"
#include "service/cell_cache.hpp"
#include "sim/scenario_registry.hpp"
#include "stats/hash.hpp"
#include "stats/rng.hpp"

using namespace rt;
using experiments::AttackMode;
using experiments::CampaignResult;
using experiments::CampaignRunner;
using experiments::CampaignSpec;
using experiments::GridCell;
using experiments::RunResult;
using rtbench::LayerTimes;

namespace {

// ---------------------------------------------------------------------------
// Small utilities.

class JsonObject {
 public:
  JsonObject& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonObject& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::MonotonicClock::now_ns() - start_ns) / 1e6;
}

std::uint64_t digest_of(const std::vector<CampaignResult>& results) {
  std::uint64_t h = stats::kFnv1aOffset;
  for (const auto& r : results) {
    h = stats::fnv1a_str(h, experiments::serialize_campaign_result(r));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

experiments::OracleSet load_oracles(const experiments::LoopConfig& loop) {
  const experiments::ShTrainingConfig cfg;
  return experiments::load_or_train_oracles(
      experiments::default_cache_dir(), loop, cfg);
}

// ---------------------------------------------------------------------------
// Workloads.

/// Runs per Table II campaign. The paper reports 131-185 runs per row; these
/// are the counts in that range that reproduce every percentage it prints
/// for the row (the closest fit where several do).
const std::map<std::string, int>& paper_runs() {
  static const std::map<std::string, int> runs{
      {"DS-1-Disappear-R", 142}, {"DS-2-Disappear-R", 178},
      {"DS-1-Move_Out-R", 185},  {"DS-2-Move_Out-R", 138},
      {"DS-3-Move_In-R", 149},   {"DS-4-Move_In-R", 177},
      {"DS-5-Baseline-Random", 131}};
  return runs;
}

/// Runs per campaign of the defense matrix: 99 campaigns, about two seconds
/// of serial work per pass on a 2 GHz core.
constexpr int kDefenseRuns = 8;

struct Workload {
  std::vector<CampaignSpec> specs;
  unsigned threads{1};
  /// One request is the whole grid (run by the scheduler); otherwise one
  /// request is one campaign, run serially.
  bool grid_request{false};
};

Workload make_workload(const std::string& name, std::uint64_t seed) {
  const std::uint64_t base = 20200613 + seed * 1000003;
  if (name == "table2_paper") {
    Workload w;
    w.specs = experiments::table2_campaigns(1, base);
    for (auto& s : w.specs) s.runs = paper_runs().at(s.name);
    w.threads = 4;
    w.grid_request = true;
    return w;
  }
  if (name == "defense_serial") {
    experiments::CampaignGridBuilder builder;
    builder.runs(kDefenseRuns)
        .seed(base)
        .modes({AttackMode::kRobotack, AttackMode::kNoSh,
                AttackMode::kGolden})
        .monitors({"innovation-gate", "sensor-consistency", "kinematics"});
    for (const auto& family : sim::ScenarioRegistry::global().keys()) {
      builder.scenarios({family})
          .vectors({experiments::transfer_vector_for(family)})
          .add_grid();
    }
    Workload w;
    w.specs = builder.build();
    return w;
  }
  throw std::invalid_argument("unknown in-process workload '" + name + "'");
}

std::uint64_t runs_of(const std::vector<CampaignSpec>& specs) {
  std::uint64_t n = 0;
  for (const auto& s : specs) n += static_cast<std::uint64_t>(s.runs);
  return n;
}

std::uint64_t frames_in(const std::vector<CampaignResult>& results,
                        double dt) {
  std::uint64_t n = 0;
  for (const auto& r : results) {
    for (const auto& run : r.runs) n += rtbench::frames_of(run, dt);
  }
  return n;
}

struct Pass {
  double wall_s{0.0};
  std::vector<double> request_ms;
  std::vector<CampaignResult> results;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

Pass run_pass(const CampaignRunner& runner, const Workload& w) {
  Pass p;
  const obs::Stopwatch watch;
  if (w.grid_request) {
    const experiments::CampaignScheduler scheduler(runner, w.threads);
    p.results = scheduler.run_all(w.specs);
    p.request_ms.push_back(watch.elapsed_ms());
  } else {
    // On a shared host each core's speed drifts with its neighbours' load,
    // and a serial run would stay on whichever core it started on. Moving
    // it to the next allowed core every campaign makes every pass sample
    // all cores alike.
    const std::vector<int> cpus = allowed_cpus();
    const bool rotate = cpus.size() > 1;
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
      if (rotate) pin_to({cpus[i % cpus.size()]});
      const obs::Stopwatch request;
      p.results.push_back(runner.run(w.specs[i]));
      p.request_ms.push_back(request.elapsed_ms());
    }
    if (rotate) pin_to(cpus);
  }
  p.wall_s = watch.elapsed_s();
  return p;
}

/// A pass with the program's own span tracer armed; returns the durations
/// of its `campaign_cell` spans (ms).
Pass run_span_pass(const CampaignRunner& runner, const Workload& w,
                   std::vector<double>& cell_ms) {
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.arm(obs::TraceConfig{1 << 18});
  Pass p = run_pass(runner, w);
  tracer.disarm();
  for (const auto& [tid, span] : tracer.collect_local()) {
    if (std::strcmp(span.name, "campaign_cell") == 0) {
      cell_ms.push_back(static_cast<double>(span.dur_ns) / 1e6);
    }
  }
  if (tracer.dropped_spans() != 0) {
    std::printf("warning: %" PRIu64 " spans dropped by the span tracer\n",
                tracer.dropped_spans());
  }
  tracer.clear();
  return p;
}

struct TracedPass {
  double wall_s{0.0};
  LayerTimes times;
  std::uint64_t attacked{0};
  std::uint64_t triggered{0};
  std::uint64_t mismatches{0};
};

/// Every cell through the traced frame loop, on the workload's thread
/// count; each run is compared with `reference` (CampaignRunner results).
TracedPass run_traced_pass(const CampaignRunner& runner, const Workload& w,
                           const std::vector<CampaignResult>& reference) {
  const std::vector<GridCell> cells = experiments::grid_cells(w.specs);
  std::vector<LayerTimes> times(cells.size());
  std::vector<RunResult> runs(cells.size());
  const obs::Stopwatch watch;
  {
    experiments::ThreadPool pool(w.threads);
    pool.parallel_for(static_cast<int>(cells.size()), [&](int i) {
      const auto c = static_cast<std::size_t>(i);
      runs[c] = rtbench::traced_run_one(runner, w.specs[cells[c].spec],
                                        cells[c].run, times[c]);
    });
  }
  TracedPass p;
  p.wall_s = watch.elapsed_s();
  const double dt = runner.loop_config().camera_dt();
  for (std::size_t c = 0; c < cells.size(); ++c) {
    p.times.add(times[c]);
    const RunResult& ref =
        reference[cells[c].spec].runs[static_cast<std::size_t>(cells[c].run)];
    if (experiments::serialize_run_result(runs[c]) !=
            experiments::serialize_run_result(ref) ||
        times[c].frames != rtbench::frames_of(ref, dt)) {
      ++p.mismatches;
    }
    if (w.specs[cells[c].spec].mode != AttackMode::kGolden) {
      ++p.attacked;
      if (runs[c].attack.triggered) ++p.triggered;
    }
  }
  return p;
}

/// The frame-loop per-layer metrics of `t`.
void add_layer_metrics(JsonObject& out, const LayerTimes& t,
                       std::uint64_t attacked, std::uint64_t triggered) {
  const double frames = std::max<double>(1.0, static_cast<double>(t.frames));
  const auto per_frame = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / frames;
  };
  out.num("sim.ground_truth_ns_per_frame", per_frame(t.ground_truth_ns))
      .num("sim.step_ns_per_frame", per_frame(t.step_ns))
      .num("perception.detector_ns_per_frame", per_frame(t.detector_ns))
      .num("perception.lidar_ns_per_scan",
           static_cast<double>(t.lidar_ns) /
               std::max<double>(1.0, static_cast<double>(t.scans)))
      .num("perception.stack_ns_per_frame", per_frame(t.perception_ns))
      .num("perception.detections_per_frame",
           static_cast<double>(t.detections) / frames)
      .num("core.robotack_ns_per_frame", per_frame(t.robotack_ns))
      .num("core.trigger_share",
           attacked ? static_cast<double>(triggered) /
                          static_cast<double>(attacked)
                    : 0.0)
      .num("ads.plan_ns_per_frame", per_frame(t.plan_ns))
      .num("safety.record_ns_per_frame", per_frame(t.record_ns))
      .num("defense.monitors_ns_per_frame", per_frame(t.monitors_ns))
      .num("experiments.frames_per_run",
           static_cast<double>(t.frames) /
               std::max<double>(1.0, static_cast<double>(t.runs)));
}

// ---------------------------------------------------------------------------
// Table II accuracy (informational).

struct PaperRow {
  const char* name;
  double k;
  double eb_pct;
  double crash_pct;  // negative: the paper gives none
};

constexpr PaperRow kPaperRows[] = {
    {"DS-1-Disappear-R", 48, 53.5, 31.7},
    {"DS-2-Disappear-R", 14, 94.4, 82.6},
    {"DS-1-Move_Out-R", 65, 37.3, 17.3},
    {"DS-2-Move_Out-R", 32, 97.8, 84.1},
    {"DS-3-Move_In-R", 48, 94.6, -1},
    {"DS-4-Move_In-R", 24, 78.5, -1},
    {"DS-5-Baseline-Random", -1, 2.3, 0.0},
};

/// "p% [lo, hi]" with the 95% Wilson score interval of k successes in n.
std::string wilson(int k, int n) {
  if (n <= 0) return "-";
  const double z = 1.959963984540054;
  const double p = static_cast<double>(k) / n;
  const double denom = 1.0 + z * z / n;
  const double centre = (p + z * z / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%5.1f%% [%5.1f, %5.1f]", 100.0 * p,
                100.0 * std::max(0.0, centre - half),
                100.0 * std::min(1.0, centre + half));
  return buf;
}

void print_table2_accuracy(const std::vector<CampaignResult>& results) {
  std::printf("Table II at paper scale: measured (95%% Wilson) vs paper\n");
  int r_runs = 0, r_eb = 0, crash_runs = 0, r_crash = 0;
  int ped_runs = 0, ped_ok = 0, veh_runs = 0, veh_ok = 0;
  int rnd_runs = 0, rnd_eb = 0, rnd_crash = 0;
  for (const auto& r : results) {
    const PaperRow* paper = nullptr;
    for (const auto& row : kPaperRows) {
      if (r.spec.name == row.name) paper = &row;
    }
    if (paper == nullptr) continue;
    const bool move_in = r.spec.vector == core::AttackVector::kMoveIn;
    std::printf("  %-22s n=%3d  K %3.0f (paper %s)  EB %s (paper %4.1f%%)",
                r.spec.name.c_str(), r.n(), r.median_k(),
                paper->k < 0 ? "K*" : std::to_string(int(paper->k)).c_str(),
                wilson(r.eb_count(), r.n()).c_str(), paper->eb_pct);
    if (paper->crash_pct >= 0) {
      std::printf("  crash %s (paper %4.1f%%)",
                  wilson(r.crash_count(), r.n()).c_str(), paper->crash_pct);
    }
    std::printf("\n");
    if (r.spec.mode == AttackMode::kRobotack) {
      r_runs += r.n();
      r_eb += r.eb_count();
      if (!move_in) {
        crash_runs += r.n();
        r_crash += r.crash_count();
      }
      const bool ped = r.spec.scenario == "DS-2" || r.spec.scenario == "DS-4";
      for (const auto& run : r.runs) {
        const bool ok = move_in ? run.eb : run.crash;
        (ped ? ped_runs : veh_runs) += 1;
        (ped ? ped_ok : veh_ok) += ok ? 1 : 0;
      }
    } else {
      rnd_runs += r.n();
      rnd_eb += r.eb_count();
      rnd_crash += r.crash_count();
    }
  }
  std::printf("  RoboTack forced EB         %s  paper 75.2%%\n",
              wilson(r_eb, r_runs).c_str());
  std::printf("  RoboTack accidents         %s  paper 52.6%%\n",
              wilson(r_crash, crash_runs).c_str());
  std::printf("  random baseline EB         %s  paper  2.3%%\n",
              wilson(rnd_eb, rnd_runs).c_str());
  std::printf("  random baseline accidents  %s  paper  0.0%%\n",
              wilson(rnd_crash, rnd_runs).c_str());
  std::printf("  attack success, pedestrians %s  paper 84.1%%\n",
              wilson(ped_ok, ped_runs).c_str());
  std::printf("  attack success, vehicles    %s  paper 31.7%%\n",
              wilson(veh_ok, veh_runs).c_str());
}

// ---------------------------------------------------------------------------
// Modes.

int run_inproc(const std::string& name, std::uint64_t seed, double seconds,
               bool trace) {
  const experiments::LoopConfig loop;
  const CampaignRunner runner(loop, load_oracles(loop));
  const Workload w = make_workload(name, seed);
  const double dt = loop.camera_dt();
  const std::uint64_t runs = runs_of(w.specs);
  std::printf("workload %s: %zu campaigns, %" PRIu64
              " runs per pass, %u thread(s)\n",
              name.c_str(), w.specs.size(), runs, w.threads);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t first_digest = 0;
  const auto check_digest = [&](const Pass& p) {
    attempted += runs;
    const std::uint64_t d = digest_of(p.results);
    if (first_digest == 0) first_digest = d;
    if (d != first_digest) failed += runs;
  };

  JsonObject out;
  out.count("threads", w.threads).count("runs_per_pass", runs);
  const obs::Stopwatch window;
  Pass last;
  try {
    if (!trace) {
      std::vector<double> walls, run_rates, frame_rates, request_ms;
      while (walls.size() < 2 || window.elapsed_s() < seconds) {
        Pass p = run_pass(runner, w);
        check_digest(p);
        walls.push_back(p.wall_s);
        run_rates.push_back(static_cast<double>(runs) / p.wall_s);
        frame_rates.push_back(static_cast<double>(frames_in(p.results, dt)) /
                              p.wall_s);
        request_ms.insert(request_ms.end(), p.request_ms.begin(),
                          p.request_ms.end());
        if (walls.size() == 1 && name == "table2_paper") {
          print_table2_accuracy(p.results);
        }
        last = std::move(p);
      }
      out.raw("pass_wall_s", json_array(walls))
          .raw("runs_per_s", json_array(run_rates))
          .raw("sim_frames_per_s", json_array(frame_rates))
          .raw("latency_ms", json_array(request_ms));
    } else {
      std::vector<double> plain_s, span_s, traced_s, idle, cell_ms;
      LayerTimes times;
      std::uint64_t attacked = 0, triggered = 0;
      while (plain_s.empty() || window.elapsed_s() < seconds) {
        Pass a = run_pass(runner, w);
        check_digest(a);
        plain_s.push_back(a.wall_s);

        std::vector<double> cells;
        Pass b = run_span_pass(runner, w, cells);
        check_digest(b);
        span_s.push_back(b.wall_s);
        double busy_ms = 0.0;
        for (const double ms : cells) busy_ms += ms;
        idle.push_back(1.0 - busy_ms / (1e3 * b.wall_s * w.threads));
        cell_ms.insert(cell_ms.end(), cells.begin(), cells.end());

        const TracedPass c = run_traced_pass(runner, w, b.results);
        attempted += runs;
        failed += c.mismatches;
        traced_s.push_back(c.wall_s);
        times.add(c.times);
        attacked += c.attacked;
        triggered += c.triggered;
        last = std::move(b);
      }
      JsonObject layers;
      add_layer_metrics(layers, times, attacked, triggered);
      layers.num("experiments.run_ms_p50", quantile(cell_ms, 0.5))
          .num("experiments.run_ms_p99", quantile(cell_ms, 0.99))
          .num("experiments.thread_idle_share", quantile(idle, 0.5))
          .num("trace.frame_loop_overhead_share",
               quantile(traced_s, 0.5) / quantile(plain_s, 0.5) - 1.0)
          .num("trace.span_overhead_share",
               quantile(span_s, 0.5) / quantile(plain_s, 0.5) - 1.0);
      std::printf("traced: %zu cycles; frame loop %.3f s vs untraced %.3f s "
                  "(median pass)\n",
                  plain_s.size(), quantile(traced_s, 0.5),
                  quantile(plain_s, 0.5));
      out.raw("layers", layers.dump());
    }

    // A sample of cells re-run serially through CampaignRunner::run_one.
    const std::vector<GridCell> cells = experiments::grid_cells(w.specs);
    stats::Rng pick(seed + 77);
    std::uint64_t sample_failed = 0;
    constexpr int kSample = 32;
    for (int s = 0; s < kSample; ++s) {
      const GridCell& c = cells[pick.engine()() % cells.size()];
      const RunResult ref = runner.run_one(w.specs[c.spec], c.run);
      if (experiments::serialize_run_result(ref) !=
          experiments::serialize_run_result(
              last.results[c.spec].runs[static_cast<std::size_t>(c.run)])) {
        ++sample_failed;
      }
    }
    attempted += kSample;
    failed += sample_failed;
    std::printf("output digest %s; %d sampled cells vs serial run_one: %" PRIu64
                " mismatched\n",
                hex(first_digest).c_str(), kSample, sample_failed);
  } catch (const std::exception& e) {
    std::printf("run failed: %s\n", e.what());
    attempted += runs;
    failed += runs;
  }
  out.str("digest", hex(first_digest))
      .count("attempted", attempted)
      .count("failed", failed);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int run_cache_scan(const std::string& dir, double seconds, bool trace) {
  namespace fs = std::filesystem;
  const experiments::LoopConfig loop;
  const double dt = loop.camera_dt();
  service::CampaignCellCache cache(service::CacheConfig{dir, 0});
  std::vector<CampaignResult> stored;
  std::uint64_t failed = 0;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.rfind("cell_", 0) == 0 && entry.path().extension() == ".rtcr") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string blob = buf.str();
    try {
      const CampaignSpec spec = experiments::deserialize_campaign_result(
                                    blob.substr(blob.find('\n') + 1))
                                    .spec;
      auto hit = cache.lookup(spec);
      if (!hit) throw std::runtime_error("entry did not validate");
      stored.push_back(std::move(*hit));
    } catch (const std::exception& e) {
      std::printf("cache entry %s: %s\n", path.string().c_str(), e.what());
      ++failed;
    }
  }
  std::uint64_t runs = 0;
  for (const auto& r : stored) runs += static_cast<std::uint64_t>(r.n());
  JsonObject out;
  out.count("entries", stored.size())
      .count("runs", runs)
      .count("frames", frames_in(stored, dt));
  std::uint64_t attempted = stored.size();

  if (trace && runs > 0) {
    const CampaignRunner runner(loop, load_oracles(loop));
    std::vector<std::pair<std::size_t, int>> cells;
    for (std::size_t s = 0; s < stored.size(); ++s) {
      for (int i = 0; i < stored[s].n(); ++i) cells.emplace_back(s, i);
    }
    stats::Rng shuffle(0x5eed);
    for (std::size_t i = cells.size(); i > 1; --i) {
      std::swap(cells[i - 1], cells[shuffle.engine()() % i]);
    }
    LayerTimes times;
    std::uint64_t attacked = 0, triggered = 0;
    double plain_ms = 0.0, traced_ms = 0.0;
    const obs::Stopwatch window;
    std::size_t done = 0;
    for (; done < cells.size() && (done == 0 || window.elapsed_s() < seconds);
         ++done) {
      const auto [s, i] = cells[done];
      const CampaignSpec& spec = stored[s].spec;
      const std::string ref = experiments::serialize_run_result(
          stored[s].runs[static_cast<std::size_t>(i)]);
      std::uint64_t t0 = obs::MonotonicClock::now_ns();
      const RunResult plain = runner.run_one(spec, i);
      plain_ms += ms_since(t0);
      t0 = obs::MonotonicClock::now_ns();
      LayerTimes one;
      const RunResult traced = rtbench::traced_run_one(runner, spec, i, one);
      traced_ms += ms_since(t0);
      times.add(one);
      if (experiments::serialize_run_result(plain) != ref ||
          experiments::serialize_run_result(traced) != ref) {
        ++failed;
      }
      if (spec.mode != AttackMode::kGolden) {
        ++attacked;
        if (traced.attack.triggered) ++triggered;
      }
    }
    attempted += done;
    JsonObject layers;
    add_layer_metrics(layers, times, attacked, triggered);
    layers.num("trace.frame_loop_overhead_share",
               plain_ms > 0.0 ? traced_ms / plain_ms - 1.0 : 0.0);
    out.raw("layers", layers.dump()).count("traced_cells", done);
  }
  out.count("attempted", attempted).count("failed", failed);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

[[noreturn]] void usage(int code) {
  std::fprintf(code ? stderr : stdout,
               "usage: rtbench setup\n"
               "       rtbench inproc --workload NAME --seed N --seconds T "
               "--trace 0|1\n"
               "       rtbench cache-scan --dir DIR --seconds T --trace 0|1\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(2);
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) usage(2);
    flags[argv[i] + 2] = argv[i + 1];
    ++i;
  }
  const auto flag = [&](const char* key) -> std::string {
    const auto it = flags.find(key);
    if (it == flags.end()) usage(2);
    return it->second;
  };
  try {
    if (mode == "setup") {
      const experiments::LoopConfig loop;
      const CampaignRunner runner(loop, load_oracles(loop));
      std::printf("ready\n");
      return 0;
    }
    if (mode == "inproc") {
      return run_inproc(flag("workload"), std::stoull(flag("seed")),
                        std::stod(flag("seconds")), flag("trace") == "1");
    }
    if (mode == "cache-scan") {
      return run_cache_scan(flag("dir"), std::stod(flag("seconds")),
                            flag("trace") == "1");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtbench: %s\n", e.what());
    return 1;
  }
  usage(2);
}
