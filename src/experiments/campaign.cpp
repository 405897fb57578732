#include "experiments/campaign.hpp"

#include <algorithm>
#include <mutex>

#include "experiments/campaign_grid.hpp"
#include "experiments/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/summary.hpp"

namespace rt::experiments {

namespace {

/// Registered once per process; the handle itself is a trivially copyable
/// pointer wrapper, so the per-cell cost is one relaxed fetch_add.
const obs::Counter& campaign_cells_counter() {
  static const obs::Counter c = obs::MetricsRegistry::global().counter(
      "rt_campaign_cells_total",
      "Campaign cells (individual closed-loop runs) executed in-process");
  return c;
}

}  // namespace

int CampaignResult::eb_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.eb; }));
}

int CampaignResult::crash_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.crash; }));
}

int CampaignResult::triggered_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.attack.triggered; }));
}

int CampaignResult::ids_flagged_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.ids_flagged; }));
}

double CampaignResult::eb_rate() const {
  return runs.empty() ? 0.0
                      : static_cast<double>(eb_count()) /
                            static_cast<double>(runs.size());
}

double CampaignResult::crash_rate() const {
  return runs.empty() ? 0.0
                      : static_cast<double>(crash_count()) /
                            static_cast<double>(runs.size());
}

double CampaignResult::median_k() const {
  std::vector<double> ks;
  for (const auto& r : runs) {
    if (r.attack.triggered) ks.push_back(r.attack.planned_k);
  }
  return ks.empty() ? 0.0 : stats::median(ks);
}

std::vector<double> CampaignResult::k_primes() const {
  std::vector<double> out;
  for (const auto& r : runs) {
    if (r.attack.triggered && r.attack.k_prime >= 0 &&
        r.attack.vector != core::AttackVector::kDisappear) {
      out.push_back(r.attack.k_prime);
    }
  }
  return out;
}

std::vector<double> CampaignResult::min_deltas() const {
  std::vector<double> out;
  for (const auto& r : runs) {
    if (r.attack.triggered) out.push_back(r.min_delta_since_attack);
  }
  return out;
}

int CampaignResult::detected_count() const {
  return static_cast<int>(
      std::count_if(runs.begin(), runs.end(),
                    [](const RunResult& r) { return r.defense.detected; }));
}

double CampaignResult::detection_rate() const {
  const int triggered = triggered_count();
  return triggered == 0 ? 0.0
                        : static_cast<double>(detected_count()) /
                              static_cast<double>(triggered);
}

int CampaignResult::false_alarm_count() const {
  return static_cast<int>(std::count_if(
      runs.begin(), runs.end(), [](const RunResult& r) {
        return r.defense.flagged && !r.defense.detected;
      }));
}

double CampaignResult::false_alarm_rate() const {
  return runs.empty() ? 0.0
                      : static_cast<double>(false_alarm_count()) /
                            static_cast<double>(runs.size());
}

std::vector<double> CampaignResult::frames_to_detection() const {
  std::vector<double> out;
  for (const auto& r : runs) {
    if (r.defense.detected) {
      out.push_back(static_cast<double>(r.defense.frames_to_detection));
    }
  }
  return out;
}

double CampaignResult::median_frames_to_detection() const {
  const auto frames = frames_to_detection();
  return frames.empty() ? -1.0 : stats::median(frames);
}

std::unique_ptr<core::Robotack> CampaignRunner::make_attacker(
    const CampaignSpec& spec, std::uint64_t run_seed) const {
  if (spec.mode == AttackMode::kGolden) return nullptr;

  core::TimingPolicy timing = core::TimingPolicy::kSafetyHijacker;
  switch (spec.mode) {
    case AttackMode::kRobotack:
      timing = core::TimingPolicy::kSafetyHijacker;
      break;
    case AttackMode::kNoSh:
      timing = core::TimingPolicy::kRandomAfterMatch;
      break;
    case AttackMode::kRandomBaseline:
      timing = core::TimingPolicy::kRandomUnconditional;
      break;
    case AttackMode::kGolden:
      break;
  }

  core::RobotackConfig cfg =
      make_attacker_config(base_, spec.vector, timing);
  if (spec.mode == AttackMode::kRandomBaseline) {
    cfg.randomize_vector = true;
    cfg.randomize_target = true;
  }
  auto attacker = std::make_unique<core::Robotack>(
      cfg, base_.camera, base_.noise, base_.mot, run_seed);
  if (spec.mode == AttackMode::kRobotack) {
    for (const auto& [v, oracle] : oracles_) {
      attacker->set_oracle(v, oracle);
    }
  }
  return attacker;
}

RunResult CampaignRunner::run_one(const CampaignSpec& spec,
                                  int run_index) const {
  RT_TRACE_SPAN("campaign_cell", "campaign",
                static_cast<std::uint64_t>(run_index), "run");
  campaign_cells_counter().inc();
  // Counter-based: stream k is a pure function of (spec.seed, k), with no
  // parent generator shared between runs. This is what makes the parallel
  // scheduler's results independent of thread count and execution order.
  stats::Rng run_rng = stats::Rng::from_stream(
      spec.seed, static_cast<std::uint64_t>(run_index) + 1);
  const auto scenario_seed = run_rng.engine()();
  const auto loop_seed = run_rng.engine()();
  const auto attacker_seed = run_rng.engine()();

  stats::Rng scenario_rng(scenario_seed);
  const auto& registry = sim::ScenarioRegistry::global();
  sim::Scenario scenario =
      spec.params ? registry.make(spec.scenario, *spec.params, scenario_rng)
                  : registry.make(spec.scenario, scenario_rng);

  LoopConfig cfg = base_;
  cfg.keep_timeline = false;
  cfg.monitors = spec.monitors;
  ClosedLoop loop(scenario, cfg, loop_seed);
  loop.set_attacker(make_attacker(spec, attacker_seed));
  return loop.run();
}

CampaignResult CampaignRunner::run(const CampaignSpec& spec) const {
  CampaignResult result;
  result.spec = spec;
  result.runs.reserve(static_cast<std::size_t>(spec.runs));
  for (int i = 0; i < spec.runs; ++i) {
    result.runs.push_back(run_one(spec, i));
  }
  return result;
}

CampaignScheduler::CampaignScheduler(const CampaignRunner& runner,
                                     unsigned threads)
    : runner_(runner),
      threads_(threads == 0 ? ThreadPool::default_threads() : threads) {}

std::vector<GridCell> grid_cells(const std::vector<CampaignSpec>& specs) {
  std::vector<GridCell> cells;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    for (int i = 0; i < specs[s].runs; ++i) cells.push_back({s, i});
  }
  return cells;
}

std::vector<CampaignResult> CampaignScheduler::run_all(
    const std::vector<CampaignSpec>& specs,
    const CampaignProgressFn& on_progress) const {
  std::vector<CampaignResult> results(specs.size());
  for (std::size_t s = 0; s < specs.size(); ++s) {
    results[s].spec = specs[s];
    results[s].runs.resize(
        static_cast<std::size_t>(std::max(0, specs[s].runs)));
  }
  const std::vector<GridCell> cells = grid_cells(specs);

  std::vector<int> done(specs.size(), 0);
  std::mutex progress_mutex;
  ThreadPool pool(threads_);
  pool.parallel_for(static_cast<int>(cells.size()), [&](int c) {
    const GridCell cell = cells[static_cast<std::size_t>(c)];
    results[cell.spec].runs[static_cast<std::size_t>(cell.run)] =
        runner_.run_one(specs[cell.spec], cell.run);
    if (on_progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      on_progress(cell.spec, ++done[cell.spec], specs[cell.spec].runs);
    }
  });
  return results;
}

CampaignResult CampaignScheduler::run(const CampaignSpec& spec) const {
  return run_all({spec}).front();
}

std::vector<CampaignSpec> table2_campaigns(int runs_per,
                                           std::uint64_t seed) {
  using core::AttackVector;
  return CampaignGridBuilder()
      .runs(runs_per)
      .seed(seed)
      .vectors({AttackVector::kDisappear, AttackVector::kMoveOut})
      .scenarios({"DS-1", "DS-2"})
      .add_grid()
      .vectors({AttackVector::kMoveIn})
      .scenarios({"DS-3", "DS-4"})
      .add_grid()
      .modes({AttackMode::kRandomBaseline})
      .vectors({AttackVector::kMoveOut})
      .scenarios({"DS-5"})
      .build();
}

std::vector<CampaignSpec> no_sh_campaigns(int runs_per, std::uint64_t seed) {
  using core::AttackVector;
  return CampaignGridBuilder()
      .runs(runs_per)
      .seed(seed)
      .modes({AttackMode::kNoSh})
      .vectors({AttackVector::kDisappear, AttackVector::kMoveOut})
      .scenarios({"DS-1", "DS-2"})
      .add_grid()
      .vectors({AttackVector::kMoveIn})
      .scenarios({"DS-3", "DS-4"})
      .build();
}

}  // namespace rt::experiments
