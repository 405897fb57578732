// Reproduces Table II: smart-malware attack summary vs the random baseline,
// plus the paper's §VI headline aggregates (EB / crash rates, pedestrian vs
// vehicle asymmetry).

#include <cstdio>

#include "bench_util.hpp"
#include "experiments/reporting.hpp"
#include "experiments/thread_pool.hpp"
#include "obs/clock.hpp"

using namespace rt;

namespace {

struct PaperRow {
  const char* id;
  double k;
  double eb_pct;
  double crash_pct;  // negative: not applicable
};

constexpr PaperRow kPaper[] = {
    {"DS-1-Disappear-R", 48, 53.5, 31.7},
    {"DS-2-Disappear-R", 14, 94.4, 82.6},
    {"DS-1-Move_Out-R", 65, 37.3, 17.3},
    {"DS-2-Move_Out-R", 32, 97.8, 84.1},
    {"DS-3-Move_In-R", 48, 94.6, -1},
    {"DS-4-Move_In-R", 24, 78.5, -1},
    {"DS-5-Baseline-Random", -1, 2.3, 0.0},
};

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv, /*default_seed=*/20200613);
  bench::header("Table II — attack summary (paper vs measured)");
  experiments::LoopConfig loop;
  const auto oracles = bench::oracles(loop);
  experiments::CampaignRunner runner(loop, oracles);

  experiments::CampaignScheduler scheduler(runner, opts.threads);
  const auto svc = bench::make_service(runner, opts);

  const int n = opts.runs;
  std::printf("runs per campaign: %d (--runs or ROBOTACK_RUNS to change)\n",
              n);
  std::printf("scheduler threads: %u (--threads or ROBOTACK_THREADS)\n",
              scheduler.threads());
  if (opts.workers >= 1) {
    std::printf("grid workers: %u forked processes (--workers)\n",
                opts.workers);
  }

  std::vector<std::string> head{"ID",       "K(paper)", "K",     "#runs",
                                "EB(paper)", "EB",       "crash(paper)",
                                "crash"};
  std::vector<std::vector<std::string>> rows;

  int total_runs = 0;
  int total_eb = 0;
  int crashable_runs = 0;
  int total_crash = 0;
  int ped_runs = 0;
  int ped_success = 0;
  int veh_runs = 0;
  int veh_success = 0;
  int random_runs = 0;
  int random_eb = 0;
  int random_crash = 0;

  const auto specs = experiments::table2_campaigns(n, opts.seed);
  const obs::Stopwatch watch;
  const auto results = svc->run_grid(specs);
  const double elapsed = watch.elapsed_s();
  int grid_runs = 0;
  for (const auto& r : results) grid_runs += r.n();
  std::printf("grid: %d runs in %.2f s  (%.1f runs/sec at %u threads)\n",
              grid_runs, elapsed, grid_runs / elapsed, scheduler.threads());
  bench::report_service_stats(*svc);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto& result = results[i];
    const PaperRow& paper = kPaper[i];
    const bool move_in = specs[i].vector == core::AttackVector::kMoveIn &&
                         specs[i].mode == experiments::AttackMode::kRobotack;
    rows.push_back(
        {specs[i].name,
         paper.k < 0 ? "K*" : experiments::fmt(paper.k, 0),
         experiments::fmt(result.median_k(), 0),
         std::to_string(result.n()),
         experiments::fmt_pct(paper.eb_pct / 100.0),
         experiments::fmt_pct(result.eb_rate()),
         paper.crash_pct < 0 ? "-" : experiments::fmt_pct(paper.crash_pct / 100.0),
         move_in ? "-" : experiments::fmt_pct(result.crash_rate())});

    if (specs[i].mode == experiments::AttackMode::kRobotack) {
      total_runs += result.n();
      total_eb += result.eb_count();
      if (!move_in) {
        crashable_runs += result.n();
        total_crash += result.crash_count();
      }
      const bool is_ped =
          specs[i].scenario == "DS-2" || specs[i].scenario == "DS-4";
      for (const auto& r : result.runs) {
        const bool success = move_in ? r.eb : r.crash;
        (is_ped ? ped_runs : veh_runs) += 1;
        (is_ped ? ped_success : veh_success) += static_cast<int>(success);
      }
    } else {
      random_runs += result.n();
      random_eb += result.eb_count();
      random_crash += result.crash_count();
    }
  }
  std::printf("%s", experiments::format_table(head, rows).c_str());
  bench::maybe_write_csv(opts, head, rows);

  bench::header("headline aggregates (paper -> measured)");
  const double r_eb = total_runs ? 100.0 * total_eb / total_runs : 0.0;
  const double r_crash =
      crashable_runs ? 100.0 * total_crash / crashable_runs : 0.0;
  const double rnd_eb = random_runs ? 100.0 * random_eb / random_runs : 0.0;
  std::printf("RoboTack forced EB:        paper 75.2%%   measured %.1f%%\n",
              r_eb);
  std::printf("RoboTack accidents:        paper 52.6%%   measured %.1f%%\n",
              r_crash);
  std::printf("Random baseline EB:        paper  2.3%%   measured %.1f%%\n",
              rnd_eb);
  std::printf("Random baseline accidents: paper  0.0%%   measured %.1f%%\n",
              random_runs ? 100.0 * random_crash / random_runs : 0.0);
  std::printf("EB ratio RoboTack/random:  paper ~33x    measured %.1fx\n",
              rnd_eb > 0.0 ? r_eb / rnd_eb : 0.0);
  std::printf(
      "attack success, pedestrians: paper 84.1%%  measured %.1f%%\n",
      ped_runs ? 100.0 * ped_success / ped_runs : 0.0);
  std::printf(
      "attack success, vehicles:    paper 31.7%%  measured %.1f%%\n",
      veh_runs ? 100.0 * veh_success / veh_runs : 0.0);
  bench::finish_observability(opts);
  return 0;
}
