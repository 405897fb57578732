// Transfer-matrix harness: per-family vector mapping, the 2x2 golden
// (deterministic accuracies at a fixed seed, thread-count-invariant), full
// registry coverage, and the CSV schema through reporting::write_csv.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/reporting.hpp"
#include "experiments/transfer_matrix.hpp"

namespace rt::experiments {
namespace {

using core::AttackVector;

// The 2x2 golden configuration: two deterministic Move_Out families, an
// 8-launch grid per family, 50% holdout, a cheap 10-epoch fit, and two
// R-mode campaign runs per cell.
TransferConfig golden_config(unsigned threads) {
  TransferConfig cfg;
  cfg.eval_families = {"DS-1", "cut-in"};
  cfg.sh.delta_triggers = {12.0, 20.0};
  cfg.sh.ks = {10, 30};
  cfg.sh.repeats = 1;
  cfg.sh.seed = 123;
  cfg.sh.train.epochs = 10;
  cfg.sh.train.patience = 0;
  cfg.holdout_fraction = 0.5;
  cfg.tolerance_m = 10.0;
  cfg.campaign_runs = 2;
  cfg.threads = threads;
  return cfg;
}

void expect_identical(const TransferMatrix& a, const TransferMatrix& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const TransferCell& ca = a.cells[i];
    const TransferCell& cb = b.cells[i];
    EXPECT_EQ(ca.train_set, cb.train_set) << "cell " << i;
    EXPECT_EQ(ca.eval_family, cb.eval_family) << "cell " << i;
    EXPECT_EQ(ca.n_eval, cb.n_eval) << "cell " << i;
    EXPECT_DOUBLE_EQ(ca.accuracy, cb.accuracy) << "cell " << i;
    EXPECT_DOUBLE_EQ(ca.mae_m, cb.mae_m) << "cell " << i;
    EXPECT_DOUBLE_EQ(ca.ttc_err_s, cb.ttc_err_s) << "cell " << i;
    EXPECT_EQ(ca.campaign_n, cb.campaign_n) << "cell " << i;
    EXPECT_DOUBLE_EQ(ca.triggered_rate, cb.triggered_rate) << "cell " << i;
    EXPECT_DOUBLE_EQ(ca.eb_rate, cb.eb_rate) << "cell " << i;
    EXPECT_DOUBLE_EQ(ca.crash_rate, cb.crash_rate) << "cell " << i;
  }
}

TEST(TransferVector, PerFamilyMapping) {
  // DS-3/DS-4 victims hold position outside the ego lane — Table I admits
  // only Move_In there; everything else launches Move_Out.
  EXPECT_EQ(transfer_vector_for("DS-3"), AttackVector::kMoveIn);
  EXPECT_EQ(transfer_vector_for("DS-4"), AttackVector::kMoveIn);
  for (const char* family : {"DS-1", "DS-2", "DS-5", "cut-in",
                             "staggered-crossing", "dense-follow"}) {
    EXPECT_EQ(transfer_vector_for(family), AttackVector::kMoveOut) << family;
  }
}

TEST(TransferMatrix, TwoByTwoGoldenPinnedAndThreadInvariant) {
  LoopConfig loop;
  const auto one = run_transfer_matrix(golden_config(1), loop);
  ASSERT_EQ(one.cells.size(), 4u);
  EXPECT_EQ(one.train_sets, (std::vector<std::string>{"DS-1", "cut-in"}));
  EXPECT_EQ(one.eval_families,
            (std::vector<std::string>{"DS-1", "cut-in"}));

  // Pinned values (measured at commit time; exact, not statistical — the
  // whole pipeline is deterministic at a fixed seed). Any drift means
  // launch, split, training or campaign semantics changed.
  //
  // Re-pinned for the PR 8 counter-based noise migration (one engine word
  // per Rng::normal through the inverse CDF; the historical
  // std::normal_distribution stream stays reachable via RT_LEGACY_NOISE=1).
  // Old pins on this grid: mae DS-1->DS-1 8.4733690983661347 (acc 0.5),
  // DS-1->cut-in 7.5470456983593621 (acc 1.0), cut-in->DS-1
  // 14.114461896810651 (acc 0.5), cut-in->cut-in 17.376726977518665
  // (acc 0.0), and no cell triggered its 2-run campaign.
  struct Pin {
    const char* train;
    const char* eval;
    int n_eval;
    double accuracy;
    double mae_m;
  };
  const Pin pins[] = {
      {"DS-1", "DS-1", 2, 0.0, 20.077491194220428},
      {"DS-1", "cut-in", 1, 0.0, 24.20696423505046},
      {"cut-in", "DS-1", 2, 0.0, 23.934925207792965},
      {"cut-in", "cut-in", 1, 0.0, 34.06416160743732},
  };
  for (const Pin& pin : pins) {
    const TransferCell& cell = one.at(pin.train, pin.eval);
    EXPECT_EQ(cell.n_eval, pin.n_eval) << pin.train << "->" << pin.eval;
    EXPECT_DOUBLE_EQ(cell.accuracy, pin.accuracy)
        << pin.train << "->" << pin.eval;
    EXPECT_NEAR(cell.mae_m, pin.mae_m, 1e-9)
        << pin.train << "->" << pin.eval;
    EXPECT_GT(cell.ttc_err_s, 0.0);
    // Behavioral columns ran (2 campaign runs; under the counter-based
    // noise the tiny-grid oracles launch in every run — also pinned).
    EXPECT_EQ(cell.campaign_n, 2);
    EXPECT_DOUBLE_EQ(cell.triggered_rate, 1.0);
  }

  // The determinism contract: bit-identical at 8 threads and on a re-run.
  const auto many = run_transfer_matrix(golden_config(8), loop);
  expect_identical(one, many);
}

TEST(TransferMatrix, CoversEveryRegisteredFamily) {
  // Default train sets/eval families = the whole registry: every family
  // trains an oracle and yields held-out launches (n_eval > 0 on the
  // diagonal proves the per-family vector mapping scripts real launches
  // everywhere). Campaigns are disabled to keep this fast.
  LoopConfig loop;
  TransferConfig cfg;
  cfg.sh.delta_triggers = {12.0, 20.0};
  cfg.sh.ks = {10, 30};
  cfg.sh.repeats = 1;
  cfg.sh.seed = 123;
  cfg.sh.train.epochs = 5;
  cfg.sh.train.patience = 0;
  cfg.campaign_runs = 0;
  cfg.threads = 0;  // per-core, exercising the default
  const auto matrix = run_transfer_matrix(cfg, loop);

  const auto keys = sim::ScenarioRegistry::global().keys();
  ASSERT_GE(keys.size(), 8u);
  EXPECT_EQ(matrix.train_sets, keys);
  EXPECT_EQ(matrix.eval_families, keys);
  ASSERT_EQ(matrix.cells.size(), keys.size() * keys.size());
  for (const auto& family : keys) {
    EXPECT_GT(matrix.at(family, family).n_eval, 0) << family;
  }
  for (const auto& cell : matrix.cells) {
    EXPECT_EQ(cell.campaign_n, 0);
    EXPECT_GE(cell.accuracy, 0.0);
    EXPECT_LE(cell.accuracy, 1.0);
  }
}

TEST(TransferMatrix, MultiFamilyTrainSetsAndAtLookup) {
  LoopConfig loop;
  TransferConfig cfg = golden_config(1);
  cfg.train_sets = {{"DS-1,cut-in", {"DS-1", "cut-in"}}};
  const auto matrix = run_transfer_matrix(cfg, loop);
  ASSERT_EQ(matrix.cells.size(), 2u);
  EXPECT_EQ(matrix.train_sets,
            (std::vector<std::string>{"DS-1,cut-in"}));
  // The union curriculum sees both families' launches; its held-out scores
  // exist for both eval columns.
  EXPECT_EQ(matrix.at("DS-1,cut-in", "DS-1").n_eval, 2);
  EXPECT_EQ(matrix.at("DS-1,cut-in", "cut-in").n_eval, 1);
  EXPECT_THROW((void)matrix.at("DS-1,cut-in", "nope"), std::out_of_range);
  EXPECT_THROW((void)matrix.at("nope", "DS-1"), std::out_of_range);
}

TEST(TransferMatrix, CsvSchemaThroughWriteCsv) {
  // A hand-built matrix exercises the CSV schema (including RFC-4180
  // quoting of comma-joined train-set labels) without running simulations.
  TransferMatrix m;
  m.train_sets = {"DS-1,DS-2", "cut-in"};
  m.eval_families = {"DS-1", "cut-in"};
  for (const auto& t : m.train_sets) {
    for (const auto& e : m.eval_families) {
      TransferCell cell;
      cell.train_set = t;
      cell.eval_family = e;
      cell.n_eval = 3;
      cell.accuracy = 0.5;
      cell.mae_m = 4.25;
      cell.ttc_err_s = 0.75;
      cell.campaign_n = 2;
      cell.triggered_rate = 1.0;
      cell.eb_rate = 0.5;
      cell.crash_rate = 0.0;
      m.cells.push_back(cell);
    }
  }

  const auto tmp = std::filesystem::temp_directory_path() /
                   ("transfer_csv_" + std::to_string(::getpid()) + ".csv");
  write_csv(tmp.string(), TransferMatrix::csv_header(), m.csv_rows());

  std::ifstream is(tmp);
  ASSERT_TRUE(is.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  is.close();
  std::filesystem::remove(tmp);

  ASSERT_EQ(lines.size(), 5u);  // header + 4 cells
  EXPECT_EQ(lines[0],
            "train_set,eval_family,n_eval,accuracy,mae_m,ttc_err_s,"
            "campaign_runs,triggered,eb_rate,crash_rate");
  // The comma-joined train-set label is quoted, the rest passes through.
  EXPECT_EQ(lines[1],
            "\"DS-1,DS-2\",DS-1,3,0.500,4.25,0.75,2,1.000,0.500,0.000");
  EXPECT_EQ(lines[4],
            "cut-in,cut-in,3,0.500,4.25,0.75,2,1.000,0.500,0.000");
}


// NOTE: registers into the global registry, so this test must stay last in
// this binary (earlier tests enumerate registry.keys() for full-registry
// coverage).
TEST(TransferVector, UserRegisteredFamilyResolvesWithoutStringMatching) {
  auto& reg = sim::ScenarioRegistry::global();
  if (reg.contains("test-parked-truck")) GTEST_SKIP() << "already registered";
  // DS-3-like geometry under a key the old string-matching (DS-3/DS-4 ->
  // Move_In, else Move_Out) would have misclassified as Move_Out.
  reg.register_scenario(
      {"test-parked-truck",
       "victim holds the parking lane (registered by a test)",
       {},
       [](const sim::ScenarioParams& p, stats::Rng&) {
         sim::Scenario s;
         s.key = "test-parked-truck";
         s.duration = p.duration;
         s.actors.emplace_back(1, sim::ActorType::kVehicle,
                               math::Vec2{p.target_gap, 5.5});
         s.target_id = 1;
         return s;
       }});
  EXPECT_EQ(reg.get("test-parked-truck").victim_geometry,
            sim::VictimGeometry::kOutOfCorridor);
  EXPECT_EQ(transfer_vector_for("test-parked-truck"),
            AttackVector::kMoveIn);
}

}  // namespace
}  // namespace rt::experiments
