#pragma once

// A benchmark-side copy of the ClosedLoop::run frame loop that times every
// public call it makes. It sits outside the program on purpose: the layers
// are timed at the calls into them, and the copy is checked against
// CampaignRunner::run_one on every run (see traced_run_one).

#include <cstdint>

#include "experiments/campaign.hpp"

namespace rtbench {

/// Per-layer totals of one or more traced runs.
struct LayerTimes {
  std::uint64_t runs{0};
  std::uint64_t frames{0};
  std::uint64_t scans{0};
  std::uint64_t detections{0};
  std::uint64_t ground_truth_ns{0};  ///< World::ground_truth_into
  std::uint64_t step_ns{0};          ///< World::step + the halt check
  std::uint64_t detector_ns{0};      ///< DetectorModel::detect_into
  std::uint64_t lidar_ns{0};         ///< LidarModel::scan_into + ingest
  std::uint64_t perception_ns{0};    ///< MOT+KF, projection, fusion
  std::uint64_t robotack_ns{0};      ///< Robotack::process_in_place
  std::uint64_t monitors_ns{0};      ///< the deployed MonitorStack
  std::uint64_t plan_ns{0};          ///< planner + PID
  std::uint64_t record_ns{0};        ///< SafetyMonitor::record

  void add(const LayerTimes& o);
};

/// Runs cell (spec, run_index) the way CampaignRunner::run_one does and
/// adds its per-layer times to `times`.
[[nodiscard]] rt::experiments::RunResult traced_run_one(
    const rt::experiments::CampaignRunner& runner,
    const rt::experiments::CampaignSpec& spec, int run_index,
    LayerTimes& times);

/// Camera frames a finished run simulated: every frame up to the end time,
/// plus the frame on which an early halt was decided.
[[nodiscard]] std::uint64_t frames_of(const rt::experiments::RunResult& run,
                                      double camera_dt);

}  // namespace rtbench
