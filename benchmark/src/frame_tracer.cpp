#include "frame_tracer.hpp"

#include <cmath>

#include "obs/clock.hpp"
#include "sim/scenario_registry.hpp"

namespace rtbench {

using namespace rt;

namespace {

std::uint64_t now_ns() { return obs::MonotonicClock::now_ns(); }

/// Forwards the perception tap to the run's monitor stack and stamps the
/// call, which splits AdsSystem::step_into into perception (before the
/// tap), monitors (inside it) and planning (after it).
class SplitObserver final : public perception::PerceptionObserver {
 public:
  explicit SplitObserver(defense::MonitorStack* monitors)
      : monitors_(monitors) {}

  void on_perception(const perception::CameraFrame& frame,
                     const perception::PerceptionOutput& out) override {
    enter_ns = now_ns();
    if (monitors_ != nullptr) {
      monitors_->on_perception(frame, out);
      exit_ns = now_ns();
    } else {
      exit_ns = enter_ns;
    }
  }

  std::uint64_t enter_ns{0};
  std::uint64_t exit_ns{0};

 private:
  defense::MonitorStack* monitors_;
};

}  // namespace

void LayerTimes::add(const LayerTimes& o) {
  runs += o.runs;
  frames += o.frames;
  scans += o.scans;
  detections += o.detections;
  ground_truth_ns += o.ground_truth_ns;
  step_ns += o.step_ns;
  detector_ns += o.detector_ns;
  lidar_ns += o.lidar_ns;
  perception_ns += o.perception_ns;
  robotack_ns += o.robotack_ns;
  monitors_ns += o.monitors_ns;
  plan_ns += o.plan_ns;
  record_ns += o.record_ns;
}

std::uint64_t frames_of(const experiments::RunResult& run, double camera_dt) {
  return static_cast<std::uint64_t>(std::lround(run.end_time / camera_dt)) +
         (run.halted_early ? 1 : 0);
}

experiments::RunResult traced_run_one(
    const experiments::CampaignRunner& runner,
    const experiments::CampaignSpec& spec, int run_index,
    LayerTimes& times) {
  // Seeding and set-up exactly as CampaignRunner::run_one.
  stats::Rng run_rng = stats::Rng::from_stream(
      spec.seed, static_cast<std::uint64_t>(run_index) + 1);
  const auto scenario_seed = run_rng.engine()();
  const auto loop_seed = run_rng.engine()();
  const auto attacker_seed = run_rng.engine()();
  stats::Rng scenario_rng(scenario_seed);
  const auto& registry = sim::ScenarioRegistry::global();
  const sim::Scenario scenario =
      spec.params ? registry.make(spec.scenario, *spec.params, scenario_rng)
                  : registry.make(spec.scenario, scenario_rng);
  experiments::LoopConfig config = runner.loop_config();
  config.keep_timeline = false;
  config.monitors = spec.monitors;
  const std::unique_ptr<core::Robotack> attacker =
      runner.make_attacker(spec, attacker_seed);

  // Set-up exactly as ClosedLoop::run.
  const double dt = config.camera_dt();
  stats::Rng root(loop_seed);
  sim::World world = scenario.make_world();
  perception::DetectorModel detector(config.camera, config.noise,
                                     root.derive(1));
  perception::LidarModel lidar(config.lidar, root.derive(2));
  ads::PlannerConfig planner_cfg = config.planner;
  planner_cfg.cruise_speed = scenario.ego_cruise_speed;
  ads::AdsSystem ads(config.camera, dt, config.lidar_dt(), planner_cfg,
                     config.mot, config.fusion, config.lidar, config.noise);
  safety::SafetyMonitor monitor(safety::SafetyModel(config.safety),
                                config.keep_timeline);
  safety::AttackIds ids(config.ids, config.noise, config.camera);
  defense::MonitorStack monitors;
  if (!config.monitors.empty()) {
    monitors = defense::MonitorStack(config.monitors,
                                     config.monitor_context());
  }
  SplitObserver split(monitors.empty() ? nullptr : &monitors);
  ads.set_perception_observer(&split);

  LayerTimes t;
  t.runs = 1;
  experiments::RunResult result;
  double next_lidar = 0.0;
  const int steps = static_cast<int>(std::ceil(scenario.duration / dt));
  std::vector<sim::GroundTruthObject> gt;
  std::vector<perception::LidarMeasurement> scan;
  perception::CameraFrame frame;
  ads::AdsOutput out;
  for (int i = 0; i < steps; ++i) {
    ++t.frames;
    const double now_t = world.time();
    std::uint64_t t0 = now_ns();
    world.ground_truth_into(gt);
    std::uint64_t t1 = now_ns();
    t.ground_truth_ns += t1 - t0;

    if (now_t + 1e-9 >= next_lidar) {
      lidar.scan_into(gt, scan);
      ads.ingest_lidar(scan);
      next_lidar += config.lidar_dt();
      t0 = now_ns();
      t.lidar_ns += t0 - t1;
      ++t.scans;
      t1 = t0;
    }

    detector.detect_into(gt, now_t, frame);
    t0 = now_ns();
    t.detector_ns += t0 - t1;
    t.detections += frame.detections.size();
    if (attacker) {
      attacker->process_in_place(frame, world.ego().speed());
      t1 = now_ns();
      t.robotack_ns += t1 - t0;
      t0 = t1;
    }

    ads.step_into(frame, world.ego().speed(), world.ego().acceleration(),
                  out);
    t1 = now_ns();
    t.perception_ns += split.enter_ns - t0;
    t.monitors_ns += split.exit_ns - split.enter_ns;
    t.plan_ns += t1 - split.exit_ns;

    if (config.enable_ids) {
      ids.observe(frame, out.perception.camera_tracks,
                  out.perception.lidar_tracks);
    }
    monitor.record(world, out.eb_active,
                   attacker && attacker->attack_active(), scenario.target_id);
    t0 = now_ns();
    t.record_ns += t0 - t1;

    const auto nearest = world.nearest_in_path();
    const bool too_close =
        nearest &&
        nearest->longitudinal_gap(world.ego().dims().length) <
            config.halt_gap &&
        world.ego().speed() > 0.5;
    if (world.collision() || too_close) {
      result.halted_early = true;
      t.step_ns += now_ns() - t0;
      break;
    }
    world.step(dt, out.accel_command);
    t.step_ns += now_ns() - t0;
  }

  result.eb = monitor.emergency_braking_occurred();
  result.eb_episodes = monitor.eb_episodes();
  result.collision = monitor.collision_occurred();
  result.min_delta = monitor.min_delta();
  result.min_delta_since_attack = monitor.min_delta_since_attack();
  result.crash = monitor.accident();
  result.end_time = world.time();
  if (attacker) result.attack = attacker->log();
  result.ids_flagged = ids.report().flagged;
  result.ids_reason = ids.report().reason;
  if (!monitors.empty()) {
    // The harness-side detection judgement of ClosedLoop::run.
    result.defense = monitors.report();
    if (result.attack.triggered) {
      const double launch = result.attack.start_time;
      double best_time = 0.0;
      for (const auto& m : result.defense.monitors) {
        if (!m.fired || m.first_alert_time < launch - 1e-9) continue;
        if (result.defense.detected && m.first_alert_time >= best_time) {
          continue;
        }
        best_time = m.first_alert_time;
        result.defense.detected = true;
        result.defense.frames_to_detection =
            static_cast<int>(std::lround((best_time - launch) / dt));
        result.defense.detected_by = m.monitor;
      }
    }
  }
  result.timeline = monitor.timeline();
  times.add(t);
  return result;
}

}  // namespace rtbench
