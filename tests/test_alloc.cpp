// Heap-allocation pins for the destination-passing kernel work: the
// campaign hot paths (Kalman step, oracle inference) must not allocate at
// steady state. A counting global operator new is the only reliable
// observer, so these live in their own binary — the counter covers every
// allocation in the process, including gtest's own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/robotack.hpp"
#include "core/safety_oracle.hpp"
#include "defense/monitor_stack.hpp"
#include "math/matrix.hpp"
#include "nn/mlp.hpp"
#include "obs/trace.hpp"
#include "perception/bbox_track.hpp"
#include "perception/detector_model.hpp"
#include "perception/kalman_filter.hpp"
#include "perception/mot_tracker.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rt {
namespace {

// Sanitizer builds interpose their own allocator machinery; the counts are
// not representative there, so the pins only run in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(AllocationPins, KalmanFilterStepIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  perception::Detection d;
  d.bbox = {100.0, 100.0, 40.0, 40.0};
  perception::BboxTrack track(
      1, d, 1.0 / 15.0,
      perception::DetectorNoiseModel::paper_defaults().vehicle);
  // Warm-up: first steps size the fixed scratch matrices.
  for (int i = 0; i < 3; ++i) {
    track.predict();
    track.update(d);
    (void)track.mahalanobis2(d.bbox);
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    track.predict();
    d.bbox.cx += 0.25;
    track.update(d);
    (void)track.mahalanobis2(d.bbox);
  }
  EXPECT_EQ(allocations(), before)
      << "KalmanFilter predict/update/mahalanobis2 allocated on the steady "
         "state path";
}

TEST(AllocationPins, MotTrackerSpawnIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // A track holds its filter inline, so spawning one is a plain element
  // construction into capacity the tracker already owns. Each cycle: an
  // object appears (spawn), is tracked, vanishes and is retired.
  perception::MotTracker mot(1.0 / 15.0);
  perception::Detection steady;
  steady.bbox = {400.0, 500.0, 80.0, 70.0};
  perception::Detection visitor = steady;
  visitor.bbox = {1200.0, 520.0, 60.0, 50.0};
  perception::CameraFrame frame;
  std::vector<perception::TrackView> out;
  int spawns = 0;
  const auto step = [&](int i) {
    frame.detections.clear();
    frame.detections.push_back(steady);
    if (i % 30 < 10) frame.detections.push_back(visitor);
    const std::size_t live = mot.live_track_count();
    mot.update_into(frame, out);
    if (mot.live_track_count() > live) ++spawns;
  };
  for (int i = 0; i < 60; ++i) step(i);
  const int warm_spawns = spawns;
  const std::uint64_t before = allocations();
  for (int i = 60; i < 240; ++i) step(i);
  EXPECT_EQ(allocations(), before)
      << "MotTracker::update_into allocated on a frame that spawns a track";
  EXPECT_EQ(spawns - warm_spawns, 6) << "the visitor must respawn every cycle";
}

TEST(AllocationPins, MlpPredictIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  stats::Rng rng(7);
  nn::Mlp net = nn::make_safety_hijacker_net(rng);
  math::Matrix x(6, 1, 0.5);
  // Warm-up sizes the thread-local workspace.
  (void)net.predict(x);
  (void)net.predict(x);
  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    x(0, 0) = static_cast<double>(i);
    sink += net.predict(x)(0, 0);
  }
  EXPECT_EQ(allocations(), before)
      << "Mlp::predict allocated on the steady-state path (sink " << sink
      << ")";
}

TEST(AllocationPins, RobotackAttackOnPathIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // The malware's man-in-the-middle step on an ACTIVE Move_Out attack:
  // truth-replica update, trajectory hijack in place, ADS-replica update —
  // all over member scratch, no CameraFrame copy, no heap traffic.
  core::RobotackConfig cfg;
  cfg.vector = core::AttackVector::kMoveOut;
  cfg.timing = core::TimingPolicy::kAtDeltaThreshold;
  cfg.delta_trigger = 30.0;  // triggers immediately at this geometry
  cfg.fixed_k = 1000;        // keep the attack active for the whole pin
  core::Robotack bot(cfg, perception::CameraModel{},
                     perception::DetectorNoiseModel::paper_defaults(),
                     perception::MotConfig{}, 99);

  // A stationary in-lane vehicle at ~30 m (bottom edge v=620).
  perception::Detection det;
  det.cls = sim::ActorType::kVehicle;
  det.bbox = {960.0, 580.0, 96.0, 80.0};
  perception::CameraFrame frame;
  const double dt = cfg.dt;
  for (int i = 0; i < 40; ++i) {
    frame.time += dt;
    frame.detections.clear();
    frame.detections.push_back(det);
    bot.process_in_place(frame, 10.0);
  }
  ASSERT_TRUE(bot.attack_active()) << "attack did not arm during warm-up";
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    frame.time += dt;
    frame.detections.clear();
    frame.detections.push_back(det);
    bot.process_in_place(frame, 10.0);
  }
  EXPECT_EQ(allocations(), before)
      << "Robotack::process_in_place allocated on the active-attack path";
  EXPECT_TRUE(bot.attack_active());
  EXPECT_GT(bot.log().frames_perturbed, 0);
}

TEST(AllocationPins, RobotackDormantPathIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // Dormant frames before any trigger: truth-replica update, world
  // reconstruction, target pick + scenario match, and the ADS-view replica
  // mirrored from the truth replica by copy-assignment.
  core::RobotackConfig cfg;
  cfg.vector = core::AttackVector::kMoveOut;
  cfg.timing = core::TimingPolicy::kAtDeltaThreshold;
  cfg.delta_trigger = -1e9;  // never reached: the malware stays dormant
  core::Robotack bot(cfg, perception::CameraModel{},
                     perception::DetectorNoiseModel::paper_defaults(),
                     perception::MotConfig{}, 99);

  // A stationary in-lane vehicle at ~30 m plus one in the adjacent lane.
  perception::Detection det;
  det.cls = sim::ActorType::kVehicle;
  det.bbox = {960.0, 580.0, 96.0, 80.0};
  perception::Detection other = det;
  other.bbox = {1300.0, 560.0, 60.0, 50.0};
  perception::CameraFrame frame;
  const double dt = cfg.dt;
  const auto step = [&] {
    frame.time += dt;
    frame.detections.clear();
    frame.detections.push_back(det);
    frame.detections.push_back(other);
    bot.process_in_place(frame, 10.0);
  };
  for (int i = 0; i < 40; ++i) step();
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) step();
  EXPECT_EQ(allocations(), before)
      << "Robotack::process_in_place allocated on the dormant path";
  EXPECT_FALSE(bot.log().triggered);
}

TEST(AllocationPins, RobotackDormantMirrorIsAllocationFreeAsTracksComeAndGo) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // The dormant mirror copy-assigns the truth replica over the ADS-view
  // replica. With tracks that spawn and retire, the copy changes the track
  // count, which constructs or destroys tracks in the mirror: with inline
  // filters that is a memcpy, not an allocation per track. The flickering
  // detection is a one-frame ghost: it spawns a track that is never
  // confirmed, so only the trackers (not the world-level per-track state
  // keyed by confirmed ids) see it come and go.
  core::RobotackConfig cfg;
  cfg.vector = core::AttackVector::kMoveOut;
  cfg.timing = core::TimingPolicy::kAtDeltaThreshold;
  cfg.delta_trigger = -1e9;  // never reached: the malware stays dormant
  core::Robotack bot(cfg, perception::CameraModel{},
                     perception::DetectorNoiseModel::paper_defaults(),
                     perception::MotConfig{}, 99);

  perception::Detection det;
  det.cls = sim::ActorType::kVehicle;
  det.bbox = {960.0, 580.0, 96.0, 80.0};
  perception::Detection ghost = det;
  ghost.bbox = {1300.0, 560.0, 60.0, 50.0};
  perception::CameraFrame frame;
  const double dt = cfg.dt;
  int i = 0;
  const auto step = [&] {
    frame.time += dt;
    frame.detections.clear();
    frame.detections.push_back(det);
    // The ghost shows on one frame of every 12 and is retired after
    // max_misses (8) frames without it.
    if (i++ % 12 == 0) frame.detections.push_back(ghost);
    bot.process_in_place(frame, 10.0);
  };
  for (int n = 0; n < 60; ++n) step();
  const std::uint64_t before = allocations();
  for (int n = 0; n < 180; ++n) step();
  EXPECT_EQ(allocations(), before)
      << "the dormant mirror allocated while the track count changed";
  EXPECT_FALSE(bot.log().triggered);
}

TEST(AllocationPins, RobotackPostBurstPathIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // After the last burst the malware is inert: frames pass through
  // untouched and nothing is allocated.
  core::RobotackConfig cfg;
  cfg.vector = core::AttackVector::kMoveOut;
  cfg.timing = core::TimingPolicy::kAtDeltaThreshold;
  cfg.delta_trigger = 30.0;  // triggers immediately at this geometry
  cfg.fixed_k = 10;
  core::Robotack bot(cfg, perception::CameraModel{},
                     perception::DetectorNoiseModel::paper_defaults(),
                     perception::MotConfig{}, 99);

  perception::Detection det;
  det.cls = sim::ActorType::kVehicle;
  det.bbox = {960.0, 580.0, 96.0, 80.0};
  perception::CameraFrame frame;
  const double dt = cfg.dt;
  const auto step = [&] {
    frame.time += dt;
    frame.detections.clear();
    frame.detections.push_back(det);
    bot.process_in_place(frame, 10.0);
  };
  for (int i = 0; i < 40; ++i) step();
  ASSERT_TRUE(bot.log().triggered) << "attack did not fire during warm-up";
  ASSERT_FALSE(bot.attack_active()) << "burst still running after warm-up";
  const int perturbed = bot.log().frames_perturbed;
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) step();
  EXPECT_EQ(allocations(), before)
      << "Robotack::process_in_place allocated after the last burst";
  ASSERT_EQ(frame.detections.size(), 1u);
  EXPECT_EQ(frame.detections[0].bbox.cx, det.bbox.cx);
  EXPECT_EQ(frame.detections[0].bbox.cy, det.bbox.cy);
  EXPECT_EQ(bot.log().frames_perturbed, perturbed);
}

TEST(AllocationPins, MonitorStackObserveIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // The defense hook sits on the same per-frame hot path: once the track
  // set is stable, a full three-monitor observe allocates nothing.
  defense::MonitorContext ctx;
  defense::MonitorStack stack(
      {"innovation-gate", "sensor-consistency", "kinematics"}, ctx);
  perception::CameraFrame frame;
  perception::PerceptionOutput out;
  perception::TrackView t;
  t.track_id = 1;
  t.cls = sim::ActorType::kVehicle;
  t.bbox = {960.0, 600.0, 90.0, 40.0};
  t.predicted_bbox = t.bbox;
  t.hits = 12;
  t.matched_this_frame = true;
  t.innovation_m2 = 1.0;
  out.camera_tracks = {t};
  perception::WorldTrack w;
  w.track_id = 1;
  w.cls = sim::ActorType::kVehicle;
  w.rel_position = {30.0, 0.0};
  w.rel_velocity = {-2.0, 0.0};
  w.hits = 12;
  w.matched_this_frame = true;
  out.camera_world = {w};
  perception::LidarTrack l;
  l.track_id = 7;
  l.rel_position = {30.0, 0.0};
  l.hits = 6;
  out.lidar_tracks = {l};
  for (int i = 0; i < 10; ++i) {
    out.time = 0.1 * i;
    stack.on_perception(frame, out);
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    out.time = 1.0 + 0.1 * i;
    stack.on_perception(frame, out);
  }
  EXPECT_EQ(allocations(), before)
      << "MonitorStack::on_perception allocated at steady state";
}

TEST(AllocationPins, SafetyOraclePredictIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  core::SafetyOracle oracle(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  stats::Rng rng(4);
  for (int i = 0; i < 64; ++i) {
    xs.push_back({rng.uniform(0.0, 40.0), -5.0, 0.0, 0.0, 0.0,
                  rng.uniform(3.0, 70.0)});
    ys.push_back(xs.back()[0] - 0.3 * xs.back()[5]);
  }
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  oracle.train(nn::Dataset::from_samples(xs, ys), cfg);
  (void)oracle.predict(20.0, {-5.0, 0.0}, {0.0, 0.0}, 30.0);
  (void)oracle.predict(18.0, {-5.0, 0.0}, {0.0, 0.0}, 24.0);
  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    sink += oracle.predict(20.0 + i * 0.1, {-5.0, 0.1}, {0.1, 0.0}, 30.0);
  }
  EXPECT_EQ(allocations(), before)
      << "SafetyOracle::predict allocated on the steady-state path (sink "
      << sink << ")";
}

TEST(AllocationPins, SafetyOraclePredictBatchIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  core::SafetyOracle oracle(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  stats::Rng rng(4);
  for (int i = 0; i < 64; ++i) {
    xs.push_back({rng.uniform(0.0, 40.0), -5.0, 0.0, 0.0, 0.0,
                  rng.uniform(3.0, 70.0)});
    ys.push_back(xs.back()[0] - 0.3 * xs.back()[5]);
  }
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  oracle.train(nn::Dataset::from_samples(xs, ys), cfg);
  constexpr std::size_t kBatch = 32;
  std::vector<core::OracleQuery> queries(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    queries[i] = {20.0 + 0.1 * static_cast<double>(i), {-5.0, 0.1},
                  {0.1, 0.0}, 30.0};
  }
  std::vector<double> out(kBatch);
  // Warm the thread-local gather matrix + workspace at this batch width.
  oracle.predict_batch(queries, out);
  oracle.predict_batch(queries, out);
  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    queries[0].delta = 20.0 + 0.01 * i;
    oracle.predict_batch(queries, out);
    sink += out[0];
  }
  EXPECT_EQ(allocations(), before)
      << "SafetyOracle::predict_batch allocated on the steady-state path "
      << "(sink " << sink << ")";
}

// Tracing must not buy observability with heap traffic: with the global
// tracer ARMED, the instrumented hot paths stay allocation-free. The only
// allocation tracing ever makes is the one-time per-thread ring
// acquisition, which the warm-up span absorbs.

TEST(AllocationPins, TracedKalmanFilterStepIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  perception::Detection d;
  d.bbox = {100.0, 100.0, 40.0, 40.0};
  perception::BboxTrack track(
      1, d, 1.0 / 15.0,
      perception::DetectorNoiseModel::paper_defaults().vehicle);
  for (int i = 0; i < 3; ++i) {
    RT_TRACE_SPAN("kf_step_warmup", "test");
    track.predict();
    track.update(d);
    (void)track.mahalanobis2(d.bbox);
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    RT_TRACE_SPAN("kf_step", "test", static_cast<std::uint64_t>(i), "i");
    track.predict();
    d.bbox.cx += 0.25;
    track.update(d);
    (void)track.mahalanobis2(d.bbox);
  }
  EXPECT_EQ(allocations(), before)
      << "traced KalmanFilter step allocated — span recording must be free";
  EXPECT_GE(obs::Tracer::global().span_count(), 200u);
  obs::Tracer::global().disarm();
  obs::Tracer::global().clear();
}

TEST(AllocationPins, TracedOraclePredictBatchIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  core::SafetyOracle oracle(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  stats::Rng rng(4);
  for (int i = 0; i < 64; ++i) {
    xs.push_back({rng.uniform(0.0, 40.0), -5.0, 0.0, 0.0, 0.0,
                  rng.uniform(3.0, 70.0)});
    ys.push_back(xs.back()[0] - 0.3 * xs.back()[5]);
  }
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  oracle.train(nn::Dataset::from_samples(xs, ys), cfg);
  constexpr std::size_t kBatch = 32;
  std::vector<core::OracleQuery> queries(kBatch);
  for (std::size_t i = 0; i < kBatch; ++i) {
    queries[i] = {20.0 + 0.1 * static_cast<double>(i), {-5.0, 0.1},
                  {0.1, 0.0}, 30.0};
  }
  std::vector<double> out(kBatch);
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  {
    RT_TRACE_SPAN("batch_warmup", "test");
    oracle.predict_batch(queries, out);
    oracle.predict_batch(queries, out);
  }
  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    RT_TRACE_SPAN("batch_predict", "test");
    queries[0].delta = 20.0 + 0.01 * i;
    oracle.predict_batch(queries, out);
    sink += out[0];
  }
  EXPECT_EQ(allocations(), before)
      << "traced predict_batch allocated on the steady-state path (sink "
      << sink << ")";
  obs::Tracer::global().disarm();
  obs::Tracer::global().clear();
}

}  // namespace
}  // namespace rt
