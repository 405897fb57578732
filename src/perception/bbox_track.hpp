#pragma once

#include <array>
#include <cstddef>

#include "math/bbox.hpp"
#include "perception/detection.hpp"
#include "perception/noise_model.hpp"

namespace rt::perception {

namespace detail {
/// Row-major 6x6 diagonal matrix.
constexpr std::array<double, 36> diagonal6(std::array<double, 6> d) {
  std::array<double, 36> m{};
  for (std::size_t i = 0; i < 6; ++i) m[i * 6 + i] = d[i];
  return m;
}
}  // namespace detail

/// One SORT-style tracked object: a Kalman filter over the image-space state
/// [u, v, w, h, vu, vv] (bbox center, size, and pixel velocity) plus the
/// lifecycle bookkeeping (hits / misses / age) the MOT manager needs.
///
/// This per-object KF is the paper's "F" — and the component §III-B singles
/// out as the vulnerable link: it happily integrates biased measurements as
/// long as each one stays within its Gaussian noise budget.
///
/// The filter lives inline at fixed size: state x (6), covariance P (6x6),
/// measurement covariance R (4x4), and dt; F = I + dt position<-velocity
/// couplings, H = [I4 | 0], and the process noise Q and prior P0 are
/// compile-time constants. Every step replays, term for term, the sums a
/// generic `KalmanFilter` built from the same F, Q, H, R, x0, P0 computes
/// (the derivation is in the .cpp), so the two agree bit for bit. The track
/// is trivially copyable: spawning one allocates nothing, and copying or
/// compacting a tracker is a memcpy.
class BboxTrack {
 public:
  /// `noise` is the characterized detector noise for this object's class:
  /// the KF's measurement covariance is calibrated against it (a robust
  /// fraction of the population sigma), exactly the calibration the paper
  /// says production stacks perform — and the calibration the attacker
  /// hides under.
  BboxTrack(int id, const Detection& first, double dt,
            const ClassNoiseModel& noise);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] sim::ActorType cls() const { return cls_; }
  [[nodiscard]] int hits() const { return hits_; }
  [[nodiscard]] int consecutive_misses() const { return consecutive_misses_; }
  [[nodiscard]] int age() const { return age_; }
  /// Ground-truth actor id of the *last matched detection* (bookkeeping).
  [[nodiscard]] sim::ActorId last_truth_id() const { return last_truth_id_; }

  /// Current (post-update or post-predict) bbox estimate.
  [[nodiscard]] math::Bbox bbox() const;
  /// Bbox predicted for this frame before any update — what the Hungarian
  /// matcher associates against, and what the attacker pushes away from.
  [[nodiscard]] math::Bbox predicted_bbox() const { return predicted_; }
  /// Image-space velocity estimate (px/frame-rate units: px/s).
  [[nodiscard]] double vu() const { return x_[4]; }
  [[nodiscard]] double vv() const { return x_[5]; }

  /// Filter state [u, v, w, h, vu, vv] and row-major 6x6 covariance.
  [[nodiscard]] const double* state() const { return x_; }
  [[nodiscard]] const double* covariance() const { return p_; }

  /// Advances the KF one frame and caches the predicted bbox.
  void predict();
  /// Consumes the matched detection.
  void update(const Detection& det);
  /// Records a missed frame (no matched detection).
  void mark_missed();

  /// Squared Mahalanobis distance of a candidate measurement (gating/IDS)
  /// under the current R.
  [[nodiscard]] double mahalanobis2(const math::Bbox& z) const;

  /// Innovation of the *last matched* detection against the pre-update
  /// prediction, recorded by `update` for the runtime attack monitors:
  /// squared Mahalanobis distance (-1 while unmatched) and the
  /// size-normalized center displacement per axis (the units the detector
  /// noise is characterized in, Fig. 5).
  [[nodiscard]] double last_innovation_m2() const {
    return last_innovation_m2_;
  }
  [[nodiscard]] double last_innovation_x() const { return last_innovation_x_; }
  [[nodiscard]] double last_innovation_y() const { return last_innovation_y_; }

  /// The filter's constant process noise Q (row-major 6x6): per-frame
  /// sigmas of 4 px (center), 2.5 px (size) and 14 px/s (velocity) for a
  /// constant-velocity center and random-walk size.
  static constexpr std::array<double, 36> kProcessNoise = detail::diagonal6(
      {4.0 * 4.0, 4.0 * 4.0, 2.5 * 2.5, 2.5 * 2.5, 14.0 * 14.0, 14.0 * 14.0});
  /// Prior covariance P0: a generous initial velocity uncertainty that the
  /// first few updates lock in.
  static constexpr std::array<double, 36> kPriorCovariance =
      detail::diagonal6({25.0, 25.0, 25.0, 25.0, 2500.0, 2500.0});

  /// Fills `out` (row-major 4x4) with the size-proportional measurement
  /// covariance R this track uses for a measurement of `b`.
  void measurement_noise(const math::Bbox& b, double out[16]) const;

 private:
  /// y = z - H x, S^-1 for S = H P H^T + R, and returns y^T S^-1 y.
  double innovation_(const double z[4], double y[4], double s_inv[16]) const;

  int id_;
  sim::ActorType cls_;
  double meas_sigma_x_;  ///< robust measurement sigma, fraction of bbox w
  double meas_sigma_y_;  ///< robust measurement sigma, fraction of bbox h
  double dt_;
  double x_[6];
  double p_[36];
  double r_[16];
  math::Bbox predicted_;
  int hits_{1};
  int consecutive_misses_{0};
  int age_{1};
  sim::ActorId last_truth_id_{-1};
  double last_innovation_m2_{-1.0};
  double last_innovation_x_{0.0};
  double last_innovation_y_{0.0};
};

}  // namespace rt::perception
