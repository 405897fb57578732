#pragma once

#include "math/matrix.hpp"

namespace rt::perception {

/// Generic linear Kalman filter ("F" in Fig. 1).
///
/// Maintains state estimate x and covariance P under the usual linear
/// Gaussian model:
///   predict:  x <- F x,          P <- F P F^T + Q
///   update:   y = z - H x,       S = H P H^T + R
///             K = P H^T S^-1,    x <- x + K y,   P <- (I - K H) P
///
/// The paper's threat analysis (§III-B) hinges on exactly this machinery:
/// the KF assumes zero-mean Gaussian measurement noise, so an adversary who
/// injects *biased* noise within +-1 sigma drags the state estimate without
/// ever producing an innovation large enough to flag.
///
/// This is the general reference implementation, written as plain matrix
/// expressions; the trackers run the fixed-size constant-velocity
/// specialization in `BboxTrack`, which the tests step side by side with
/// this class and compare bit for bit.
class KalmanFilter {
 public:
  KalmanFilter() = default;

  /// Constructs a filter with the given matrices. Dimensions:
  /// F: n x n, Q: n x n, H: m x n, R: m x m, x0: n x 1, P0: n x n.
  KalmanFilter(math::Matrix f, math::Matrix q, math::Matrix h, math::Matrix r,
               math::Matrix x0, math::Matrix p0);

  /// Time update. Safe to call repeatedly (coasting through missed frames).
  void predict();

  /// Measurement update with z (m x 1).
  void update(const math::Matrix& z);

  /// Innovation z - Hx for a hypothetical measurement (no state change).
  [[nodiscard]] math::Matrix innovation(const math::Matrix& z) const;

  /// Squared Mahalanobis distance of a measurement under the innovation
  /// covariance S = H P H^T + R. Used by gating logic and by the IDS.
  [[nodiscard]] double mahalanobis2(const math::Matrix& z) const;

  /// Squared Mahalanobis distance of the measurement consumed by the last
  /// `update` (-1 before the first): bitwise identical to calling
  /// `mahalanobis2(z)` immediately before the update.
  [[nodiscard]] double last_update_mahalanobis2() const {
    return last_update_m2_;
  }

  [[nodiscard]] const math::Matrix& state() const { return x_; }
  [[nodiscard]] const math::Matrix& covariance() const { return p_; }
  [[nodiscard]] math::Matrix predicted_measurement() const { return h_ * x_; }

  void set_state(const math::Matrix& x) { x_ = x; }

  /// Replaces the measurement-noise covariance R (m x m). Trackers whose
  /// measurement noise scales with the object (e.g. bbox-size-proportional
  /// pixel noise) refresh R before each update.
  void set_measurement_noise(const math::Matrix& r) { r_ = r; }

 private:
  /// S^-1 for the innovation covariance S = H P H^T + R.
  [[nodiscard]] math::Matrix innovation_covariance_inverse() const;

  math::Matrix f_, q_, h_, r_, x_, p_;
  double last_update_m2_{-1.0};
};

}  // namespace rt::perception
