#include "perception/bbox_track.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "math/matrix.hpp"

namespace rt::perception {

static_assert(std::is_trivially_copyable_v<BboxTrack>,
              "tracks are copied and compacted as plain bytes");

namespace {

constexpr double kMeasSigmaFloorPx = 2.0;
/// Robust fraction of the population sigma used as the KF's measurement
/// sigma (the population fit includes outliers; the filter calibrates to
/// the typical noise and *gates* the tail — see MotTracker).
constexpr double kRobustFraction = 0.35;
constexpr double kMeasSigmaFracMin = 0.06;
constexpr double kMeasSigmaFracMax = 0.50;

/// The exact value a skip-zero kernel accumulates when an element rides
/// through a unit row of F or H: `0.0 + 1.0 * v`. Every nonzero bit
/// pattern passes unchanged; -0.0 normalizes to +0.0, exactly as the
/// generic sum does.
inline double through_unit(double v) { return v != 0.0 ? v : 0.0; }

}  // namespace

// Bit-identity with the generic KalmanFilter. Each product below replays
// the generic skip-zero kernels' per-element term sequence for this F and
// H: a row of F or H touches only its unit entry (and, for F's rows 0/1,
// the dt coupling), so the sums collapse to `through_unit` copies plus the
// coupling terms. The terms the generic loop skips (exact-zero lhs) or that
// contribute v * 0.0 (rhs structural zeros) never change a finite
// accumulator: adding +-0.0 to a running sum only normalizes a zero
// accumulator to +0.0, which `through_unit` reproduces. The dense
// remainders (S^-1, K, K y, (I - K H) P) run the same fixed-size kernels in
// the same order. tests/test_perception.cpp steps both filters side by side
// and compares every output bitwise.

void BboxTrack::measurement_noise(const math::Bbox& b, double out[16]) const {
  const double su = std::max(kMeasSigmaFloorPx, meas_sigma_x_ * b.w);
  const double sv = std::max(kMeasSigmaFloorPx, meas_sigma_y_ * b.h);
  const double sw = std::max(kMeasSigmaFloorPx, 0.08 * b.w);
  const double sh = std::max(kMeasSigmaFloorPx, 0.08 * b.h);
  std::fill(out, out + 16, 0.0);
  out[0] = su * su;
  out[5] = sv * sv;
  out[10] = sw * sw;
  out[15] = sh * sh;
}

BboxTrack::BboxTrack(int id, const Detection& first, double dt,
                     const ClassNoiseModel& noise)
    : id_(id),
      cls_(first.cls),
      meas_sigma_x_(std::clamp(kRobustFraction * noise.center_x.sigma,
                               kMeasSigmaFracMin, kMeasSigmaFracMax)),
      meas_sigma_y_(std::clamp(kRobustFraction * noise.center_y.sigma,
                               kMeasSigmaFracMin, kMeasSigmaFracMax)),
      dt_(dt),
      x_{first.bbox.cx, first.bbox.cy, first.bbox.w, first.bbox.h, 0.0, 0.0},
      predicted_(first.bbox),
      last_truth_id_(first.truth_id) {
  std::copy(kPriorCovariance.begin(), kPriorCovariance.end(), p_);
  measurement_noise(first.bbox, r_);
}

math::Bbox BboxTrack::bbox() const {
  return {x_[0], x_[1], std::max(1.0, x_[2]), std::max(1.0, x_[3])};
}

void BboxTrack::predict() {
  // x <- F x.
  const double f04 = dt_;
  const double f15 = dt_;
  const double nx0 = through_unit(x_[0]) + f04 * x_[4];
  const double nx1 = through_unit(x_[1]) + f15 * x_[5];
  x_[0] = nx0;
  x_[1] = nx1;
  for (std::size_t i = 2; i < 6; ++i) x_[i] = through_unit(x_[i]);

  // P <- F P F^T + Q, row by row in place.
  const double* q = kProcessNoise.data();
  double* p = p_;
  const double* p4 = p + 4 * 6;
  const double* p5 = p + 5 * 6;
  double fp[6];
  for (std::size_t i = 0; i < 6; ++i) {
    double* pi = p + i * 6;
    // Row i of F*P (reads rows i, 4, 5 of P — rows 4/5 are only
    // overwritten on their own iteration, after this read).
    for (std::size_t j = 0; j < 6; ++j) {
      double v = through_unit(pi[j]);
      if (i == 0) v += f04 * p4[j];
      if (i == 1) v += f15 * p5[j];
      fp[j] = v;
    }
    // Row i of (F P) F^T + Q.
    double c0 = through_unit(fp[0]);
    if (fp[4] != 0.0) c0 += fp[4] * f04;
    double c1 = through_unit(fp[1]);
    if (fp[5] != 0.0) c1 += fp[5] * f15;
    const double* qi = q + i * 6;
    pi[0] = c0 + qi[0];
    pi[1] = c1 + qi[1];
    for (std::size_t j = 2; j < 6; ++j) pi[j] = through_unit(fp[j]) + qi[j];
  }
  ++age_;
  predicted_ = bbox();
}

double BboxTrack::innovation_(const double z[4], double y[4],
                              double s_inv[16]) const {
  // y = z - H x.
  for (std::size_t i = 0; i < 4; ++i) y[i] = z[i] - through_unit(x_[i]);
  // S = H P H^T + R: the top-left 4x4 block of P, plus R.
  double s[16];
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      s[i * 4 + j] = through_unit(p_[i * 6 + j]) + r_[i * 4 + j];
    }
  }
  math::detail::invert_fixed<4>(s, s_inv);
  // y^T S^-1 y, as `transposed_multiply_into` then `multiply_into`.
  double yt_s[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t k = 0; k < 4; ++k) {
    if (y[k] == 0.0) continue;
    for (std::size_t j = 0; j < 4; ++j) yt_s[j] += y[k] * s_inv[k * 4 + j];
  }
  double m2;
  math::detail::multiply_fixed<1, 4, 1>(yt_s, y, &m2);
  return m2;
}

void BboxTrack::update(const Detection& det) {
  // Refresh the size-proportional measurement noise before the update.
  measurement_noise(det.bbox, r_);
  const double z[4] = {det.bbox.cx, det.bbox.cy, det.bbox.w, det.bbox.h};
  // Record the pre-update innovation for the runtime attack monitors. Pure
  // observation: the Mahalanobis distance falls out of the update's own
  // innovation and S^-1, so it costs one 4x4 quadratic form.
  last_innovation_x_ =
      (det.bbox.cx - predicted_.cx) / std::max(1.0, det.bbox.w);
  last_innovation_y_ =
      (det.bbox.cy - predicted_.cy) / std::max(1.0, det.bbox.h);
  double y[4];
  double s_inv[16];
  last_innovation_m2_ = innovation_(z, y, s_inv);
  // K = (P H^T) S^-1: P H^T is the left 6x4 block of P.
  double pht[24];
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      pht[i * 4 + j] = through_unit(p_[i * 6 + j]);
    }
  }
  double k[24];
  math::detail::multiply_fixed<6, 4, 4>(pht, s_inv, k);
  // x <- x + K y.
  double ky[6];
  math::detail::multiply_fixed<6, 4, 1>(k, y, ky);
  for (std::size_t i = 0; i < 6; ++i) x_[i] += ky[i];
  // P <- (I - K H) P, with K H = [K | 0] through the selection columns.
  double ikh[36];
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      ikh[i * 6 + j] = (i == j ? 1.0 : 0.0) - through_unit(k[i * 4 + j]);
    }
    for (std::size_t j = 4; j < 6; ++j) {
      ikh[i * 6 + j] = (i == j ? 1.0 : 0.0) - 0.0;
    }
  }
  double next_p[36];
  math::detail::multiply_fixed<6, 6, 6>(ikh, p_, next_p);
  std::memcpy(p_, next_p, sizeof(p_));
  ++hits_;
  consecutive_misses_ = 0;
  last_truth_id_ = det.truth_id;
}

void BboxTrack::mark_missed() {
  ++consecutive_misses_;
  last_innovation_m2_ = -1.0;
  last_innovation_x_ = 0.0;
  last_innovation_y_ = 0.0;
}

double BboxTrack::mahalanobis2(const math::Bbox& z) const {
  const double zv[4] = {z.cx, z.cy, z.w, z.h};
  double y[4];
  double s_inv[16];
  return innovation_(zv, y, s_inv);
}

}  // namespace rt::perception
