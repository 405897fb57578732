#include "perception/kalman_filter.hpp"

#include <stdexcept>
#include <utility>

namespace rt::perception {

KalmanFilter::KalmanFilter(math::Matrix f, math::Matrix q, math::Matrix h,
                           math::Matrix r, math::Matrix x0, math::Matrix p0)
    : f_(std::move(f)),
      q_(std::move(q)),
      h_(std::move(h)),
      r_(std::move(r)),
      x_(std::move(x0)),
      p_(std::move(p0)) {
  const std::size_t n = f_.rows();
  const std::size_t m = h_.rows();
  if (f_.cols() != n || q_.rows() != n || q_.cols() != n || h_.cols() != n ||
      r_.rows() != m || r_.cols() != m || x_.rows() != n || x_.cols() != 1 ||
      p_.rows() != n || p_.cols() != n) {
    throw std::invalid_argument("KalmanFilter: inconsistent dimensions");
  }
}

void KalmanFilter::predict() {
  x_ = f_ * x_;
  p_ = f_ * p_ * f_.transposed() + q_;
}

math::Matrix KalmanFilter::innovation_covariance_inverse() const {
  return (h_ * p_ * h_.transposed() + r_).inverse();
}

void KalmanFilter::update(const math::Matrix& z) {
  const math::Matrix y = innovation(z);
  const math::Matrix s_inv = innovation_covariance_inverse();
  last_update_m2_ = (y.transposed() * s_inv * y)(0, 0);
  const math::Matrix k = p_ * h_.transposed() * s_inv;
  x_ += k * y;
  p_ = (math::Matrix::identity(p_.rows()) - k * h_) * p_;
}

math::Matrix KalmanFilter::innovation(const math::Matrix& z) const {
  return z - h_ * x_;
}

double KalmanFilter::mahalanobis2(const math::Matrix& z) const {
  const math::Matrix y = innovation(z);
  return (y.transposed() * innovation_covariance_inverse() * y)(0, 0);
}

}  // namespace rt::perception
