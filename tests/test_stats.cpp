#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "stats/fit.hpp"
#include "stats/histogram.hpp"
#include "stats/rng.hpp"
#include "stats/summary.hpp"

namespace rt::stats {
namespace {

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DeriveIndependentOfDrawCount) {
  // derive(stream) must not depend on how many draws were made before.
  Rng a(5);
  Rng b(5);
  (void)b.uniform(0.0, 1.0);  // b consumed one draw
  // Note: derive() peeks the engine's next output without consuming from
  // the caller's perspective of the derived stream identity.
  Rng da = a.derive(7);
  Rng db = Rng(5).derive(7);
  EXPECT_DOUBLE_EQ(da.uniform(0.0, 1.0), db.uniform(0.0, 1.0));
}

TEST(Rng, DeriveDistinctStreams) {
  Rng root(99);
  Rng a = root.derive(1);
  Rng b = root.derive(2);
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform_int(0, 1000000) == b.uniform_int(0, 1000000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BernoulliEdges) {
  Rng r(1);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Rng, UniformIntBounds) {
  Rng r(2);
  for (int i = 0; i < 200; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

// PR 8 noise migration: `normal` is a counter-based draw — exactly ONE
// engine word per call, mapped through the inverse CDF. These tests pin
// the definition and the stream-purity it buys. (The RT_LEGACY_NOISE
// escape hatch of the migration window has been removed.)

TEST(Rng, NormalConsumesExactlyOneEngineWord) {
  // The draw must equal the inverse-CDF map of the engine's next word, and
  // the engine must advance by exactly one word — no value-dependent
  // rejection loop. That makes draw sequences reproducible regardless of
  // what distributions are interleaved (stream purity).
  Rng a(2024);
  std::mt19937_64 shadow(2024);
  for (int i = 0; i < 256; ++i) {
    const std::uint64_t word = shadow();
    const double u = (static_cast<double>(word >> 11) + 0.5) * 0x1.0p-53;
    const double expected = 1.5 + 0.6 * normal_quantile(u);
    EXPECT_DOUBLE_EQ(a.normal(1.5, 0.6), expected) << "draw " << i;
  }
  // Engines are in lockstep after any number of draws.
  EXPECT_EQ(a.engine()(), shadow());
}

TEST(Rng, NormalStreamPureUnderInterleaving) {
  // Interleaving normal draws with other draws shifts the stream by a
  // CONSTANT offset per draw: n normals always consume exactly n words.
  Rng interleaved(77);
  Rng plain(77);
  (void)interleaved.normal(0.0, 1.0);
  (void)interleaved.normal(5.0, 2.0);
  (void)plain.engine()();
  (void)plain.engine()();
  for (int i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(interleaved.uniform(0.0, 1.0),
                     plain.uniform(0.0, 1.0));
  }
}

TEST(Rng, NormalCounterBasedStatisticalSanity) {
  // 1e6 draws: fitted mean/sigma must recover the parameters well within
  // Monte-Carlo tolerance (3 sigma of the estimator's own stddev is about
  // 0.002 at this n; 0.01 leaves margin).
  Rng rng(13);
  std::vector<double> xs;
  xs.reserve(1000000);
  for (int i = 0; i < 1000000; ++i) xs.push_back(rng.normal(1.5, 0.6));
  const NormalFit fit = fit_normal(xs);
  EXPECT_NEAR(fit.mu, 1.5, 0.01);
  EXPECT_NEAR(fit.sigma, 0.6, 0.01);
  // Tail sanity: the inverse-CDF map must produce two-sided tails (about
  // 1350 draws beyond +/-3 sigma each at this n).
  int lo_tail = 0;
  int hi_tail = 0;
  for (const double x : xs) {
    if (x < 1.5 - 3.0 * 0.6) ++lo_tail;
    if (x > 1.5 + 3.0 * 0.6) ++hi_tail;
  }
  EXPECT_GT(lo_tail, 900);
  EXPECT_LT(lo_tail, 1900);
  EXPECT_GT(hi_tail, 900);
  EXPECT_LT(hi_tail, 1900);
}

TEST(Rng, NanParametersThrow) {
  // NaN parameters put the std distributions into undefined behaviour;
  // every draw API rejects them loudly instead.
  Rng r(3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)r.uniform(nan, 1.0), std::invalid_argument);
  EXPECT_THROW((void)r.uniform(0.0, nan), std::invalid_argument);
  EXPECT_THROW((void)r.normal(nan, 1.0), std::invalid_argument);
  EXPECT_THROW((void)r.normal(0.0, nan), std::invalid_argument);
  EXPECT_THROW((void)r.exponential(nan), std::invalid_argument);
  EXPECT_THROW((void)r.bernoulli(nan), std::invalid_argument);
  // The generator stays usable after a rejected call.
  EXPECT_NO_THROW((void)r.normal(0.0, 1.0));
  EXPECT_NO_THROW((void)r.bernoulli(0.5));
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(normal_quantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(normal_quantile(0.99), 2.326348, 1e-4);
  EXPECT_NEAR(normal_quantile(0.01), -2.326348, 1e-4);
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
}

// Independent reference for the standard normal quantile: bisect the
// libm-backed CDF 0.5 * erfc(-x / sqrt(2)) to the last representable x.
// For p <= 0.5 the CDF is evaluated on the erfc tail side, which keeps full
// relative precision in the far tail; the upper half follows by symmetry,
// and 1 - p is exact there.
double reference_quantile(double p) {
  if (p > 0.5) return -reference_quantile(1.0 - p);
  double lo = -40.0;  // Phi(-40) ~ 4e-350, below every positive double
  double hi = 0.0;
  for (;;) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(NormalQuantile, MatchesBisectedErfcReference) {
  // Acklam's rational approximation is accurate to ~1.15e-9 relative.
  constexpr double kRelBound = 1.2e-9;
  // A dense grid plus both tails. p = 0.5 (x = 0, where relative error is
  // undefined) is covered by KnownValues.
  std::vector<double> ps;
  for (int i = 1; i < 100000; ++i) {
    if (i != 50000) ps.push_back(i / 1e5);
  }
  for (int e = 5; e <= 300; ++e) ps.push_back(std::pow(10.0, -e));
  for (int e = 5; e <= 15; ++e) ps.push_back(1.0 - std::pow(10.0, -e));
  double worst = 0.0;
  double worst_p = 0.0;
  for (const double p : ps) {
    const double ref = reference_quantile(p);
    const double got = normal_quantile(p);
    const double rel = std::abs(got - ref) / std::abs(ref);
    if (rel > worst) {
      worst = rel;
      worst_p = p;
    }
  }
  EXPECT_LE(worst, kRelBound) << "worst relative error at p=" << worst_p;
}

TEST(FitNormal, RecoversParameters) {
  Rng rng(7);
  std::vector<double> xs;
  xs.reserve(20000);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.normal(1.5, 0.6));
  const NormalFit fit = fit_normal(xs);
  EXPECT_NEAR(fit.mu, 1.5, 0.02);
  EXPECT_NEAR(fit.sigma, 0.6, 0.02);
  EXPECT_NEAR(fit.p99(), 1.5 + 0.6 * 2.326348, 0.05);
}

TEST(FitNormal, EmptyInput) {
  const NormalFit fit = fit_normal({});
  EXPECT_DOUBLE_EQ(fit.mu, 0.0);
  EXPECT_DOUBLE_EQ(fit.sigma, 0.0);
}

TEST(FitNormal, PdfIntegratesToOne) {
  const NormalFit fit{0.0, 1.0};
  double integral = 0.0;
  for (double x = -6.0; x <= 6.0; x += 0.01) integral += fit.pdf(x) * 0.01;
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(FitExponential, RecoversRate) {
  Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(1.0 + rng.exponential(0.7));
  const ExponentialFit fit = fit_exponential(xs, 1.0);
  EXPECT_NEAR(fit.lambda, 0.7, 0.03);
  EXPECT_NEAR(fit.quantile(0.99), 1.0 + std::log(100.0) / fit.lambda, 0.5);
}

TEST(FitExponential, DegenerateInput) {
  const std::vector<double> xs{1.0, 1.0, 1.0};
  const ExponentialFit fit = fit_exponential(xs, 1.0);
  EXPECT_DOUBLE_EQ(fit.lambda, 0.0);
  EXPECT_DOUBLE_EQ(fit.quantile(0.5), 1.0);
}

TEST(Summary, MeanAndStddev) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Summary, PercentileInterpolation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101.0), std::invalid_argument);
}

TEST(Summary, PercentileUnsortedInput) {
  const std::vector<double> xs{9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(Rng, FromStreamReproducible) {
  // The same (seed, stream) pair must always open the same sequence.
  for (std::uint64_t stream : {0ULL, 1ULL, 2ULL, 17ULL, 1ULL << 40}) {
    Rng a = Rng::from_stream(999, stream);
    Rng b = Rng::from_stream(999, stream);
    for (int i = 0; i < 50; ++i) {
      EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
    }
  }
}

TEST(Rng, FromStreamDistinctStreamsDiffer) {
  Rng a = Rng::from_stream(7, 1);
  Rng b = Rng::from_stream(7, 2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.engine()() == b.engine()();
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, FromStreamDistinctSeedsDiffer) {
  Rng a = Rng::from_stream(7, 1);
  Rng b = Rng::from_stream(8, 1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    equal += a.engine()() == b.engine()();
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, FromStreamUncorrelatedSmokeCheck) {
  // Adjacent streams of one seed should look independent: the mean of each
  // stream and the correlation between sibling streams both stay near their
  // iid expectations. This is a smoke check, not a statistical proof.
  const int kStreams = 64;
  const int kDraws = 256;
  double corr_accum = 0.0;
  for (int s = 0; s < kStreams; ++s) {
    Rng a = Rng::from_stream(123, static_cast<std::uint64_t>(s));
    Rng b = Rng::from_stream(123, static_cast<std::uint64_t>(s) + 1);
    double mean_a = 0.0;
    double mean_b = 0.0;
    double cross = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      const double xa = a.uniform(0.0, 1.0);
      const double xb = b.uniform(0.0, 1.0);
      mean_a += xa;
      mean_b += xb;
      cross += (xa - 0.5) * (xb - 0.5);
    }
    mean_a /= kDraws;
    mean_b /= kDraws;
    // Mean of kDraws U(0,1) draws: sd ~= 0.289/sqrt(256) ~= 0.018.
    EXPECT_NEAR(mean_a, 0.5, 0.1);
    EXPECT_NEAR(mean_b, 0.5, 0.1);
    corr_accum += cross / kDraws / (1.0 / 12.0);  // normalized correlation
  }
  EXPECT_NEAR(corr_accum / kStreams, 0.0, 0.05);
}

TEST(Rng, FromStreamIndependentOfParentState) {
  // from_stream is a static pure function: drawing from some other Rng
  // beforehand can't perturb it (unlike a shared-engine scheme would).
  Rng noise(55);
  for (int i = 0; i < 10; ++i) (void)noise.uniform(0.0, 1.0);
  Rng a = Rng::from_stream(42, 3);
  Rng b = Rng::from_stream(42, 3);
  EXPECT_EQ(a.engine()(), b.engine()());
}

TEST(Summary, Boxplot) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(i);
  const BoxplotStats s = boxplot(xs);
  EXPECT_EQ(s.n, 101u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.q1, 26.0);
  EXPECT_DOUBLE_EQ(s.q3, 76.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_FALSE(s.to_string().empty());
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-3.0);   // clamped into first bin
  h.add(100.0);  // clamped into last bin
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_NEAR(h.bin_center(0), 0.5, 1e-12);
  EXPECT_GT(h.density(0), 0.0);
  EXPECT_FALSE(h.render(20, true).empty());
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

}  // namespace
}  // namespace rt::stats
