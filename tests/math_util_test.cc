#include "common/math_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace ppdp {
namespace {

TEST(EntropyTest, DeterministicDistributionIsZero) {
  EXPECT_DOUBLE_EQ(Entropy({1.0, 0.0, 0.0}), 0.0);
}

TEST(EntropyTest, UniformIsLogK) {
  EXPECT_NEAR(Entropy({0.25, 0.25, 0.25, 0.25}), std::log(4.0), 1e-12);
  EXPECT_NEAR(Entropy({0.5, 0.5}, /*base2=*/true), 1.0, 1e-12);
}

TEST(EntropyTest, UnnormalizedInputIsNormalized) {
  EXPECT_NEAR(Entropy({2.0, 2.0}), std::log(2.0), 1e-12);
}

TEST(EntropyTest, AllZeroYieldsZero) { EXPECT_DOUBLE_EQ(Entropy({0.0, 0.0}), 0.0); }

TEST(NormalizedEntropyTest, BoundsAndExtremes) {
  EXPECT_DOUBLE_EQ(NormalizedEntropy({1.0, 0.0, 0.0}), 0.0);
  EXPECT_NEAR(NormalizedEntropy({1.0, 1.0, 1.0}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(NormalizedEntropy({5.0}), 0.0);
}

/// Property sweep: normalized entropy of random distributions always lands
/// in [0, 1] and is maximized by the uniform distribution.
class NormalizedEntropyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NormalizedEntropyProperty, StaysInUnitInterval) {
  Rng rng(GetParam());
  size_t k = 2 + rng.Uniform(9);
  std::vector<double> p(k);
  for (double& v : p) v = rng.UniformReal() + 1e-6;
  double h = NormalizedEntropy(p);
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, 1.0 + 1e-12);
  std::vector<double> uniform(k, 1.0);
  EXPECT_LE(h, NormalizedEntropy(uniform) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalizedEntropyProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(MeanVarianceTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Variance({1.0, 2.0, 3.0}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(Variance({5.0, 5.0, 5.0}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
}

TEST(QuantileOfSortedTest, InterpolatesBetweenClosestRanks) {
  std::vector<double> values;
  for (int i = 1; i <= 99; ++i) values.push_back(static_cast<double>(i));
  // Type 7 over 1..99: the median is exactly 50, p99 interpolates near the top.
  EXPECT_DOUBLE_EQ(QuantileOfSorted(values, 0.5), 50.0);
  EXPECT_NEAR(QuantileOfSorted(values, 0.99), 98.02, 1e-9);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(values, 1.0), 99.0);
}

TEST(QuantileOfSortedTest, EmptySingleAndAllEqualInputs) {
  EXPECT_DOUBLE_EQ(QuantileOfSorted({}, 0.5), 0.0) << "empty input quantiles are 0";
  const std::vector<double> single = {1.7};
  const std::vector<double> equal(10, 3.0);
  for (double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(QuantileOfSorted(single, q), 1.7) << "q=" << q;
    EXPECT_DOUBLE_EQ(QuantileOfSorted(equal, q), 3.0) << "q=" << q;
  }
  // Out-of-range q is clamped, not UB.
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(QuantileOfSorted(two, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(two, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(equal, -0.5), 3.0);
  EXPECT_DOUBLE_EQ(QuantileOfSorted(equal, 2.0), 3.0);
}

TEST(ArgMaxTest, TiesBreakLow) {
  EXPECT_EQ(ArgMax({1.0, 3.0, 3.0, 2.0}), 1u);
  EXPECT_EQ(ArgMax({7.0}), 0u);
}

TEST(NormalizeTest, SumsToOne) {
  std::vector<double> v = {1.0, 3.0};
  NormalizeInPlace(v);
  EXPECT_DOUBLE_EQ(v[0], 0.25);
  EXPECT_DOUBLE_EQ(v[1], 0.75);
}

TEST(NormalizeTest, AllZeroBecomesUniform) {
  std::vector<double> v = {0.0, 0.0, 0.0, 0.0};
  NormalizeInPlace(v);
  for (double x : v) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(L1DistanceTest, KnownValue) {
  EXPECT_DOUBLE_EQ(L1Distance({1.0, 0.0}, {0.0, 1.0}), 2.0);
  EXPECT_DOUBLE_EQ(L1Distance({0.5, 0.5}, {0.5, 0.5}), 0.0);
}

TEST(NearlyEqualTest, Tolerance) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 1e-10));
  EXPECT_FALSE(NearlyEqual(1.0, 1.1));
}

}  // namespace
}  // namespace ppdp
