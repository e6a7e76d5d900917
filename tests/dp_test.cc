#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "dp/mechanisms.h"
#include "dp/synthesizer.h"

namespace ppdp::dp {
namespace {

TEST(LaplaceTest, SampleMomentsMatch) {
  Rng rng(1);
  double scale = 2.0;
  double sum = 0.0, abs_sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = SampleLaplace(scale, rng);
    sum += x;
    abs_sum += std::fabs(x);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.1);         // mean 0
  EXPECT_NEAR(abs_sum / n, scale, 0.1);   // E|X| = scale
}

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  LaplaceMechanism m(/*sensitivity=*/2.0, /*epsilon=*/0.5);
  EXPECT_DOUBLE_EQ(m.scale(), 4.0);
  Rng rng(2);
  // Higher epsilon -> tighter noise on average.
  LaplaceMechanism tight(2.0, 10.0);
  double loose_err = 0.0, tight_err = 0.0;
  for (int i = 0; i < 5000; ++i) {
    loose_err += std::fabs(m.Apply(100.0, rng) - 100.0);
    tight_err += std::fabs(tight.Apply(100.0, rng) - 100.0);
  }
  EXPECT_GT(loose_err, tight_err);
}

TEST(GeometricTest, ConcentratedAtHighEpsilon) {
  Rng rng(3);
  int zeros = 0;
  for (int i = 0; i < 1000; ++i) {
    int64_t noise = SampleTwoSidedGeometric(/*epsilon=*/5.0, /*sensitivity=*/1.0, rng);
    if (noise == 0) ++zeros;
  }
  EXPECT_GT(zeros, 950);  // P(0) = (1-α)/(1+α) ≈ 0.987 at ε=5
}

TEST(GeometricTest, SymmetricAroundZero) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    sum += static_cast<double>(SampleTwoSidedGeometric(0.5, 1.0, rng));
  }
  EXPECT_NEAR(sum / 20000.0, 0.0, 0.2);
}

TEST(ExponentialMechanismTest, PrefersHighUtility) {
  Rng rng(4);
  std::vector<double> utilities = {0.0, 0.0, 5.0};
  int picked_best = 0;
  for (int i = 0; i < 1000; ++i) {
    if (ExponentialMechanism(utilities, /*epsilon=*/4.0, /*sensitivity=*/1.0, rng) == 2) {
      ++picked_best;
    }
  }
  EXPECT_GT(picked_best, 950);
}

TEST(ExponentialMechanismTest, NearUniformAtTinyEpsilon) {
  Rng rng(4);
  std::vector<double> utilities = {0.0, 5.0};
  int picked_best = 0;
  for (int i = 0; i < 10000; ++i) {
    if (ExponentialMechanism(utilities, /*epsilon=*/1e-6, 1.0, rng) == 1) ++picked_best;
  }
  EXPECT_NEAR(picked_best / 10000.0, 0.5, 0.05);
}

TEST(RandomizedResponseTest, KeepProbabilityFormula) {
  RandomizedResponse rr(/*domain_size=*/3, /*epsilon=*/std::log(4.0));
  // e^ε = 4 -> keep = 4 / (4 + 2) = 2/3.
  EXPECT_NEAR(rr.keep_probability(), 2.0 / 3.0, 1e-12);
}

TEST(RandomizedResponseTest, DebiasRecoversTrueFrequency) {
  Rng rng(5);
  RandomizedResponse rr(2, 1.0);
  // True frequency of value 1 is 0.3.
  const int n = 50000;
  int observed_ones = 0;
  for (int i = 0; i < n; ++i) {
    size_t truth = i < n * 3 / 10 ? 1 : 0;
    if (rr.Perturb(truth, rng) == 1) ++observed_ones;
  }
  double estimate = rr.Debias(static_cast<double>(observed_ones) / n);
  EXPECT_NEAR(estimate, 0.3, 0.02);
}

TEST(AccountantTest, BudgetEnforced) {
  // The privacy ledger is the DP pipeline's budget accountant.
  obs::PrivacyLedger accountant(1.0);
  EXPECT_TRUE(accountant.Spend("query", "laplace", 0.4).ok());
  EXPECT_TRUE(accountant.Spend("query", "laplace", 0.6).ok());
  EXPECT_NEAR(accountant.remaining(), 0.0, 1e-12);
  EXPECT_EQ(accountant.Spend("query", "laplace", 0.1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(accountant.Spend("query", "laplace", -1.0).code(), StatusCode::kInvalidArgument);
}

// --- Synthesizer -------------------------------------------------------------

/// Correlated panel: attribute 1 copies attribute 0 with high probability;
/// attribute 2 is independent noise.
CategoricalData CorrelatedPanel(size_t rows, Rng& rng) {
  CategoricalData data;
  for (size_t i = 0; i < rows; ++i) {
    int8_t a = static_cast<int8_t>(rng.Uniform(3));
    int8_t b = rng.Bernoulli(0.9) ? a : static_cast<int8_t>(rng.Uniform(3));
    int8_t c = static_cast<int8_t>(rng.Uniform(3));
    data.push_back({a, b, c});
  }
  return data;
}

TEST(SynthesizerTest, RejectsBadInput) {
  SynthesizerConfig config;
  EXPECT_FALSE(PrivateSynthesizer::Fit({}, config).ok());
  EXPECT_FALSE(PrivateSynthesizer::Fit({{0, 1}, {0}}, config).ok());  // ragged
  EXPECT_FALSE(PrivateSynthesizer::Fit({{0, 5}}, config).ok());       // out of domain
  config.epsilon = -1.0;
  EXPECT_FALSE(PrivateSynthesizer::Fit({{0, 1, 2}}, config).ok());
}

TEST(SynthesizerTest, HighEpsilonPreservesMarginals) {
  Rng rng(6);
  CategoricalData data = CorrelatedPanel(3000, rng);
  SynthesizerConfig config;
  config.epsilon = 100.0;
  config.seed = 1;
  auto model = PrivateSynthesizer::Fit(data, config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  Rng sample_rng(7);
  CategoricalData synthetic = model->Sample(3000, sample_rng);
  EXPECT_LT(MarginalL1Error(data, synthetic, 3), 0.08);
}

TEST(SynthesizerTest, StructureRecoversStrongDependency) {
  Rng rng(6);
  CategoricalData data = CorrelatedPanel(3000, rng);
  SynthesizerConfig config;
  config.epsilon = 200.0;  // effectively non-private: structure must be right
  auto model = PrivateSynthesizer::Fit(data, config);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->parent()[1], 0);  // attribute 1 hangs off attribute 0
}

TEST(SynthesizerTest, DependencyPreservedInSamples) {
  Rng rng(6);
  CategoricalData data = CorrelatedPanel(3000, rng);
  SynthesizerConfig config;
  config.epsilon = 100.0;
  auto model = PrivateSynthesizer::Fit(data, config);
  ASSERT_TRUE(model.ok());
  Rng sample_rng(8);
  CategoricalData synthetic = model->Sample(3000, sample_rng);
  // Agreement rate between attributes 0 and 1 should carry over (~0.93).
  auto agreement = [](const CategoricalData& d) {
    size_t agree = 0;
    for (const auto& row : d) agree += row[0] == row[1] ? 1 : 0;
    return static_cast<double>(agree) / static_cast<double>(d.size());
  };
  EXPECT_NEAR(agreement(synthetic), agreement(data), 0.06);
  EXPECT_LT(PairwiseL1Error(data, synthetic, 3), 0.15);
}

TEST(SynthesizerTest, MoreEpsilonMeansBetterUtility) {
  Rng rng(9);
  CategoricalData data = CorrelatedPanel(2000, rng);
  auto error_at = [&](double epsilon) {
    SynthesizerConfig config;
    config.epsilon = epsilon;
    config.seed = 3;
    auto model = PrivateSynthesizer::Fit(data, config);
    EXPECT_TRUE(model.ok());
    Rng sample_rng(4);
    CategoricalData synthetic = model->Sample(2000, sample_rng);
    return MarginalL1Error(data, synthetic, 3);
  };
  // Average several repetitions to damp sampling noise.
  double low = 0.0, high = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    low += error_at(0.05 + rep * 1e-3);
    high += error_at(50.0 + rep * 1e-3);
  }
  EXPECT_GT(low, high);
}

/// Three-attribute chain: c copies b copies a — only a 2-parent model can
/// capture P(c | a, b) interactions, but even the structure matters here.
CategoricalData ChainPanel(size_t rows, Rng& rng) {
  CategoricalData data;
  for (size_t i = 0; i < rows; ++i) {
    int8_t a = static_cast<int8_t>(rng.Uniform(3));
    int8_t b = rng.Bernoulli(0.85) ? a : static_cast<int8_t>(rng.Uniform(3));
    // c agrees with the XOR-ish combination: depends on BOTH a and b.
    int8_t c = rng.Bernoulli(0.85) ? static_cast<int8_t>((a + b) % 3)
                                   : static_cast<int8_t>(rng.Uniform(3));
    data.push_back({a, b, c});
  }
  return data;
}

TEST(SynthesizerTest, TwoParentModelShapesAndSamples) {
  Rng rng(12);
  CategoricalData data = ChainPanel(3000, rng);
  SynthesizerConfig config;
  config.epsilon = 100.0;
  config.max_parents = 2;
  auto model = PrivateSynthesizer::Fit(data, config);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  // Attribute 2 should pick up both earlier attributes as parents.
  EXPECT_EQ(model->parents()[2].size(), 2u);
  EXPECT_TRUE(model->parents()[0].empty());
  Rng sample_rng(13);
  auto synthetic = model->Sample(2000, sample_rng);
  ASSERT_EQ(synthetic.size(), 2000u);
  for (const auto& row : synthetic) {
    for (int8_t v : row) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 3);
    }
  }
}

TEST(SynthesizerTest, TwoParentsCaptureHigherOrderDependency) {
  // P(c = (a+b) mod 3) ≈ 0.85 + noise in the data; a 1-parent model cannot
  // represent the two-argument rule, a 2-parent model can.
  Rng rng(12);
  CategoricalData data = ChainPanel(4000, rng);
  auto rule_rate = [](const CategoricalData& d) {
    size_t hits = 0;
    for (const auto& row : d) hits += row[2] == (row[0] + row[1]) % 3 ? 1 : 0;
    return static_cast<double>(hits) / static_cast<double>(d.size());
  };
  auto fit_rate = [&](size_t max_parents) {
    SynthesizerConfig config;
    config.epsilon = 200.0;
    config.max_parents = max_parents;
    config.seed = 3;
    auto model = PrivateSynthesizer::Fit(data, config);
    EXPECT_TRUE(model.ok());
    Rng sample_rng(4);
    return rule_rate(model->Sample(4000, sample_rng));
  };
  double truth = rule_rate(data);
  double one_parent = fit_rate(1);
  double two_parents = fit_rate(2);
  EXPECT_GT(two_parents, one_parent);
  EXPECT_NEAR(two_parents, truth, 0.08);
}

TEST(SynthesizerTest, InvalidMaxParentsRejected) {
  SynthesizerConfig config;
  config.max_parents = 0;
  EXPECT_FALSE(PrivateSynthesizer::Fit({{0, 1, 2}}, config).ok());
}

TEST(SynthesizerTest, SampleShapeAndDomain) {
  Rng rng(10);
  CategoricalData data = CorrelatedPanel(500, rng);
  SynthesizerConfig config;
  auto model = PrivateSynthesizer::Fit(data, config);
  ASSERT_TRUE(model.ok());
  Rng sample_rng(11);
  CategoricalData synthetic = model->Sample(123, sample_rng);
  ASSERT_EQ(synthetic.size(), 123u);
  for (const auto& row : synthetic) {
    ASSERT_EQ(row.size(), 3u);
    for (int8_t v : row) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 3);
    }
  }
}


TEST(SynthesizerConfigTest, ValidateRejectsBadParameters) {
  EXPECT_TRUE(SynthesizerConfig{}.Validate().ok());
  SynthesizerConfig bad_eps;
  bad_eps.epsilon = 0.0;
  EXPECT_EQ(bad_eps.Validate().code(), StatusCode::kInvalidArgument);
  SynthesizerConfig bad_fraction;
  bad_fraction.structure_fraction = 1.0;
  EXPECT_EQ(bad_fraction.Validate().code(), StatusCode::kInvalidArgument);
  SynthesizerConfig negative_fraction;
  negative_fraction.structure_fraction = -0.1;
  EXPECT_EQ(negative_fraction.Validate().code(), StatusCode::kInvalidArgument);
  SynthesizerConfig negative_threads;
  negative_threads.threads = -5;
  EXPECT_EQ(negative_threads.Validate().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppdp::dp
