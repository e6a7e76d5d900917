// Cross-thread-count determinism: every parallelized pipeline must produce
// byte-identical output at --threads 1 (the exact serial fallback), 2, and
// 8, and across repeated runs at the same width. These are exact ==
// comparisons on the raw doubles — "close enough" is a scheduling bug.
//
// The honored PPDP_TEST_THREADS environment variable adds one more width to
// the sweep (CI runs the sanitizer jobs with PPDP_TEST_THREADS=4).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "classify/collective.h"
#include "classify/evaluation.h"
#include "classify/gibbs.h"
#include "classify/naive_bayes.h"
#include "common/rng.h"
#include "dp/synthesizer.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "genomics/inference_attack.h"
#include "graph/graph_generators.h"

namespace ppdp {
namespace {

std::vector<int> ThreadSweep() {
  std::vector<int> sweep = {1, 2, 8};
  if (const char* env = std::getenv("PPDP_TEST_THREADS")) {
    int extra = std::atoi(env);
    if (extra > 0) sweep.push_back(extra);
  }
  return sweep;
}

struct SocialFixture {
  graph::SocialGraph g;
  std::vector<bool> known;

  SocialFixture() : g(graph::GenerateSyntheticGraph(graph::CaltechLikeConfig(0.15, 19))) {
    Rng rng(3);
    known = classify::SampleKnownMask(g, 0.7, rng);
  }
};

TEST(DeterminismTest, IcaIsByteIdenticalAcrossThreadCounts) {
  SocialFixture fx;
  auto run = [&](int threads) {
    classify::NaiveBayesClassifier local;
    classify::CollectiveConfig config;
    config.threads = threads;
    return classify::CollectiveInference(fx.g, fx.known, local, config);
  };
  auto serial = run(1);
  auto repeat = run(1);
  EXPECT_EQ(serial.distributions, repeat.distributions) << "serial run is not reproducible";
  for (int threads : ThreadSweep()) {
    auto parallel = run(threads);
    EXPECT_EQ(serial.distributions, parallel.distributions) << "threads=" << threads;
    EXPECT_EQ(serial.iterations, parallel.iterations) << "threads=" << threads;
    EXPECT_EQ(serial.converged, parallel.converged) << "threads=" << threads;
  }
}

TEST(DeterminismTest, MultiChainGibbsIsByteIdenticalAcrossThreadCounts) {
  SocialFixture fx;
  auto run = [&](int threads) {
    classify::NaiveBayesClassifier local;
    classify::GibbsConfig config;
    config.burn_in = 5;
    config.samples = 20;
    config.chains = 4;
    config.seed = 11;
    config.threads = threads;
    return classify::GibbsCollectiveInference(fx.g, fx.known, local, config);
  };
  auto serial = run(1);
  auto repeat = run(1);
  EXPECT_EQ(serial.distributions, repeat.distributions) << "serial run is not reproducible";
  for (int threads : ThreadSweep()) {
    auto parallel = run(threads);
    EXPECT_EQ(serial.distributions, parallel.distributions) << "threads=" << threads;
  }
}

TEST(DeterminismTest, BeliefPropagationIsByteIdenticalAcrossThreadCounts) {
  Rng rng(5);
  genomics::SyntheticCatalogConfig catalog_config;
  catalog_config.num_snps = 150;
  catalog_config.snps_per_trait = 5;
  auto catalog = genomics::GenerateSyntheticCatalog(catalog_config, rng);
  auto person = genomics::SampleIndividual(catalog, rng);
  auto view = genomics::MakeTargetView(catalog, person, {});
  // BP is serial; the global pool's width must still not reach its output.
  auto run = [&](int threads) {
    EXPECT_TRUE(exec::ThreadPool::SetGlobalThreads(threads).ok());
    return genomics::RunGenomeInference(catalog, view,
                                        genomics::AttackMethod::kBeliefPropagation);
  };
  auto serial = run(1);
  auto repeat = run(1);
  EXPECT_EQ(serial.trait_marginals, repeat.trait_marginals) << "serial run is not reproducible";
  for (int threads : ThreadSweep()) {
    auto parallel = run(threads);
    EXPECT_EQ(serial.trait_marginals, parallel.trait_marginals) << "threads=" << threads;
    EXPECT_EQ(serial.snp_marginals, parallel.snp_marginals) << "threads=" << threads;
  }
  ASSERT_TRUE(exec::ThreadPool::SetGlobalThreads(0).ok());
}

TEST(DeterminismTest, ByteIdenticalUnderInjectedSchedulingJitterAndRoundFaults) {
  // Chaos determinism: the "exec.chunk" point stalls executor threads at
  // random (reshuffling which worker claims which chunk) and the ICA/Gibbs
  // round points abort and retry whole rounds — none of which may change a
  // single output bit. The chaos CI matrix sweeps the plan via
  // PPDP_TEST_FAULT_SEED / PPDP_TEST_FAULT_RATE.
  SocialFixture fx;
  auto ica = [&](int threads) {
    classify::NaiveBayesClassifier local;
    classify::CollectiveConfig config;
    config.threads = threads;
    return classify::CollectiveInference(fx.g, fx.known, local, config);
  };
  auto gibbs = [&](int threads) {
    classify::NaiveBayesClassifier local;
    classify::GibbsConfig config;
    config.burn_in = 5;
    config.samples = 15;
    config.chains = 2;
    config.seed = 11;
    config.threads = threads;
    return classify::GibbsCollectiveInference(fx.g, fx.known, local, config);
  };
  auto clean_ica = ica(1);
  auto clean_gibbs = gibbs(1);

  fault::FaultPlan plan = fault::PlanFromEnv(/*default_seed=*/1, /*default_rate=*/0.2);
  // Scope the chaos to the points this suite exercises; the base rate from
  // the environment becomes their per-point rate.
  plan.point_rates["exec.chunk"] = plan.rate;
  plan.point_rates["classify.ica.round"] = plan.rate;
  plan.point_rates["classify.gibbs.sweep"] = plan.rate;
  plan.rate = 0.0;
  plan.max_delay_ms = 0.3;  // real sleeps in exec.chunk: keep them short
  fault::ScopedFaultPlan scoped(plan);

  for (int threads : ThreadSweep()) {
    auto chaotic_ica = ica(threads);
    EXPECT_EQ(clean_ica.distributions, chaotic_ica.distributions)
        << "ICA differs under chaos at threads=" << threads;
    auto chaotic_gibbs = gibbs(threads);
    EXPECT_EQ(clean_gibbs.distributions, chaotic_gibbs.distributions)
        << "Gibbs differs under chaos at threads=" << threads;
  }
}

TEST(DeterminismTest, SynthesizerIsByteIdenticalAcrossThreadCounts) {
  // A 30-attribute panel: wide enough that the MI triangle and the noisy
  // tables both split into several parallel chunks.
  Rng data_rng(23);
  dp::CategoricalData data;
  for (size_t i = 0; i < 150; ++i) {
    dp::CategoricalRow row(30);
    for (auto& v : row) v = static_cast<int8_t>(data_rng.Uniform(3));
    data.push_back(row);
  }
  auto run = [&](int threads) {
    dp::SynthesizerConfig config;
    config.epsilon = 1.0;
    config.structure_fraction = 0.3;
    config.seed = 17;
    config.threads = threads;
    auto model = dp::PrivateSynthesizer::Fit(data, config);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    Rng sample_rng(99);
    return std::make_pair(model->parents(), model->Sample(40, sample_rng));
  };
  auto serial = run(1);
  auto repeat = run(1);
  EXPECT_EQ(serial.first, repeat.first) << "serial run is not reproducible";
  EXPECT_EQ(serial.second, repeat.second) << "serial run is not reproducible";
  for (int threads : ThreadSweep()) {
    auto parallel = run(threads);
    EXPECT_EQ(serial.first, parallel.first) << "structure differs at threads=" << threads;
    EXPECT_EQ(serial.second, parallel.second) << "samples differ at threads=" << threads;
  }
}

}  // namespace
}  // namespace ppdp
