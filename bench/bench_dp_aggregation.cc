// Section-6.2 extension: differentially private aggregation accuracy vs
// budget — noisy counts, hierarchical range counting (vs the naive
// histogram sum) and exponential-mechanism quantiles over a genotype-count
// style domain.
//
//   $ ./bench_dp_aggregation [--seed 5] [--rows 20000]
#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "bench_util.h"
#include "dp/aggregation.h"

int main(int argc, char** argv) {
  ppdp::bench::BenchEnv env(argc, argv, /*default_scale=*/1.0, {"rows"});
  ppdp::Flags flags(argc, argv);
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 20000));

  ppdp::Rng rng(env.seed);
  const size_t domain = 1 << 12;
  std::vector<int64_t> data(rows);
  for (auto& v : data) {
    // Right-skewed synthetic "allele dosage position" distribution.
    v = static_cast<int64_t>(std::min<uint64_t>(domain - 1,
                                                rng.Uniform(domain / 4) + rng.Uniform(domain / 4) +
                                                    rng.Uniform(domain / 2)));
  }
  const int64_t lo = 64, hi = 3600;
  int64_t truth = 0;
  for (int64_t v : data) truth += (v >= lo && v <= hi) ? 1 : 0;
  std::vector<int64_t> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  double true_median = static_cast<double>(sorted[rows / 2]);

  ppdp::Table table({"epsilon", "range err (hierarchical)", "range err (naive)",
                     "median abs err", "count abs err"});
  const int trials = 10;
  for (double epsilon : {0.05, 0.1, 0.25, 0.5, 1.0, 2.0}) {
    double sketch_err = 0.0, naive_err = 0.0, quantile_err = 0.0, count_err = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      auto sketch = ppdp::dp::RangeCountSketch::Build(data, domain, epsilon, rng);
      sketch_err += std::fabs(sketch->RangeCount(lo, hi).value() - static_cast<double>(truth));
      auto histogram = ppdp::dp::NoisyHistogram(data, domain, epsilon, rng);
      double naive = std::accumulate(histogram.begin() + lo, histogram.begin() + hi + 1, 0.0);
      naive_err += std::fabs(naive - static_cast<double>(truth));
      auto median = ppdp::dp::PrivateQuantile(data, domain, 0.5, epsilon, rng);
      quantile_err += std::fabs(static_cast<double>(median.value()) - true_median);
      count_err += std::fabs(ppdp::dp::NoisyCount(rows, epsilon, rng) -
                             static_cast<double>(rows));
    }
    table.AddNumericRow({epsilon, sketch_err / trials, naive_err / trials,
                         quantile_err / trials, count_err / trials},
                        2);
  }
  env.Emit(table, "dp_aggregation",
           "DP aggregation error vs epsilon (domain 4096, " + std::to_string(rows) + " rows)");
  return 0;
}
