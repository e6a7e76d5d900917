// google-benchmark microbenchmarks of the performance-critical kernels:
// belief propagation (the chapter-5 "linear complexity" claim), collective
// inference and its KNN local model, reduct computation, the simplex solver,
// link scoring and removal, the δ-privacy greedy, SLO evaluation, and the
// primitives every layer shares (spans, metrics, ParallelFor, disarmed fault
// points, the ledger).
//
//   $ ./bench_micro [--benchmark_filter=...] [--report_out=F]
#include <benchmark/benchmark.h>

#include <filesystem>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "classify/collective.h"
#include "classify/evaluation.h"
#include "classify/knn.h"
#include "classify/naive_bayes.h"
#include "exec/parallel.h"
#include "fault/fault.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/slo.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "classify/relational.h"
#include "common/rng.h"
#include "genomics/genome_data.h"
#include "genomics/gwas_catalog.h"
#include "genomics/inference_attack.h"
#include "genomics/pedigree.h"
#include "genomics/snp_sanitizer.h"
#include "graph/graph_generators.h"
#include "graph/centrality.h"
#include "opt/simplex.h"
#include "rst/information_system.h"
#include "rst/reduct.h"
#include "sanitize/link_selection.h"
#include "serve/client.h"

namespace {

using ppdp::Rng;

/// BP inference cost as the SNP panel grows — the dissertation's headline
/// linear-complexity claim: time should scale ~linearly in the number of
/// associations (variables + factors), not exponentially in the unknowns.
void BM_BeliefPropagationAttack(benchmark::State& state) {
  size_t num_snps = static_cast<size_t>(state.range(0));
  Rng rng(7);
  ppdp::genomics::SyntheticCatalogConfig config;
  config.num_snps = num_snps;
  config.snps_per_trait = num_snps / 16;
  auto catalog = GenerateSyntheticCatalog(config, rng);
  auto person = SampleIndividual(catalog, rng);
  auto view = MakeTargetView(catalog, person, {});
  for (size_t s = 0; s < num_snps; s += 2) view.snp_known[s] = false;
  for (auto _ : state) {
    auto result = RunGenomeInference(catalog, view,
                                     ppdp::genomics::AttackMethod::kBeliefPropagation);
    benchmark::DoNotOptimize(result.trait_marginals);
  }
  state.SetComplexityN(static_cast<int64_t>(catalog.associations().size()));
}
BENCHMARK(BM_BeliefPropagationAttack)->RangeMultiplier(2)->Range(64, 1024)->Complexity();

void BM_NaiveBayesAttack(benchmark::State& state) {
  size_t num_snps = static_cast<size_t>(state.range(0));
  Rng rng(7);
  ppdp::genomics::SyntheticCatalogConfig config;
  config.num_snps = num_snps;
  config.snps_per_trait = num_snps / 16;
  auto catalog = GenerateSyntheticCatalog(config, rng);
  auto person = SampleIndividual(catalog, rng);
  auto view = MakeTargetView(catalog, person, {});
  for (auto _ : state) {
    auto result =
        RunGenomeInference(catalog, view, ppdp::genomics::AttackMethod::kNaiveBayes);
    benchmark::DoNotOptimize(result.trait_marginals);
  }
}
BENCHMARK(BM_NaiveBayesAttack)->RangeMultiplier(2)->Range(64, 1024);

void BM_CollectiveInference(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto g = GenerateSyntheticGraph(ppdp::graph::CaltechLikeConfig(scale, 3));
  Rng rng(7);
  auto known = ppdp::classify::SampleKnownMask(g, 0.7, rng);
  for (auto _ : state) {
    ppdp::classify::NaiveBayesClassifier nb;
    auto result = CollectiveInference(g, known, nb, {});
    benchmark::DoNotOptimize(result.distributions);
  }
}
BENCHMARK(BM_CollectiveInference)->Arg(10)->Arg(20)->Arg(40);

void BM_GreedyReduct(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto g = GenerateSyntheticGraph(ppdp::graph::SnapLikeConfig(scale, 3));
  auto is = ppdp::rst::InformationSystem::FromGraph(g);
  for (auto _ : state) {
    auto reduct = ppdp::rst::GreedyReduct(is);
    benchmark::DoNotOptimize(reduct);
  }
}
BENCHMARK(BM_GreedyReduct)->Arg(25)->Arg(50);

void BM_SimplexSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  std::vector<double> c(n);
  for (double& v : c) v = rng.UniformReal();
  for (auto _ : state) {
    ppdp::opt::SimplexSolver lp(c);
    Rng row_rng(13);
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> a(n);
      for (double& v : a) v = row_rng.UniformReal();
      lp.AddLessEqual(std::move(a), 1.0 + row_rng.UniformReal());
    }
    auto result = lp.Solve();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(10)->Arg(20)->Arg(40);

void BM_RankIndistinguishableLinks(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto g = GenerateSyntheticGraph(ppdp::graph::CaltechLikeConfig(scale, 3));
  Rng rng(7);
  auto known = ppdp::classify::SampleKnownMask(g, 0.7, rng);
  ppdp::classify::NaiveBayesClassifier nb;
  nb.Train(g, known);
  auto estimates = ppdp::classify::BootstrapDistributions(g, known, nb);
  for (auto _ : state) {
    auto ranked = ppdp::sanitize::RankIndistinguishableLinks(g, known, estimates);
    benchmark::DoNotOptimize(ranked);
  }
}
BENCHMARK(BM_RankIndistinguishableLinks)->Arg(10)->Arg(20)->Arg(40);

/// One step of bench_fig3_5's link axis on an MIT-like graph (average
/// degree ~78): score every hidden node's links and remove the 50 most
/// indistinguishable. The graph copy each removal needs is untimed.
void BM_RemoveIndistinguishableLinks(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto g = GenerateSyntheticGraph(ppdp::graph::MitLikeConfig(scale, 13));
  Rng rng(7);
  auto known = ppdp::classify::SampleKnownMask(g, 0.7, rng);
  ppdp::classify::NaiveBayesClassifier nb;
  nb.Train(g, known);
  auto estimates = ppdp::classify::BootstrapDistributions(g, known, nb);
  for (auto _ : state) {
    state.PauseTiming();
    ppdp::graph::SocialGraph copy = g;
    state.ResumeTiming();
    size_t removed = ppdp::sanitize::RemoveIndistinguishableLinks(copy, known, estimates, 50);
    benchmark::DoNotOptimize(removed);
  }
}
BENCHMARK(BM_RemoveIndistinguishableLinks)->Arg(2)->Arg(5)->Arg(10)->Unit(benchmark::kMillisecond);

/// The link-weight rows every ICA, Gibbs and link-removal call builds, on
/// an MIT-like graph with a 70% known mask.
void BM_LinkWeightRows(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto g = GenerateSyntheticGraph(ppdp::graph::MitLikeConfig(scale, 13));
  Rng rng(7);
  auto known = ppdp::classify::SampleKnownMask(g, 0.7, rng);
  for (auto _ : state) {
    ppdp::classify::LinkWeightRows rows(g, known);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_LinkWeightRows)->Arg(2)->Arg(5)->Unit(benchmark::kMicrosecond);

/// A KNN bootstrap: train on a 70% known mask of an MIT-like graph, then
/// predict every hidden node, single-threaded.
void BM_KnnPredict(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto g = GenerateSyntheticGraph(ppdp::graph::MitLikeConfig(scale, 13));
  Rng rng(7);
  auto known = ppdp::classify::SampleKnownMask(g, 0.7, rng);
  ppdp::classify::KnnClassifier knn;
  knn.Train(g, known);
  for (auto _ : state) {
    auto dists = ppdp::classify::BootstrapDistributions(g, known, knn);
    benchmark::DoNotOptimize(dists);
  }
}
BENCHMARK(BM_KnnPredict)->Arg(5)->Arg(25)->Unit(benchmark::kMicrosecond);

/// A whole single-threaded ICA run on an MIT-like graph: weight rows,
/// training, bootstrap and every refinement round. Second arg: the local
/// model (0 = Bayes, 1 = KNN).
void BM_IcaSolver(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto model = state.range(1) == 0 ? ppdp::classify::LocalModel::kNaiveBayes
                                   : ppdp::classify::LocalModel::kKnn;
  auto g = GenerateSyntheticGraph(ppdp::graph::MitLikeConfig(scale, 13));
  Rng rng(7);
  auto known = ppdp::classify::SampleKnownMask(g, 0.7, rng);
  ppdp::classify::CollectiveConfig config;
  config.threads = 1;
  for (auto _ : state) {
    auto local = ppdp::classify::MakeLocalClassifier(model);
    ppdp::classify::IcaSolver solver(g, known, *local, config);
    while (!solver.Done()) benchmark::DoNotOptimize(solver.Step());
    benchmark::DoNotOptimize(solver.iteration());
  }
}
BENCHMARK(BM_IcaSolver)->ArgsProduct({{2, 5}, {0, 1}})->Unit(benchmark::kMillisecond);

/// The same KNN ICA run on the full-scale MIT-like graph at execution width
/// 1, 2 and 4: whether parallel bootstrap and refinement rounds earn their
/// pool traffic at the largest committed bench scale.
void BM_IcaWidth(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  (void)ppdp::exec::ThreadPool::SetGlobalThreads(width);
  auto g = GenerateSyntheticGraph(ppdp::graph::MitLikeConfig(1.0, 13));
  Rng rng(7);
  auto known = ppdp::classify::SampleKnownMask(g, 0.7, rng);
  ppdp::classify::CollectiveConfig config;
  config.threads = width;
  for (auto _ : state) {
    auto local = ppdp::classify::MakeLocalClassifier(ppdp::classify::LocalModel::kKnn);
    ppdp::classify::IcaSolver solver(g, known, *local, config);
    while (!solver.Done()) benchmark::DoNotOptimize(solver.Step());
    benchmark::DoNotOptimize(solver.iteration());
  }
  (void)ppdp::exec::ThreadPool::SetGlobalThreads(0);
}
BENCHMARK(BM_IcaWidth)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MaxProductReconstruction(benchmark::State& state) {
  size_t num_snps = static_cast<size_t>(state.range(0));
  Rng rng(7);
  ppdp::genomics::SyntheticCatalogConfig config;
  config.num_snps = num_snps;
  config.snps_per_trait = num_snps / 16;
  auto catalog = GenerateSyntheticCatalog(config, rng);
  auto person = SampleIndividual(catalog, rng);
  auto view = MakeTargetView(catalog, person, {});
  for (size_t s = 0; s < num_snps; s += 2) view.snp_known[s] = false;
  for (auto _ : state) {
    auto result = ppdp::genomics::ReconstructGenome(catalog, view);
    benchmark::DoNotOptimize(result.genotypes);
  }
}
BENCHMARK(BM_MaxProductReconstruction)->RangeMultiplier(4)->Range(64, 1024);

/// One δ-privacy greedy publish (GPUT): the daemon's genome corpus at 300
/// SNPs (seed 7, everything published, trait 0, δ 0.4) and the catalog
/// default width at 2,000.
void BM_GreedySanitize(benchmark::State& state) {
  Rng rng(7);
  ppdp::genomics::SyntheticCatalogConfig config;
  config.num_snps = static_cast<size_t>(state.range(0));
  auto catalog = GenerateSyntheticCatalog(config, rng);
  auto person = SampleIndividual(catalog, rng);
  auto view = MakeTargetView(catalog, person, {});
  ppdp::genomics::GputOptions options;
  options.delta = 0.4;
  for (auto _ : state) {
    auto result = ppdp::genomics::GreedySanitize(catalog, view, {0}, options);
    benchmark::DoNotOptimize(result.privacy_trace);
  }
}
BENCHMARK(BM_GreedySanitize)->Arg(300)->Arg(2000)->Unit(benchmark::kMillisecond);

/// One kin-protection greedy (the Ch.5 engine's other sanitizer):
/// bench_kin's three-generation family with every relative publishing, its
/// seed 5 and cap 0.55, on a catalog of `range(0)` SNPs per trait.
/// bench_kin's 4 per trait take seconds; 2 keep a run well under one.
void BM_GreedyKinSanitize(benchmark::State& state) {
  Rng rng(5);
  ppdp::genomics::SyntheticCatalogConfig config;
  config.num_snps = 80;
  config.snps_per_trait = static_cast<size_t>(state.range(0));
  auto catalog = GenerateSyntheticCatalog(config, rng);
  ppdp::genomics::Pedigree pedigree;
  pedigree.AddFounder();
  pedigree.AddFounder();
  pedigree.AddChild(0, 1);
  pedigree.AddFounder();
  const size_t target = pedigree.AddChild(2, 3);
  pedigree.AddChild(2, 3);
  auto view = MakeKinView(catalog, SampleFamily(catalog, pedigree, rng), {0, 1, 2, 3, 5});
  ppdp::genomics::KinSanitizeOptions options;
  options.max_truth_confidence = 0.55;
  options.max_sanitized = 60;
  for (auto _ : state) {
    auto result = GreedyKinSanitize(catalog, pedigree, view, target, options);
    benchmark::DoNotOptimize(result.confidence_trace);
  }
}
BENCHMARK(BM_GreedyKinSanitize)->Arg(2)->Unit(benchmark::kMillisecond);

/// One SLO evaluation over the default rules after ten minutes of traffic
/// from 8 tenants that each spend ε every second: what `serve_traced` pays
/// twice per spending request. The clock stays in one bucket, so every
/// window read hits its cached closed-bucket merge: the steady state between
/// bucket boundaries. CI's perf gate fails when the mean exceeds 10 µs.
void BM_SloEvaluate(benchmark::State& state) {
  double now = 0.0;
  ppdp::obs::SloEngine::Options options;
  options.clock = [&now] { return now; };
  options.eval_period_seconds = 0.0;
  options.export_metrics = false;
  auto engine = ppdp::obs::SloEngine::Create(std::move(options));
  if (!engine.ok()) {
    state.SkipWithError("SloEngine::Create failed");
    return;
  }
  Rng rng(7);
  std::vector<double> remaining(8, 1000.0);
  for (int second = 0; second < 600; ++second) {
    now = static_cast<double>(second);
    for (int i = 0; i < 20; ++i) {
      (*engine)->RecordRequest(i == 0 && second % 50 == 0 ? 503 : 200,
                               0.0005 + 0.01 * rng.UniformReal());
      (*engine)->RecordQueueDepth(0.1 * rng.UniformReal());
    }
    for (size_t t = 0; t < remaining.size(); ++t) {
      remaining[t] -= 0.05;
      (*engine)->RecordSpend("tenant" + std::to_string(t), 0.05, remaining[t], 1000.0);
    }
  }
  for (auto _ : state) {
    auto transitions = (*engine)->Evaluate();
    benchmark::DoNotOptimize(transitions);
  }
}
BENCHMARK(BM_SloEvaluate)->Unit(benchmark::kMicrosecond);

void BM_BetweennessCentrality(benchmark::State& state) {
  double scale = static_cast<double>(state.range(0)) / 100.0;
  auto g = GenerateSyntheticGraph(ppdp::graph::CaltechLikeConfig(scale, 3));
  for (auto _ : state) {
    auto centrality = ppdp::graph::BetweennessCentrality(g);
    benchmark::DoNotOptimize(centrality);
  }
}
BENCHMARK(BM_BetweennessCentrality)->Arg(10)->Arg(20);

/// The tracing primitive itself: one nested open/close pair per iteration.
/// Each close folds into its own thread's phase row under that thread's
/// lock, so the 4-thread run should cost what the 1-thread run does; a
/// global lock on the close path shows as contention there.
void BM_TraceSpan(benchmark::State& state) {
  for (auto _ : state) {
    ppdp::obs::TraceSpan outer(PPDP_SPAN_SITE("bench_micro.span.outer"));
    ppdp::obs::TraceSpan inner(PPDP_SPAN_SITE("bench_micro.span.inner"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpan)->Threads(1)->Threads(4);

/// The fixed cost of one ParallelFor: 256 indices in grain-64 chunks with an
/// empty body, inline at width 1 and through the pool at width 4.
void BM_ParallelForEmpty(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  (void)ppdp::exec::ThreadPool::SetGlobalThreads(width);
  for (auto _ : state) {
    ppdp::exec::ParallelFor(0, 256, 64, [](size_t i) { benchmark::DoNotOptimize(i); },
                            ppdp::exec::ExecConfig{width});
  }
  (void)ppdp::exec::ThreadPool::SetGlobalThreads(0);
}
BENCHMARK(BM_ParallelForEmpty)->Arg(1)->Arg(4)->UseRealTime();

/// One Histogram::Observe on a shared histogram (its mutex and bucket
/// search); the 4-thread run measures the mutex under contention.
void BM_HistogramObserve(benchmark::State& state) {
  static ppdp::obs::Histogram& histogram =
      ppdp::obs::MetricsRegistry::Global().histogram("bench_micro.observe_seconds");
  for (auto _ : state) histogram.Observe(2.0e-3);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve)->Threads(1)->Threads(4);

/// One Counter::Increment on a shared counter: a relaxed fetch_add, with
/// cache-line ping-pong in the 4-thread run.
void BM_CounterIncrement(benchmark::State& state) {
  static ppdp::obs::Counter& counter =
      ppdp::obs::MetricsRegistry::Global().counter("bench_micro.increments");
  for (auto _ : state) counter.Increment();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement)->Threads(1)->Threads(4);

/// A PPDP_FAULT_POINT with no plan armed, the state every production run is
/// in: the call and one relaxed load of the armed flag. The argument is the
/// point name's length: 11 fits a std::string's small buffer, 17 (as in
/// `ledger.wal.append`) does not, so the two stay equal only while a
/// disarmed evaluation copies no name. The 4-thread run checks that the
/// disarmed path shares nothing writable.
void BM_FaultPointDisarmed(benchmark::State& state) {
  const char* point = state.range(0) == 11 ? "micro.point" : "micro.point.wider";
  for (auto _ : state) {
    benchmark::DoNotOptimize(PPDP_FAULT_POINT(point, ppdp::fault::kMaskAll));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultPointDisarmed)->Arg(11)->Arg(17)->Threads(1)->Threads(4);

/// The ε charge every served request makes: validation, the disarmed
/// `dp.spend` fault point, and the budget check + entry update under the
/// ledger mutex (no WAL). All threads share one ledger, so the 4-thread run
/// measures that mutex under contention.
void BM_LedgerSpend(benchmark::State& state) {
  static ppdp::obs::PrivacyLedger ledger(1e300);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger.Spend("bench_micro", "laplace", 1e-9));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LedgerSpend)->Threads(1)->Threads(4);

/// One loopback `GET /healthz` round trip through a TelemetryServer:
/// connect, the accept that wakes a server thread, its read, dispatch and
/// write, and the close — the HTTP layer every served request pays. With 8
/// client threads the server threads run contended.
void BM_HttpRoundTrip(benchmark::State& state) {
  static ppdp::obs::TelemetryServer* server = nullptr;
  if (state.thread_index() == 0) {
    ppdp::obs::TelemetryServer::Options options;
    options.max_connections = 16;
    server = new ppdp::obs::TelemetryServer(std::move(options));
    if (!server->Start().ok()) state.SkipWithError("TelemetryServer::Start failed");
  }
  for (auto _ : state) {
    auto response = ppdp::serve::Get(server->port(), "/healthz");
    if (!response.ok() || response->status != 200) {
      state.SkipWithError("round trip failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete server;
    server = nullptr;
  }
}
BENCHMARK(BM_HttpRoundTrip)->Threads(1)->Threads(8)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace

// Not BENCHMARK_MAIN(): after the google-benchmark pass this binary also
// emits the BENCH_micro.json run report (library kernels record TraceSpans
// while the benchmarks drive them), keeping every bench binary's telemetry
// diffable by `ppdp_stat report`. The report flag is stripped before argv
// reaches benchmark::Initialize, which rejects flags it does not know.
int main(int argc, char** argv) {
  std::string report_out = "bench_out/BENCH_micro.json";
  std::vector<char*> bench_argv;
  std::string report_value;  // backing store; must outlive bench_argv use
  for (int i = 0; i < argc; ++i) {
    std::string_view arg(argv[i]);
    constexpr std::string_view kReportFlag = "--report_out";
    if (arg.rfind(kReportFlag, 0) == 0) {
      if (arg.size() > kReportFlag.size() && arg[kReportFlag.size()] == '=') {
        report_out = std::string(arg.substr(kReportFlag.size() + 1));
        continue;
      }
      if (arg.size() == kReportFlag.size()) {
        if (i + 1 < argc) report_out = argv[++i];
        continue;
      }
    }
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_argv.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (report_out != "off") {
    std::error_code ec;
    std::filesystem::path parent = std::filesystem::path(report_out).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
    ppdp::obs::RunReport report;
    report.name = "micro";
    report.binary = "bench_micro";
    ppdp::obs::CollectGlobalTelemetry(&report);
    ppdp::Status status = report.WriteJson(report_out);
    if (status.ok()) {
      std::cout << "(report: " << report_out << ")\n";
    } else {
      std::cerr << "(report write failed: " << status.ToString() << ")\n";
    }
  }
  return 0;
}
