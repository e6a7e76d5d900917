// perf_driver — the benchmark's load generator and Ch.3 sweep driver.
//
//   perf_driver sweep --scale X --graphs G --workers K COMMON
//   perf_driver load --port P --clients C --budget B COMMON
//
//   COMMON: --seed N --warmup W --seconds S [--spans FILE]
//
// Operations run for W unmeasured seconds, then S measured ones.
//
// sweep: the Fig 3.5 computation of bench_fig3_5, in process with
// single-threaded kernels, over G MIT-like graphs. Set-up generates each
// graph and ranks its attributes by privacy dependence once, as the figure
// does per panel. One operation is one (graph, local classifier, attributes
// masked) walk of the figure: a copy of the graph with the top attributes
// masked walks the link axis, bootstrapping label estimates and removing the
// next indistinguishable links before each level, and runs the ICA attack at
// every level. K worker threads take the walks in seed-shuffled passes over
// all of them, so every pass measures the same work; the seed sets the
// order.
//
// load: closed-loop HTTP clients against a running ppdp_serve, one tenant
// per client, sending bench_serve's traffic mix: of every 100 consecutive
// requests, 12 are genome publishes (one shared config, so concurrent ones
// coalesce), 78 alternate histogram and range-count DP aggregates, and 10
// are ledger audits.
//
// Both print one JSON object on stdout: correct, attempted, failed, errors
// (the first few) and ops, one [pass, start s, latency µs, kind] record per
// measured operation (sweep: kind is the walk; load: pass and kind 0). The sweep adds setup_s, one entry per
// corpus build, and rank_ms, one per graph ranked; load adds requests, every
// request sent. --spans writes one JSON line per measured span: trace id,
// name, parent, start and duration in µs.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "classify/evaluation.h"
#include "classify/naive_bayes.h"
#include "classify/relational.h"
#include "common/flags.h"
#include "common/json.h"
#include "exec/thread_pool.h"
#include "graph/graph_generators.h"
#include "sanitize/attribute_selection.h"
#include "sanitize/link_selection.h"
#include "serve/client.h"
#include "serve/request_trace.h"

namespace {

using ppdp::JsonValue;
using Clock = std::chrono::steady_clock;

double Micros(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

Clock::time_point After(Clock::time_point start, double seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Spans stay in memory during the run and are written once at the end.
/// Spans that start during the warm-up are dropped.
class SpanLog {
 public:
  SpanLog(bool enabled, Clock::time_point measure_from)
      : enabled_(enabled), epoch_(measure_from) {}

  bool enabled() const { return enabled_; }

  void Add(const std::string& trace, const char* name, const char* parent, Clock::time_point start,
           Clock::time_point end) {
    if (!enabled_ || start < epoch_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{trace, name, parent, Micros(epoch_, start), Micros(start, end)});
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& span : spans_) {
      JsonValue line = JsonValue::Object();
      line.Set("trace", JsonValue::String(span.trace));
      line.Set("name", JsonValue::String(span.name));
      line.Set("parent", JsonValue::String(span.parent));
      line.Set("start_us", JsonValue::Number(span.start_us));
      line.Set("dur_us", JsonValue::Number(span.dur_us));
      out << line.Dump() << '\n';
    }
    return static_cast<bool>(out.flush());
  }

 private:
  struct Span {
    std::string trace;
    const char* name;
    const char* parent;
    double start_us;
    double dur_us;
  };
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Times one call into a layer and records it as a child span of `trace`.
template <typename F>
auto Timed(SpanLog& spans, const std::string& trace, const char* name, F&& f) {
  const Clock::time_point start = Clock::now();
  auto result = f();
  spans.Add(trace, name, "sweep.walk", start, Clock::now());
  return result;
}

/// Run-wide tallies; every method is safe to call from client threads.
/// Every operation is verified and counted, but only successful operations
/// that start after the warm-up are recorded as [pass, start s, latency µs,
/// kind], the start relative to the end of the warm-up. A failed operation is also
/// a wrong one: no workload here has a legitimate failure.
class Tally {
 public:
  explicit Tally(Clock::time_point measure_from) : measure_from_(measure_from) {}

  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Failed(const std::string& why) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    Wrong(why);
  }
  void Wrong(const std::string& why) {
    wrong_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    if (errors_.size() < 8) errors_.push_back(why);
  }
  void Record(size_t pass, size_t kind, Clock::time_point start, Clock::time_point end) {
    if (start < measure_from_) return;
    std::lock_guard<std::mutex> lock(mutex_);
    ops_.push_back({static_cast<double>(pass), Micros(measure_from_, start) / 1e6,
                    Micros(start, end), static_cast<double>(kind)});
  }

  JsonValue ToJson() const {
    std::lock_guard<std::mutex> lock(mutex_);
    JsonValue doc = JsonValue::Object();
    doc.Set("correct", JsonValue::Bool(wrong_.load() == 0));
    doc.Set("attempted", JsonValue::Number(static_cast<double>(attempted_.load())));
    doc.Set("failed", JsonValue::Number(static_cast<double>(failed_.load())));
    JsonValue errors = JsonValue::Array();
    for (const std::string& error : errors_) errors.Append(JsonValue::String(error));
    doc.Set("errors", std::move(errors));
    JsonValue ops = JsonValue::Array();
    for (const auto& op : ops_) {
      JsonValue record = JsonValue::Array();
      for (double field : op) record.Append(JsonValue::Number(field));
      ops.Append(std::move(record));
    }
    doc.Set("ops", std::move(ops));
    return doc;
  }

 private:
  const Clock::time_point measure_from_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> wrong_{0};
  mutable std::mutex mutex_;
  std::vector<std::string> errors_;
  std::vector<std::array<double, 4>> ops_;
};

JsonValue NumberArray(const std::vector<double>& values) {
  JsonValue array = JsonValue::Array();
  for (double value : values) array.Append(JsonValue::Number(value));
  return array;
}

bool Finite(const JsonValue* value) {
  return value != nullptr && value->is_number() && std::isfinite(value->as_number());
}

int Finish(const SpanLog& spans, const std::string& spans_path, const JsonValue& doc) {
  if (spans.enabled() && !spans.Write(spans_path)) {
    std::cerr << "perf_driver: cannot write " << spans_path << "\n";
    return 2;
  }
  std::cout << doc.Dump() << std::endl;
  return 0;
}

/// The measured period: `--warmup` seconds from now, then `--seconds`.
struct Period {
  Clock::time_point measure_from;
  Clock::time_point deadline;
};

Period MeasuredPeriod(const ppdp::Flags& args) {
  Period period;
  period.measure_from = After(Clock::now(), args.GetDouble("warmup", 1));
  period.deadline = After(period.measure_from, args.GetDouble("seconds", 10));
  return period;
}

// ---------------------------------------------------------------------------
// sweep

struct Corpus {
  ppdp::graph::SocialGraph graph;
  std::vector<bool> known;      // attacker-visible labels
  std::vector<size_t> ranked;   // categories, most privacy-dependent first
};

/// What one walk produced at each link level: links removed so far and the
/// attack's accuracy. Equal walks must produce equal results.
using WalkResult = std::vector<std::pair<size_t, double>>;

/// Re-derives an attack's accuracy from its per-node distributions: each
/// distribution must be a probability vector, and the share of hidden nodes
/// whose argmax is their true label must equal the reported accuracy.
std::string CheckAttack(const ppdp::graph::SocialGraph& g, const std::vector<bool>& known,
                        const ppdp::classify::AttackOutcome& outcome) {
  if (outcome.distributions.size() != g.num_nodes()) return "distribution count != nodes";
  size_t hits = 0, scored = 0;
  for (ppdp::graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const std::vector<double>& dist = outcome.distributions[u];
    if (dist.size() != static_cast<size_t>(g.num_labels())) return "distribution width != labels";
    double sum = 0.0;
    for (double p : dist) {
      if (!(p >= 0.0)) return "negative or NaN probability";
      sum += p;
    }
    if (std::fabs(sum - 1.0) > 1e-6) return "distribution does not sum to 1";
    if (known[u] || g.GetLabel(u) == ppdp::graph::kUnknownLabel) continue;
    ++scored;
    const auto best = std::max_element(dist.begin(), dist.end()) - dist.begin();
    if (best == static_cast<std::ptrdiff_t>(g.GetLabel(u))) ++hits;
  }
  if (scored != outcome.evaluated) return "evaluated count mismatch";
  const double accuracy = scored == 0 ? 0.0 : static_cast<double>(hits) / scored;
  if (accuracy != outcome.accuracy) return "reported accuracy != argmax hits";
  return "";
}

int RunSweep(const ppdp::Flags& args) {
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const double scale = args.GetDouble("scale", 0.1);
  const size_t graphs = static_cast<size_t>(std::max<int64_t>(1, args.GetInt("graphs", 4)));
  const int workers = std::max(1, static_cast<int>(args.GetInt("workers", 1)));
  // Each walk runs the single-threaded kernels; walks run side by side on
  // the workers.
  if (!ppdp::exec::ThreadPool::SetGlobalThreads(1).ok()) return 2;
  ppdp::classify::CollectiveConfig ica;
  ica.threads = 1;

  // Set-up: generate each graph, the attacker's view of it and its
  // privacy-dependence ranking, from bench_fig3_5's default seed so that
  // every run walks the same corpus; --seed orders the walks. The corpus is
  // built 15 times, each build timed whole.
  std::vector<Corpus> corpora;
  std::vector<double> setup_s, rank_ms;
  for (int build = 0; build < 15; ++build) {
    corpora.clear();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < graphs; ++i) {
      ppdp::graph::SocialGraph graph =
          ppdp::graph::GenerateSyntheticGraph(ppdp::graph::MitLikeConfig(scale, 9 + i));
      ppdp::Rng rng(30 + i);
      std::vector<bool> known = ppdp::classify::SampleKnownMask(graph, 0.7, rng);
      const Clock::time_point rank_start = Clock::now();
      std::vector<size_t> ranked;
      for (const auto& [category, degree] :
           ppdp::sanitize::RankPrivacyDependence(graph, /*utility_category=*/0)) {
        ranked.push_back(category);
      }
      rank_ms.push_back(Micros(rank_start, Clock::now()) / 1e3);
      corpora.push_back(Corpus{std::move(graph), std::move(known), std::move(ranked)});
    }
    setup_s.push_back(Micros(start, Clock::now()) / 1e6);
  }

  // The Fig 3.5 axes: 0-4 most privacy-dependent attributes masked, then
  // 0-5000 most indistinguishable links (scaled with the graph) removed.
  std::vector<size_t> link_sweep;
  for (size_t links : {0, 1000, 2000, 3000, 4000, 5000}) {
    link_sweep.push_back(static_cast<size_t>(static_cast<double>(links) * scale));
  }
  using Walk = std::tuple<size_t, ppdp::classify::LocalModel, size_t>;
  std::vector<Walk> walks;
  for (size_t graph = 0; graph < graphs; ++graph) {
    for (auto local : {ppdp::classify::LocalModel::kKnn, ppdp::classify::LocalModel::kNaiveBayes}) {
      for (size_t attrs = 0; attrs <= 4; ++attrs) walks.emplace_back(graph, local, attrs);
    }
  }

  std::map<Walk, size_t> walk_index;
  for (const Walk& walk : walks) walk_index.emplace(walk, walk_index.size());
  std::mutex mutex;  // guards the schedule below and first_result
  std::map<Walk, WalkResult> first_result;
  std::mt19937_64 order(seed);
  size_t next = walks.size();
  size_t pass = 0;  // measured passes start fresh when the warm-up ends
  size_t ops = 0;
  bool measuring = false;
  const Period period = MeasuredPeriod(args);
  SpanLog spans(!args.GetString("spans", "").empty(), period.measure_from);
  Tally tally(period.measure_from);

  // Hands out the next walk of the current pass, or false at the deadline.
  auto take = [&](Walk* walk, size_t* walk_pass, size_t* op) {
    std::lock_guard<std::mutex> lock(mutex);
    if (Clock::now() >= period.deadline) return false;
    if (!measuring && Clock::now() >= period.measure_from) {
      measuring = true;
      next = walks.size();
    } else if (next == walks.size() && measuring) {
      ++pass;
    }
    if (next == walks.size()) {
      std::shuffle(walks.begin(), walks.end(), order);
      next = 0;
    }
    *walk = walks[next++];
    *walk_pass = pass;
    *op = ops++;
    return true;
  };

  auto run_walk = [&](const Walk& walk, size_t pass, size_t op) {
    const auto [index, local, attrs] = walk;
    const Corpus& corpus = corpora[index];
    const std::vector<bool>& known = corpus.known;
    const bool knn = local == ppdp::classify::LocalModel::kKnn;
    const std::string trace = "walk-" + std::to_string(op);
    tally.Attempt();

    const Clock::time_point start = Clock::now();
    ppdp::graph::SocialGraph g = Timed(spans, trace, "graph.copy", [&] { return corpus.graph; });
    const size_t masked = std::min(attrs, corpus.ranked.size());
    for (size_t i = 0; i < masked; ++i) g.MaskCategory(corpus.ranked[i]);
    size_t removed = 0;
    bool counts_match = true;
    std::vector<size_t> removed_at;
    std::vector<ppdp::classify::AttackOutcome> outcomes;
    for (size_t links : link_sweep) {
      if (links > removed) {
        const std::vector<ppdp::classify::LabelDistribution> estimates =
            Timed(spans, trace, "classify.bootstrap", [&] {
              ppdp::classify::NaiveBayesClassifier nb;
              nb.Train(g, known);
              return ppdp::classify::BootstrapDistributions(g, known, nb, /*threads=*/1);
            });
        const size_t edges_before = g.num_edges();
        const size_t now_removed = Timed(spans, trace, "sanitize.remove_links", [&] {
          return ppdp::sanitize::RemoveIndistinguishableLinks(g, known, estimates, links - removed);
        });
        counts_match = counts_match && now_removed == links - removed &&
                       edges_before - g.num_edges() == now_removed;
        removed += now_removed;
      }
      removed_at.push_back(removed);
      outcomes.push_back(Timed(spans, trace, knn ? "classify.ica_knn" : "classify.ica_nb", [&] {
        auto classifier = ppdp::classify::MakeLocalClassifier(local);
        return ppdp::classify::RunAttack(g, known, ppdp::classify::AttackModel::kCollective,
                                         *classifier, ica);
      }));
    }
    const Clock::time_point end = Clock::now();
    spans.Add(trace, "sweep.walk", "", start, end);
    tally.Record(pass, walk_index.at(walk), start, end);

    // Verification, outside the timed operation. Masking and link removal
    // leave labels alone, so every level's attack checks against the final
    // graph.
    const std::string where = " (graph " + std::to_string(index) + ", " +
                              (knn ? "KNN, " : "NB, ") + std::to_string(attrs) + " attrs)";
    if (masked != attrs) tally.Wrong("fewer maskable categories than asked" + where);
    for (size_t i = 0; i < masked; ++i) {
      for (ppdp::graph::NodeId u = 0; u < g.num_nodes(); ++u) {
        if (g.Attribute(u, corpus.ranked[i]) != ppdp::graph::kMissingAttribute) {
          tally.Wrong("masked category still published" + where);
          break;
        }
      }
    }
    if (!counts_match) tally.Wrong("link removal count mismatch" + where);
    WalkResult result;
    for (size_t level = 0; level < outcomes.size(); ++level) {
      if (std::string why = CheckAttack(g, known, outcomes[level]); !why.empty()) {
        tally.Wrong(why + where);
      }
      result.emplace_back(removed_at[level], outcomes[level].accuracy);
    }
    std::lock_guard<std::mutex> lock(mutex);
    auto [it, inserted] = first_result.emplace(walk, result);
    if (!inserted && it->second != result) tally.Wrong("walk result not repeatable" + where);
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      Walk walk;
      size_t walk_pass = 0, op = 0;
      while (take(&walk, &walk_pass, &op)) run_walk(walk, walk_pass, op);
    });
  }
  for (std::thread& thread : threads) thread.join();
  JsonValue doc = tally.ToJson();
  doc.Set("setup_s", NumberArray(setup_s));
  doc.Set("rank_ms", NumberArray(rank_ms));
  return Finish(spans, args.GetString("spans", ""), doc);
}

// ---------------------------------------------------------------------------
// load

/// The ledger sums one tenant's charges in the order its client sent them,
/// as the client does; the tolerance only absorbs a different association.
bool Near(double a, double b) { return std::fabs(a - b) <= 1e-6; }

/// Publish outputs must all be identical: there is one config, publishers
/// are deterministic and coalesced followers share their leader's result.
class OutputRegistry {
 public:
  bool Same(const std::string& output) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (first_.empty()) first_ = output;
    return first_ == output;
  }

 private:
  std::mutex mutex_;
  std::string first_;
};

struct LoadContext {
  int port = 0;
  double budget = 0.0;
  uint64_t seed = 0;
  Clock::time_point deadline;
  std::atomic<uint64_t>* next_request = nullptr;
  std::atomic<uint64_t>* requests = nullptr;  // every request sent
  SpanLog* spans = nullptr;
  Tally* tally = nullptr;
  OutputRegistry* outputs = nullptr;
};

/// What one request asks for, and what its client has spent once it is
/// charged.
struct Sent {
  std::string path;
  std::string op;  // aggregate op
  double epsilon = 0.0;
  double spent = 0.0;
};

/// Checks one 200 response body against what the client sent and has
/// spent. Returns "" when it is correct. `domain` is the histogram width,
/// learned from the client's first histogram.
std::string CheckResponse(const LoadContext& ctx, const Sent& sent, const std::string& tenant,
                          const std::string& trace_id, size_t* domain, const JsonValue& doc) {
  if (!doc.is_object()) return "response is not a JSON object";
  if (doc.GetStringOr("request_id", "") != trace_id) return "request_id does not echo trace id";
  if (doc.GetStringOr("tenant", "") != tenant) return "tenant mismatch";
  if (sent.path == "/v1/audit") {
    if (doc.GetStringOr("schema", "") != "ppdp.serve.audit.v1" ||
        !Near(doc.GetNumberOr("spent", -1), sent.spent) ||
        !Near(doc.GetNumberOr("remaining", -1), ctx.budget - sent.spent) ||
        doc.GetNumberOr("rejected", -1) != 0) {
      return "audit does not match the client's spend";
    }
    return "";
  }
  if (doc.GetNumberOr("epsilon_spent", -1) != sent.epsilon) return "epsilon_spent mismatch";
  if (!Near(doc.GetNumberOr("remaining_epsilon", -1), ctx.budget - sent.spent)) {
    return "remaining_epsilon != budget - spent";
  }
  if (sent.path == "/v1/publish") {
    const JsonValue* output = doc.Find("output");
    if (doc.GetStringOr("schema", "") != "ppdp.serve.publish.v1") return "publish schema";
    if (output == nullptr || !output->is_object() || output->GetStringOr("kind", "") != "genome" ||
        !Finite(output->Find("privacy_before")) || !Finite(output->Find("privacy_after")) ||
        !Finite(output->Find("utility_loss"))) {
      return "publish output malformed";
    }
    if (!ctx.outputs->Same(output->Dump())) return "publish output differs between requests";
    return "";
  }
  const JsonValue* result = doc.Find("result");
  if (doc.GetStringOr("schema", "") != "ppdp.serve.aggregate.v1" || result == nullptr) {
    return "aggregate schema";
  }
  if (sent.op == "histogram") {
    if (!result->is_array() || result->size() == 0 ||
        (*domain != 0 && result->size() != *domain)) {
      return "histogram width";
    }
    *domain = result->size();
    for (size_t b = 0; b < result->size(); ++b) {
      if (!Finite(&result->at(b))) return "histogram bucket not finite";
    }
  } else if (!Finite(result)) {
    return "range count not finite";
  }
  return "";
}

void RunClient(const LoadContext& ctx, int client) {
  const std::string tenant = "bench" + std::to_string(client);
  double spent = 0.0;
  size_t domain = 0;
  for (uint64_t n = 1;; ++n) {
    const bool measured = Clock::now() < ctx.deadline;
    // After the deadline, one last untimed audit: every ε the client spent
    // is accounted. As in bench_serve, no client's first request is an
    // audit (that needs slot >= 90, and there are fewer than 90 clients), so
    // every audited tenant exists.
    const uint64_t slot = measured ? ctx.next_request->fetch_add(1) % 100 : 99;
    JsonValue body = JsonValue::Object();
    body.Set("tenant", JsonValue::String(tenant));
    Sent sent;
    if (slot < 12) {
      sent.path = "/v1/publish";
      sent.epsilon = 0.25;
      body.Set("kind", JsonValue::String("genome"));
    } else if (slot < 90) {
      sent.path = "/v1/dp/aggregate";
      sent.op = slot % 2 == 0 ? "histogram" : "range_count";
      sent.epsilon = 0.05;
      body.Set("op", JsonValue::String(sent.op));
    } else {
      sent.path = "/v1/audit";
    }
    if (sent.epsilon > 0) body.Set("epsilon", JsonValue::Number(sent.epsilon));

    char trace_id[33];
    std::snprintf(trace_id, sizeof(trace_id), "%016llx%016llx",
                  static_cast<unsigned long long>(ctx.seed * 0x9E3779B97F4A7C15ULL + client + 1),
                  static_cast<unsigned long long>(n));
    const std::map<std::string, std::string> headers = {
        {"traceparent", ppdp::serve::FormatTraceparent(trace_id, "00f067aa0ba902b7")}};

    if (measured) ctx.tally->Attempt();
    ctx.requests->fetch_add(1);
    const Clock::time_point start = Clock::now();
    auto response = ppdp::serve::PostJson(ctx.port, sent.path, body, 30.0, headers);
    const Clock::time_point end = Clock::now();
    if (!response.ok()) {
      ctx.tally->Failed(sent.path + ": " + response.status().ToString());
    } else if (response->status != 200) {
      ctx.tally->Failed(sent.path + ": HTTP " + std::to_string(response->status) + " " +
                        response->body.substr(0, 200));
    } else {
      if (measured) {
        ctx.spans->Add(trace_id, "client.request", "", start, end);
        ctx.tally->Record(0, 0, start, end);
      }
      // Verification, outside the timed request.
      spent += sent.epsilon;
      sent.spent = spent;
      std::string echoed;
      auto doc = response->Json();
      std::string why = !ppdp::serve::ParseTraceparent(response->HeaderOr("traceparent", ""),
                                                       &echoed) || echoed != trace_id
                            ? "response traceparent does not echo trace id"
                        : doc.ok() ? CheckResponse(ctx, sent, tenant, trace_id, &domain, *doc)
                                   : "response is not JSON";
      if (!why.empty()) ctx.tally->Wrong(sent.path + ": " + why);
    }
    if (!measured) return;
  }
}

int RunLoad(const ppdp::Flags& args) {
  LoadContext ctx;
  ctx.port = static_cast<int>(args.GetInt("port", 0));
  if (ctx.port <= 0) {
    std::cerr << "perf_driver load: need --port\n";
    return 2;
  }
  ctx.budget = args.GetDouble("budget", 1e9);
  ctx.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const int clients = std::max(1, static_cast<int>(args.GetInt("clients", 8)));
  std::atomic<uint64_t> next_request{0}, requests{0};
  const Period period = MeasuredPeriod(args);
  SpanLog spans(!args.GetString("spans", "").empty(), period.measure_from);
  Tally tally(period.measure_from);
  OutputRegistry outputs;
  ctx.next_request = &next_request;
  ctx.requests = &requests;
  ctx.spans = &spans;
  ctx.tally = &tally;
  ctx.outputs = &outputs;
  ctx.deadline = period.deadline;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(RunClient, std::cref(ctx), c);
  for (std::thread& thread : threads) thread.join();
  JsonValue doc = tally.ToJson();
  doc.Set("requests", JsonValue::Number(static_cast<double>(requests.load())));
  return Finish(spans, args.GetString("spans", ""), doc);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  const ppdp::Flags args(argc, argv);
  if (mode == "sweep") return RunSweep(args);
  if (mode == "load") return RunLoad(args);
  std::cerr << "usage: perf_driver sweep|load [--flag value ...]\n";
  return 2;
}
