#include "obs/ledger.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "dp/synthesizer.h"
#include "fault/fault.h"
#include "obs/wal.h"

namespace ppdp::obs {
namespace {

TEST(PrivacyLedgerTest, SequentialCompositionAddsSpends) {
  PrivacyLedger ledger(1.0);
  EXPECT_TRUE(ledger.Spend("marginals", "laplace", 0.25).ok());
  EXPECT_TRUE(ledger.Spend("structure", "exponential", 0.1, /*invocations=*/5).ok());
  EXPECT_DOUBLE_EQ(ledger.spent(), 0.75);
  EXPECT_DOUBLE_EQ(ledger.remaining(), 0.25);
  EXPECT_EQ(ledger.rejected_spends(), 0u);

  auto entries = ledger.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].label, "marginals");
  EXPECT_EQ(entries[0].calls, 1u);
  EXPECT_DOUBLE_EQ(entries[0].total_epsilon, 0.25);
  EXPECT_EQ(entries[1].label, "structure");
  EXPECT_EQ(entries[1].calls, 5u);
  EXPECT_DOUBLE_EQ(entries[1].total_epsilon, 0.5);
}

TEST(PrivacyLedgerTest, RepeatedLabelsAggregate) {
  PrivacyLedger ledger(10.0);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ledger.Spend("cpt", "laplace", 0.5).ok());
  }
  auto entries = ledger.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].calls, 4u);
  EXPECT_DOUBLE_EQ(entries[0].total_epsilon, 2.0);
}

TEST(PrivacyLedgerTest, OverrunRejectedAndNothingRecorded) {
  PrivacyLedger ledger(0.5);
  EXPECT_TRUE(ledger.Spend("first", "laplace", 0.4).ok());

  Status overrun = ledger.Spend("second", "laplace", 0.2);
  EXPECT_FALSE(overrun.ok());
  EXPECT_EQ(overrun.code(), StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(ledger.spent(), 0.4) << "a rejected spend must not be charged";
  EXPECT_EQ(ledger.entries().size(), 1u);
  EXPECT_EQ(ledger.rejected_spends(), 1u);

  // The remaining sliver is still spendable.
  EXPECT_TRUE(ledger.Spend("third", "laplace", 0.1).ok());
  EXPECT_NEAR(ledger.remaining(), 0.0, 1e-12);
}

TEST(PrivacyLedgerTest, ExactBudgetSpendAllowedDespiteFloatDrift) {
  PrivacyLedger ledger(1.0);
  // 10 x 0.1 does not sum to exactly 1.0 in binary floating point; the
  // ledger's tolerance must still admit every installment.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(ledger.Spend("installment", "laplace", 0.1).ok()) << "installment " << i;
  }
  EXPECT_EQ(ledger.rejected_spends(), 0u);
}

TEST(PrivacyLedgerTest, NonPositiveEpsilonRejected) {
  PrivacyLedger ledger(1.0);
  EXPECT_FALSE(ledger.Spend("bad", "laplace", 0.0).ok());
  EXPECT_FALSE(ledger.Spend("bad", "laplace", -0.5).ok());
  EXPECT_EQ(ledger.entries().size(), 0u);
}

TEST(PrivacyLedgerTest, ExternalAccountantEnforces) {
  // A caller that hands its ledger to a pipeline gets the ledger's own
  // budget check: there is no separate accountant to keep in step.
  PrivacyLedger ledger(0.5);
  EXPECT_TRUE(ledger.Spend("query", "laplace", 0.3).ok());
  EXPECT_DOUBLE_EQ(ledger.spent(), 0.3);

  Status overrun = ledger.Spend("query", "laplace", 0.3);
  EXPECT_EQ(overrun.code(), StatusCode::kFailedPrecondition);
  EXPECT_DOUBLE_EQ(ledger.spent(), 0.3);
  EXPECT_DOUBLE_EQ(ledger.remaining(), 0.2);
  EXPECT_EQ(ledger.rejected_spends(), 1u);
}

TEST(PrivacyLedgerTest, NanEpsilonIsRefusedAndCannotOpenTheBudget) {
  // NaN fails every comparison, so a bare `epsilon <= 0` check admits it and
  // spent becomes NaN — after which no overrun test can ever fire again.
  PrivacyLedger ledger(1.0);
  EXPECT_EQ(ledger.Spend("q", "laplace", std::nan("")).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ledger.spent(), 0.0);
  EXPECT_EQ(ledger.Spend("q", "laplace", 100.0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(ledger.spent(), 0.0);
  EXPECT_TRUE(ledger.entries().empty());
}

TEST(PrivacyLedgerTest, EveryRefusalPathLeavesStateUnchanged) {
  const std::string path = ::testing::TempDir() + "/ledger_test_refusals_" +
                           std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
                           ".wal";
  std::remove(path.c_str());
  auto wal = LedgerWal::Open({.path = path});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  PrivacyLedger ledger(1.0);
  ledger.AttachWal(wal->get(), "acme");
  ASSERT_TRUE(ledger.Spend("q", "laplace", 0.4).ok());

  auto expect_refused = [&ledger](Status status, StatusCode code, const std::string& what) {
    const double spent = ledger.spent();
    const std::vector<PrivacyLedger::Entry> entries = ledger.entries();
    EXPECT_EQ(status.code(), code) << what << ": " << status.ToString();
    EXPECT_EQ(ledger.spent(), spent) << what;
    ASSERT_EQ(ledger.entries().size(), entries.size()) << what;
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(ledger.entries()[i].calls, entries[i].calls) << what;
      EXPECT_EQ(ledger.entries()[i].total_epsilon, entries[i].total_epsilon) << what;
    }
  };
  const double spent_before = ledger.spent();
  const size_t entries_before = ledger.entries().size();
  expect_refused(ledger.Spend("q", "laplace", 0.0), StatusCode::kInvalidArgument, "zero");
  expect_refused(ledger.Spend("q", "laplace", -1.0), StatusCode::kInvalidArgument, "negative");
  expect_refused(ledger.Spend("q", "laplace", std::nan("")), StatusCode::kInvalidArgument,
                 "NaN");
  expect_refused(ledger.Spend("q", "laplace", HUGE_VAL), StatusCode::kInvalidArgument,
                 "infinite");
  expect_refused(ledger.Spend("q", "laplace", 0.1, /*invocations=*/0),
                 StatusCode::kInvalidArgument, "zero invocations");
  expect_refused(ledger.Spend("q", "laplace", 0.7), StatusCode::kFailedPrecondition,
                 "over budget");
  {
    fault::FaultPlan plan;
    plan.point_rates["dp.spend"] = 1.0;
    fault::ScopedFaultPlan armed(plan);
    Status faulted = ledger.Spend("q", "laplace", 0.1);
    EXPECT_FALSE(PrivacyLedger::IsWalRefusal(faulted));
    expect_refused(faulted, StatusCode::kUnavailable, "dp.spend fault");
  }
  EXPECT_EQ(ledger.spent(), spent_before);
  EXPECT_EQ(ledger.entries().size(), entries_before);
  // Every refusal but the zero-invocation one is tallied as a rejection.
  EXPECT_EQ(ledger.rejected_spends(), 6u);

  // Spending exactly the rest of the budget is admitted; then nothing is.
  ASSERT_TRUE(ledger.Spend("q", "laplace", 0.6).ok());
  EXPECT_NEAR(ledger.remaining(), 0.0, 1e-12);
  expect_refused(ledger.Spend("q", "laplace", 0.1), StatusCode::kFailedPrecondition,
                 "exhausted");
  {
    // The charge-ahead append precedes the budget check, so a WAL that
    // cannot log refuses the spend as unavailable.
    fault::FaultPlan plan;
    plan.point_rates["ledger.wal.append"] = 1.0;
    fault::ScopedFaultPlan armed(plan);
    Status unlogged = ledger.Spend("q", "laplace", 0.1);
    EXPECT_TRUE(PrivacyLedger::IsWalRefusal(unlogged)) << unlogged.ToString();
    expect_refused(unlogged, StatusCode::kUnavailable, "wal append fault");
  }
  const double admitted = ledger.spent();
  wal->reset();

  // Only the admitted spends survive a reopen: refused ones wrote nothing
  // or were aborted.
  auto reopened = LedgerWal::Open({.path = path});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  double recovered = 0.0;
  for (const WalSpend& spend : (*reopened)->recovery().spends) {
    EXPECT_EQ(spend.tenant, "acme");
    recovered += spend.total_epsilon();
  }
  EXPECT_EQ(recovered, admitted);
  EXPECT_EQ((*reopened)->recovery().spends.size(), 2u);
  reopened->reset();
  std::remove(path.c_str());
}

TEST(PrivacyLedgerTest, SummaryHasTotalRowAndShares) {
  PrivacyLedger ledger(2.0);
  ASSERT_TRUE(ledger.Spend("structure", "exponential", 0.5).ok());
  ASSERT_TRUE(ledger.Spend("tables", "laplace", 1.0).ok());

  Table summary = ledger.Summary();
  ASSERT_EQ(summary.num_rows(), 3u);
  EXPECT_EQ(summary.row(0)[0], "structure");
  EXPECT_EQ(summary.row(1)[0], "tables");
  EXPECT_EQ(summary.row(2)[0], "TOTAL");
  // Shares of budget: 0.25, 0.5, total 0.75.
  EXPECT_EQ(summary.row(0)[4], Table::FormatDouble(0.25, 4));
  EXPECT_EQ(summary.row(2)[4], Table::FormatDouble(0.75, 4));
}

TEST(PrivacyLedgerTest, SynthesizerFitStaysWithinDeclaredEpsilon) {
  // End-to-end: a Fit wired through the ledger spends exactly its config
  // epsilon (up to float drift) and never overruns.
  dp::CategoricalData data;
  Rng rng(11);
  for (size_t i = 0; i < 60; ++i) {
    dp::CategoricalRow row(4);
    for (auto& v : row) v = static_cast<int8_t>(rng.Uniform(3));
    data.push_back(row);
  }
  dp::SynthesizerConfig config;
  config.epsilon = 1.0;
  config.seed = 11;

  PrivacyLedger ledger(config.epsilon);
  auto model = dp::PrivateSynthesizer::Fit(data, config, &ledger);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(ledger.rejected_spends(), 0u);
  EXPECT_NEAR(ledger.spent(), config.epsilon, 1e-9);

  // A ledger holding less than the synthesizer needs fails the fit, and
  // never lets the spends it did admit exceed its budget.
  PrivacyLedger tight_ledger(config.epsilon / 4.0);
  auto failed = dp::PrivateSynthesizer::Fit(data, config, &tight_ledger);
  EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GE(tight_ledger.rejected_spends(), 1u);
  EXPECT_LE(tight_ledger.spent(), tight_ledger.budget() + 1e-12);
}

TEST(PrivacyLedgerTest, SnapshotIsInternallyConsistent) {
  PrivacyLedger ledger(2.0);
  ASSERT_TRUE(ledger.Spend("a", "laplace", 0.75).ok());
  ASSERT_FALSE(ledger.Spend("b", "laplace", 3.0).ok());

  PrivacyLedger::BudgetSnapshot snap = ledger.snapshot();
  EXPECT_DOUBLE_EQ(snap.budget, 2.0);
  EXPECT_DOUBLE_EQ(snap.spent, 0.75);
  EXPECT_DOUBLE_EQ(snap.remaining, snap.budget - snap.spent);
  EXPECT_EQ(snap.rejected, 1u);
}

TEST(PrivacyLedgerTest, RemainingIsConsistentUnderConcurrentSpends) {
  // Regression test for remaining() being computed from two separate locked
  // reads (budget() then spent()): with spends of one fixed size racing the
  // readers, every observed remaining value must correspond to a *whole*
  // number of completed spends — a torn read would surface as a fraction.
  constexpr double kBudget = 1000.0;
  constexpr double kEpsilon = 1.0;
  constexpr int kSpenders = 4;
  constexpr int kSpendsPerThread = 100;
  PrivacyLedger ledger(kBudget);

  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!start.load()) {
      }
      while (!done.load()) {
        double remaining = ledger.remaining();
        double spends = (kBudget - remaining) / kEpsilon;
        if (std::abs(spends - std::round(spends)) > 1e-6) violations.fetch_add(1);
        PrivacyLedger::BudgetSnapshot snap = ledger.snapshot();
        if (snap.remaining != snap.budget - snap.spent) violations.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> spenders;
  for (int t = 0; t < kSpenders; ++t) {
    spenders.emplace_back([&] {
      while (!start.load()) {
      }
      for (int i = 0; i < kSpendsPerThread; ++i) {
        ASSERT_TRUE(ledger.Spend("worker", "laplace", kEpsilon).ok());
      }
    });
  }
  start.store(true);
  for (auto& thread : spenders) thread.join();
  done.store(true);
  for (auto& thread : readers) thread.join();

  EXPECT_EQ(violations.load(), 0) << "remaining()/snapshot() must never tear";
  EXPECT_DOUBLE_EQ(ledger.spent(), kSpenders * kSpendsPerThread * kEpsilon);
  EXPECT_DOUBLE_EQ(ledger.remaining(), kBudget - ledger.spent());
}

}  // namespace
}  // namespace ppdp::obs
