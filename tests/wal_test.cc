#include "obs/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "obs/ledger.h"
#include "serve/tenants.h"

namespace ppdp::obs {
namespace {

std::string TempWalPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/wal_test_" + name + "_" +
                     std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + ".wal";
  std::remove(path.c_str());
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(LedgerWalTest, RoundTripsSpendsAcrossReopen) {
  const std::string path = TempWalPath("roundtrip");
  {
    auto wal = LedgerWal::Open({.path = path});
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_TRUE((*wal)->recovery().spends.empty());
    uint64_t seq = 0;
    ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 0.5, 1, &seq).ok());
    EXPECT_EQ(seq, 1u);
    ASSERT_TRUE((*wal)->AppendSpend("acme", "aggregate", "histogram", 0.25, 2, &seq).ok());
    EXPECT_EQ(seq, 2u);
    ASSERT_TRUE((*wal)->AppendSpend("globex", "publish", "laplace", 1.0, 1, &seq).ok());
  }

  auto reopened = LedgerWal::Open({.path = path});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const WalRecovery& recovery = (*reopened)->recovery();
  ASSERT_EQ(recovery.spends.size(), 3u);
  EXPECT_FALSE(recovery.tail_truncated);
  EXPECT_EQ(recovery.spends[0].tenant, "acme");
  EXPECT_EQ(recovery.spends[0].label, "publish");
  EXPECT_EQ(recovery.spends[0].mechanism, "laplace");
  EXPECT_DOUBLE_EQ(recovery.spends[0].epsilon, 0.5);
  EXPECT_DOUBLE_EQ(recovery.spends[1].total_epsilon(), 0.5);  // 0.25 x 2
  EXPECT_EQ(recovery.spends[2].tenant, "globex");

  // Sequence numbering continues past everything recovered.
  uint64_t seq = 0;
  ASSERT_TRUE((*reopened)->AppendSpend("acme", "publish", "laplace", 0.1, 1, &seq).ok());
  EXPECT_EQ(seq, 4u);
  std::remove(path.c_str());
}

TEST(LedgerWalTest, AbortCancelsTheNamedSpendOnly) {
  const std::string path = TempWalPath("abort");
  {
    auto wal = LedgerWal::Open({.path = path});
    ASSERT_TRUE(wal.ok());
    uint64_t keep = 0, cancel = 0;
    ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 0.5, 1, &keep).ok());
    ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 9.0, 1, &cancel).ok());
    ASSERT_TRUE((*wal)->AppendAbort(cancel).ok());
  }
  auto recovery = LedgerWal::Scan(path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->spends.size(), 1u);
  EXPECT_DOUBLE_EQ(recovery->spends[0].epsilon, 0.5);
  EXPECT_EQ(recovery->aborts_applied, 1u);
  std::remove(path.c_str());
}

TEST(LedgerWalTest, TornTailIsTruncatedNotFatal) {
  const std::string path = TempWalPath("torn");
  {
    auto wal = LedgerWal::Open({.path = path});
    ASSERT_TRUE(wal.ok());
    uint64_t seq = 0;
    ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 0.5, 1, &seq).ok());
    ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 0.7, 1, &seq).ok());
  }
  // Tear the file mid-way through the second record.
  std::string bytes = ReadAll(path);
  WriteAll(path, bytes.substr(0, bytes.size() - 7));

  auto wal = LedgerWal::Open({.path = path});
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const WalRecovery& recovery = (*wal)->recovery();
  ASSERT_EQ(recovery.spends.size(), 1u);  // the torn second record is gone
  EXPECT_TRUE(recovery.tail_truncated);
  EXPECT_GT(recovery.truncated_bytes, 0u);

  // The truncation is physical: a spend appended now lands where the torn
  // record was, and a fresh scan sees exactly [first, new].
  uint64_t seq = 0;
  ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 0.9, 1, &seq).ok());
  auto rescan = LedgerWal::Scan(path);
  ASSERT_TRUE(rescan.ok());
  ASSERT_EQ(rescan->spends.size(), 2u);
  EXPECT_DOUBLE_EQ(rescan->spends[1].epsilon, 0.9);
  EXPECT_FALSE(rescan->tail_truncated);
  std::remove(path.c_str());
}

TEST(LedgerWalTest, CorruptTailBytesAreDropped) {
  const std::string path = TempWalPath("corrupt");
  {
    auto wal = LedgerWal::Open({.path = path});
    ASSERT_TRUE(wal.ok());
    uint64_t seq = 0;
    ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 0.5, 1, &seq).ok());
    ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 0.7, 1, &seq).ok());
  }
  std::string bytes = ReadAll(path);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a payload bit in the last record
  WriteAll(path, bytes);

  auto recovery = LedgerWal::Scan(path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->spends.size(), 1u);
  EXPECT_TRUE(recovery->tail_truncated);
  std::remove(path.c_str());
}

TEST(LedgerWalTest, ForeignFileIsDataLossNotTruncated) {
  const std::string path = TempWalPath("foreign");
  WriteAll(path, "this is not a WAL file at all, do not truncate me\n");
  auto wal = LedgerWal::Open({.path = path});
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kDataLoss);
  // The file was left untouched.
  EXPECT_EQ(ReadAll(path), "this is not a WAL file at all, do not truncate me\n");
  std::remove(path.c_str());
}

TEST(LedgerWalTest, MissingFileScansEmpty) {
  auto recovery = LedgerWal::Scan(::testing::TempDir() + "/wal_test_never_written.wal");
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->spends.empty());
  EXPECT_EQ(recovery->records_read, 0u);
}

TEST(LedgerWalTest, InjectedAppendFaultPoisonsTheLog) {
  const std::string path = TempWalPath("poison");
  auto wal = LedgerWal::Open({.path = path});
  ASSERT_TRUE(wal.ok());
  uint64_t seq = 0;
  ASSERT_TRUE((*wal)->AppendSpend("acme", "publish", "laplace", 0.5, 1, &seq).ok());

  // Fire the append fault point on every evaluation. Each firing is either
  // a drop (clean refusal: nothing written, not poisoned) or a corruption
  // (garbage written: fail-stop); keep appending until the corrupt branch
  // lands.
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.point_rates["ledger.wal.append"] = 1.0;
  ASSERT_TRUE(fault::FaultInjector::Global().Arm(plan).ok());
  for (int i = 0; i < 64 && !(*wal)->poisoned(); ++i) {
    Status failed = (*wal)->AppendSpend("acme", "publish", "laplace", 0.5, 1, &seq);
    ASSERT_FALSE(failed.ok());  // rate 1.0: every append fails one way or the other
  }
  fault::FaultInjector::Global().Disarm();

  // Fail-stop: the log stays poisoned even after the injector disarms.
  EXPECT_TRUE((*wal)->poisoned());
  Status after = (*wal)->AppendSpend("acme", "publish", "laplace", 0.5, 1, &seq);
  EXPECT_EQ(after.code(), StatusCode::kUnavailable);

  // Whatever the fault wrote (a corrupted frame or nothing), recovery still
  // yields exactly the pre-fault prefix.
  auto recovery = LedgerWal::Scan(path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->spends.size(), 1u);
  EXPECT_DOUBLE_EQ(recovery->spends[0].epsilon, 0.5);
  std::remove(path.c_str());
}

TEST(LedgerWalTest, FaultSequenceIsDeterministicAcrossRuns) {
  // Same plan, same call sequence => byte-identical surviving WAL. This is
  // the property the restart-chaos CI job sweeps at larger scale.
  auto run = [](const std::string& path) -> std::string {
    std::remove(path.c_str());
    auto wal = LedgerWal::Open({.path = path});
    EXPECT_TRUE(wal.ok());
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.point_rates["ledger.wal.append"] = 0.3;
    plan.point_rates["ledger.wal.fsync"] = 0.1;
    EXPECT_TRUE(fault::FaultInjector::Global().Arm(plan).ok());
    uint64_t seq = 0;
    for (int i = 0; i < 32; ++i) {
      (void)(*wal)->AppendSpend("t", "publish", "laplace", 0.01 * (i + 1), 1, &seq);
    }
    fault::FaultInjector::Global().Disarm();
    std::string bytes = ReadAll(path);
    std::remove(path.c_str());
    return bytes;
  };
  const std::string a = run(TempWalPath("chaos_a"));
  const std::string b = run(TempWalPath("chaos_b"));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(LedgerWalTest, RestoreSpendReplaysWithoutAdmissionChecks) {
  PrivacyLedger ledger(1.0);
  ledger.RestoreSpend("publish", "laplace", 0.8);
  ledger.RestoreSpend("publish", "laplace", 0.8);  // past the budget: still recorded
  EXPECT_DOUBLE_EQ(ledger.spent(), 1.6);
  EXPECT_LE(ledger.remaining(), 0.0);
  // The live path is now fully exhausted.
  EXPECT_FALSE(ledger.Spend("publish", "laplace", 0.1).ok());
}

TEST(TenantRegistryAttachWalTest, WalFailureRefusesTheSpend) {
  const std::string path = TempWalPath("attach_wal");
  auto wal = LedgerWal::Open({.path = path});
  ASSERT_TRUE(wal.ok());

  serve::TenantRegistry registry({.budget_per_tenant = 1.0, .max_tenants = 4});
  auto early = registry.ForTenant("early");  // created before the WAL: wired on attach
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE(registry.AttachWal(wal->get()).ok());
  auto ledger = registry.ForTenant("acme");
  ASSERT_TRUE(ledger.ok());

  // A spend lands in both the ledger and the log.
  ASSERT_TRUE((*ledger)->Spend("publish", "laplace", 0.4).ok());
  ASSERT_TRUE((*early)->Spend("publish", "laplace", 0.2).ok());
  // A rejected spend is aborted in the log: recovery must not replay it.
  Status rejected = (*ledger)->Spend("publish", "laplace", 0.9);
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);

  fault::FaultPlan plan;
  plan.seed = 3;
  plan.point_rates["ledger.wal.append"] = 1.0;
  ASSERT_TRUE(fault::FaultInjector::Global().Arm(plan).ok());
  Status refused = (*ledger)->Spend("publish", "laplace", 0.1);
  fault::FaultInjector::Global().Disarm();
  EXPECT_EQ(refused.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(PrivacyLedger::IsWalRefusal(refused)) << refused.ToString();
  // The unlogged spend was refused, so the ledger was never charged for it.
  EXPECT_DOUBLE_EQ((*ledger)->spent(), 0.4);

  auto recovery = LedgerWal::Scan(path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->spends.size(), 2u);
  EXPECT_EQ(recovery->spends[0].tenant, "acme");
  EXPECT_DOUBLE_EQ(recovery->spends[0].total_epsilon(), 0.4);
  EXPECT_EQ(recovery->spends[1].tenant, "early");
  EXPECT_DOUBLE_EQ(recovery->spends[1].total_epsilon(), 0.2);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ppdp::obs
