// Self-healing store tests (DESIGN.md §14): startup recovery over torn
// journals and damaged archives, quarantine with a manifest, the fsync'd
// request log behind idempotent retries, and the end-to-end exactly-once
// guarantee -- a kill at every faultable syscall of a tokened append run,
// followed by recovery plus a client-style retry, must converge to an
// archive byte-identical to an uninterrupted run with every append
// applied exactly once.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault_injection.hpp"
#include "io/container.hpp"
#include "io/sequence_file.hpp"
#include "io/store_health.hpp"
#include "legacy_formats.hpp"
#include "obs/obs.hpp"

namespace rmp::io {
namespace {

namespace fs = std::filesystem;

constexpr int kSteps = 3;

/// Small multi-section steps: three sections so double corruption can
/// defeat single-section XOR parity, and small payloads so every-byte
/// sweeps stay fast.
Container sample(int i) {
  Container c;
  c.method = "heal_step" + std::to_string(i);
  c.nx = static_cast<std::uint64_t>(i + 1);
  c.ny = 3;
  c.add("data", std::vector<std::uint8_t>(static_cast<std::size_t>(20 + 5 * i),
                                          static_cast<std::uint8_t>(0x60 + i)));
  c.add("meta", std::vector<std::uint8_t>{9, 8, 7, 6});
  c.add("tail", std::vector<std::uint8_t>(11, static_cast<std::uint8_t>(i)));
  return c;
}

std::uint64_t token(int i) { return 0xBEEF0000u + static_cast<unsigned>(i); }

std::vector<std::uint8_t> slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void spit(const fs::path& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string slurp_text(const fs::path& path) {
  const auto bytes = slurp(path);
  return {bytes.begin(), bytes.end()};
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("rmp_recovery_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    obs::set_enabled(true);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path fresh_store(const std::string& name) {
    const fs::path store = dir_ / name;
    fs::remove_all(store);
    fs::create_directories(store);
    return store;
  }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// Startup recovery: torn journals

TEST_F(RecoveryTest, TornJournalAtEveryByteRecoversToIdenticalArchive) {
  // Reference: an uninterrupted 3-step run, published.
  const fs::path ref_store = fresh_store("ref");
  {
    SequenceWriter writer(ref_store / "run.rmps");
    for (int i = 0; i < kSteps; ++i) writer.append(sample(i));
    writer.finish();
  }
  const auto reference = slurp(ref_store / "run.rmps");
  ASSERT_FALSE(reference.empty());

  // A fully-committed journal (writer abandoned before finish).
  const fs::path donor_store = fresh_store("donor");
  const fs::path donor_journal =
      sequence_journal_path(donor_store / "run.rmps");
  {
    SequenceWriter writer(donor_store / "run.rmps");
    for (int i = 0; i < kSteps; ++i) writer.append(sample(i));
    // No finish(): the destructor leaves a resumable journal behind.
  }
  const auto journal = slurp(donor_journal);
  ASSERT_FALSE(journal.empty());

  bool saw_partial_prefix = false;
  for (std::size_t cut = 1; cut <= journal.size(); ++cut) {
    const fs::path store = fresh_store("cut");
    const fs::path dest = store / "run.rmps";
    spit(sequence_journal_path(dest),
         std::span(journal.data(), cut));

    const RecoveryResult recovery = recover_store(store, {});
    ASSERT_EQ(recovery.report.journals_resumed +
                  recovery.report.journals_quarantined,
              1u)
        << "cut=" << cut;
    if (recovery.report.journals_quarantined > 0) continue;

    const auto it = recovery.sequences.find("run.rmps");
    ASSERT_NE(it, recovery.sequences.end()) << "cut=" << cut;
    SequenceWriter& writer = *it->second.writer;
    const auto committed = writer.steps_written();
    ASSERT_LE(committed, static_cast<std::uint64_t>(kSteps)) << "cut=" << cut;
    saw_partial_prefix = saw_partial_prefix ||
                         (committed > 0 && committed < kSteps);

    for (auto s = committed; s < kSteps; ++s) {
      writer.append(sample(static_cast<int>(s)));
    }
    writer.finish();
    EXPECT_EQ(slurp(dest), reference)
        << "cut=" << cut << ": resumed archive differs";
  }
  EXPECT_TRUE(saw_partial_prefix)
      << "no cut point exercised a partial committed prefix";
}

// ---------------------------------------------------------------------------
// Startup recovery: published archives

TEST_F(RecoveryTest, ParityRepairableArchiveIsHealedInPlace) {
  const fs::path store = fresh_store("store");
  const Container original = sample(0);
  SerializeOptions options;
  options.with_parity = true;
  const auto pristine = serialize(original, options);

  auto damaged = pristine;
  testing::corrupt_section(damaged, original, /*with_parity=*/true, 0);
  ASSERT_NE(damaged, pristine);
  spit(store / "field.rmp", damaged);

  const RecoveryResult recovery = recover_store(store, options);
  EXPECT_EQ(recovery.report.scrub.files_repaired, 1u);
  EXPECT_GE(recovery.report.scrub.sections_repaired, 1u);
  EXPECT_EQ(recovery.report.scrub.files_quarantined, 0u);

  // Healed in place: the republished file is byte-identical to the
  // pristine serialization and decodes cleanly.
  EXPECT_EQ(slurp(store / "field.rmp"), pristine);
  ReadReport report;
  const Container decoded = deserialize(slurp(store / "field.rmp"), &report);
  EXPECT_TRUE(report.complete());
  EXPECT_FALSE(report.repaired());
  EXPECT_EQ(decoded.method, original.method);
}

TEST_F(RecoveryTest, UnrecoverableArchiveIsQuarantinedWithManifestEntry) {
  const fs::path store = fresh_store("store");
  const Container original = sample(1);
  SerializeOptions options;
  options.with_parity = true;
  auto damaged = serialize(original, options);
  // Two damaged sections defeat single-section XOR parity.
  testing::corrupt_section(damaged, original, /*with_parity=*/true, 0);
  testing::corrupt_section(damaged, original, /*with_parity=*/true, 1);
  spit(store / "field.rmp", damaged);

  const RecoveryResult recovery = recover_store(store, options);
  EXPECT_EQ(recovery.report.scrub.files_quarantined, 1u);
  EXPECT_EQ(recovery.report.scrub.files_repaired, 0u);

  // Moved out of the serving path, preserved under quarantine/, and
  // recorded in the manifest with its name and a reason.
  EXPECT_FALSE(fs::exists(store / "field.rmp"));
  EXPECT_TRUE(fs::exists(quarantine_dir(store) / "field.rmp"));
  ASSERT_TRUE(fs::exists(quarantine_manifest_path(store)));
  const std::string manifest = slurp_text(quarantine_manifest_path(store));
  EXPECT_NE(manifest.find("field.rmp"), std::string::npos);
  EXPECT_NE(manifest.find("reason"), std::string::npos);

  // A second pass over the now-clean store finds nothing to do.
  const ScrubReport again = scrub_store(store);
  EXPECT_EQ(again.files_quarantined, 0u);
  EXPECT_EQ(again.files_repaired, 0u);
}

// Nothing writes v4 any more: a parity-repaired v4 file is republished
// as v3 with the same sections and payload bytes.
TEST_F(RecoveryTest, ScrubRepublishesARepairedV4ContainerAsV3) {
  const fs::path store = fresh_store("store");
  const Container original = sample(1);
  auto damaged = testing::serialize_v4(original, /*with_parity=*/true);
  testing::corrupt_section(damaged, original, /*with_parity=*/true, 0);
  spit(store / "old.rmp", damaged);

  const ScrubReport report = scrub_store(store);
  EXPECT_EQ(report.files_repaired, 1u);
  EXPECT_EQ(report.files_quarantined, 0u);
  SerializeOptions options;
  options.with_parity = true;
  EXPECT_EQ(slurp(store / "old.rmp"), serialize(original, options));
}

TEST_F(RecoveryTest, ScrubSkipListLeavesLiveSequencesAlone) {
  const fs::path store = fresh_store("store");
  spit(store / "live.rmps", std::vector<std::uint8_t>(64, 0xAB));
  ScrubOptions options;
  options.skip = {"live.rmps"};
  const ScrubReport report = scrub_store(store, options);
  EXPECT_EQ(report.files_quarantined, 0u);
  EXPECT_TRUE(fs::exists(store / "live.rmps"));

  // Without the skip, the same garbage is quarantined.
  const ScrubReport unskipped = scrub_store(store);
  EXPECT_EQ(unskipped.files_quarantined, 1u);
  EXPECT_FALSE(fs::exists(store / "live.rmps"));
}

TEST_F(RecoveryTest, ScrubOutcomeFollowsTheArchiveKind) {
  const fs::path store = fresh_store("store");
  SerializeOptions options;
  options.with_parity = true;
  spit(store / "clean.rmp", serialize(sample(0), options));
  {
    SequenceWriter writer(store / "clean.rmps", options);
    for (int i = 0; i < kSteps; ++i) writer.append(sample(i));
    writer.finish();
  }
  const auto sequence = slurp(store / "clean.rmps");

  // An intact sequence with one parity-repairable step is healed.
  auto healable = sequence;
  {
    auto step = serialize(sample(1), options);
    testing::corrupt_section(step, sample(1), /*with_parity=*/true, 0);
    const SequenceReader reader(store / "clean.rmps");
    std::copy(step.begin(), step.end(),
              healable.begin() +
                  static_cast<std::ptrdiff_t>(reader.step_info(1).offset));
  }
  spit(store / "healable.rmps", healable);
  // A torn sequence, a container with trailing bytes and an empty file
  // are damage.
  spit(store / "torn.rmps",
       std::span<const std::uint8_t>(sequence).first(sequence.size() - 5));
  auto trailing = serialize(sample(2), options);
  trailing.push_back(0xAB);
  spit(store / "trailing.rmp", trailing);
  spit(store / "empty.rmp", std::vector<std::uint8_t>{});

  const ScrubReport report = scrub_store(store);
  EXPECT_EQ(report.files_checked, 6u);
  EXPECT_EQ(report.files_repaired, 1u);
  EXPECT_EQ(report.files_quarantined, 3u);
  EXPECT_EQ(slurp(store / "healable.rmps"), sequence);
  EXPECT_TRUE(fs::exists(store / "clean.rmp"));
  EXPECT_EQ(slurp(store / "clean.rmps"), sequence);
  for (const char* name : {"torn.rmps", "trailing.rmp", "empty.rmp"}) {
    EXPECT_FALSE(fs::exists(store / name)) << name;
    EXPECT_TRUE(fs::exists(quarantine_dir(store) / name)) << name;
  }
}

// ---------------------------------------------------------------------------
// Request log

TEST_F(RecoveryTest, RequestLogScansCommittedPrefixAndIgnoresTornTail) {
  const fs::path store = fresh_store("store");
  const fs::path dest = store / "run.rmps";
  {
    RequestLog log = RequestLog::open(dest, /*fresh=*/true);
    log.record(token(0), 0);
    log.record(token(1), 1);
    log.record(token(2), 2);
  }
  const fs::path log_path = request_log_path(dest);
  auto entries = scan_request_log(log_path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[1].token, token(1));
  EXPECT_EQ(entries[1].step, 1u);

  // Tear the last record mid-way: the committed prefix survives, the
  // torn tail is ignored...
  auto bytes = slurp(log_path);
  spit(log_path, std::span(bytes.data(), bytes.size() - 5));
  entries = scan_request_log(log_path);
  ASSERT_EQ(entries.size(), 2u);

  // ...and a non-fresh reopen truncates it away so appends stay aligned.
  {
    RequestLog log = RequestLog::open(dest, /*fresh=*/false);
    log.record(token(3), 2);
  }
  entries = scan_request_log(log_path);
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[2].token, token(3));

  // A fresh generation must not inherit a predecessor's intents.
  { RequestLog log = RequestLog::open(dest, /*fresh=*/true); }
  EXPECT_TRUE(scan_request_log(log_path).empty());
}

TEST_F(RecoveryTest, RequestLogRollbackWithdrawsTheFailedIntent) {
  const fs::path store = fresh_store("store");
  const fs::path dest = store / "run.rmps";
  RequestLog log = RequestLog::open(dest, /*fresh=*/true);
  log.record(token(0), 0);
  log.record(token(1), 1);  // the append this described will "fail"
  log.rollback_last();
  log.record(token(2), 1);  // a later request reuses the step index
  const auto entries = scan_request_log(request_log_path(dest));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].token, token(0));
  EXPECT_EQ(entries[1].token, token(2));
  EXPECT_EQ(entries[1].step, 1u);
}

// ---------------------------------------------------------------------------
// Exactly-once across a crash: kill at every syscall, recover, retry

TEST_F(RecoveryTest, KillAtEverySyscallThenRetryAppliesEachTokenExactlyOnce) {
  const auto policy = testing::instant_retry_policy();
  SerializeOptions options;
  options.retry = policy;

  // The full tokened-append protocol, as the server runs it: intent
  // fsync'd before each append, publish at the end.
  const auto run_protocol = [&](const fs::path& store) {
    const fs::path dest = store / "run.rmps";
    SequenceWriter writer(dest, options);
    auto log = std::make_unique<RequestLog>(
        RequestLog::open(dest, /*fresh=*/true, policy));
    for (int i = 0; i < kSteps; ++i) {
      log->record(token(i), writer.steps_written());
      writer.append(sample(i));
    }
    writer.finish();
  };

  const fs::path ref_store = fresh_store("ref");
  run_protocol(ref_store);
  const auto reference = slurp(ref_store / "run.rmps");
  ASSERT_FALSE(reference.empty());

  // Calibrate the number of faultable ops in one uninterrupted run.
  std::uint64_t total_ops = 0;
  {
    const fs::path probe_store = fresh_store("probe");
    testing::ScopedFaultInjection probe({FaultKind::kNone, 1});
    run_protocol(probe_store);
    total_ops = probe.ops_seen();
  }
  ASSERT_GT(total_ops, 10u) << "op count implausibly small; seam bypassed?";

  int replays = 0;
  int reexecutions = 0;
  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    const std::string where = "kill@" + std::to_string(k);
    const fs::path store = fresh_store("crash");
    const fs::path dest = store / "run.rmps";
    bool completed = false;
    {
      testing::ScopedFaultInjection inject({FaultKind::kKill, k});
      try {
        run_protocol(store);
        completed = true;
      } catch (const ContainerError&) {
      }
    }
    ASSERT_FALSE(completed) << where << " did not stop the run";

    // --- restart: recover the store.
    RecoveryResult recovery = recover_store(store, options);

    std::unique_ptr<SequenceWriter> writer;
    if (const auto it = recovery.sequences.find("run.rmps");
        it != recovery.sequences.end()) {
      writer = std::move(it->second.writer);
    }

    // --- the client retries every token; the dedup decision rule
    // replays tokens recovery proved durable and re-executes the rest.
    std::vector<int> pending;
    for (int i = 0; i < kSteps; ++i) {
      const auto it = recovery.replayable.find(token(i));
      if (it != recovery.replayable.end()) {
        EXPECT_EQ(it->second.step, static_cast<std::uint64_t>(i)) << where;
        EXPECT_EQ(it->second.sequence, "run.rmps") << where;
        ++replays;
        continue;
      }
      pending.push_back(i);
      ++reexecutions;
    }
    // Committed steps and replayable tokens must agree: the pending
    // tokens are exactly the journal's uncommitted tail.
    if (writer) {
      ASSERT_EQ(pending.size(),
                static_cast<std::size_t>(kSteps) - writer->steps_written())
          << where;
    }

    if (!pending.empty()) {
      const bool fresh_generation = writer == nullptr;
      if (!writer) {
        ASSERT_FALSE(fs::exists(dest))
            << where << ": published archive missing replay intents";
        writer = std::make_unique<SequenceWriter>(dest, options);
      }
      auto log = std::make_unique<RequestLog>(
          RequestLog::open(dest, fresh_generation, policy));
      for (const int i : pending) {
        ASSERT_EQ(writer->steps_written(), static_cast<std::uint64_t>(i))
            << where;
        log->record(token(i), writer->steps_written());
        writer->append(sample(i));
      }
      writer->finish();
    } else if (writer) {
      writer->finish();
    }

    ASSERT_EQ(slurp(dest), reference)
        << where << ": post-recovery archive differs from uninterrupted run";
  }
  // The sweep must exercise both halves of the decision rule.
  EXPECT_GT(replays, 0) << "no kill point left a durably-applied token";
  EXPECT_GT(reexecutions, 0) << "no kill point required a re-execution";
}

}  // namespace
}  // namespace rmp::io
