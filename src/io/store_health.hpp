// Self-healing store maintenance for rmpd (DESIGN.md §14).  Three
// services over a store directory of published archives and in-flight
// sequence journals:
//
//  * Startup recovery (recover_store): after a crash, resume every torn
//    `<name>.part` journal via SequenceWriter::resume, CRC-verify and
//    parity-repair published archives, and move whatever cannot be made
//    whole into `quarantine/` with a JSON manifest entry -- the daemon
//    restarts over either a byte-identical resumable store or an
//    explicitly quarantined file, never a silently damaged one.
//
//  * Integrity scrubbing (scrub_store): the same verify/repair/quarantine
//    pass, run continuously by rmpd's background scrubber and on demand
//    via `rmpc client scrub`.  Per-section CRCs (and the sequence chunk
//    index where present) localize damage; single-section corruption is
//    rebuilt from XOR parity and the file atomically republished with
//    intact steps byte-identical.
//
//  * The request log (RequestLog): a tiny fsync'd sidecar journal of
//    (token, step) intents written *before* each sequence append.  On
//    recovery, an intent whose step lies below the journal's committed
//    step count proves that append durably committed -- the retried
//    request replays the cached outcome instead of re-executing, which is
//    what makes idempotent retries exactly-once across a daemon crash.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/container.hpp"
#include "io/file_ops.hpp"
#include "io/sequence_file.hpp"

namespace rmp::io {

// ---------------------------------------------------------------------------
// Quarantine

/// `<store_dir>/quarantine` -- where unrecoverable files are moved.
std::filesystem::path quarantine_dir(const std::filesystem::path& store_dir);

/// The quarantine manifest: one JSON object per line ("file", "reason",
/// "quarantined_as", "bytes"), appended as files are quarantined.
std::filesystem::path quarantine_manifest_path(
    const std::filesystem::path& store_dir);

/// Move `path` into the quarantine directory (durable rename; a name
/// collision gets a numeric suffix) and append a manifest entry.  Throws
/// ContainerError{kIoError} when the move itself fails; a manifest append
/// failure is recorded under "io.quarantine.manifest_failures" but does
/// not undo the quarantine.
void quarantine_file(const std::filesystem::path& store_dir,
                     const std::filesystem::path& path,
                     const std::string& reason);

// ---------------------------------------------------------------------------
// Request log (idempotent-retry intents)

/// Where a sequence's request log lives: "<path>.reqs".
std::filesystem::path request_log_path(
    const std::filesystem::path& sequence_path);

struct RequestLogEntry {
  std::uint64_t token = 0;  ///< client idempotency token (never 0)
  std::uint64_t step = 0;   ///< step index the append was about to create
};

/// Append-only fsync'd intent log, CRC'd per record so a torn tail is
/// ignored on scan.  Ordering contract: record() is called BEFORE the
/// sequence append it describes.  If the process dies between the two,
/// the intent's step equals the journal's committed count and recovery
/// discards it (the retry re-executes); if it dies after the append's
/// commit fsync, the step lies below the count and recovery replays.
class RequestLog {
 public:
  /// Open the log for `sequence_path`.  `fresh` truncates (a brand-new
  /// journal generation must not inherit a predecessor's intents);
  /// otherwise records append after any existing committed prefix.
  static RequestLog open(const std::filesystem::path& sequence_path,
                         bool fresh, const RetryPolicy& policy = {});

  RequestLog(RequestLog&&) noexcept = default;
  RequestLog(const RequestLog&) = delete;
  RequestLog& operator=(const RequestLog&) = delete;
  RequestLog& operator=(RequestLog&&) = delete;

  /// Append one intent and fsync it.  Throws ContainerError{kIoError}; on
  /// failure the log is truncated back to its pre-record size (best
  /// effort) so a torn record never survives.
  void record(std::uint64_t token, std::uint64_t step);

  /// Withdraw the most recent intent (the append it described failed
  /// without committing, so the step index will be reused by a later
  /// request -- the stale intent must not alias it).  Best effort: a
  /// failure here is swallowed, because recovery additionally drops any
  /// intent whose step never committed.
  void rollback_last() noexcept;

  void set_retry(const RetryPolicy& policy) noexcept {
    file_.set_policy(policy);
  }

 private:
  RequestLog(DurableFile file, std::uint64_t size)
      : file_(std::move(file)), size_(size) {}
  DurableFile file_;
  std::uint64_t size_ = 0;  ///< committed log bytes (rollback target)
};

/// Committed-prefix scan of a request log: every CRC-valid record in
/// order, stopping at the first torn or corrupt one.  Never throws; a
/// missing or unreadable file yields an empty list.
std::vector<RequestLogEntry> scan_request_log(
    const std::filesystem::path& log_path) noexcept;

// ---------------------------------------------------------------------------
// Scrub

struct ScrubOptions {
  /// Applied to re-serialized (repaired) steps.  They are rewritten as
  /// v3, with parity when the damaged file carried it; intact archives
  /// and steps keep their exact bytes.
  RetryPolicy retry;
  /// Store file names to leave alone (e.g. destinations of sequences a
  /// live server is still appending to).
  std::vector<std::string> skip;
};

struct ScrubReport {
  std::uint64_t files_checked = 0;
  std::uint64_t sections_checked = 0;
  std::uint64_t sections_repaired = 0;
  std::uint64_t files_repaired = 0;     ///< atomically republished
  std::uint64_t files_quarantined = 0;  ///< moved to quarantine/ + manifest
  std::vector<std::string> notes;  ///< human-readable per-file findings

  void merge(const ScrubReport& other);
};

/// One verify/repair/quarantine pass over every published archive in
/// `dir` (journals `*.part`, request logs `*.reqs`, staging temps and
/// dot-files are skipped).  Damage contained to parity-repairable
/// sections is healed in place via atomic republish; anything else is
/// quarantined.  Per-file I/O failures are recorded as notes, never
/// thrown -- a scrub pass always completes.  Emits the "scrub.*" obs
/// counters.
ScrubReport scrub_store(const std::filesystem::path& dir,
                        const ScrubOptions& options = {});

// ---------------------------------------------------------------------------
// Startup recovery

struct RecoveredSequence {
  std::unique_ptr<SequenceWriter> writer;  ///< resumed, ready to append
  /// Steps already committed in the journal at resume time.
  std::vector<JournalScan::Entry> steps;
};

/// Proof (from the request log + journal scan) that a tokened request
/// already applied durably: recovery hands these to the server's dedup
/// window so a post-restart retry replays instead of re-executing.
struct ReplayableRequest {
  std::string sequence;  ///< store name
  std::uint64_t step = 0;
  std::uint64_t stored_bytes = 0;  ///< serialized size of the step
};

struct RecoveryReport {
  std::uint64_t journals_resumed = 0;
  std::uint64_t journals_quarantined = 0;
  std::uint64_t steps_recovered = 0;  ///< committed steps across journals
  std::uint64_t tokens_recovered = 0;
  ScrubReport scrub;  ///< published-file verification riding the pass
  std::vector<std::string> notes;
};

struct RecoveryResult {
  RecoveryReport report;
  /// Resumed journals by store name; the server adopts these as its live
  /// sequence writers so appends continue byte-identically.
  std::map<std::string, RecoveredSequence> sequences;
  std::map<std::uint64_t, ReplayableRequest> replayable;  ///< by token
};

/// Full crash recovery over a store directory: resume (or quarantine)
/// every journal, reload durable dedup intents, then scrub the published
/// files.  `options` must match the crashed run's serialize options for
/// resumed journals to stay byte-identical.  Never throws on per-file
/// damage; only an unusable directory itself raises
/// ContainerError{kIoError}.  Emits the "recovery.*" obs counters.
RecoveryResult recover_store(const std::filesystem::path& dir,
                             const SerializeOptions& options);

}  // namespace rmp::io
