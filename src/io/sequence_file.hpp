// Streaming multi-container archive: a sequence of containers (e.g. the
// temporal pipeline's keyframe + delta steps) appended to a single file
// with a trailing index, so individual steps can be read back without
// scanning the whole file.
//
// Layout:  [step 0][commit 0][step 1][commit 1]...[index][count u64][magic]
// Each step is a serialized container followed by a 32-byte CRC'd commit
// marker; the trailing index is a list of (offset, size, crc32) triples
// addressing (and checksumming) the containers -- the sequence-level
// chunk index that makes any step O(1) addressable and lets a reader
// validate a step without deserializing it (DESIGN.md §12).  Archives
// written before the CRC column (magic kSequenceMagic rather than
// kSequenceMagicV2) still read back unchanged.  Each embedded container
// additionally carries its own integrity metadata (io/container.cpp), so
// corruption is detected -- and, with parity, repaired -- at step
// granularity.
//
// Durability (DESIGN.md §10): the writer journals into `<path>.part` and
// fsyncs after every commit marker, so every *completed* append survives
// a crash; finish() writes the trailer, fsyncs, renames the journal over
// the destination and fsyncs the parent directory.  The destination is
// therefore always either the previous complete archive or the new
// complete archive, and the journal is always a resumable prefix.
// SequenceWriter::resume() reopens a crashed run's journal, validates the
// committed prefix, truncates any torn tail, and continues appending.
// The reader, when the trailer is missing or the index is implausible
// (e.g. a recovered journal), rebuilds the index by forward-scanning for
// container headers, and read_all_salvage() skips-and-reports corrupt
// steps instead of aborting.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "io/container.hpp"
#include "io/file_ops.hpp"

namespace rmp::io {

/// Bytes of the per-step commit marker: magic u64, step u64, size u64,
/// payload CRC-32, marker CRC-32 (see sequence_file.cpp).
inline constexpr std::size_t kSequenceCommitMarkerBytes = 8 + 8 + 8 + 4 + 4;

/// Where SequenceWriter journals steps before publishing: "<path>.part".
/// Deliberately deterministic (unlike write_container's unique temps) so
/// a later `resume` can find it; exclusive creation keeps two concurrent
/// writers from clobbering each other.
std::filesystem::path sequence_journal_path(const std::filesystem::path& path);

/// Committed-prefix scan of a journal (or any byte buffer): entries for
/// every [container][valid commit marker] pair from offset 0, stopping at
/// the first break in the chain.  `committed_bytes` is where the valid
/// prefix ends; anything beyond it is a torn tail from a crashed append
/// (or a partially written trailer).  Never throws.
struct JournalScan {
  struct Entry {
    std::uint64_t offset = 0;  ///< of the container, not the marker
    std::uint64_t size = 0;
    std::uint32_t crc = 0;  ///< payload CRC-32 (from the commit marker)
  };
  std::vector<Entry> entries;
  std::uint64_t committed_bytes = 0;
  std::uint64_t torn_bytes = 0;  ///< bytes past the committed prefix
};
JournalScan scan_sequence_journal(std::span<const std::uint8_t> bytes) noexcept;

class SequenceWriter {
 public:
  /// Starts a fresh journal at `<path>.part` (exclusive creation: throws
  /// ContainerError{kIoError} if one already exists, instead of silently
  /// clobbering a concurrent or crashed writer's work).  The destination
  /// only changes once finish() renames the journal over it.
  explicit SequenceWriter(const std::filesystem::path& path,
                          const SerializeOptions& options = {});

  /// Reopens a crashed run's journal: validates the committed prefix,
  /// truncates any torn tail, and returns a writer that continues
  /// appending after the last committed step.  `options` must match the
  /// original run for the final archive to be byte-identical to an
  /// uninterrupted one.  Throws ContainerError{kIoError} when no journal
  /// exists.
  static SequenceWriter resume(const std::filesystem::path& path,
                               const SerializeOptions& options = {});

  SequenceWriter(SequenceWriter&& other) noexcept;
  SequenceWriter(const SequenceWriter&) = delete;
  SequenceWriter& operator=(const SequenceWriter&) = delete;
  SequenceWriter& operator=(SequenceWriter&&) = delete;

  /// Commits the prefix: the journal keeps every completed append and
  /// stays on disk for resume().  finish() failures are recorded under
  /// the obs counter "io.sequence.destructor_finish_failures"; only an
  /// explicit finish() publishes and surfaces errors.
  ~SequenceWriter();

  /// Append one container and fsync its commit marker; returns its step
  /// index.  On failure the journal is truncated back to the committed
  /// prefix (best effort) and a typed error with the OS error text is
  /// thrown -- previously committed steps are never lost.
  std::size_t append(const Container& container);

  /// Write the trailing index, fsync, atomically rename the journal over
  /// the destination, and fsync the parent directory.
  void finish();

  /// Steps committed to the journal (including any resumed prefix).
  std::size_t steps_written() const noexcept { return index_.size(); }

  /// Swap the retry policy applied to subsequent appends and to
  /// finish().  Long-lived writers (rmpd's named sequences) use this to
  /// thread each request's wall-clock deadline into the journal's disk
  /// retries.  Never alters the serialized bytes.
  void set_retry(const RetryPolicy& policy) noexcept {
    options_.retry = policy;
    file_.set_policy(policy);
  }

 private:
  struct ResumeTag {};
  SequenceWriter(ResumeTag, const std::filesystem::path& path,
                 const SerializeOptions& options);

  DurableFile file_;
  std::filesystem::path path_;
  std::filesystem::path journal_path_;
  SerializeOptions options_;
  std::vector<JournalScan::Entry> index_;
  std::uint64_t committed_bytes_ = 0;
  bool finished_ = false;
  bool failed_ = false;
};

/// Atomically (re)write a sequence archive from raw per-step container
/// bytes: commit markers and the CRC'd trailing index are regenerated,
/// the bytes are staged in a unique temp next to `path` and durably
/// renamed over it.  The integrity scrubber uses this to replace
/// damaged-but-parity-repairable steps while keeping intact steps
/// byte-identical; a crash mid-rewrite leaves the old archive untouched.
void write_sequence_archive(
    const std::filesystem::path& path,
    const std::vector<std::vector<std::uint8_t>>& steps,
    const RetryPolicy& policy = {});

/// Per-step verdict from a salvage pass.
struct StepHealth {
  std::size_t step = 0;
  bool ok = false;
  std::string error;  ///< empty when ok
};

struct SequenceScanReport {
  bool index_rebuilt = false;
  std::vector<StepHealth> steps;
  std::size_t ok_count() const;
};

/// One sequence-level chunk-index entry: where step K lives, and (for
/// archives with the CRC'd trailer) its payload checksum.
struct StepInfo {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
  /// False for legacy (pre-CRC) trailers and magic-scan-recovered steps,
  /// where no chunk checksum is available.
  bool has_crc = false;
};

/// What a file is, as decided by sniff_archive.
enum class ArchiveKind {
  /// The trailer magic matches and the index passes the reader's checks:
  /// SequenceReader opens it without a rebuild.
  kSequence,
  /// No usable trailer, but sequence evidence a plain container cannot
  /// fake: more than one step, or a step found through its CRC'd commit
  /// marker.  SequenceReader opens it by rebuilding the index.
  kTornSequence,
  /// Everything else: a plain v2/v3/v4 container, or damage that
  /// read_container reports typed (bad magic, truncation, trailing bytes).
  kContainer,
};

/// Classify a file without exceptions and without counting anything.
/// An intact trailer or a v3/v4 header that declares exactly the file's
/// size settles the kind from the tail and head bytes; only files that
/// are neither are scanned in full, with the reader's rebuild scan.
/// Throws ContainerError only when the file cannot be opened or read.
ArchiveKind sniff_archive(const std::filesystem::path& path);

/// Thread-safe random-access reader.  All read methods are const and go
/// through stateless positional reads (io::ReadFile / FileOps::pread) --
/// there is no shared stream cursor, so ONE SequenceReader instance may
/// be shared by any number of threads decoding disjoint (or identical)
/// steps concurrently.  Reading step K costs O(step K's bytes): the
/// trailer parse at open touches only the index, never the step data.
class SequenceReader {
 public:
  /// Opens by the trailing index, or rebuilds the index by forward scan
  /// when the trailer is missing or implausible (throws
  /// ContainerError{kIndexCorrupt} when no step can be located).  Callers
  /// that must not rebuild sniff_archive first.
  explicit SequenceReader(const std::filesystem::path& path);

  std::size_t step_count() const noexcept { return index_.size(); }

  /// True when the trailing index was unusable and the step table was
  /// reconstructed by forward-scanning the file.
  bool index_rebuilt() const noexcept { return rebuilt_; }

  /// Chunk-index entry for one step (offset/size/crc).  Throws
  /// std::out_of_range on a bad step number.
  const StepInfo& step_info(std::size_t step) const;

  /// Raw serialized bytes of one step.  The entry's size is validated
  /// against the file footprint *before* allocating, so a hostile or
  /// stale trailer cannot force a multi-GB allocation (typed
  /// ContainerError{kIndexCorrupt}, never bad_alloc).
  std::vector<std::uint8_t> read_step_bytes(std::size_t step) const;

  /// Read one step (random access).  Throws ContainerError on corruption
  /// (repairing single-section damage via parity when present) and
  /// std::out_of_range on a bad step number.
  Container read_step(std::size_t step) const;

  /// Read all steps in order; throws on the first unreadable step.
  std::vector<Container> read_all() const;

  /// Read every step that can be decoded, skipping corrupt ones.  The
  /// optional report records a verdict for each step.
  std::vector<Container> read_all_salvage(
      SequenceScanReport* report = nullptr) const;

 private:
  ReadFile file_;
  std::vector<StepInfo> index_;
  bool rebuilt_ = false;
};

}  // namespace rmp::io
