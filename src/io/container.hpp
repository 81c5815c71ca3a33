// On-disk container for preconditioned, compressed fields.
//
// A container is a small header (magic, version, method name, grid shape)
// followed by named byte sections -- typically "reduced" (the reduced
// representation) and "delta" (the compressed residual), but the format is
// generic so preconditioners can add sections (means, masks, ...).
//
// Format v3 gives every section its own CRC-32 integrity domain (the
// header carries a section directory with per-payload checksums plus its
// own CRC) and can embed an XOR-parity block that repairs any single
// corrupted section.  v2 archives (whole-file CRC trailer) still read
// back unchanged.
//
// Format v4 (written by earlier releases) additionally recorded each
// section's payload offset in its directory entry.  Those offsets must
// equal v3's cumulative section sizes, so they carry no information:
// v4 archives still read back, and everything written now is v3.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "io/container_error.hpp"
#include "io/file_ops.hpp"

namespace rmp::io {

struct Section {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

struct Container {
  std::string method;  ///< preconditioner identifier, e.g. "pca"
  std::uint64_t nx = 1, ny = 1, nz = 1;
  std::vector<Section> sections;

  /// Total payload bytes across all sections (the "compressed size" used
  /// for compression-ratio accounting).
  std::size_t payload_bytes() const;

  const Section* find(const std::string& name) const;
  Section& add(std::string name, std::vector<std::uint8_t> bytes);
};

struct SerializeOptions {
  /// Append an XOR-parity block (sized like the largest section) that can
  /// reconstruct any single corrupted section payload.
  bool with_parity = false;
  /// Retry/backoff policy (including the optional wall-clock deadline)
  /// applied to every durable write this archive performs.  Affects only
  /// I/O behaviour, never the serialized bytes, so archives stay
  /// byte-identical across policies.
  RetryPolicy retry;
};

enum class SectionState : std::uint8_t {
  kOk,        ///< payload CRC verified
  kRepaired,  ///< payload CRC failed but the parity block rebuilt it
  kDamaged,   ///< payload CRC failed and no repair was possible
};

struct SectionHealth {
  std::string name;
  SectionState state = SectionState::kOk;
  std::uint64_t bytes = 0;
};

/// Forensic record of a deserialization: format version, parity status
/// and the per-section verdicts.
struct ReadReport {
  std::uint32_t version = 0;
  bool parity_present = false;
  bool parity_valid = false;
  std::vector<SectionHealth> sections;

  /// Every section is intact or was repaired.
  bool complete() const;
  /// At least one section was rebuilt from parity.
  bool repaired() const;
  /// Names of sections that are still damaged.
  std::vector<std::string> damaged() const;
};

/// Serialize to a flat byte buffer (format v3).
std::vector<std::uint8_t> serialize(const Container& container,
                                    const SerializeOptions& options = {});

/// Strict parse (accepts v2, v3 and v4).  Repairs a single corrupted
/// section via parity when present; throws ContainerError if anything
/// remains damaged.  `report`, when non-null, receives the integrity
/// record.
Container deserialize(std::span<const std::uint8_t> bytes,
                      ReadReport* report = nullptr);

/// Best-effort parse: damaged sections are dropped from the result (and
/// recorded in `report`) instead of aborting the whole read.  Throws only
/// when the envelope itself is unusable (bad magic, corrupt header, v2
/// whole-file checksum mismatch).
Container deserialize_salvage(std::span<const std::uint8_t> bytes,
                              ReadReport* report = nullptr);

/// If a well-formed container starts at bytes[0], returns its full
/// serialized footprint (used by SequenceReader's forward-scan index
/// rebuild); std::nullopt otherwise.  Never throws.
std::optional<std::size_t> probe_container(
    std::span<const std::uint8_t> bytes) noexcept;

/// The footprint a v3/v4 header at the start of `file` declares, read
/// from the header alone (payloads are neither read nor checked);
/// std::nullopt when none parses there.  v2 gives std::nullopt too: its
/// footprint needs the whole-file walk of probe_container.
std::optional<std::uint64_t> probe_container_header(const ReadFile& file);

/// Whole file into memory for the in-memory parsers.  Throws
/// ContainerError{kIoError} when it cannot be opened or read, and
/// {kTruncated} when it is empty; `who` prefixes the message.
std::vector<std::uint8_t> read_file_bytes(const std::filesystem::path& path,
                                          const char* who);

/// File round trip.  Writes are atomic: a temp file is populated first
/// and renamed over `path`, so a crashed writer never leaves a torn
/// archive at the destination.
void write_container(const std::filesystem::path& path,
                     const Container& container,
                     const SerializeOptions& options = {});
Container read_container(const std::filesystem::path& path);
Container read_container_salvage(const std::filesystem::path& path,
                                 ReadReport* report = nullptr);

}  // namespace rmp::io
