// libFuzzer target: throw arbitrary bytes at the sequence-journal scanner
// that crash recovery trusts (scan_sequence_journal) and then at the
// container parser for every step the scan claims is committed.  The
// contract: the scan itself never throws and never reads out of bounds,
// its claimed entries always lie inside the buffer, and a committed entry
// -- whose payload CRC the scan just verified -- must deserialize without
// a crash (typed rejection is tolerated, silent memory errors are not).
// The same bytes, written to a file, then go through the archive-kind
// sniff: it never throws, and a file it calls a sequence opens without a
// rebuild and has every index entry inside the data region before the
// trailer.
//
// Build:  cmake -B build-fuzz -S . -DCMAKE_CXX_COMPILER=clang++ \
//             -DRMP_FUZZ=ON -DRMP_BUILD_TESTS=OFF -DRMP_BUILD_BENCH=OFF \
//             -DRMP_BUILD_EXAMPLES=OFF
//         ./build-fuzz/fuzz/fuzz_sequence corpus/ -max_total_time=60
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "io/container.hpp"
#include "io/sequence_file.hpp"

namespace {

void check_sniff(std::span<const std::uint8_t> bytes) {
  static const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("fuzz_sequence_" + std::to_string(::getpid()) + ".bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return;  // no scratch space: nothing to check
  }
  rmp::io::ArchiveKind kind = rmp::io::ArchiveKind::kContainer;
  try {
    kind = rmp::io::sniff_archive(path);
  } catch (...) {
    __builtin_trap();
  }
  if (kind != rmp::io::ArchiveKind::kSequence) return;

  // Independent trailer parse: [entries][count u64][magic u64], 20-byte
  // entries under "RRMPQSE2", 16-byte ones under legacy "RRMPQSEQ".
  if (bytes.size() < 16) __builtin_trap();
  std::uint64_t count = 0, magic = 0;
  std::memcpy(&count, bytes.data() + bytes.size() - 16, 8);
  std::memcpy(&magic, bytes.data() + bytes.size() - 8, 8);
  const std::uint64_t stride = magic == 0x32455351504D5252ULL   ? 20
                               : magic == 0x51455351504D5252ULL ? 16
                                                                : 0;
  if (stride == 0 || count > (bytes.size() - 16) / stride) __builtin_trap();
  const std::uint64_t data_end = bytes.size() - 16 - count * stride;
  try {
    const rmp::io::SequenceReader reader(path);
    if (reader.index_rebuilt() || reader.step_count() != count) {
      __builtin_trap();
    }
    for (std::size_t s = 0; s < reader.step_count(); ++s) {
      const rmp::io::StepInfo& entry = reader.step_info(s);
      if (entry.offset > data_end || entry.size > data_end - entry.offset) {
        __builtin_trap();
      }
    }
  } catch (...) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  const rmp::io::JournalScan scan = rmp::io::scan_sequence_journal(bytes);

  // The committed prefix must be internally consistent: entries in order,
  // inside the buffer, and jointly bounded by committed_bytes.
  if (scan.committed_bytes > bytes.size()) __builtin_trap();
  if (scan.committed_bytes + scan.torn_bytes != bytes.size()) __builtin_trap();
  std::uint64_t cursor = 0;
  for (const auto& entry : scan.entries) {
    if (entry.offset != cursor) __builtin_trap();
    if (entry.size > bytes.size() - entry.offset) __builtin_trap();
    cursor = entry.offset + entry.size + rmp::io::kSequenceCommitMarkerBytes;
  }
  if (cursor != scan.committed_bytes) __builtin_trap();

  for (const auto& entry : scan.entries) {
    const auto step = bytes.subspan(entry.offset, entry.size);
    try {
      rmp::io::ReadReport report;
      (void)rmp::io::deserialize_salvage(step, &report);
    } catch (const std::exception&) {
      // A CRC-valid step can still carry a hostile envelope (e.g. an
      // implausible shape); a typed throw is an acceptable verdict.
    }
  }
  check_sniff(bytes);
  return 0;
}
