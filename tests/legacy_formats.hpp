// Writers for the container formats the library still reads but no
// longer writes, so tests can produce legacy archives on demand:
//   v2: [magic, 2, method, dims, count, {name, u64 size, bytes}*]
//       [whole-file CRC-32]
//   v4: the v3 layout with a payload-relative offset in every directory
//       entry: [magic, 4, flags, method, dims, count,
//       {name, offset, size, crc}*, (parity size, parity crc)?,
//       header crc][payloads][parity?]
// serialize_v4 reproduces byte for byte what `rmpc compress --seekable`
// wrote while that flag existed (pinned against tests/data in
// test_seek_decode).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "io/checksum.hpp"
#include "io/container.hpp"

namespace rmp::testing {

namespace legacy_detail {

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  const auto* p = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), p, p + sizeof(value));
}

inline void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  put(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

inline void put_magic(std::vector<std::uint8_t>& out, std::uint32_t version) {
  put(out, std::uint32_t{0x50434D52});  // "RMCP"
  put(out, version);
}

}  // namespace legacy_detail

inline std::vector<std::uint8_t> serialize_v2(const io::Container& container) {
  using namespace legacy_detail;
  std::vector<std::uint8_t> out;
  put_magic(out, 2);
  put_string(out, container.method);
  put(out, container.nx);
  put(out, container.ny);
  put(out, container.nz);
  put(out, static_cast<std::uint32_t>(container.sections.size()));
  for (const io::Section& section : container.sections) {
    put_string(out, section.name);
    put(out, static_cast<std::uint64_t>(section.bytes.size()));
    out.insert(out.end(), section.bytes.begin(), section.bytes.end());
  }
  put(out, io::crc32(out));
  return out;
}

inline std::vector<std::uint8_t> serialize_v4(const io::Container& container,
                                              bool with_parity = false) {
  using namespace legacy_detail;
  // Parity: XOR of every payload, each zero-padded to the largest one.
  std::vector<std::uint8_t> parity;
  if (with_parity) {
    for (const io::Section& section : container.sections) {
      parity.resize(std::max(parity.size(), section.bytes.size()), 0);
      for (std::size_t k = 0; k < section.bytes.size(); ++k) {
        parity[k] ^= section.bytes[k];
      }
    }
  }
  std::vector<std::uint8_t> out;
  put_magic(out, 4);
  put(out, std::uint32_t{with_parity ? 1u : 0u});
  put_string(out, container.method);
  put(out, container.nx);
  put(out, container.ny);
  put(out, container.nz);
  put(out, static_cast<std::uint32_t>(container.sections.size()));
  std::uint64_t offset = 0;
  for (const io::Section& section : container.sections) {
    put_string(out, section.name);
    put(out, offset);
    put(out, static_cast<std::uint64_t>(section.bytes.size()));
    put(out, io::crc32(section.bytes));
    offset += section.bytes.size();
  }
  if (with_parity) {
    put(out, static_cast<std::uint64_t>(parity.size()));
    put(out, io::crc32(parity));
  }
  put(out, io::crc32(out));  // header CRC
  for (const io::Section& section : container.sections) {
    out.insert(out.end(), section.bytes.begin(), section.bytes.end());
  }
  out.insert(out.end(), parity.begin(), parity.end());
  return out;
}

}  // namespace rmp::testing
