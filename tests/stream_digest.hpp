// Pinned client byte streams: each stream is reduced to its length and
// a 64-bit FNV-1a hash, so a determinism test can compare it against a
// recorded value instead of against a second run of the same code.
#pragma once

#include <cstdint>
#include <ostream>
#include <vector>

namespace hetpapi::testing_support {

struct StreamDigest {
  std::size_t size = 0;
  std::uint64_t fnv1a = 0;

  bool operator==(const StreamDigest&) const = default;
};

inline StreamDigest digest_of(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) hash = (hash ^ byte) * 0x100000001b3ULL;
  return {bytes.size(), hash};
}

inline std::ostream& operator<<(std::ostream& os, const StreamDigest& d) {
  return os << "{" << d.size << " bytes, fnv1a 0x" << std::hex << d.fnv1a
            << std::dec << "}";
}

}  // namespace hetpapi::testing_support
