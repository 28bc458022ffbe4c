// Fnv1a: the 64-bit FNV-1a hash behind every golden trace checksum (the sim,
// fault, spill, serving and disagg goldens). Integers are fed as their eight
// little-endian bytes and strings as their length followed by their bytes,
// so a pinned checksum constant is the same on every little-endian host and
// moves only when the hashed fields, or their order, change.
#pragma once

#include <cstdint>
#include <string_view>

namespace pw {

class Fnv1a {
 public:
  void AddI64(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<unsigned char>(u >> (8 * i));
      h_ *= kPrime;
    }
  }

  // Length-prefixed, so ("ab", "c") and ("a", "bc") hash differently.
  void AddStr(std::string_view s) {
    AddI64(static_cast<std::int64_t>(s.size()));
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= kPrime;
    }
  }

  std::uint64_t value() const { return h_; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  std::uint64_t h_ = kOffset;
};

}  // namespace pw
