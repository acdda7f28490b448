// Seeded-mutation decoder fuzz shared by the wire-format tests. No corpus
// and no fuzzing engine (libFuzzer needs clang): a fixed LCG drives bit
// flips, overwrites, truncations and insertions of valid seed frames, so a
// run is the same everywhere and the sanitizer build covers it as a ctest.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/hex.h"

namespace erasmus::fuzz {

/// Decodes `in` as a `Msg` and re-serializes it; nullopt when rejected.
template <typename Msg>
std::optional<Bytes> reparse(ByteView in) {
  const auto msg = Msg::deserialize(in);
  if (!msg) return std::nullopt;
  return msg->serialize();
}

using Reparse = std::function<std::optional<Bytes>(ByteView)>;

struct Tally {
  size_t decoded = 0;
  size_t accepted = 0;
};

/// Mutates every seed 2000 times and feeds every mutant to every decoder.
/// Whatever a decoder accepts must re-serialize to exactly its input, so no
/// two byte strings decode to the same message; the first mutant that does
/// not fails the calling test.
inline Tally mutate_and_reparse(const std::vector<Bytes>& seeds,
                                const std::vector<Reparse>& decoders) {
  uint32_t x = 0x5EED;
  const auto next = [&x] {
    x = x * 1664525u + 1013904223u;
    return x >> 8;
  };
  Tally tally;
  for (const Bytes& seed : seeds) {
    for (int trial = 0; trial < 2000; ++trial) {
      Bytes mutant = seed;
      const uint32_t edits = 1 + next() % 3;
      for (uint32_t e = 0; e < edits; ++e) {
        const size_t at = mutant.empty() ? 0 : next() % mutant.size();
        switch (next() % 4) {
          case 0:  // bit flip
            if (!mutant.empty()) mutant[at] ^= 1u << (next() % 8);
            break;
          case 1:  // overwrite
            if (!mutant.empty()) mutant[at] = static_cast<uint8_t>(next());
            break;
          case 2:  // truncation
            mutant.resize(at);
            break;
          default:  // insertion
            mutant.insert(mutant.begin() + static_cast<std::ptrdiff_t>(at),
                          static_cast<uint8_t>(next()));
            break;
        }
      }
      for (const Reparse& decode : decoders) {
        ++tally.decoded;
        const auto again = decode(mutant);
        if (!again) continue;
        ++tally.accepted;
        if (*again != mutant) {
          ADD_FAILURE() << "accepted a non-canonical mutant " << to_hex(mutant)
                        << ", which re-serializes to " << to_hex(*again);
          return tally;
        }
      }
    }
  }
  return tally;
}

}  // namespace erasmus::fuzz
