#pragma once

// The one config/content digest of the codebase: 64-bit FNV-1a plus its
// canonical 16-hex-digit rendering. One definition serves every fingerprint
// that must agree across subsystems — the run-journal header guard and frame
// checksums (src/recovery), the conformance campaign digests, the tools'
// config digests, and the serve-layer result-cache keys (src/serve) — so a
// digest computed by one layer can always be recomputed and verified by
// another.
//
// The hash is stable by construction (fixed offset basis and prime, byte
// order independent of platform): digests persisted in journals and cache
// keys stay comparable across runs and machines.

#include <cstdint>
#include <string>
#include <string_view>

namespace sesp::util {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

// FNV-1a over `text`, continuing from `h` — chain calls to fold multiple
// fragments into one digest.
constexpr std::uint64_t fnv1a(std::string_view text,
                              std::uint64_t h = kFnv1aOffsetBasis) noexcept {
  for (const char c : text) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

// Canonical 16-hex-digit (lowercase, zero-padded) rendering used in journal
// headers, frames, manifests and serve tickets.
std::string fnv1a_hex(std::uint64_t h);

// Parses the canonical rendering back; false on anything that is not
// exactly 16 lowercase hex digits (the strictness is deliberate — digests
// embedded in journals and tickets are machine-written).
bool parse_fnv1a_hex(std::string_view hex, std::uint64_t* out) noexcept;

}  // namespace sesp::util
