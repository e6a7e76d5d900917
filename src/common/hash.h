#ifndef PPDP_COMMON_HASH_H_
#define PPDP_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace ppdp {

/// FNV-1a 64-bit offset basis: the digest of no bytes.
inline constexpr uint64_t kFnv1aBasis = 0xCBF29CE484222325ULL;

/// Folds `n` bytes into the running FNV-1a 64-bit digest `h`, so digesting
/// pieces one after another equals digesting their concatenation. The one
/// checksum of the repo: WAL records, IoT envelopes, run-report output
/// digests, fault-point streams and the serve startup digests.
inline uint64_t Fnv1a64(const void* data, size_t n, uint64_t h = kFnv1aBasis) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001B3ULL;  // FNV prime
  }
  return h;
}

}  // namespace ppdp

#endif  // PPDP_COMMON_HASH_H_
