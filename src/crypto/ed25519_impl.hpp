// Private interface between the Ed25519 implementation (ed25519.cpp)
// and its tests and micro benchmarks.  Not installed, not part of the
// public crypto API.
#pragma once

#include <cstdint>

namespace bmg::crypto::ed25519::detail {

/// out = 1/x mod p, p = 2^255 - 19, canonical and little-endian; 0 and
/// p map to 0.  x is read as 255 bits (the top bit of in[31] is
/// ignored), so non-canonical values p..2^255 - 1 may be passed.
void fe_invert_bytes(std::uint8_t out[32], const std::uint8_t in[32]);

}  // namespace bmg::crypto::ed25519::detail
