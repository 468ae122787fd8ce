// ChaCha20 stream cipher (RFC 8439 block function), validated against
// the RFC test vector. Provides the link encryption that Spines runs
// in intrusion-tolerant mode — the encryption that defeated the red
// team's modified-daemon attack in the paper (§IV-B).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace spire::crypto {

using ChaChaKey = std::array<std::uint8_t, 32>;
using ChaChaNonce = std::array<std::uint8_t, 12>;

/// Computes one 64-byte ChaCha20 keystream block (RFC 8439 §2.3). The
/// plain reference implementation that chacha20_xor is tested against.
[[nodiscard]] std::array<std::uint8_t, 64> chacha20_block(
    const ChaChaKey& key, std::uint32_t counter, const ChaChaNonce& nonce);

/// XORs `data` in place with the keystream starting at block `counter`
/// (which wraps modulo 2^32). Encryption and decryption are the same
/// operation. Runs eight blocks at a time with AVX2 when the CPU has it
/// and the message is longer than one block; the output is the same
/// either way.
void chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                  std::uint32_t counter, std::span<std::uint8_t> data);

}  // namespace spire::crypto
