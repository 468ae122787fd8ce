#include "crypto/chacha20.hpp"

#include <algorithm>
#include <bit>

#if defined(__x86_64__) && defined(__GNUC__)
#define SPIRE_CHACHA20_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace spire::crypto {

namespace {

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

std::uint32_t load32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store32_le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// The 16 input words of RFC 8439 §2.3 with the block counter (word 12)
/// left at zero; built once per message and shared by every block.
using ChaChaState = std::array<std::uint32_t, 16>;

ChaChaState initial_state(const ChaChaKey& key, const ChaChaNonce& nonce) {
  ChaChaState s{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (std::size_t i = 0; i < 8; ++i) s[4 + i] = load32_le(key.data() + 4 * i);
  for (std::size_t i = 0; i < 3; ++i) s[13 + i] = load32_le(nonce.data() + 4 * i);
  return s;
}

#define SPIRE_CHACHA_QR(a, b, c, d)            \
  a += b; d = std::rotl(d ^ a, 16);            \
  c += d; b = std::rotl(b ^ c, 12);            \
  a += b; d = std::rotl(d ^ a, 8);             \
  c += d; b = std::rotl(b ^ c, 7)

/// XORs up to one 64-byte block (`n` <= 64) with keystream block
/// `counter`, keeping the working state in registers.
void xor_block_scalar(const ChaChaState& s, std::uint32_t counter,
                      std::uint8_t* data, std::size_t n) {
  std::uint32_t x0 = s[0], x1 = s[1], x2 = s[2], x3 = s[3];
  std::uint32_t x4 = s[4], x5 = s[5], x6 = s[6], x7 = s[7];
  std::uint32_t x8 = s[8], x9 = s[9], x10 = s[10], x11 = s[11];
  std::uint32_t x12 = counter, x13 = s[13], x14 = s[14], x15 = s[15];
  for (int round = 0; round < 10; ++round) {
    SPIRE_CHACHA_QR(x0, x4, x8, x12);
    SPIRE_CHACHA_QR(x1, x5, x9, x13);
    SPIRE_CHACHA_QR(x2, x6, x10, x14);
    SPIRE_CHACHA_QR(x3, x7, x11, x15);
    SPIRE_CHACHA_QR(x0, x5, x10, x15);
    SPIRE_CHACHA_QR(x1, x6, x11, x12);
    SPIRE_CHACHA_QR(x2, x7, x8, x13);
    SPIRE_CHACHA_QR(x3, x4, x9, x14);
  }
  std::uint8_t ks[64];
  store32_le(ks + 0, x0 + s[0]);
  store32_le(ks + 4, x1 + s[1]);
  store32_le(ks + 8, x2 + s[2]);
  store32_le(ks + 12, x3 + s[3]);
  store32_le(ks + 16, x4 + s[4]);
  store32_le(ks + 20, x5 + s[5]);
  store32_le(ks + 24, x6 + s[6]);
  store32_le(ks + 28, x7 + s[7]);
  store32_le(ks + 32, x8 + s[8]);
  store32_le(ks + 36, x9 + s[9]);
  store32_le(ks + 40, x10 + s[10]);
  store32_le(ks + 44, x11 + s[11]);
  store32_le(ks + 48, x12 + counter);
  store32_le(ks + 52, x13 + s[13]);
  store32_le(ks + 56, x14 + s[14]);
  store32_le(ks + 60, x15 + s[15]);
  for (std::size_t i = 0; i < n; ++i) data[i] ^= ks[i];
}

#ifdef SPIRE_CHACHA20_X86_DISPATCH

// The quarter round on eight blocks: rotations by 16 and 8 are byte
// shuffles, by 12 and 7 shift pairs.
#define SPIRE_CHACHA_ROTL8(v, n) \
  _mm256_or_si256(_mm256_slli_epi32(v, n), _mm256_srli_epi32(v, 32 - (n)))
#define SPIRE_CHACHA_QR8(a, b, c, d)                                       \
  x[a] = _mm256_add_epi32(x[a], x[b]);                                     \
  x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot16);         \
  x[c] = _mm256_add_epi32(x[c], x[d]);                                     \
  x[b] = SPIRE_CHACHA_ROTL8(_mm256_xor_si256(x[b], x[c]), 12);             \
  x[a] = _mm256_add_epi32(x[a], x[b]);                                     \
  x[d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[d], x[a]), rot8);          \
  x[c] = _mm256_add_epi32(x[c], x[d]);                                     \
  x[b] = SPIRE_CHACHA_ROTL8(_mm256_xor_si256(x[b], x[c]), 7)

/// Eight keystream blocks at once: lane j of vector i holds state word
/// i of block `counter + j` (the 32-bit counter wraps as in the scalar
/// path). XORs the first `n` (<= 512) bytes of `data`. Compiled for
/// AVX2 but only called after a runtime CPUID check, like the SHA-NI
/// compression in sha256.cpp.
__attribute__((target("avx2"))) void xor_blocks_avx2(
    const ChaChaState& s, std::uint32_t counter, std::uint8_t* data,
    std::size_t n) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);

  __m256i in[16];
  for (std::size_t i = 0; i < 16; ++i) {
    in[i] = _mm256_set1_epi32(static_cast<int>(s[i]));
  }
  in[12] = _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(counter)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256i x[16];
  for (std::size_t i = 0; i < 16; ++i) x[i] = in[i];

  for (int round = 0; round < 10; ++round) {
    SPIRE_CHACHA_QR8(0, 4, 8, 12);
    SPIRE_CHACHA_QR8(1, 5, 9, 13);
    SPIRE_CHACHA_QR8(2, 6, 10, 14);
    SPIRE_CHACHA_QR8(3, 7, 11, 15);
    SPIRE_CHACHA_QR8(0, 5, 10, 15);
    SPIRE_CHACHA_QR8(1, 6, 11, 12);
    SPIRE_CHACHA_QR8(2, 7, 8, 13);
    SPIRE_CHACHA_QR8(3, 4, 9, 14);
  }
  for (std::size_t i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], in[i]);

  // Transpose each 8x8 half (words 0..7, then 8..15) so that ks[h][j]
  // holds keystream bytes 32h..32h+31 of block j.
  __m256i ks[2][8];
  for (std::size_t h = 0; h < 2; ++h) {
    const __m256i* w = x + 8 * h;
    const __m256i t0 = _mm256_unpacklo_epi32(w[0], w[1]);
    const __m256i t1 = _mm256_unpackhi_epi32(w[0], w[1]);
    const __m256i t2 = _mm256_unpacklo_epi32(w[2], w[3]);
    const __m256i t3 = _mm256_unpackhi_epi32(w[2], w[3]);
    const __m256i t4 = _mm256_unpacklo_epi32(w[4], w[5]);
    const __m256i t5 = _mm256_unpackhi_epi32(w[4], w[5]);
    const __m256i t6 = _mm256_unpacklo_epi32(w[6], w[7]);
    const __m256i t7 = _mm256_unpackhi_epi32(w[6], w[7]);
    const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
    const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
    const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
    const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
    const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
    const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
    const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
    const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
    ks[h][0] = _mm256_permute2x128_si256(u0, u4, 0x20);
    ks[h][1] = _mm256_permute2x128_si256(u1, u5, 0x20);
    ks[h][2] = _mm256_permute2x128_si256(u2, u6, 0x20);
    ks[h][3] = _mm256_permute2x128_si256(u3, u7, 0x20);
    ks[h][4] = _mm256_permute2x128_si256(u0, u4, 0x31);
    ks[h][5] = _mm256_permute2x128_si256(u1, u5, 0x31);
    ks[h][6] = _mm256_permute2x128_si256(u2, u6, 0x31);
    ks[h][7] = _mm256_permute2x128_si256(u3, u7, 0x31);
  }

  // Each 32-byte chunk c covers block c / 2, half c % 2.
  for (std::size_t c = 0; c < 16; ++c) {
    const std::size_t off = 32 * c;
    if (off >= n) break;
    const __m256i key = ks[c % 2][c / 2];
    auto* p = reinterpret_cast<__m256i*>(data + off);
    if (n - off >= 32) {
      _mm256_storeu_si256(p, _mm256_xor_si256(_mm256_loadu_si256(p), key));
    } else {
      alignas(32) std::uint8_t tail[32];
      _mm256_store_si256(reinterpret_cast<__m256i*>(tail), key);
      for (std::size_t i = 0; i < n - off; ++i) data[off + i] ^= tail[i];
    }
  }
}

#undef SPIRE_CHACHA_QR8
#undef SPIRE_CHACHA_ROTL8

const bool kHasAvx2 = __builtin_cpu_supports("avx2");

#endif  // SPIRE_CHACHA20_X86_DISPATCH

#undef SPIRE_CHACHA_QR

}  // namespace

std::array<std::uint8_t, 64> chacha20_block(const ChaChaKey& key,
                                            std::uint32_t counter,
                                            const ChaChaNonce& nonce) {
  std::array<std::uint32_t, 16> state = {
      0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,
      load32_le(key.data() + 0),  load32_le(key.data() + 4),
      load32_le(key.data() + 8),  load32_le(key.data() + 12),
      load32_le(key.data() + 16), load32_le(key.data() + 20),
      load32_le(key.data() + 24), load32_le(key.data() + 28),
      counter,
      load32_le(nonce.data() + 0), load32_le(nonce.data() + 4),
      load32_le(nonce.data() + 8)};

  std::array<std::uint32_t, 16> working = state;
  for (int round = 0; round < 10; ++round) {
    quarter_round(working[0], working[4], working[8], working[12]);
    quarter_round(working[1], working[5], working[9], working[13]);
    quarter_round(working[2], working[6], working[10], working[14]);
    quarter_round(working[3], working[7], working[11], working[15]);
    quarter_round(working[0], working[5], working[10], working[15]);
    quarter_round(working[1], working[6], working[11], working[12]);
    quarter_round(working[2], working[7], working[8], working[13]);
    quarter_round(working[3], working[4], working[9], working[14]);
  }

  std::array<std::uint8_t, 64> out{};
  for (std::size_t i = 0; i < 16; ++i) {
    store32_le(out.data() + 4 * i, working[i] + state[i]);
  }
  return out;
}

void chacha20_xor(const ChaChaKey& key, const ChaChaNonce& nonce,
                  std::uint32_t counter, std::span<std::uint8_t> data) {
  const ChaChaState s = initial_state(key, nonce);
  std::uint8_t* p = data.data();
  std::size_t left = data.size();
#ifdef SPIRE_CHACHA20_X86_DISPATCH
  // From two blocks on, one 8-block batch costs less than the scalar
  // blocks it replaces even when most of it goes unused (on a 2.0 GHz
  // Xeon: ~370 ns per batch against ~230 ns per scalar block).
  while (kHasAvx2 && left > 64) {
    const std::size_t n = std::min<std::size_t>(left, 512);
    xor_blocks_avx2(s, counter, p, n);
    counter += 8;
    p += n;
    left -= n;
  }
#endif
  while (left > 0) {
    const std::size_t n = std::min<std::size_t>(left, 64);
    xor_block_scalar(s, counter++, p, n);
    p += n;
    left -= n;
  }
}

}  // namespace spire::crypto
