#include "crypto/keyring.hpp"

#include <algorithm>

namespace spire::crypto {

namespace {

SymmetricKey digest_to_key(const Digest& d) {
  SymmetricKey k{};
  std::copy(d.begin(), d.end(), k.begin());
  return k;
}

util::Bytes key_span(std::string_view s) { return util::to_bytes(s); }

/// The 96-bit ChaCha20 nonce of a sealed frame: the wire's big-endian
/// u64 nonce counter followed by four zero bytes.
ChaChaNonce link_nonce(std::span<const std::uint8_t, 8> counter_be) {
  ChaChaNonce nonce{};
  std::copy(counter_be.begin(), counter_be.end(), nonce.begin());
  return nonce;
}

}  // namespace

Keyring::Keyring(std::string_view master_seed) {
  master_ = digest_to_key(sha256(master_seed));
}

SymmetricKey Keyring::derive(std::string_view label) const {
  const util::Bytes label_bytes = key_span(label);
  return digest_to_key(hmac_sha256(master_, label_bytes));
}

SymmetricKey Keyring::identity_key(std::string_view identity) const {
  return derive("identity:" + std::string(identity));
}

SymmetricKey Keyring::link_key(std::string_view endpoint_a,
                               std::string_view endpoint_b) const {
  std::string lo(endpoint_a);
  std::string hi(endpoint_b);
  if (hi < lo) std::swap(lo, hi);
  return derive("link:" + lo + "|" + hi);
}

Signature Signer::sign(std::span<const std::uint8_t> message) const {
  Signature s;
  s.mac = state_.mac(message);
  return s;
}

void Verifier::add_identity(std::string identity, SymmetricKey key) {
  keys_.insert_or_assign(std::move(identity), HmacState(key));
}

bool Verifier::knows(std::string_view identity) const {
  return keys_.find(identity) != keys_.end();
}

bool Verifier::verify(std::string_view identity,
                      std::span<const std::uint8_t> message,
                      const Signature& sig) const {
  const auto it = keys_.find(identity);
  if (it == keys_.end()) return false;
  const Digest expected = it->second.mac(message);
  return digest_equal(expected, sig.mac);
}

SecureChannel::SecureChannel(SymmetricKey key)
    // Domain-separate the encryption and MAC keys from the link key.
    : enc_key_(digest_to_key(hmac_sha256(key, util::to_bytes("enc")))),
      mac_(digest_to_key(hmac_sha256(key, util::to_bytes("mac")))) {}

util::Bytes SecureChannel::seal(std::span<const std::uint8_t> plaintext) {
  util::ByteWriter w(plaintext.size() + kOverhead);
  w.u64(next_nonce_++);
  w.raw(plaintext);
  util::Bytes out = w.take();
  const auto body = std::span<std::uint8_t>(out);
  chacha20_xor(enc_key_, link_nonce(body.first<8>()), 1, body.subspan(8));
  const Digest tag = mac_.mac(out);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::optional<util::Bytes> SecureChannel::open(
    std::span<const std::uint8_t> sealed) const {
  if (sealed.size() < kOverhead) return std::nullopt;
  const auto body = sealed.first(sealed.size() - 32);
  const auto tag = sealed.last<32>();
  Digest provided{};
  std::copy(tag.begin(), tag.end(), provided.begin());
  if (!digest_equal(mac_.mac(body), provided)) return std::nullopt;

  util::Bytes plain(body.begin() + 8, body.end());
  chacha20_xor(enc_key_, link_nonce(body.first<8>()), 1, plain);
  return plain;
}

}  // namespace spire::crypto
