// Crypto validation: SHA-256 against FIPS/NIST vectors, HMAC-SHA256
// against RFC 4231, ChaCha20 against RFC 8439, plus the keyring,
// authenticator, and sealed-channel behaviour the overlay depends on.
#include <gtest/gtest.h>

#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keyring.hpp"
#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "util/hex.hpp"

namespace spire::crypto {
namespace {

using spire::util::Bytes;
using spire::util::from_hex;
using spire::util::to_hex;

std::string digest_hex(const Digest& d) {
  return to_hex(std::span<const std::uint8_t>(d.data(), d.size()));
}

// ---- SHA-256 (FIPS 180-4 / NIST CAVP vectors) -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(digest_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(digest_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog and "
                          "keeps going for more than one block of input data";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 ctx;
    ctx.update(std::string_view(msg).substr(0, split));
    ctx.update(std::string_view(msg).substr(split));
    EXPECT_EQ(ctx.finish(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, ExactBlockBoundaries) {
  // 55/56/63/64/65 bytes straddle the padding edge cases.
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'x');
    Sha256 ctx;
    ctx.update(msg);
    EXPECT_EQ(ctx.finish(), sha256(msg)) << "len " << len;
  }
}

// ---- HMAC-SHA256 (RFC 4231) --------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = util::to_bytes("Hi There");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = util::to_bytes("Jefe");
  const Bytes data = util::to_bytes("what do ya want for nothing?");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  const Bytes data =
      util::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DigestEqualIsConstantTimeStyle) {
  Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

// ---- ChaCha20 (RFC 8439 §2.3.2 / §2.4.2) --------------------------------------

TEST(ChaCha20, Rfc8439BlockVector) {
  ChaChaKey key{};
  for (std::uint8_t i = 0; i < 32; ++i) key[i] = i;
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = chacha20_block(key, 1, nonce);
  const Bytes expected = from_hex(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  EXPECT_EQ(Bytes(block.begin(), block.end()), expected);
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  ChaChaKey key{};
  for (std::uint8_t i = 0; i < 32; ++i) key[i] = i;
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes ciphertext = util::to_bytes(plaintext);
  chacha20_xor(key, nonce, 1, ciphertext);
  EXPECT_EQ(to_hex(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, XorIsItsOwnInverse) {
  ChaChaKey key{};
  key[0] = 0x42;
  ChaChaNonce nonce{};
  const Bytes msg = util::to_bytes("attack at dawn, breaker B57");
  Bytes ct = msg;
  chacha20_xor(key, nonce, 7, ct);
  EXPECT_NE(ct, msg);
  chacha20_xor(key, nonce, 7, ct);
  EXPECT_EQ(ct, msg);
}

// chacha20_xor runs a scalar block up to 64 bytes and 8-block AVX2
// batches beyond (when the CPU has AVX2). Both must equal the keystream
// of the reference block function, including when the 32-bit block
// counter wraps inside one batch.
TEST(ChaCha20, XorMatchesBlockReferenceAtEveryLength) {
  ChaChaKey key{};
  for (std::uint8_t i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i * 13 + 5);
  const ChaChaNonce nonce = {0, 0, 0, 0, 0, 0, 0, 42, 1, 2, 3, 4};
  for (const std::uint32_t start : {1u, 0xFFFFFFF9u}) {
    Bytes reference;
    for (std::uint32_t b = 0; reference.size() < 1300; ++b) {
      const auto block = chacha20_block(key, start + b, nonce);
      reference.insert(reference.end(), block.begin(), block.end());
    }
    for (std::size_t len = 0; len <= 1300; ++len) {
      Bytes data(len);
      for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::uint8_t>(i * 31 + len);
      const Bytes original = data;
      chacha20_xor(key, nonce, start, data);
      bool match = true;
      for (std::size_t i = 0; i < len; ++i) {
        match = match && (data[i] ^ original[i]) == reference[i];
      }
      ASSERT_TRUE(match) << "length " << len << ", start counter " << start;
    }
  }
}

// ---- keyring / authenticators --------------------------------------------------

TEST(Keyring, DerivationIsDeterministicAndDomainSeparated) {
  Keyring kr("seed");
  EXPECT_EQ(kr.identity_key("prime/0"), Keyring("seed").identity_key("prime/0"));
  EXPECT_NE(kr.identity_key("prime/0"), kr.identity_key("prime/1"));
  EXPECT_NE(kr.identity_key("prime/0"), Keyring("other").identity_key("prime/0"));
  EXPECT_NE(kr.identity_key("x"), kr.derive("x"));
}

TEST(Keyring, LinkKeysAreSymmetric) {
  Keyring kr("seed");
  EXPECT_EQ(kr.link_key("int0", "int1"), kr.link_key("int1", "int0"));
  EXPECT_NE(kr.link_key("int0", "int1"), kr.link_key("int0", "int2"));
}

TEST(SignerVerifier, AcceptsGenuineRejectsForged) {
  Keyring kr("seed");
  Signer alice("alice", kr.identity_key("alice"));
  Verifier verifier;
  verifier.add_identity("alice", kr.identity_key("alice"));
  verifier.add_identity("bob", kr.identity_key("bob"));

  const Bytes msg = util::to_bytes("open breaker B57");
  const Signature sig = alice.sign(msg);
  EXPECT_TRUE(verifier.verify("alice", msg, sig));
  EXPECT_FALSE(verifier.verify("bob", msg, sig));     // wrong claimed identity
  EXPECT_FALSE(verifier.verify("carol", msg, sig));   // unknown identity

  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(verifier.verify("alice", tampered, sig));
}

TEST(SecureChannel, RoundTrip) {
  Keyring kr("seed");
  SecureChannel sender(kr.link_key("a", "b"));
  SecureChannel receiver(kr.link_key("a", "b"));
  const Bytes msg = util::to_bytes("hello spines");
  const auto sealed = sender.seal(msg);
  EXPECT_EQ(sealed.size(), msg.size() + SecureChannel::kOverhead);
  const auto opened = receiver.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(SecureChannel, DetectsTampering) {
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  auto sealed = channel.seal(util::to_bytes("payload"));
  sealed[sealed.size() / 2] ^= 0xFF;
  EXPECT_FALSE(channel.open(sealed).has_value());
}

TEST(SecureChannel, RejectsTruncation) {
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  const auto sealed = channel.seal(util::to_bytes("payload"));
  const std::span<const std::uint8_t> prefix(sealed.data(), 10);
  EXPECT_FALSE(channel.open(prefix).has_value());
}

TEST(SecureChannel, WrongKeyCannotOpen) {
  Keyring kr("seed");
  SecureChannel good(kr.link_key("a", "b"));
  SecureChannel bad(kr.link_key("a", "c"));
  const auto sealed = good.seal(util::to_bytes("payload"));
  EXPECT_FALSE(bad.open(sealed).has_value());
}

TEST(SecureChannel, CiphertextHidesPlaintextAndVaries) {
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  const Bytes msg = util::to_bytes("SECRET-BREAKER-COMMAND");
  const auto sealed1 = channel.seal(msg);
  const auto sealed2 = channel.seal(msg);
  // Different nonces => different ciphertexts for the same plaintext.
  EXPECT_NE(sealed1, sealed2);
  // Plaintext must not appear in the ciphertext.
  const std::string hay(sealed1.begin(), sealed1.end());
  EXPECT_EQ(hay.find("SECRET"), std::string::npos);
}

// Wire bytes of the first three seals on a fresh channel. Simulated
// timing, frame sizes and every digest downstream depend on them, so a
// faster seal must reproduce them exactly.
TEST(SecureChannel, SealBytesArePinned) {
  SecureChannel channel(Keyring("golden").link_key("int0", "int1"));
  const auto plaintext = [](std::size_t size) {
    Bytes p(size);
    for (std::size_t i = 0; i < size; ++i) p[i] = static_cast<std::uint8_t>(i * 7 + 3);
    return p;
  };
  EXPECT_EQ(to_hex(channel.seal(plaintext(0))),
      "0000000000000001385d4eb89ca52af4fd8ff7f090be787ab63d9d2809f73f8d"
      "14c5358f5548ccfa");
  EXPECT_EQ(to_hex(channel.seal(plaintext(214))),
      "0000000000000002f6fe01db84265e3ff41ab52a030e80fdb6ebf18735980790"
      "e6aa6afb2941aa4da0025453a968343f1cea73dabc4a31a9b0ecb5d1513efa53"
      "78ed059eac43533eeb26a37d83ee9f98fe4c9804eda46770adbd17fb59af376a"
      "3c42b337a6d3f19e6baacd46b570f0394e9a173e1e220224fa84c1d26c39f7d4"
      "e42bce3ff05b366446ea6b1fcd52380732bed591b0f2f78d10a718da73ea2b40"
      "79615b755d0c03da92070bd64657310222bcae83f1f4b0e549640e91a70c4c99"
      "1ef21b84e85ae52644eacffa966162a387558f943f82dfee8dd790cfba929e21"
      "6f261e2569bcf00c8f7c6c6bda89b953c21eaf0370fcb71808c5a041f5a2");
  EXPECT_EQ(to_hex(channel.seal(plaintext(1400))),
      "00000000000000034c93c04793f20936ce326df4071fe550877795c48ca5182b"
      "4cd5f9b977e237c52e533bf916596e9f78c2519cee51ddaad2990b9fe4e0f527"
      "980f162420f76edefe1df25485c4ad545da7a60db98b318ad6985e78256b05da"
      "b719fbb1488ad0418bf8360bf4407e0724e5191c925e8ade0b3ad9d3de2ce85f"
      "f8f7f3fbbced662a2b02ae6ac1860f489a74e9242e2ae6e84f903935481309e7"
      "8097dc09ad0018729b40f77bd5725df4fd2f5a121b7fbd1afbec58bf6ad6a03b"
      "0f56b4043cd6b50275a799838527ebe8c060871616aae3d83fca788448bb7f29"
      "1c48a5baf392046ee92acb83c9c887e92a928c2edb25800e7c307b82ceb80e84"
      "3c28c1c5b140b29e1c849daeef5d6681690b835bdd499822d24b680773b42d0d"
      "758c422cfff1a22a0223f8f220a0a5a35da0a363b68ce0bdc9b778bec49859ce"
      "e9af2e6cb329f578729b496a5b11888deeafd012e85236cbe95c06e8ab1ee906"
      "99337720449fec72d14c8d97898d65a0c1cc385c374e2b3f3c252db63943a634"
      "8d9807c0f93c0fc0bc8e737f2e98b48b30672fa122bb0f4336607b8a3f9ac8cd"
      "67c8051e9347a3e99627c94ddc70dd6cecc9f9c753eeffc3c7a1746c6ff931b0"
      "98ee417b8ad713aa90a5048ef38d310592b27447a8b71b5959b1b91876160d9b"
      "6d99a8a4d741afdae1c2372eb02ebada850f7798fef3b35af358a5220838a0ce"
      "0a0adc811acfa9ae2c0fd3fc056030554e95565b0955535af05da7f2e6ce234e"
      "a125e7eb1e069a6d83eb204a36936c9b5a9392d8ed3305049d90f59ab109b216"
      "db67f9045707666d0354f3367cc04d39a5212efc801ba5bda52dfe4332ffa479"
      "cd19578fcd8bf5b1570c73fed60ae89240291dee64f2a5f0d7c21a551b05346e"
      "bbdecd223ca4494964660b91bd3281f0f6f6dc7a5a73e1484c5019b1d926683c"
      "984d636c404e496ee64b481a4ef8c927a228d7af23a0ca8631b6cbc6d4fa4b39"
      "e6d256de82f9839f65dac4156b9912e7e35d84bc7e79318949f58d7fa5e9926e"
      "b0fa12bbd5edca027c2e21385e61b7c1185f386dbf084876de9892c14559b155"
      "0775af81917eaf95868c3311d5ef016189b4fbb1749120101b1885fe3e32105e"
      "41029f46d22d23f28868d88a3f4f6b3981582f1ee9ea8b39c90b5b53eb838426"
      "a63e419b0f5e20706818656d4e271219fcc703e0323d1a3ceee4fab0078d9af2"
      "3580c40093651d568f374b1e869441fe17be1b8577d21da734ce71654393edeb"
      "720815b8ca5171f97475718fb4db7d170dde7db4712d007d3e059fac47701b05"
      "4f58258fb11115f98648c5933147b66dd4a1290f6ba3b9529261a44499178f44"
      "85b19b959bfc4dd7078ebcb3ff15f4739412d65be99cab2a2a7cef54a86fff20"
      "f4cf1d6501ebfb3c808c9b1fd72e099b4f0fe1be65db2f76fcdfcfc700b263bf"
      "ab4a76159d5cb03574f928d168887b7a883b434a9263dd4b1ad8b5f34ba99771"
      "ddb71c2afc608816b426aeded73df45b72d5210dfed50be7c51b33f2f39c2b0d"
      "ec8b3f62c1ab4791e73ce55aa2280c4289dc6910dec4108d2ad85e38f84193d1"
      "164a811195adb20b615616e7be3e260913df5598435ddcc2dcf5b46938c76472"
      "63f4076379a4b466cc15171baac07e7becee00cce979b1a490a959e596b90ad0"
      "4a750f757a3aaa05f52f2fcf734af898548256d9486f4b6e19f908a52c78e481"
      "79bc2c37ee50a602ae4a72ae8d9769373d4206e307d7bdf3f125712ba83c0fb4"
      "d0b2133da4024f1858af0c105ce558b8b37570267050a001abdcbd9164bf797e"
      "5b7436a7deba64a6f0e91eaef50c71d15d62b936cbe81b5680f8a94c207c770f"
      "4b8423d993f10adcee4b0a5b27f0e80c5ae719f2653818203e5575696d206147"
      "c6adf9b1dfafe03ea19d347de8d0845c72829ffcd97a366b17bcc9fb178805d2"
      "5468ffb6e1fa278be3e3745e02b167a019c8c0bdaae9fe70a8ca2caef11e0789"
      "40af951e44752fb879d6e837515913d75ef65e436570491e6f8a8341533be942");
}

TEST(SecureChannel, EmptyPayload) {
  Keyring kr("seed");
  SecureChannel channel(kr.link_key("a", "b"));
  const auto sealed = channel.seal({});
  const auto opened = channel.open(sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Merkle, SingleLeafRootIsLeaf) {
  const Digest leaf = merkle_leaf(util::to_bytes("only"));
  MerkleTree tree({leaf});
  EXPECT_EQ(tree.root(), leaf);
  EXPECT_TRUE(tree.path(0).empty());
  EXPECT_EQ(MerkleTree::fold(leaf, 0, {}), leaf);
}

TEST(Merkle, PathsFoldToRootForEveryLeaf) {
  for (std::size_t n : {2u, 3u, 5u, 8u, 13u}) {
    std::vector<Digest> leaves;
    for (std::size_t i = 0; i < n; ++i) {
      leaves.push_back(merkle_leaf(util::to_bytes("leaf" + std::to_string(i))));
    }
    MerkleTree tree(leaves);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(MerkleTree::fold(leaves[i], i, tree.path(i)), tree.root())
          << "n=" << n << " leaf=" << i;
    }
  }
}

TEST(Merkle, TamperedLeafOrPathChangesRoot) {
  std::vector<Digest> leaves = {merkle_leaf(util::to_bytes("a")),
                                merkle_leaf(util::to_bytes("b")),
                                merkle_leaf(util::to_bytes("c"))};
  MerkleTree tree(leaves);
  const Digest wrong_leaf = merkle_leaf(util::to_bytes("x"));
  EXPECT_NE(MerkleTree::fold(wrong_leaf, 0, tree.path(0)), tree.root());
  auto path = tree.path(1);
  path[0][3] ^= 0x01;
  EXPECT_NE(MerkleTree::fold(leaves[1], 1, path), tree.root());
  // Wrong index changes the left/right fold order, so it cannot
  // reproduce the root either.
  EXPECT_NE(MerkleTree::fold(leaves[1], 0, tree.path(1)), tree.root());
}

TEST(Merkle, DomainSeparationLeafVsNode) {
  // A node preimage reinterpreted as leaf data must not collide: the
  // 0x00/0x01 prefixes keep the two hash domains disjoint.
  const Digest l = merkle_leaf(util::to_bytes("l"));
  const Digest r = merkle_leaf(util::to_bytes("r"));
  const Digest node = merkle_node(l, r);
  std::vector<std::uint8_t> concat(l.begin(), l.end());
  concat.insert(concat.end(), r.begin(), r.end());
  EXPECT_NE(node, merkle_leaf(concat));
  EXPECT_NE(node, sha256(concat));
}

}  // namespace
}  // namespace spire::crypto
