// Crypto layer tests: published test vectors for the standardized
// primitives, structural PRF properties for all of them, and PRG behaviour
// used by the DPF construction.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/u128.h"
#include "src/crypto/aes128.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/highwayhash.h"
#include "src/crypto/prf.h"
#include "src/crypto/prg.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"

namespace gpudpf {
namespace {

u128 FromHex(const std::string& hex) {
    u128 v = 0;
    for (char c : hex) {
        v <<= 4;
        if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
        else v |= static_cast<unsigned>(c - 'a' + 10);
    }
    return v;
}

// --- AES-128 ---------------------------------------------------------------

TEST(Aes128Test, Fips197AppendixC) {
    // FIPS-197 Appendix C.1.
    Aes128 aes(FromHex("000102030405060708090a0b0c0d0e0f"));
    EXPECT_EQ(aes.EncryptBlock(FromHex("00112233445566778899aabbccddeeff")),
              FromHex("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

TEST(Aes128Test, Sp80038aEcbVector) {
    // NIST SP 800-38A, F.1.1 ECB-AES128 block #1.
    Aes128 aes(FromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    EXPECT_EQ(aes.EncryptBlock(FromHex("6bc1bee22e409f96e93d7e117393172a")),
              FromHex("3ad77bb40d7a3660a89ecaf32466ef97"));
}

TEST(Aes128Test, DistinctKeysDistinctCiphertexts) {
    Aes128 a(FromHex("000102030405060708090a0b0c0d0e0f"));
    Aes128 b(FromHex("000102030405060708090a0b0c0d0e10"));
    const u128 pt = FromHex("00112233445566778899aabbccddeeff");
    EXPECT_NE(a.EncryptBlock(pt), b.EncryptBlock(pt));
}

TEST(Aes128Test, MmoDiffersFromRawEncryption) {
    Aes128 aes(FromHex("2b7e151628aed2a6abf7158809cf4f3c"));
    const u128 x = FromHex("00000000000000000000000000000001");
    EXPECT_EQ(aes.Mmo(x), aes.EncryptBlock(x) ^ x);
}

TEST(Aes128Test, EncryptBlocksMatchesEncryptBlock) {
    // The batched entry point (AES-NI pipelined when the host supports it,
    // scalar otherwise) must be bit-identical to the one-block reference
    // for every key and every batch size, including the non-multiple-of-8
    // tails that exercise the pipeline remainder path.
    Rng rng(17);
    for (int trial = 0; trial < 8; ++trial) {
        Aes128 aes(rng.Next128());
        for (size_t n : {size_t{1}, size_t{3}, size_t{8}, size_t{13},
                         size_t{32}, size_t{37}}) {
            std::vector<u128> pts(n);
            for (auto& p : pts) p = rng.Next128();
            std::vector<u128> batched(n);
            aes.EncryptBlocks(pts.data(), batched.data(), n);
            for (size_t i = 0; i < n; ++i) {
                EXPECT_EQ(batched[i], aes.EncryptBlock(pts[i]))
                    << "trial " << trial << " n " << n << " block " << i;
            }
        }
    }
}

TEST(Aes128Test, MmoExpandBatchMatchesScalarMmo) {
    // The two-key MMO batch (the DPF PRG's hot path) against the scalar
    // construction AES_k(x) ^ x, per key, across seeds and batch sizes.
    Rng rng(18);
    for (int trial = 0; trial < 4; ++trial) {
        Aes128 left(rng.Next128());
        Aes128 right(rng.Next128());
        for (size_t n : {size_t{1}, size_t{4}, size_t{7}, size_t{29}}) {
            std::vector<u128> seeds(n);
            for (auto& s : seeds) s = rng.Next128();
            std::vector<u128> lefts(n);
            std::vector<u128> rights(n);
            MmoExpandBatch(left, right, seeds.data(), n, lefts.data(),
                           rights.data());
            for (size_t i = 0; i < n; ++i) {
                EXPECT_EQ(lefts[i], left.Mmo(seeds[i])) << "seed " << i;
                EXPECT_EQ(rights[i], right.Mmo(seeds[i])) << "seed " << i;
            }
        }
    }
}

// --- ChaCha20 ---------------------------------------------------------------

TEST(Chacha20Test, Rfc8439BlockVector) {
    // RFC 8439 section 2.3.2.
    std::uint32_t key[8];
    for (int i = 0; i < 8; ++i) {
        key[i] = static_cast<std::uint32_t>(4 * i) |
                 (static_cast<std::uint32_t>(4 * i + 1) << 8) |
                 (static_cast<std::uint32_t>(4 * i + 2) << 16) |
                 (static_cast<std::uint32_t>(4 * i + 3) << 24);
    }
    const std::uint32_t nonce[3] = {0x09000000u, 0x4a000000u, 0x00000000u};
    std::uint32_t out[16];
    Chacha20Block(key, 1, nonce, out);
    // Expected state words from the RFC.
    const std::uint32_t expected[16] = {
        0xe4e7f110, 0x15593bd1, 0x1fdd0f50, 0xc47120a3,
        0xc7f4d1c7, 0x0368c033, 0x9aaa2204, 0x4e6cd4c3,
        0x466482d2, 0x09aa9f07, 0x05d7c214, 0xa2028bd9,
        0xd19c12b5, 0xb94e16de, 0xe883d0cb, 0x4e3c50a2};
    for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], expected[i]) << "word " << i;
}

TEST(Chacha20Test, CounterChangesOutput) {
    std::uint32_t key[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::uint32_t nonce[3] = {0, 0, 0};
    std::uint32_t a[16];
    std::uint32_t b[16];
    Chacha20Block(key, 0, nonce, a);
    Chacha20Block(key, 1, nonce, b);
    EXPECT_NE(0, std::memcmp(a, b, sizeof(a)));
}

// --- SipHash ---------------------------------------------------------------

TEST(SipHashTest, ReferenceVectors64) {
    // Reference vectors from the SipHash paper (key 0x0f0e...00, message
    // bytes 0,1,2,...).
    const std::uint64_t k0 = 0x0706050403020100ull;
    const std::uint64_t k1 = 0x0f0e0d0c0b0a0908ull;
    const std::uint8_t msg[8] = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(SipHash24(k0, k1, msg, 0), 0x726fdb47dd0e0e31ull);
    EXPECT_EQ(SipHash24(k0, k1, msg, 1), 0x74f839c593dc67fdull);
    EXPECT_EQ(SipHash24(k0, k1, msg, 2), 0x0d6c8009d9a94f5aull);
    EXPECT_EQ(SipHash24(k0, k1, msg, 3), 0x85676696d7fb7e2dull);
    EXPECT_EQ(SipHash24(k0, k1, msg, 8), 0x93f5f5799a932462ull);
}

TEST(SipHashTest, Wide128IsDeterministicAndKeyed) {
    const u128 key1 = MakeU128(1, 2);
    const u128 key2 = MakeU128(1, 3);
    const u128 x = MakeU128(7, 9);
    EXPECT_EQ(SipHashPrf(key1, x), SipHashPrf(key1, x));
    EXPECT_NE(SipHashPrf(key1, x), SipHashPrf(key2, x));
    EXPECT_NE(SipHashPrf(key1, x), SipHashPrf(key1, x + 1));
}

// --- SHA-256 / HMAC ---------------------------------------------------------

std::string DigestHex(const Sha256Digest& d) {
    static const char* kHex = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : d) {
        out.push_back(kHex[b >> 4]);
        out.push_back(kHex[b & 0xf]);
    }
    return out;
}

TEST(Sha256Test, EmptyString) {
    EXPECT_EQ(DigestHex(Sha256(nullptr, 0)),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
    const std::uint8_t msg[] = {'a', 'b', 'c'};
    EXPECT_EQ(DigestHex(Sha256(msg, 3)),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
    // FIPS 180-4 two-block test message.
    const std::string msg =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    EXPECT_EQ(DigestHex(Sha256(
                  reinterpret_cast<const std::uint8_t*>(msg.data()),
                  msg.size())),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
    const std::string msg(300, 'x');
    Sha256Ctx ctx;
    ctx.Update(reinterpret_cast<const std::uint8_t*>(msg.data()), 100);
    ctx.Update(reinterpret_cast<const std::uint8_t*>(msg.data()) + 100, 200);
    EXPECT_EQ(ctx.Finish(),
              Sha256(reinterpret_cast<const std::uint8_t*>(msg.data()),
                     msg.size()));
}

TEST(HmacSha256Test, Rfc4231Case1) {
    std::uint8_t key[20];
    std::memset(key, 0x0b, sizeof(key));
    const std::string data = "Hi There";
    EXPECT_EQ(DigestHex(HmacSha256(
                  key, sizeof(key),
                  reinterpret_cast<const std::uint8_t*>(data.data()),
                  data.size())),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2) {
    const std::string key = "Jefe";
    const std::string data = "what do ya want for nothing?";
    EXPECT_EQ(DigestHex(HmacSha256(
                  reinterpret_cast<const std::uint8_t*>(key.data()), key.size(),
                  reinterpret_cast<const std::uint8_t*>(data.data()),
                  data.size())),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

// --- HighwayHash-style PRF ---------------------------------------------------

TEST(HighwayHashTest, DeterministicAndKeyed) {
    const u128 k1 = MakeU128(0x1111, 0x2222);
    const u128 k2 = MakeU128(0x1111, 0x2223);
    const u128 x = MakeU128(42, 43);
    EXPECT_EQ(HighwayHashPrf(k1, x), HighwayHashPrf(k1, x));
    EXPECT_NE(HighwayHashPrf(k1, x), HighwayHashPrf(k2, x));
    EXPECT_NE(HighwayHashPrf(k1, x), HighwayHashPrf(k1, x + 1));
}

TEST(HighwayHashTest, AvalancheOnSingleBitFlip) {
    const u128 key = MakeU128(0xabcdef, 0x123456);
    Rng rng(11);
    int total_bits = 0;
    int flipped_bits = 0;
    for (int trial = 0; trial < 64; ++trial) {
        const u128 x = rng.Next128();
        const u128 y = x ^ (static_cast<u128>(1) << (trial % 128));
        const u128 diff = HighwayHashPrf(key, x) ^ HighwayHashPrf(key, y);
        for (int b = 0; b < 128; ++b) {
            flipped_bits += static_cast<int>((diff >> b) & 1);
        }
        total_bits += 128;
    }
    const double rate = static_cast<double>(flipped_bits) / total_bits;
    EXPECT_GT(rate, 0.40);
    EXPECT_LT(rate, 0.60);
}

// --- PRF registry -------------------------------------------------------------

TEST(PrfRegistryTest, NamesRoundTrip) {
    for (PrfKind kind : AllPrfKinds()) {
        EXPECT_EQ(ParsePrfKind(PrfKindName(kind)), kind);
    }
}

TEST(PrfRegistryTest, ParseRejectsUnknown) {
    EXPECT_THROW(ParsePrfKind("DES"), std::invalid_argument);
}

TEST(PrfRegistryTest, CostProfilesArePositive) {
    for (PrfKind kind : AllPrfKinds()) {
        const PrfCostProfile& p = GetPrfCostProfile(kind);
        EXPECT_GT(p.v100_expands_per_sec, 0);
        EXPECT_GT(p.xeon_core_expands_per_sec, 0);
    }
}

TEST(PrfRegistryTest, Table5PrfOrderingOnGpu) {
    // Table 5's ranking: SipHash > ChaCha20 > HighwayHash > AES ~ SHA.
    EXPECT_GT(GetPrfCostProfile(PrfKind::kSipHash).v100_expands_per_sec,
              GetPrfCostProfile(PrfKind::kChacha20).v100_expands_per_sec);
    EXPECT_GT(GetPrfCostProfile(PrfKind::kChacha20).v100_expands_per_sec,
              GetPrfCostProfile(PrfKind::kHighwayHash).v100_expands_per_sec);
    EXPECT_GT(GetPrfCostProfile(PrfKind::kHighwayHash).v100_expands_per_sec,
              GetPrfCostProfile(PrfKind::kAes128).v100_expands_per_sec);
}

class PrfEvalTest : public ::testing::TestWithParam<PrfKind> {};

TEST_P(PrfEvalTest, DeterministicKeyedAndInputSensitive) {
    const PrfKind kind = GetParam();
    const u128 key = MakeU128(0x55, 0x66);
    const u128 x = MakeU128(0x77, 0x88);
    EXPECT_EQ(PrfEval(kind, key, x), PrfEval(kind, key, x));
    EXPECT_NE(PrfEval(kind, key, x), PrfEval(kind, key + 1, x));
    EXPECT_NE(PrfEval(kind, key, x), PrfEval(kind, key, x + 1));
}

INSTANTIATE_TEST_SUITE_P(AllPrfs, PrfEvalTest,
                         ::testing::ValuesIn(AllPrfKinds()),
                         [](const auto& info) {
                             std::string n = PrfKindName(info.param);
                             n.erase(std::remove(n.begin(), n.end(), '-'),
                                     n.end());
                             return n;
                         });

// --- PRG ---------------------------------------------------------------------

class PrgTest : public ::testing::TestWithParam<PrfKind> {};

TEST_P(PrgTest, ExpandIsDeterministic) {
    Prg prg(GetParam());
    const u128 seed = MakeU128(123, 456);
    u128 l1, r1, l2, r2;
    prg.Expand(seed, &l1, &r1);
    prg.Expand(seed, &l2, &r2);
    EXPECT_EQ(l1, l2);
    EXPECT_EQ(r1, r2);
}

TEST_P(PrgTest, ChildrenDiffer) {
    Prg prg(GetParam());
    Rng rng(13);
    for (int i = 0; i < 32; ++i) {
        const u128 seed = rng.Next128();
        u128 l, r;
        prg.Expand(seed, &l, &r);
        EXPECT_NE(l, r);
        EXPECT_NE(l, seed);
        EXPECT_NE(r, seed);
    }
}

TEST_P(PrgTest, DistinctSeedsProduceDistinctChildren) {
    Prg prg(GetParam());
    Rng rng(14);
    std::set<u128> seen;
    for (int i = 0; i < 256; ++i) {
        u128 l, r;
        prg.Expand(rng.Next128(), &l, &r);
        seen.insert(l);
        seen.insert(r);
    }
    EXPECT_EQ(seen.size(), 512u);  // no collisions among 512 children
}

TEST_P(PrgTest, ExpandWideDeterministicAndDistinct) {
    Prg prg(GetParam());
    const u128 seed = MakeU128(31337, 42);
    u128 a[8];
    u128 b[8];
    prg.ExpandWide(seed, a, 8);
    prg.ExpandWide(seed, b, 8);
    std::set<u128> distinct;
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(a[i], b[i]);
        distinct.insert(a[i]);
    }
    EXPECT_EQ(distinct.size(), 8u);
}

// Batch sizes around every lane width (8 AVX2, 16 AVX-512) and their
// tails, plus the empty batch.
const std::vector<size_t> kBatchSizes = {0, 1, 7, 8, 9, 15, 16, 17, 33, 1000};

TEST_P(PrgTest, ExpandBatchMatchesScalarExpand) {
    // ExpandBatch is the SIMD-batched kernel entry point; whatever path it
    // takes (AES-NI for kAes128, the widest ChaCha20 lane path, the scalar
    // loop otherwise) it must equal per-seed Expand bit for bit, tails
    // included.
    Prg prg(GetParam());
    Rng rng(19);
    for (size_t n : kBatchSizes) {
        std::vector<u128> seeds(n);
        for (auto& s : seeds) s = rng.Next128();
        std::vector<u128> lefts(n);
        std::vector<u128> rights(n);
        prg.ExpandBatch(seeds.data(), n, lefts.data(), rights.data());
        for (size_t i = 0; i < n; ++i) {
            u128 l, r;
            prg.Expand(seeds[i], &l, &r);
            EXPECT_EQ(lefts[i], l) << "n " << n << " seed " << i;
            EXPECT_EQ(rights[i], r) << "n " << n << " seed " << i;
        }
    }
}

TEST_P(PrgTest, PrimitiveCallCount) {
    Prg prg(GetParam());
    if (GetParam() == PrfKind::kChacha20) {
        EXPECT_EQ(prg.PrimitiveCallsPerExpand(), 1);
    } else {
        EXPECT_EQ(prg.PrimitiveCallsPerExpand(), 2);
    }
}

TEST(PrgKindTest, ConstructorRejectsUnknownKind) {
    // A kind byte outside PrfKind (a corrupt key header) has no expansion;
    // construction fails instead of leaving the children unwritten.
    EXPECT_THROW(Prg(static_cast<PrfKind>(5)), std::invalid_argument);
    EXPECT_THROW(Prg(static_cast<PrfKind>(255)), std::invalid_argument);
    for (PrfKind kind : AllPrfKinds()) {
        EXPECT_TRUE(IsPrfKind(static_cast<int>(kind)));
        EXPECT_NO_THROW(Prg(kind, ChachaLanes::kScalar));
    }
    EXPECT_FALSE(IsPrfKind(-1));
}

// Every ChaCha20 lane width that is compiled in and supported (the vector
// ones are skipped under GPUDPF_FORCE_SCALAR) equals scalar Expand bit for
// bit, through the accessor and through a Prg pinned to it. Every batch
// size 0-40 covers each tail the vector paths finish: the scalar single
// seed, the zero-padded 8- and 16-lane steps, and full steps before them.
TEST(ChachaLanesTest, EveryLaneWidthMatchesScalarExpand) {
    std::vector<size_t> sizes;
    for (size_t n = 0; n <= 40; ++n) sizes.push_back(n);
    sizes.push_back(1000);
    const Prg scalar(PrfKind::kChacha20, ChachaLanes::kScalar);
    EXPECT_NE(GetChachaExpandFn(ChachaLanes::kScalar), nullptr);
    EXPECT_NE(GetChachaExpandFn(WidestChachaLanes()), nullptr);
    for (ChachaLanes lanes : AllChachaLanes()) {
        const ChachaExpandFn fn = GetChachaExpandFn(lanes);
        if (!ChachaLanesSupported(lanes)) {
            EXPECT_EQ(fn, nullptr) << ChachaLanesName(lanes);
            EXPECT_THROW(Prg(PrfKind::kChacha20, lanes), std::invalid_argument);
            continue;
        }
        ASSERT_NE(fn, nullptr) << ChachaLanesName(lanes);
        const Prg pinned(PrfKind::kChacha20, lanes);
        Rng rng(23);
        for (size_t n : sizes) {
            std::vector<u128> seeds(n);
            for (auto& s : seeds) s = rng.Next128();
            std::vector<u128> lefts(n, 0), rights(n, 0);
            std::vector<u128> pinned_lefts(n, 0), pinned_rights(n, 0);
            fn(seeds.data(), n, lefts.data(), rights.data());
            pinned.ExpandBatch(seeds.data(), n, pinned_lefts.data(),
                               pinned_rights.data());
            for (size_t i = 0; i < n; ++i) {
                u128 l, r;
                scalar.Expand(seeds[i], &l, &r);
                ASSERT_EQ(lefts[i], l) << ChachaLanesName(lanes) << " n "
                                       << n << " seed " << i;
                ASSERT_EQ(rights[i], r) << ChachaLanesName(lanes) << " n "
                                        << n << " seed " << i;
            }
            EXPECT_EQ(pinned_lefts, lefts) << ChachaLanesName(lanes);
            EXPECT_EQ(pinned_rights, rights) << ChachaLanesName(lanes);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPrfs, PrgTest, ::testing::ValuesIn(AllPrfKinds()),
                         [](const auto& info) {
                             std::string n = PrfKindName(info.param);
                             n.erase(std::remove(n.begin(), n.end(), '-'),
                                     n.end());
                             return n;
                         });

}  // namespace
}  // namespace gpudpf
