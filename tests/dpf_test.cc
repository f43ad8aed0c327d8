// DPF correctness and property tests (paper Section 3.1).
//
// Core invariants: for additive keys Eval(k0, x) + Eval(k1, x) ==
// (x == alpha ? beta : 0) in Z_2^128, and for XOR keys Eval(k0, x) XOR
// Eval(k1, x) == (x == alpha), for every x, every alpha, every supported
// PRF, every depth, and (additive) wide outputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <tuple>

#include "src/batchpir/pbr.h"
#include "src/batchpir/pbr_session.h"
#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/dpf/dpf.h"

namespace gpudpf {
namespace {

TEST(DpfKeyTest, SerializedSizeMatchesFormula) {
    Rng rng(1);
    for (int n : {1, 4, 7, 8, 10, 11, 16, 20}) {
        // header 5 + seed 16 + levels*(16+1) + 16 final; an XOR key's tree
        // stops 7 levels early.
        const std::size_t xor_levels = n > 7 ? n - 7 : 0;
        for (const auto& [share, levels] :
             {std::pair{ShareKind::kAdditive, std::size_t(n)},
              std::pair{ShareKind::kXor, xor_levels}}) {
            const DpfParams params{n, PrfKind::kChacha20, 1, share};
            const Dpf dpf(params);
            auto [k0, k1] = dpf.GenIndicator(0, rng);
            EXPECT_EQ(k0.cw.size(), levels);
            EXPECT_EQ(k0.SerializedSize(), 5u + 16u + levels * 17u + 16u);
            EXPECT_EQ(DpfKey::SerializedSizeFor(params), k0.SerializedSize());
            EXPECT_EQ(k0.Serialize().size(), k0.SerializedSize());
            EXPECT_EQ(k1.Serialize().size(), k0.SerializedSize());
        }
    }
}

TEST(DpfKeyTest, SerializationRoundTrip) {
    for (ShareKind share : {ShareKind::kAdditive, ShareKind::kXor}) {
        Rng rng(2);
        const Dpf dpf(DpfParams{12, PrfKind::kAes128, 1, share});
        auto [k0, k1] = dpf.GenIndicator(1234, rng);
        const auto bytes = k0.Serialize();
        const DpfKey back = DpfKey::Deserialize(bytes.data(), bytes.size());
        EXPECT_EQ(back.party, k0.party);
        EXPECT_EQ(back.root_seed, k0.root_seed);
        EXPECT_EQ(back.params.log_domain, k0.params.log_domain);
        EXPECT_EQ(back.params.prf, k0.params.prf);
        EXPECT_EQ(back.params.share, share);
        ASSERT_EQ(back.cw.size(), k0.cw.size());
        for (std::size_t i = 0; i < back.cw.size(); ++i) {
            EXPECT_EQ(back.cw[i].seed, k0.cw[i].seed);
            EXPECT_EQ(back.cw[i].t_left, k0.cw[i].t_left);
            EXPECT_EQ(back.cw[i].t_right, k0.cw[i].t_right);
        }
        ASSERT_EQ(back.final_cw.size(), k0.final_cw.size());
        EXPECT_EQ(back.final_cw[0], k0.final_cw[0]);

        // The deserialized key evaluates identically.
        u128 a, b;
        dpf.EvalPoint(k0, 1234, &a);
        dpf.EvalPoint(back, 1234, &b);
        EXPECT_EQ(a, b);
    }
}

TEST(DpfKeyTest, DeserializeRejectsGarbage) {
    std::vector<std::uint8_t> tiny(3, 0);
    EXPECT_THROW(DpfKey::Deserialize(tiny.data(), tiny.size()),
                 std::invalid_argument);
    std::vector<std::uint8_t> wrong(100, 0);
    wrong[1] = 12;  // log_domain = 12 requires a specific length
    EXPECT_THROW(DpfKey::Deserialize(wrong.data(), wrong.size()),
                 std::invalid_argument);

    // A well-formed key with one corrupt header byte: a party other than
    // 0/1, a PRF byte outside PrfKind (which would otherwise reach
    // Prg::Expand with no case for it), or a share-kind byte outside
    // ShareKind.
    Rng rng(3);
    const Dpf dpf(DpfParams{6, PrfKind::kChacha20, 1, ShareKind::kXor});
    const auto good = dpf.GenIndicator(9, rng).second.Serialize();
    EXPECT_NO_THROW(DpfKey::Deserialize(good.data(), good.size()));
    for (std::uint8_t party : {2, 3, 255}) {
        auto bad = good;
        bad[0] = party;
        EXPECT_THROW(DpfKey::Deserialize(bad.data(), bad.size()),
                     std::invalid_argument)
            << "party " << int{party};
    }
    for (std::uint8_t prf : {5, 6, 127, 255}) {
        auto bad = good;
        bad[2] = prf;
        EXPECT_THROW(DpfKey::Deserialize(bad.data(), bad.size()),
                     std::invalid_argument)
            << "prf " << int{prf};
    }
    for (std::uint8_t share : {2, 3, 127, 255}) {
        auto bad = good;
        bad[4] = share;
        EXPECT_THROW(DpfKey::Deserialize(bad.data(), bad.size()),
                     std::invalid_argument)
            << "share kind " << int{share};
    }
    for (PrfKind kind : AllPrfKinds()) {
        auto ok = good;
        ok[2] = static_cast<std::uint8_t>(kind);
        EXPECT_EQ(DpfKey::Deserialize(ok.data(), ok.size()).params.prf, kind);
    }
}

// --- Level-synchronous key generation ----------------------------------------

TEST(DpfGenBatchTest, ByteIdenticalToPerKeyGen) {
    // One GenBatch over n points equals n successive Gen calls from the
    // same Rng seed: every key byte, and the Rng's next draw afterwards.
    for (const auto& [prf, share] :
         {std::pair{PrfKind::kChacha20, ShareKind::kAdditive},
          std::pair{PrfKind::kAes128, ShareKind::kAdditive},
          std::pair{PrfKind::kChacha20, ShareKind::kXor},
          std::pair{PrfKind::kAes128, ShareKind::kXor}}) {
        for (int log_domain : {1, 6, 11, 20}) {
            for (std::size_t n : {0u, 1u, 17u, 84u}) {
                const Dpf dpf(DpfParams{log_domain, prf, 1, share});
                Rng alpha_rng(500 + n);
                std::vector<std::uint64_t> alphas(n);
                for (auto& a : alphas) {
                    a = alpha_rng.Next64() % dpf.domain_size();
                }
                Rng batch_rng(77);
                Rng single_rng(77);
                const auto batch = dpf.GenIndicatorBatch(alphas, batch_rng);
                ASSERT_EQ(batch.size(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    const auto single =
                        dpf.GenIndicator(alphas[i], single_rng);
                    ASSERT_EQ(batch[i].first.Serialize(),
                              single.first.Serialize())
                        << PrfKindName(prf) << " n=" << log_domain
                        << " key " << i << " of " << n;
                    ASSERT_EQ(batch[i].second.Serialize(),
                              single.second.Serialize())
                        << PrfKindName(prf) << " n=" << log_domain
                        << " key " << i << " of " << n;
                }
                EXPECT_EQ(batch_rng.Next128(), single_rng.Next128())
                    << PrfKindName(prf) << " n=" << log_domain << " of " << n;
            }
        }
    }
}

TEST(DpfGenBatchTest, WideBetaSharesSumToBetaAtEveryAlpha) {
    const Dpf dpf(DpfParams{7, PrfKind::kChacha20, 3});
    const std::vector<u128> beta = {MakeU128(1, 2), 0, ~static_cast<u128>(0)};
    const std::vector<std::uint64_t> alphas = {0, 127, 64, 64, 5};
    Rng rng(8);
    const auto keys = dpf.GenBatch(alphas, beta, rng);
    ASSERT_EQ(keys.size(), alphas.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        for (std::uint64_t x : {alphas[i], (alphas[i] + 1) % 128}) {
            u128 a[3];
            u128 b[3];
            dpf.EvalPoint(keys[i].first, x, a);
            dpf.EvalPoint(keys[i].second, x, b);
            for (int w = 0; w < 3; ++w) {
                EXPECT_EQ(a[w] + b[w], x == alphas[i] ? beta[w] : 0)
                    << "key " << i << " x " << x << " word " << w;
            }
        }
    }
}

TEST(DpfGenBatchTest, RejectsBadAlphaBeforeDrawingSeeds) {
    const Dpf dpf(DpfParams{4, PrfKind::kChacha20, 1});
    Rng rng(9);
    Rng untouched(9);
    EXPECT_THROW(dpf.GenIndicatorBatch({1, 2, 16}, rng), std::invalid_argument);
    EXPECT_THROW(dpf.GenBatch({1}, {1, 2}, rng), std::invalid_argument);
    EXPECT_EQ(rng.Next128(), untouched.Next128());
}

TEST(DpfGenBatchTest, XorKeysShareOneBit) {
    const Dpf dpf(DpfParams{9, PrfKind::kChacha20, 1, ShareKind::kXor});
    Rng rng(9);
    EXPECT_THROW(dpf.Gen(3, {2}, rng), std::invalid_argument);
    EXPECT_NO_THROW(dpf.Gen(3, {1}, rng));
}

TEST(DpfTest, RejectsBadParams) {
    EXPECT_THROW(Dpf(DpfParams{0, PrfKind::kAes128, 1}),
                 std::invalid_argument);
    EXPECT_THROW(Dpf(DpfParams{41, PrfKind::kAes128, 1}),
                 std::invalid_argument);
    EXPECT_THROW(Dpf(DpfParams{8, PrfKind::kAes128, 0}),
                 std::invalid_argument);
    EXPECT_THROW(Dpf(DpfParams{8, PrfKind::kAes128, 2, ShareKind::kXor}),
                 std::invalid_argument);
}

TEST(DpfTest, GenRejectsAlphaOutsideDomain) {
    Rng rng(3);
    const Dpf dpf(DpfParams{4, PrfKind::kChacha20, 1});
    EXPECT_THROW(dpf.GenIndicator(16, rng), std::invalid_argument);
}

TEST(DpfTest, KeySizeIsLogarithmic) {
    Rng rng(4);
    const Dpf small(DpfParams{10, PrfKind::kChacha20, 1});
    const Dpf large(DpfParams{30, PrfKind::kChacha20, 1});
    auto [s0, s1] = small.GenIndicator(1, rng);
    auto [l0, l1] = large.GenIndicator(1, rng);
    // 2^30 domain key is only 3x the 2^10 key, not 2^20 x.
    EXPECT_LT(l0.SerializedSize(), 4 * s0.SerializedSize());
}

// Exhaustive correctness across small depths and all PRFs.
class DpfCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, PrfKind>> {};

TEST_P(DpfCorrectnessTest, SharesSumToIndicatorEverywhere) {
    const auto [n, prf] = GetParam();
    Rng rng(42 + n);
    const Dpf dpf(DpfParams{n, prf, 1});
    const std::uint64_t L = dpf.domain_size();
    // Test alphas at the boundaries and a random interior point.
    std::set<std::uint64_t> alphas{0, L - 1, L / 2};
    alphas.insert(rng.UniformInt(L));
    for (std::uint64_t alpha : alphas) {
        auto [k0, k1] = dpf.GenIndicator(alpha, rng);
        for (std::uint64_t x = 0; x < L; ++x) {
            u128 a, b;
            dpf.EvalPoint(k0, x, &a);
            dpf.EvalPoint(k1, x, &b);
            const u128 sum = a + b;
            if (x == alpha) {
                EXPECT_EQ(sum, static_cast<u128>(1))
                    << "alpha=" << alpha << " x=" << x;
            } else {
                EXPECT_EQ(sum, static_cast<u128>(0))
                    << "alpha=" << alpha << " x=" << x;
            }
        }
    }
}

TEST_P(DpfCorrectnessTest, FullDomainMatchesPointEval) {
    const auto [n, prf] = GetParam();
    Rng rng(7 + n);
    const Dpf dpf(DpfParams{n, prf, 1});
    const std::uint64_t L = dpf.domain_size();
    auto [k0, k1] = dpf.GenIndicator(rng.UniformInt(L), rng);
    std::vector<u128> full;
    dpf.EvalFullDomain(k0, &full);
    ASSERT_EQ(full.size(), L);
    for (std::uint64_t x = 0; x < L; ++x) {
        u128 point;
        dpf.EvalPoint(k0, x, &point);
        EXPECT_EQ(full[x], point) << "x=" << x;
    }
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndPrfs, DpfCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::ValuesIn(AllPrfKinds())),
    [](const auto& info) {
        std::string n = PrfKindName(std::get<1>(info.param));
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return "n" + std::to_string(std::get<0>(info.param)) + "_" + n;
    });

TEST(DpfTest, LargeDomainSpotChecks) {
    Rng rng(9);
    const Dpf dpf(DpfParams{26, PrfKind::kChacha20, 1});
    const std::uint64_t alpha = 48'517'133;
    auto [k0, k1] = dpf.GenIndicator(alpha, rng);
    u128 a, b;
    dpf.EvalPoint(k0, alpha, &a);
    dpf.EvalPoint(k1, alpha, &b);
    EXPECT_EQ(a + b, static_cast<u128>(1));
    for (std::uint64_t x : {std::uint64_t{0}, alpha - 1, alpha + 1,
                            dpf.domain_size() - 1, std::uint64_t{31337}}) {
        dpf.EvalPoint(k0, x, &a);
        dpf.EvalPoint(k1, x, &b);
        EXPECT_EQ(a + b, static_cast<u128>(0)) << "x=" << x;
    }
}

TEST(DpfTest, ArbitraryBetaValues) {
    Rng rng(10);
    const Dpf dpf(DpfParams{6, PrfKind::kAes128, 1});
    const u128 beta = MakeU128(0xdeadbeefcafef00dull, 0x0123456789abcdefull);
    auto [k0, k1] = dpf.Gen(17, {beta}, rng);
    for (std::uint64_t x = 0; x < 64; ++x) {
        u128 a, b;
        dpf.EvalPoint(k0, x, &a);
        dpf.EvalPoint(k1, x, &b);
        EXPECT_EQ(a + b, x == 17 ? beta : static_cast<u128>(0));
    }
}

TEST(DpfTest, WideOutputShares) {
    Rng rng(11);
    const Dpf dpf(DpfParams{5, PrfKind::kChacha20, 4});
    std::vector<u128> beta{1, MakeU128(2, 3), 0, MakeU128(0xff, 0xee)};
    auto [k0, k1] = dpf.Gen(9, beta, rng);
    std::vector<u128> a(4), b(4);
    for (std::uint64_t x = 0; x < 32; ++x) {
        dpf.EvalPoint(k0, x, a.data());
        dpf.EvalPoint(k1, x, b.data());
        for (int w = 0; w < 4; ++w) {
            EXPECT_EQ(a[w] + b[w], x == 9 ? beta[w] : static_cast<u128>(0))
                << "x=" << x << " w=" << w;
        }
    }
}

TEST(DpfTest, WideOutputFullDomain) {
    Rng rng(12);
    const Dpf dpf(DpfParams{4, PrfKind::kSipHash, 3});
    std::vector<u128> beta{7, 8, 9};
    auto [k0, k1] = dpf.Gen(3, beta, rng);
    std::vector<u128> f0, f1;
    dpf.EvalFullDomain(k0, &f0);
    dpf.EvalFullDomain(k1, &f1);
    ASSERT_EQ(f0.size(), 16u * 3);
    for (std::uint64_t x = 0; x < 16; ++x) {
        for (int w = 0; w < 3; ++w) {
            EXPECT_EQ(f0[x * 3 + w] + f1[x * 3 + w],
                      x == 3 ? beta[w] : static_cast<u128>(0));
        }
    }
}

// Security sanity: a single key's shares should look pseudorandom — in
// particular, the share at alpha should not be distinguishable as 0/1, and
// two keys for different alphas should be unrelated.
TEST(DpfSecuritySanityTest, SingleKeySharesAreNotDegenerate) {
    Rng rng(13);
    const Dpf dpf(DpfParams{8, PrfKind::kChacha20, 1});
    auto [k0, k1] = dpf.GenIndicator(100, rng);
    std::vector<u128> shares;
    dpf.EvalFullDomain(k0, &shares);
    int zeros = 0;
    int ones = 0;
    for (const u128 v : shares) {
        zeros += (v == 0);
        ones += (v == 1);
    }
    // Pseudorandom 128-bit values essentially never hit 0/1.
    EXPECT_EQ(zeros, 0);
    EXPECT_EQ(ones, 0);
}

TEST(DpfSecuritySanityTest, ShareBitsAreBalanced) {
    Rng rng(14);
    const Dpf dpf(DpfParams{10, PrfKind::kAes128, 1});
    auto [k0, k1] = dpf.GenIndicator(512, rng);
    std::vector<u128> shares;
    dpf.EvalFullDomain(k0, &shares);
    std::uint64_t set_bits = 0;
    for (const u128 v : shares) {
        for (int b = 0; b < 128; ++b) set_bits += (v >> b) & 1;
    }
    const double frac =
        static_cast<double>(set_bits) / (128.0 * shares.size());
    EXPECT_GT(frac, 0.49);
    EXPECT_LT(frac, 0.51);
}

TEST(DpfSecuritySanityTest, FreshKeysDiffer) {
    Rng rng(15);
    const Dpf dpf(DpfParams{8, PrfKind::kChacha20, 1});
    auto [a0, a1] = dpf.GenIndicator(5, rng);
    auto [b0, b1] = dpf.GenIndicator(5, rng);
    EXPECT_NE(a0.root_seed, b0.root_seed);
    // Same alpha, fresh randomness => different correction words.
    EXPECT_NE(a0.cw[0].seed, b0.cw[0].seed);
}

// Node-level primitives used by the parallel kernels.
TEST(DpfNodePrimitivesTest, ManualDescentMatchesEvalPoint) {
    Rng rng(16);
    const Dpf dpf(DpfParams{7, PrfKind::kHighwayHash, 1});
    auto [k0, k1] = dpf.GenIndicator(77, rng);
    for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{77},
                            std::uint64_t{127}}) {
        Dpf::Node node = dpf.Root(k0);
        for (int level = 0; level < 7; ++level) {
            Dpf::Node l, r;
            dpf.ExpandNode(k0, node, level, &l, &r);
            node = ((x >> (6 - level)) & 1) ? r : l;
        }
        u128 manual, direct;
        dpf.Finalize(k0, node, &manual);
        dpf.EvalPoint(k0, x, &direct);
        EXPECT_EQ(manual, direct) << "x=" << x;
    }
}

TEST(DpfNodePrimitivesTest, RootEncodesParty) {
    Rng rng(17);
    const Dpf dpf(DpfParams{4, PrfKind::kAes128, 1});
    auto [k0, k1] = dpf.GenIndicator(3, rng);
    EXPECT_FALSE(dpf.Root(k0).t);
    EXPECT_TRUE(dpf.Root(k1).t);
}

// --- Early-terminated XOR-share keys ----------------------------------------

// Exhaustive XOR correctness: depths below, at and above the 7 levels an
// XOR key's tree drops (n <= 7 is a 0-level tree: the root converts to
// the only block), every PRF.
class DpfXorCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<int, PrfKind>> {};

TEST_P(DpfXorCorrectnessTest, SharesXorToIndicatorEverywhere) {
    const auto [n, prf] = GetParam();
    Rng rng(420 + n);
    const Dpf dpf(DpfParams{n, prf, 1, ShareKind::kXor});
    const std::uint64_t L = dpf.domain_size();
    std::set<std::uint64_t> alphas{0, L - 1, L / 2};
    alphas.insert(rng.UniformInt(L));
    for (std::uint64_t alpha : alphas) {
        auto [k0, k1] = dpf.GenIndicator(alpha, rng);
        for (std::uint64_t x = 0; x < L; ++x) {
            u128 a, b;
            dpf.EvalPoint(k0, x, &a);
            dpf.EvalPoint(k1, x, &b);
            ASSERT_LE(a, 1u);
            ASSERT_LE(b, 1u);
            EXPECT_EQ(a ^ b, static_cast<u128>(x == alpha ? 1 : 0))
                << "alpha=" << alpha << " x=" << x;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndPrfs, DpfXorCorrectnessTest,
    ::testing::Combine(::testing::Values(1, 3, 7, 8, 9, 11),
                       ::testing::ValuesIn(AllPrfKinds())),
    [](const auto& info) {
        std::string n = PrfKindName(std::get<1>(info.param));
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return "n" + std::to_string(std::get<0>(info.param)) + "_" + n;
    });

TEST(DpfXorSecurityTest, FinalCwLowBitDoesNotRevealAlignedAlpha) {
    // The leaf converts to a full PRG output of its seed, not the seed:
    // leaf seeds have their LSB cleared, so with the seed as the
    // conversion bit 0 of the final CW would be 1 exactly when
    // alpha % 128 == 0 — and always 0 for these keys.
    Rng rng(21);
    for (const auto& [prf, n] :
         {std::pair{PrfKind::kAes128, 16}, std::pair{PrfKind::kChacha20, 11},
          std::pair{PrfKind::kChacha20, 5}}) {
        const Dpf dpf(DpfParams{n, prf, 1, ShareKind::kXor});
        std::vector<std::uint64_t> alphas;
        while (alphas.size() < 256) {
            const std::uint64_t alpha = rng.UniformInt(dpf.domain_size());
            if ((alpha & 127) != 0) alphas.push_back(alpha);
        }
        int low_bits_set = 0;
        for (const auto& [k0, k1] : dpf.GenIndicatorBatch(alphas, rng)) {
            low_bits_set += Lsb(k0.final_cw[0]);
        }
        EXPECT_GT(low_bits_set, 0) << PrfKindName(prf) << " n=" << n;
        EXPECT_LT(low_bits_set, 256) << PrfKindName(prf) << " n=" << n;
    }
}

TEST(DpfXorTest, AdditiveOnlyAndXorOnlyEvaluatorsRefuseTheOtherKind) {
    Rng rng(22);
    const Dpf additive(DpfParams{9, PrfKind::kAes128, 1});
    const Dpf xor_dpf(DpfParams{9, PrfKind::kAes128, 1, ShareKind::kXor});
    const auto add_keys = additive.GenIndicator(5, rng);
    const auto xor_keys = xor_dpf.GenIndicator(5, rng);
    std::vector<u128> out(8);
    Dpf::RangeScratch scratch;
    EXPECT_THROW(additive.EvalRangeBatched(add_keys.first, 0, 512, out.data(),
                                           &scratch),
                 std::invalid_argument);
    EXPECT_THROW(xor_dpf.EvalRangeBatched(add_keys.first, 0, 512, out.data(),
                                          &scratch),
                 std::invalid_argument);
    EXPECT_THROW(xor_dpf.EvalFullDomain(xor_keys.first, &out),
                 std::invalid_argument);
    EXPECT_THROW(xor_dpf.EvalRangeBatched(xor_keys.first, 2, 1, out.data(),
                                          &scratch),
                 std::invalid_argument);
    EXPECT_THROW(xor_dpf.EvalRangeBatched(xor_keys.first, 0, 513, out.data(),
                                          &scratch),
                 std::invalid_argument);
}

// --- Level-order (SIMD-batched) range evaluation -----------------------------

using LeafRange = std::pair<std::uint64_t, std::uint64_t>;

// Every [begin, end) with begin <= end over a 2^n domain (n <= 8), plus
// for larger n: the whole domain, begin == end, single points at both
// edges, ranges whose ends sit just inside and just outside each level's
// node boundary (the 128-point block edges among them), so every frontier
// starts and ends on both a left and a right child somewhere in the walk,
// and 8 random ranges.
std::vector<LeafRange> RangesToCheck(int n, Rng& rng) {
    const std::uint64_t domain = std::uint64_t{1} << n;
    std::vector<LeafRange> ranges;
    if (n <= 8) {
        for (std::uint64_t b = 0; b <= domain; ++b) {
            for (std::uint64_t e = b; e <= domain; ++e) {
                ranges.push_back({b, e});
            }
        }
        return ranges;
    }
    ranges = {{0, domain}, {7, 7}, {0, 1}, {domain - 1, domain}};
    for (int k = 1; k < n; ++k) {
        const std::uint64_t span = std::uint64_t{1} << k;
        for (const auto& [b, e] :
             {LeafRange{span - 1, 3 * span + 1},
              LeafRange{span + 1, 3 * span - 1}, LeafRange{span - 1, span},
              LeafRange{span, domain - span}}) {
            ranges.push_back({b, std::min(e, domain)});
        }
    }
    for (int trial = 0; trial < 8; ++trial) {
        std::uint64_t a = rng.Next64() % (domain + 1);
        std::uint64_t b = rng.Next64() % (domain + 1);
        if (a > b) std::swap(a, b);
        ranges.push_back({a, b});
    }
    return ranges;
}

TEST(DpfEvalRangeBatchedTest, MatchesPointEvalBits) {
    // The level walk feeds each frontier through one Prg::ExpandBatch (the
    // AES-NI pipeline for kAes128 — the software path under
    // GPUDPF_FORCE_SCALAR=1 — and each supported lane width for
    // kChacha20), corrects it branch-free and converts the leaves to
    // selection blocks; bit j of block i must equal the EvalPoint bit of
    // point 128 * (begin / 128 + i) + j for every such point in
    // [begin, end), for every PRF, depth, party and subrange, and exactly
    // (end - 1) / 128 - begin / 128 + 1 words are written.
    struct Config {
        PrfKind prf;
        ChachaLanes lanes;
    };
    std::vector<Config> configs;
    for (const PrfKind prf : AllPrfKinds()) {
        if (prf != PrfKind::kChacha20) {
            configs.push_back({prf, ChachaLanes::kScalar});
        }
    }
    for (ChachaLanes lanes : AllChachaLanes()) {
        if (ChachaLanesSupported(lanes)) {
            configs.push_back({PrfKind::kChacha20, lanes});
        }
    }
    for (const Config& config : configs) {
        for (int log_domain : {1, 2, 3, 4, 5, 6, 7, 8, 11, 16}) {
            // 2^16 only under the serving PRFs: its per-point reference
            // walk is the slow part of this test.
            if (log_domain == 16 && config.prf != PrfKind::kAes128 &&
                config.prf != PrfKind::kChacha20) {
                continue;
            }
            Rng rng(1000 + log_domain);
            const Dpf dpf(DpfParams{log_domain, config.prf, 1, ShareKind::kXor},
                          config.lanes);
            const std::uint64_t domain = std::uint64_t{1} << log_domain;
            auto [k0, k1] = dpf.GenIndicator(rng.Next64() % domain, rng);
            const auto ranges = RangesToCheck(log_domain, rng);
            Dpf::RangeScratch scratch;
            for (const DpfKey* key : {&k0, &k1}) {
                std::vector<std::uint8_t> bit(domain);
                for (std::uint64_t x = 0; x < domain; ++x) {
                    u128 v;
                    dpf.EvalPoint(*key, x, &v);
                    bit[x] = static_cast<std::uint8_t>(v);
                }
                for (const auto& [begin, end] : ranges) {
                    const std::size_t blocks =
                        begin == end ? 0 : (end - 1) / 128 - begin / 128 + 1;
                    std::vector<u128> got(blocks + 1, 7);
                    dpf.EvalRangeBatched(*key, begin, end, got.data(),
                                         &scratch);
                    // The word past the blocks is never written.
                    ASSERT_EQ(got.back(), 7u);
                    for (std::size_t i = 0; i < blocks; ++i) {
                        u128 in_range = 0;
                        u128 want = 0;
                        for (int j = 0; j < 128; ++j) {
                            const std::uint64_t x = (begin / 128 + i) * 128 + j;
                            if (x < begin || x >= end) continue;
                            in_range |= static_cast<u128>(1) << j;
                            want |= static_cast<u128>(bit[x]) << j;
                        }
                        ASSERT_EQ(got[i] & in_range, want)
                            << PrfKindName(config.prf) << "/"
                            << ChachaLanesName(config.lanes)
                            << " n=" << log_domain << " [" << begin << ","
                            << end << ") block " << i << " party "
                            << key->party;
                    }
                }
            }
        }
    }
}

TEST(DpfEvalRangeBatchedTest, MultiKeyWalkEqualsPerKeyWalk) {
    // The multi-key walk expands every key's frontier in one
    // Prg::ExpandBatch call per level and corrects each key's children with
    // its own correction words; its key-major output must equal the
    // single-key walk of each key, bit for bit (the edge blocks' bits
    // outside the range included), for 1-33 keys of both parties over
    // varied ranges and alphas, 0- and 1-level trees included, under every
    // PRF and every ChaCha20 lane width.
    struct Config {
        PrfKind prf;
        ChachaLanes lanes;
    };
    std::vector<Config> configs;
    for (const PrfKind prf : AllPrfKinds()) {
        if (prf != PrfKind::kChacha20) {
            configs.push_back({prf, ChachaLanes::kScalar});
        }
    }
    for (ChachaLanes lanes : AllChachaLanes()) {
        if (ChachaLanesSupported(lanes)) {
            configs.push_back({PrfKind::kChacha20, lanes});
        }
    }
    constexpr std::size_t kMaxKeys = 33;
    for (const Config& config : configs) {
        for (int log_domain : {3, 7, 8, 11}) {
            Rng rng(2000 + log_domain);
            const Dpf dpf(DpfParams{log_domain, config.prf, 1, ShareKind::kXor},
                          config.lanes);
            const std::uint64_t domain = dpf.domain_size();
            std::vector<std::uint64_t> alphas;
            for (std::size_t i = 0; i < kMaxKeys; ++i) {
                alphas.push_back(rng.Next64() % domain);
            }
            // Parties alternate, so every call mixes both.
            std::vector<DpfKey> keys;
            for (auto& [k0, k1] : dpf.GenIndicatorBatch(alphas, rng)) {
                keys.push_back(keys.size() % 2 == 0 ? std::move(k0)
                                                    : std::move(k1));
            }
            std::vector<const DpfKey*> ptrs;
            for (const DpfKey& key : keys) ptrs.push_back(&key);
            std::vector<LeafRange> ranges = {
                {0, domain}, {0, 1}, {domain - 1, domain}, {5, 5}};
            for (int trial = 0; trial < 6; ++trial) {
                std::uint64_t a = rng.Next64() % (domain + 1);
                std::uint64_t b = rng.Next64() % (domain + 1);
                if (a > b) std::swap(a, b);
                ranges.push_back({a, b});
            }
            Dpf::RangeScratch scratch;
            Dpf::RangeScratch single_scratch;
            for (const auto& [begin, end] : ranges) {
                const std::size_t blocks =
                    begin == end ? 0 : (end - 1) / 128 - begin / 128 + 1;
                std::vector<u128> want(kMaxKeys * blocks);
                for (std::size_t k = 0; k < kMaxKeys; ++k) {
                    dpf.EvalRangeBatched(keys[k], begin, end,
                                         want.data() + k * blocks,
                                         &single_scratch);
                }
                for (std::size_t n = 1; n <= kMaxKeys; ++n) {
                    std::vector<u128> got(n * blocks + 1, 7);
                    dpf.EvalRangeBatched(ptrs.data(), n, begin, end,
                                         got.data(), &scratch);
                    ASSERT_EQ(got.back(), 7u);
                    got.pop_back();
                    ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                           want.begin()))
                        << PrfKindName(config.prf) << "/"
                        << ChachaLanesName(config.lanes)
                        << " n=" << log_domain << " [" << begin << "," << end
                        << ") keys=" << n;
                }
            }
        }
    }
}

TEST(DpfEvalRangeBatchedTest, MultiKeyWalkRefusesKeysOfAnotherDpf) {
    // A key whose log_domain, PRF or share kind differs from the Dpf's is
    // refused before any output word is written, wherever it sits among
    // the keys.
    Rng rng(31);
    const DpfParams params{11, PrfKind::kChacha20, 1, ShareKind::kXor};
    const Dpf dpf(params);
    const DpfKey good = dpf.GenIndicator(100, rng).first;
    DpfParams deeper = params;
    deeper.log_domain = 12;
    DpfParams aes = params;
    aes.prf = PrfKind::kAes128;
    DpfParams additive = params;
    additive.share = ShareKind::kAdditive;
    const DpfKey bad[] = {Dpf(deeper).GenIndicator(100, rng).first,
                          Dpf(aes).GenIndicator(100, rng).first,
                          Dpf(additive).GenIndicator(100, rng).first};
    for (const DpfKey& key : bad) {
        for (std::size_t at = 0; at < 3; ++at) {
            std::vector<const DpfKey*> ptrs(3, &good);
            ptrs[at] = &key;
            std::vector<u128> out(3 * 16, 7);
            Dpf::RangeScratch scratch;
            EXPECT_THROW(dpf.EvalRangeBatched(ptrs.data(), ptrs.size(), 0,
                                              2'048, out.data(), &scratch),
                         std::invalid_argument)
                << "at " << at;
            EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                                    [](u128 w) { return w == 7; }));
        }
    }
}

// --- Key bytes pinned across key-generation changes ---------------------------

std::string HexDigest(const Sha256Digest& d) {
    static const char kHex[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : d) {
        out.push_back(kHex[b >> 4]);
        out.push_back(kHex[b & 15]);
    }
    return out;
}

using ServerKeys = std::vector<std::vector<std::uint8_t>>;
// One lookup's (server-0, server-1) serialized keys for a table's plan.
using LookupKeys =
    std::function<std::pair<ServerKeys, ServerKeys>(const Pbr::Plan&)>;

// The movielens serving geometry: a 27,000-row full table in 24 bins (bin
// domain 2^11) and a 2,700-row hot table in 60 bins (2^6), keys under
// ChaCha20 from client seed 101, 3 lookups of 84 bins x 2 servers.
// `generator(pbr)` returns a table's key generator (which keeps its client
// Rng across lookups); every key byte goes into the digest except the one
// at offset `skip`, if any.
std::string MovielensRequestDigest(
    const std::function<LookupKeys(const Pbr&)>& generator,
    std::size_t skip) {
    Sha256Ctx ctx;
    Rng plan_rng(101);
    const Pbr full(27'000, 1'125);
    const Pbr hot(2'700, 45);
    std::vector<std::uint64_t> wanted;
    for (std::uint64_t i = 0; i < 70; ++i) wanted.push_back(i * 383 % 27'000);
    for (const Pbr* pbr : {&full, &hot}) {
        const LookupKeys keys = generator(*pbr);
        std::vector<std::uint64_t> local;
        for (std::uint64_t w : wanted) local.push_back(w % pbr->num_entries());
        for (int lookup = 0; lookup < 3; ++lookup) {
            const auto [keys0, keys1] =
                keys(pbr->PlanBatch(local, plan_rng));
            for (const ServerKeys* server : {&keys0, &keys1}) {
                for (const auto& k : *server) {
                    for (std::size_t i = 0; i < k.size(); ++i) {
                        if (i != skip) ctx.Update(&k[i], 1);
                    }
                }
            }
        }
    }
    return HexDigest(ctx.Finish());
}

TEST(DpfGoldenKeysTest, AdditiveMovielensShapedRequestBytesArePinned) {
    // Additive keys of the movielens request, hashed without their
    // share-kind header byte (offset 4): the digest is the one taken from
    // the one-key-at-a-time generator before the header had that byte, so
    // any change to the additive key bytes, their order, or the client
    // Rng stream moves it.
    const std::string digest = MovielensRequestDigest(
        [](const Pbr& pbr) -> LookupKeys {
            auto dpf = std::make_shared<Dpf>(
                DpfParams{pbr.bin_log_domain(), PrfKind::kChacha20, 1});
            auto rng = std::make_shared<Rng>(101);
            return [dpf, rng](const Pbr::Plan& plan) {
                std::vector<std::uint64_t> alphas;
                for (const auto& q : plan.queries) {
                    alphas.push_back(q.local_index);
                }
                std::pair<ServerKeys, ServerKeys> out;
                for (const auto& [k0, k1] :
                     dpf->GenIndicatorBatch(alphas, *rng)) {
                    out.first.push_back(k0.Serialize());
                    out.second.push_back(k1.Serialize());
                }
                return out;
            };
        },
        /*skip=*/4);
    EXPECT_EQ(digest,
              "ae4ae0e9fb24bc12b04cb3da87ecb5c3dbb0797a948eae694bc721b0da5d259f");
}

TEST(DpfGoldenKeysTest, XorMovielensShapedRequestBytesArePinned) {
    // The serving path's keys, whole: PbrSession::BuildRequest.
    const std::string digest = MovielensRequestDigest(
        [](const Pbr& pbr) -> LookupKeys {
            auto session = std::make_shared<PbrSession>(
                &pbr, PrfKind::kChacha20, /*client_seed=*/101);
            return [session](const Pbr::Plan& plan) {
                auto req = session->BuildRequest(plan);
                return std::pair{std::move(req.keys_for_server0),
                                 std::move(req.keys_for_server1)};
            };
        },
        /*skip=*/~std::size_t{0});
    EXPECT_EQ(digest,
              "42e6d23a68f2b22085d8b34ffccaac798a021abbc2a17fe12f31768c1ff33e9a");
}

}  // namespace
}  // namespace gpudpf
