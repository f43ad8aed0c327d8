#include "src/crypto/prf.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "src/crypto/aes128.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/highwayhash.h"
#include "src/crypto/sha256.h"
#include "src/crypto/siphash.h"

namespace gpudpf {

const std::vector<PrfKind>& AllPrfKinds() {
    static const std::vector<PrfKind> kKinds = {
        PrfKind::kAes128, PrfKind::kSha256, PrfKind::kChacha20,
        PrfKind::kSipHash, PrfKind::kHighwayHash};
    return kKinds;
}

bool IsPrfKind(int value) {
    for (PrfKind kind : AllPrfKinds()) {
        if (static_cast<int>(kind) == value) return true;
    }
    return false;
}

const char* PrfKindName(PrfKind kind) {
    switch (kind) {
        case PrfKind::kAes128: return "AES-128";
        case PrfKind::kSha256: return "SHA-256";
        case PrfKind::kChacha20: return "ChaCha20";
        case PrfKind::kSipHash: return "SipHash";
        case PrfKind::kHighwayHash: return "HighwayHash";
    }
    return "?";
}

PrfKind ParsePrfKind(const std::string& name) {
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    for (PrfKind kind : AllPrfKinds()) {
        std::string candidate(PrfKindName(kind));
        std::transform(candidate.begin(), candidate.end(), candidate.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        if (candidate == lower) return kind;
    }
    throw std::invalid_argument("unknown PRF kind: " + name);
}

const PrfCostProfile& GetPrfCostProfile(PrfKind kind) {
    // V100 constants calibrated to Table 5 (1M entries, batch 512):
    //   QPS * 2^20 expansions/query. Xeon single-core constant calibrated to
    //   Table 4's 1-thread latency column (AES-NI), others scaled by typical
    //   relative software throughput on x86.
    static const PrfCostProfile kAes{1.01e9, 1.64e6, true};
    static const PrfCostProfile kSha{0.97e9, 0.41e6, true};
    static const PrfCostProfile kChacha{3.82e9, 2.45e6, true};
    static const PrfCostProfile kSip{7.81e9, 4.10e6, false};
    static const PrfCostProfile kHighway{2.07e9, 3.30e6, false};
    switch (kind) {
        case PrfKind::kAes128: return kAes;
        case PrfKind::kSha256: return kSha;
        case PrfKind::kChacha20: return kChacha;
        case PrfKind::kSipHash: return kSip;
        case PrfKind::kHighwayHash: return kHighway;
    }
    return kAes;
}

u128 PrfEval(PrfKind kind, u128 key, u128 x) {
    switch (kind) {
        case PrfKind::kAes128: {
            Aes128 aes(key);
            return aes.EncryptBlock(x);
        }
        case PrfKind::kSha256: {
            std::uint8_t k[16];
            std::uint8_t m[16];
            StoreU128Le(key, k);
            StoreU128Le(x, m);
            const Sha256Digest d = HmacSha256(k, sizeof(k), m, sizeof(m));
            return LoadU128Le(d.data());
        }
        case PrfKind::kChacha20: {
            std::uint32_t ck[8];
            for (int i = 0; i < 4; ++i) {
                ck[i] = static_cast<std::uint32_t>(Lo64(key) >> (32 * (i % 2)));
            }
            for (int i = 0; i < 4; ++i) {
                ck[4 + i] =
                    static_cast<std::uint32_t>(Hi64(key) >> (32 * (i % 2)));
            }
            const std::uint32_t nonce[3] = {
                static_cast<std::uint32_t>(Lo64(x)),
                static_cast<std::uint32_t>(Lo64(x) >> 32),
                static_cast<std::uint32_t>(Hi64(x))};
            std::uint32_t out[16];
            Chacha20Block(ck, static_cast<std::uint32_t>(Hi64(x) >> 32), nonce,
                          out);
            return MakeU128(
                (static_cast<std::uint64_t>(out[3]) << 32) | out[2],
                (static_cast<std::uint64_t>(out[1]) << 32) | out[0]);
        }
        case PrfKind::kSipHash: return SipHashPrf(key, x);
        case PrfKind::kHighwayHash: return HighwayHashPrf(key, x);
    }
    return 0;
}

}  // namespace gpudpf
