#include "src/pir/protocol.h"

#include <cstring>
#include <stdexcept>

namespace gpudpf {

PirClient::PirClient(int log_domain, PrfKind prf, std::uint64_t seed)
    : dpf_(DpfParams{log_domain, prf, 1, ShareKind::kXor}), rng_(seed) {}

PirQuery PirClient::Query(std::uint64_t index) {
    auto [k0, k1] = dpf_.GenIndicator(index, rng_);
    PirQuery q;
    q.key_for_server0 = k0.Serialize();
    q.key_for_server1 = k1.Serialize();
    return q;
}

std::vector<std::uint8_t> PirClient::Reconstruct(const PirResponse& r0,
                                                 const PirResponse& r1,
                                                 std::size_t entry_bytes) const {
    if (r0.size() != r1.size()) {
        throw std::invalid_argument("PirClient::Reconstruct: size mismatch");
    }
    std::vector<u128> entry(r0.size());
    for (std::size_t i = 0; i < r0.size(); ++i) entry[i] = r0[i] ^ r1[i];
    std::vector<std::uint8_t> out(entry_bytes);
    std::memcpy(out.data(), entry.data(),
                std::min(entry_bytes, entry.size() * sizeof(u128)));
    return out;
}

PirResponse PirServer::Answer(const std::uint8_t* key_bytes,
                              std::size_t key_len) const {
    return Answer(DpfKey::Deserialize(key_bytes, key_len));
}

PirResponse PirServer::Answer(const DpfKey& key) const {
    return engine_.Answer(*table_, key, 0, table_->num_entries());
}

std::vector<PirResponse> PirServer::BatchAnswer(
    const std::vector<std::vector<std::uint8_t>>& keys) const {
    std::vector<DpfKey> parsed;
    parsed.reserve(keys.size());
    for (const auto& k : keys) {
        parsed.push_back(DpfKey::Deserialize(k.data(), k.size()));
    }
    return BatchAnswer(parsed);
}

std::vector<PirResponse> PirServer::BatchAnswer(
    const std::vector<DpfKey>& keys) const {
    std::vector<AnswerEngine::Job> jobs;
    jobs.reserve(keys.size());
    for (const DpfKey& key : keys) {
        jobs.push_back({&key, 0, table_->num_entries()});
    }
    return engine_.AnswerBatch(*table_, jobs);
}

namespace naive_pir {

Query MakeQuery(std::uint64_t index, std::uint64_t num_entries, Rng& rng) {
    if (index >= num_entries) {
        throw std::invalid_argument("naive_pir::MakeQuery: index out of range");
    }
    Query q;
    q.share_for_server0.resize(num_entries);
    q.share_for_server1.resize(num_entries);
    for (std::uint64_t j = 0; j < num_entries; ++j) {
        const u128 r = rng.Next128();
        q.share_for_server0[j] = r;
        q.share_for_server1[j] = static_cast<u128>(j == index ? 1 : 0) - r;
    }
    return q;
}

PirResponse Answer(const PirTable& table, const std::vector<u128>& share) {
    if (share.size() < table.num_entries()) {
        throw std::invalid_argument("naive_pir::Answer: short share vector");
    }
    const std::size_t w = table.words_per_entry();
    PirResponse resp(w, 0);
    for (std::uint64_t j = 0; j < table.num_entries(); ++j) {
        const u128 v = share[j];
        if (v == 0) continue;
        const u128* row = table.Entry(j);
        for (std::size_t k = 0; k < w; ++k) resp[k] += v * row[k];
    }
    return resp;
}

}  // namespace naive_pir

}  // namespace gpudpf
