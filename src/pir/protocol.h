// Two-server DPF-PIR protocol (paper Figure 2).
//
//   client:  Gen(i) -> (k_a, k_b), uploads one key per server
//   servers: Eval over the full domain, response = XOR of the rows whose
//            share bit is set
//   client:  entry = response_a XOR response_b
//
// Keys are early-terminated XOR-share DPF keys (ShareKind::kXor, see
// src/dpf/dpf.h): one 128-bit selection block per 128 rows.
//
// `PirClient` runs on the (trusted) user device; `PirServer` is the
// reference sequential server implementation that all GPU/CPU kernels are
// validated against. A naive O(L)-communication PIR (Section 3.1's warm-up
// scheme) is included as a baseline for the communication comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/dpf/dpf.h"
#include "src/pir/answer_engine.h"
#include "src/pir/table.h"

namespace gpudpf {

// A single-query PIR request: one serialized DPF key per server.
struct PirQuery {
    std::vector<std::uint8_t> key_for_server0;
    std::vector<std::uint8_t> key_for_server1;

    std::size_t UploadBytesPerServer() const { return key_for_server0.size(); }
};

// One server's response: XOR share of the selected entry, one u128 per
// entry word (defined in src/pir/answer_engine.h).

class PirClient {
  public:
    // log_domain must cover the table (2^log_domain >= num_entries).
    PirClient(int log_domain, PrfKind prf, std::uint64_t seed = 1);

    const Dpf& dpf() const { return dpf_; }

    // Builds the two XOR-share keys for private index `index`.
    PirQuery Query(std::uint64_t index);

    // Combines the two server responses into the entry bytes.
    std::vector<std::uint8_t> Reconstruct(const PirResponse& r0,
                                          const PirResponse& r1,
                                          std::size_t entry_bytes) const;

  private:
    Dpf dpf_;
    Rng rng_;
};

class PirServer {
  public:
    // With default sharding (num_shards == 1) Answer runs the engine's one
    // kernel inline; num_shards > 1 splits the DPF expansion + scan into
    // up to num_shards row-range shards (AnswerEngine::ShardsFor) evaluated
    // on the sharding pool, bit-identical.
    explicit PirServer(const PirTable* table, ShardingOptions sharding = {})
        : table_(table), engine_(sharding) {}

    // Answer path: full-domain DPF expansion + XOR of the selected rows.
    // Throws std::invalid_argument on a key that is not XOR-share.
    PirResponse Answer(const std::uint8_t* key_bytes, std::size_t key_len) const;

    // Same, from a parsed key (used by tests).
    PirResponse Answer(const DpfKey& key) const;

    // Batched path: answers a batch of queries in one engine submission, so
    // every (query, shard) task runs concurrently. Index-aligned with keys.
    std::vector<PirResponse> BatchAnswer(
        const std::vector<std::vector<std::uint8_t>>& keys) const;
    std::vector<PirResponse> BatchAnswer(const std::vector<DpfKey>& keys) const;

    const PirTable& table() const { return *table_; }
    const AnswerEngine& engine() const { return engine_; }

  private:
    const PirTable* table_;
    AnswerEngine engine_;
};

// Naive PIR baseline (Section 3.1): the client uploads additive shares of
// the full indicator vector (O(L) communication). Used to demonstrate the
// DPF's O(log L) communication advantage.
namespace naive_pir {

struct Query {
    std::vector<u128> share_for_server0;
    std::vector<u128> share_for_server1;

    std::size_t UploadBytesPerServer() const {
        return share_for_server0.size() * sizeof(u128);
    }
};

Query MakeQuery(std::uint64_t index, std::uint64_t num_entries, Rng& rng);

PirResponse Answer(const PirTable& table, const std::vector<u128>& share);

}  // namespace naive_pir

}  // namespace gpudpf
