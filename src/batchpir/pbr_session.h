// Executable two-server PBR session: builds per-bin DPF keys on the client,
// answers them against bin-sliced views of the table on the servers, and
// reconstructs the retrieved entries. This is the reference (correctness)
// path; throughput projections use the kernel strategies + cost model over
// the Pbr accounting.
#pragma once

#include <cstdint>
#include <vector>

#include "src/batchpir/pbr.h"
#include "src/common/rng.h"
#include "src/dpf/dpf.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"

namespace gpudpf {

class PbrSession {
  public:
    // `sharding` configures the server-side answer engine: every per-bin
    // query of a batched retrieval becomes one engine job (further split
    // into at most num_shards row shards, placed per ShardPlacement), so
    // the whole batch is answered in one pool submission. The engine's
    // shard kernel follows the table's storage layout (row-major or tiled)
    // at answer time, so one session serves tables of any layout. Defaults
    // keep the sequential reference behavior.
    PbrSession(const Pbr* pbr, PrfKind prf, std::uint64_t client_seed = 1,
               ShardingOptions sharding = {});

    // One serialized DPF key per bin, per server.
    struct Request {
        std::vector<std::vector<std::uint8_t>> keys_for_server0;
        std::vector<std::vector<std::uint8_t>> keys_for_server1;

        std::size_t UploadBytesPerServer() const;
    };

    // Client: the serialized keys of PrepareJobs(plan, &request) (it draws
    // the same keys from the session's RNG stream).
    Request BuildRequest(const Pbr::Plan& plan);

    // One server's per-bin answer jobs. `jobs` point into `keys`, so the
    // struct is movable but the keys vector must not be resized.
    struct BinJobs {
        std::vector<DpfKey> keys;
        std::vector<AnswerEngine::Job> jobs;
    };

    // Client: XOR-share keys for every bin query in the plan (real and
    // dummy alike), moved straight into both servers' bin jobs with no
    // serialize/parse round trip. With `wire` non-null their serialized
    // bytes are also appended to it, one key per bin per server.
    struct PreparedJobs {
        BinJobs server0;
        BinJobs server1;
    };
    PreparedJobs PrepareJobs(const Pbr::Plan& plan, Request* wire = nullptr);

    // Server: deserializes and validates one key per bin, binding each to
    // its bin's row range. Throws std::invalid_argument on a key count
    // other than num_bins, on bytes Deserialize rejects, and on a key
    // whose log_domain, PRF, out_words or share kind differs from the
    // session's bin DPF (Pbr::BinDpfParams: an additive key is refused) —
    // before any job is formed, so no row is scanned for it. Lets a
    // serving front-end pool the jobs of many requests (and tables) into
    // one AnswerEngine::AnswerBatch call instead of answering per session.
    BinJobs ParseJobs(
        const std::vector<std::vector<std::uint8_t>>& keys) const;

    // Binds one server's parsed bin jobs to the physical table they read
    // and to their request-lifecycle binding: `binding.tag` is the
    // caller's (request, table) group id — so a streaming front-end can
    // route the engine's per-job completion notifications back to the
    // owning group — and `binding.context` (optional) is the owning
    // request's cancel/deadline/priority state, which the engine polls to
    // skip work for dead requests. The returned jobs point into
    // `jobs.keys` (and borrow the context); they must not outlive either.
    static std::vector<AnswerEngine::TableJob> BindJobs(
        const BinJobs& jobs, const PirTable* table,
        AnswerEngine::JobBinding binding);

    // Server: evaluates each bin key against the bin's slice of `table`;
    // returns one entry share per bin.
    std::vector<PirResponse> Answer(
        const PirTable& table,
        const std::vector<std::vector<std::uint8_t>>& keys) const;

    // Client: XORs both servers' per-bin shares into entry bytes
    // (index-aligned with the plan's queries).
    std::vector<std::vector<std::uint8_t>> Reconstruct(
        const std::vector<PirResponse>& r0, const std::vector<PirResponse>& r1,
        std::size_t entry_bytes) const;

    const AnswerEngine& engine() const { return engine_; }

  private:
    // Points jobs->jobs at jobs->keys, bin b reading its bin's rows.
    void BindKeys(BinJobs* jobs) const;

    const Pbr* pbr_;
    Dpf bin_dpf_;
    Rng rng_;
    AnswerEngine engine_;
};

}  // namespace gpudpf
