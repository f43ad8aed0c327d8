// Public end-to-end API: private embedding serving for on-device ML
// (the system of paper Figure 1b).
//
// A PrivateEmbeddingService owns the server-side state: the physical full
// (and optional hot) PIR tables laid out by the co-design layer, replicated
// across two non-colluding logical servers, plus a ServingFrontEnd that
// batches the answer work of every in-flight request (src/core/serving.h).
// Each end-user device is a Client created with MakeClient(): it owns its
// own RNG and PBR sessions, plans an oblivious query set per inference,
// generates DPF keys, contacts both servers, reconstructs the embeddings,
// and reports the exact communication plus a modeled latency breakdown.
// Arbitrarily many clients may run concurrently against one service; a
// single Client must be driven from one thread at a time.
//
// Thread-safety: the service itself holds no mutexes — its tables, layout
// and planner are immutable after construction, and the only mutable
// shared state is the atomic client counter below. All serving-path
// locking lives in ServingFrontEnd and ThreadPool, whose lock discipline
// is compiler-checked under Clang -Wthread-safety (see
// src/common/thread_annotations.h).
//
// Quickstart (see examples/quickstart.cc, examples/private_recommendation.cc):
//   EmbeddingTable emb(...);              // the model's embedding weights
//   AccessStats stats = ...;              // from the training trace
//   ServiceConfig config;                 // PRF, co-design, front-end knobs
//   PrivateEmbeddingService service(emb, stats, config);
//   auto client = service.MakeClient();   // one per device
//   auto result = client->Lookup({idx0, idx1, ...});   // synchronous
//
// Asynchronous path (streaming, cancellation, deadlines, priorities —
// see src/core/serving.h; each admitted request carries a JobContext that
// the answer engine polls, so cancelling or missing a deadline after
// dispatch reclaims the request's remaining (job, shard) pool work):
//   auto handle = service.front_end().SubmitRequest(
//       {client.get(), {idx0, idx1}}, {/*priority, deadline, callbacks*/});
//   PrivateEmbeddingService::TablePartial partial;
//   while (handle.WaitPartial(&partial)) /* per-table results as they land */;
//   auto result = handle.Result();       // == the one-shot Lookup, bit-exact
// A non-ok() handle carries the admission outcome instead: queue full
// (backpressure), invalid request, or shut down.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/batchpir/pbr.h"
#include "src/batchpir/pbr_session.h"
#include "src/codesign/layout.h"
#include "src/codesign/planner.h"
#include "src/ml/embedding.h"
#include "src/net/comm_model.h"
#include "src/pir/answer_engine.h"
#include "src/pir/table.h"
#include "src/pir/table_layout.h"
#include "src/workloads/dataset.h"

namespace gpudpf {

class ServingFrontEnd;

// See ServiceConfig::numa.
enum class NumaMode { kOff };

struct ServiceConfig {
    PrfKind prf = PrfKind::kChacha20;
    CodesignConfig codesign;
    std::uint64_t client_seed = 1;
    NetworkSpec network = NetworkSpec::FourG();
    ClientDeviceSpec client_device = ClientDeviceSpec::CoreI3();
    // FLOPs of the on-device model, for the latency breakdown.
    std::uint64_t dnn_flops = 0;
    // Server-side answer parallelism: each per-bin query is split into at
    // most `server_shards` contiguous row shards (sized by the bin's rows,
    // AnswerEngine::ShardsFor) evaluated on a thread pool of
    // `server_threads` workers (0 = the process-wide shared pool sized to
    // the host).
    // server_shards == 1 keeps the sequential reference path.
    std::size_t server_shards = 1;
    std::size_t server_threads = 0;
    // The PIR tables' physical layout (src/pir/table_layout.h). Every table
    // is tiled, so this field selects nothing; it stays only because the
    // serving benchmark (perfbench/src/workload.cc) assigns it, and goes
    // when that benchmark next changes.
    TableLayout table_layout = TableLayout::kTiled;
    // Where the answer engines run their shards (src/pir/answer_engine.h).
    // Every shard runs on the engine's claim loop, so this field selects
    // nothing; it stays only because the serving benchmark
    // (perfbench/src/workload.cc) assigns it, and goes when that benchmark
    // next changes.
    ShardPlacement shard_placement = ShardPlacement::kDynamic;
    // The answer engines' CPU kernel (src/kernels/cpu_kernel.h). There is
    // one kernel, so this field selects nothing; it stays only because the
    // serving benchmark (perfbench/src/workload.cc) assigns it, and goes
    // when that benchmark next changes.
    CpuKernelKind cpu_kernel = CpuKernelKind::kMultiqueryTile;
    // NUMA placement of the tables' pages. The tables are zeroed by the
    // thread that builds them, so this field selects nothing; it stays
    // only because the serving benchmark (perfbench/src/workload.cc)
    // assigns it, and goes when that benchmark next changes.
    NumaMode numa = NumaMode::kOff;
    // Serving front-end admission control: requests admitted but not yet
    // completed are capped at `max_inflight_requests`; beyond that,
    // ServingFrontEnd::Submit rejects with kQueueFull (backpressure).
    // kBatch-priority requests only get the bottom 3/4 of the slots, so a
    // background flood can never squeeze out interactive traffic.
    std::size_t max_inflight_requests = 64;
    // After the first pending request arrives, the batcher lingers this
    // long so concurrent submitters can join the same pooled answer batch
    // (the classic dynamic-batching latency/throughput knob). With
    // adaptive_linger set this is the window's upper bound.
    std::uint64_t batcher_linger_us = 50;
    // Sizes the batching window from the observed traffic instead of the
    // fixed knob: the front-end keeps an EWMA of request inter-arrival
    // time (half-life linger_ewma_half_life_us) and of drained queue
    // depth, lingering about two expected inter-arrivals — scaled down as
    // the queue approaches capacity — capped at batcher_linger_us.
    bool adaptive_linger = false;
    std::uint64_t linger_ewma_half_life_us = 1'000;
    // Deadline given to every request that does not carry its own, in
    // microseconds from submission; 0 = no default deadline. Requests
    // whose deadline passes before their jobs are dispatched complete
    // with RequestStatus::kDeadlineExpired instead of occupying a batch.
    std::uint64_t default_deadline_us = 0;
    // Thread each request's JobContext (src/pir/job_context.h) into its
    // engine jobs, so the (job, shard) tasks of a request that is
    // cancelled or expires after dispatch are skipped and the pool frees
    // early for live work. Off withholds the context from the ENGINE
    // only — a dead request's jobs then run to completion and are thrown
    // away (the cancel-heavy serving bench A/Bs the two to measure
    // reclaimed throughput); the front-end lifecycle semantics (partials
    // stop, mid-batch expiry ends kDeadlineExpired) apply either way.
    bool skip_abandoned_work = true;
    // Client-side planning context: skip building the physical PIR tables
    // (the TableStorage fill is by far the dominant construction cost), so
    // a process that only PLANS lookups — a replica/sharded router doing
    // key generation and reconstruction, never answering — is cheap to
    // stand up. A planning-only service still builds the layout, PBRs,
    // planner and clients (Prepare/ReconstructTablePartial/Finalize all
    // work), but its front-end rejects every submission with
    // kInvalidRequest: there is no table to answer from.
    bool planning_only = false;
};

class PrivateEmbeddingService {
  public:
    PrivateEmbeddingService(const EmbeddingTable& embeddings,
                            const AccessStats& stats,
                            const ServiceConfig& config);
    ~PrivateEmbeddingService();

    PrivateEmbeddingService(const PrivateEmbeddingService&) = delete;
    PrivateEmbeddingService& operator=(const PrivateEmbeddingService&) = delete;

    struct LookupResult {
        // Aligned with the wanted vector.
        std::vector<bool> retrieved;
        // Embedding vectors (zero-filled when dropped).
        std::vector<std::vector<float>> embeddings;
        // Exact communication, one server.
        std::size_t upload_bytes = 0;
        std::size_t download_bytes = 0;
        // Modeled end-to-end latency (Gen / PIR / network / DNN).
        LatencyBreakdown latency;
    };

    // One table's share of a lookup, streamed to the client as soon as that
    // table's answer jobs complete (the hot table is small and typically
    // lands long before the full table). Merging every table's partial
    // reproduces the one-shot LookupResult bit-for-bit.
    struct TablePartial {
        enum class Table { kFull, kHot };
        Table table = Table::kFull;
        // Aligned with the wanted vector: served[i] marks the entries this
        // table delivered; embeddings[i] is zero-filled otherwise.
        std::vector<bool> served;
        std::vector<std::vector<float>> embeddings;
        // This table's download share, one server.
        std::size_t download_bytes = 0;
    };

    // Client-side phase of one lookup, produced by Client and consumed by
    // the ServingFrontEnd batcher: the oblivious plan plus both servers'
    // per-bin DPF keys parsed into engine jobs.
    struct PreparedLookup {
        std::vector<std::uint64_t> wanted;
        InferencePlan plan;
        std::size_t upload_bytes = 0;
        PbrSession::BinJobs full_server0;
        PbrSession::BinJobs full_server1;
        PbrSession::BinJobs hot_server0;
        PbrSession::BinJobs hot_server1;
        // The serialized bytes of the BinJobs' keys, filled only when
        // prepared with keep_wire_keys: the networked client
        // (src/net/remote_client.h) uploads these to a server node; the
        // in-process path never serializes its keys. Index-aligned with the
        // corresponding jobs.
        std::vector<std::vector<std::uint8_t>> wire_full_keys0;
        std::vector<std::vector<std::uint8_t>> wire_full_keys1;
        std::vector<std::vector<std::uint8_t>> wire_hot_keys0;
        std::vector<std::vector<std::uint8_t>> wire_hot_keys1;
    };

    class Client {
      public:
        // Thin synchronous wrapper over the async serving path: submits to
        // the service's front-end (waiting for an admission slot if the
        // queue is full) and blocks on the result. Throws
        // std::invalid_argument for an empty wanted list (rejected at
        // admission, before any client-side work) and std::runtime_error if
        // the front-end has been shut down or the request's deadline
        // (ServiceConfig::default_deadline_us) expired before dispatch.
        LookupResult Lookup(const std::vector<std::uint64_t>& wanted);

        // Client-side phase of one lookup, split out for callers that ship
        // the keys somewhere other than the in-process front-end: plans
        // the inference and generates both servers' keys, advancing
        // this client's RNG (hence: one thread at a time). The RNG
        // consumption is identical either way, so a client that alternates
        // local and networked lookups stays on one deterministic stream.
        // With keep_wire_keys the serialized per-bin keys are retained in
        // the PreparedLookup for a networked upload.
        PreparedLookup Prepare(const std::vector<std::uint64_t>& wanted,
                               bool keep_wire_keys = false);

        // Client-side half of answering from raw shares: reconstructs one
        // table's rows from the two servers' per-bin responses (the
        // RawTablePartial a remote node streamed back, or a local
        // engine's) and decodes them into that table's TablePartial.
        // Byte-identical to what the in-process front-end streams for the
        // same PreparedLookup, because it runs the same session
        // Reconstruct and service decode.
        TablePartial ReconstructTablePartial(
            const PreparedLookup& prep, bool hot,
            const std::vector<PirResponse>& r0,
            const std::vector<PirResponse>& r1) const;

      private:
        friend class PrivateEmbeddingService;
        friend class ServingFrontEnd;

        Client(PrivateEmbeddingService* service, std::uint64_t seed);

        PrivateEmbeddingService* service_;
        Rng rng_;
        PbrSession full_session_;
        std::unique_ptr<PbrSession> hot_session_;
    };

    // Creates an independent client device handle with its own RNG and PBR
    // sessions, seeded deterministically from config.client_seed and the
    // creation order. Clients may submit concurrently; each must not
    // outlive the service.
    std::unique_ptr<Client> MakeClient();

    // The async request/future serving front-end (see src/core/serving.h).
    ServingFrontEnd& front_end() { return *front_end_; }

    // Sharding configuration handed to the server-side answer engines.
    ShardingOptions server_sharding() const {
        return ShardingOptions{config_.server_shards, server_pool_.get()};
    }
    const EmbeddingLayout& layout() const { return layout_; }
    const Pbr& full_pbr() const { return full_pbr_; }
    const Pbr* hot_pbr() const { return hot_pbr_.get(); }
    const QueryPlanner& planner() const { return planner_; }
    const ServiceConfig& config() const { return config_; }
    int dim() const { return dim_; }
    // True for a client-side planning context (no physical tables; the
    // front-end rejects every submission). See ServiceConfig::planning_only.
    bool planning_only() const { return config_.planning_only; }

    // Per-table half of result assembly: decodes one table's reconstructed
    // rows into the embeddings that table serves, independently of the
    // other table, so the front-end can stream it the moment the table's
    // jobs finish. `hot` selects the hot-table decode (row owners mapped
    // through the layout's hot contents). Public because the networked
    // client assembles on its side of the wire from raw shares (usually
    // through Client::ReconstructTablePartial).
    TablePartial AssembleTablePartial(
        const PreparedLookup& prep, bool hot,
        const std::vector<std::vector<std::uint8_t>>& rows) const;

    // Merges the per-table partials into the caller-facing result
    // (embedding delivery, communication accounting, modeled latency).
    // `hot` is null when there is no hot table. Bit-identical to decoding
    // both tables in one pass: every slot a row delivers holds the exact
    // embedding bytes of its owner, so merge order cannot change bytes.
    LookupResult FinalizeLookupResult(const PreparedLookup& prep,
                                      const TablePartial& full,
                                      const TablePartial* hot) const;

  private:
    friend class Client;
    friend class ServingFrontEnd;

    // Builds a physical PIR table with co-located rows for the given row
    // owners (identity for the full table, hot contents for the hot table).
    PirTable BuildPhysicalTable(const EmbeddingTable& embeddings,
                                const std::vector<std::uint64_t>& owners) const;

    ServiceConfig config_;
    int dim_;
    std::size_t base_entry_bytes_;
    EmbeddingLayout layout_;
    Pbr full_pbr_;
    std::unique_ptr<Pbr> hot_pbr_;
    QueryPlanner planner_;
    // Dedicated answer pool when config.server_threads > 0; the engines
    // fall back to ThreadPool::Shared() otherwise.
    std::unique_ptr<ThreadPool> server_pool_;
    // Tables are logically replicated on two non-colluding servers; both
    // "servers" answer from the same in-process copy here. Null on a
    // planning-only service (ServiceConfig::planning_only), which never
    // answers.
    std::unique_ptr<PirTable> full_table_;
    std::unique_ptr<PirTable> hot_table_;
    std::atomic<std::uint64_t> clients_made_{0};
    // Declared last: its destructor joins the batcher thread while the
    // tables and pool above are still alive.
    std::unique_ptr<ServingFrontEnd> front_end_;
};

}  // namespace gpudpf
