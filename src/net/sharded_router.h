// Client-side fleet router: one logical serving endpoint over K shards x
// R replicas of PirServerNode, where each shard owns a window of the
// bin-relative row space and per-request compute per node scales with
// 1/K. A replicated deployment is the K=1 case: one shard, owning the
// whole row space, backed by R interchangeable replicas.
//
// Sharding works because DPF answer shares are XOR shares, additive (in
// GF(2)) over disjoint row ranges: a full-table answer share is the XOR of
// the per-range shares, so K nodes can each scan only rows
// [ShardRangeOf(bin_size, K, k)) of every bin and the client recovers the
// exact full-scan share by XORing the K partials in shard order
// (MergeShardShares). Replication works because lookups are deterministic
// in the client's state and every identically-configured node builds
// bit-identical tables, so any replica of a shard may answer that shard's
// part of any request. The merged bytes are bit-identical to an
// in-process lookup with the same client state — sharding and replication
// change who does the scanning, never the answer.
//
// Per request, the router:
//   1. runs the client-side phase locally (Client::Prepare with wire
//      keys) — ONE key set, identical for every shard; only the row
//      window differs per shard,
//   2. SCATTERS: uploads the ranged request to one replica of every shard
//      (send-only, so all K nodes scan concurrently), picked round-robin
//      over the shard's healthy replicas (the full set as a recovery
//      fallback when none is healthy). Connections are pooled per
//      (shard, replica) and shard-handshaken at dial time (kShardHello,
//      validated and echoed by the node),
//   3. GATHERS: collects each shard's kShardPartial stream in shard-index
//      order. A transport failure (dial/timeout/EOF/protocol violation)
//      marks the replica unhealthy and retries THAT shard on its other
//      replicas (a per-shard failover, counted per shard); a shard with no
//      replica left throws — a missing shard share would corrupt the
//      merge, so it fails loud, never silently,
//   4. merges the K partial shares (MergeShardShares) and reconstructs
//      locally, exactly like the in-process path.
//
// Rejections and server-side terminal failures propagate as
// ReplicaRequestError without retry: the node answered, and resubmitting
// would double-submit.
//
// A health thread pings every replica each health_period_ms
// (GPUDPF_NET_HEALTH_PERIOD_MS) with a request_timeout_ms
// (GPUDPF_NET_REQUEST_TIMEOUT_MS) deadline, flipping replicas
// healthy/unhealthy; CheckNow() runs one sweep synchronously for
// deterministic tests. Lookup() may be called from many threads
// concurrently (each thread with its own Client).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/service.h"
#include "src/net/remote_client.h"
#include "src/net/wire.h"

namespace gpudpf {
namespace net {

// An admission rejection or server-side terminal failure from a node
// that DID answer — deliberately not retried (see file comment).
class ReplicaRequestError : public std::runtime_error {
  public:
    ReplicaRequestError(const std::string& what, AdmissionStatus admission,
                        RequestStatus status)
        : std::runtime_error(what), admission_(admission), status_(status) {}

    // kAccepted when the failure was a terminal status, not admission.
    AdmissionStatus admission() const { return admission_; }
    RequestStatus status() const { return status_; }

  private:
    AdmissionStatus admission_;
    RequestStatus status_;
};

class ShardedRouter {
  public:
    struct Endpoint {
        std::string host = "127.0.0.1";
        std::uint16_t port = 0;
    };

    struct Options {
        // Per-request and per-probe I/O deadline; 0 = the
        // GPUDPF_NET_REQUEST_TIMEOUT_MS default (10000).
        int request_timeout_ms = 0;
        // Attempts per shard per lookup (first try + failovers across that
        // shard's replicas); 0 = the GPUDPF_NET_SHARD_ATTEMPTS default (2).
        int shard_attempts = 0;
        // Health sweep period; 0 = the GPUDPF_NET_HEALTH_PERIOD_MS
        // default (100). Ignored when health_thread is off.
        int health_period_ms = 0;
        // Off = no background sweeps; drive health with CheckNow()
        // (deterministic tests).
        bool health_thread = true;
    };

    // `shards[k]` lists the interchangeable replicas owning shard k; every
    // endpoint must serve an identically-configured service. `service`
    // supplies the expected geometry and result assembly (it may be
    // planning-only: the router never reads its tables). Must outlive the
    // router.
    ShardedRouter(PrivateEmbeddingService* service,
                  std::vector<std::vector<Endpoint>> shards, Options options);
    ~ShardedRouter();

    ShardedRouter(const ShardedRouter&) = delete;
    ShardedRouter& operator=(const ShardedRouter&) = delete;

    std::size_t shard_count() const { return shards_.size(); }

    struct LookupOutcome {
        PrivateEmbeddingService::LookupResult result;
        // Shards that needed at least one failover for this lookup.
        std::size_t shards_failed_over = 0;
    };

    // One private lookup for `client` (a Client of the router's service),
    // scattered across all shards. Throws ReplicaRequestError for
    // rejections/server failures and std::runtime_error when any shard
    // exhausts its attempts (no healthy replica) — never returns a
    // partial merge.
    LookupOutcome Lookup(PrivateEmbeddingService::Client* client,
                         const std::vector<std::uint64_t>& wanted,
                         RequestPriority priority = RequestPriority::kInteractive);

    // One synchronous health sweep over every replica of every shard.
    void CheckNow();

    // Healthy replicas of shard k.
    std::size_t healthy_count(std::size_t k) const;

    struct Stats {
        std::uint64_t requests = 0;   // lookups merged and answered
        std::uint64_t failovers = 0;  // per-shard retries, summed
        std::uint64_t rejected = 0;   // explicit node rejections
        std::uint64_t transport_errors = 0;  // failed attempts (any cause)
        std::uint64_t health_probes = 0;
    };
    Stats stats() const GPUDPF_EXCLUDES(mu_);

    // Failovers broken down by shard index (the smoke test's evidence that
    // a killed shard owner was covered by its sibling replica).
    std::vector<std::uint64_t> per_shard_failovers() const
        GPUDPF_EXCLUDES(mu_);

    // Stops the health thread and closes every pooled connection. Runs in
    // the destructor if not called explicitly.
    void Stop();

  private:
    struct ReplicaState {
        Endpoint endpoint;
        mutable Mutex mu;
        // Pooled connections, already shard-handshaken for this shard.
        std::vector<std::unique_ptr<NodeConnection>> idle
            GPUDPF_GUARDED_BY(mu);
        bool healthy GPUDPF_GUARDED_BY(mu) = true;
    };
    struct ShardState {
        ShardHelloFrame assignment;
        std::vector<std::unique_ptr<ReplicaState>> replicas;
        std::atomic<std::size_t> rr_next{0};
    };

    // Replica choice for one shard: healthy replicas first (round-robin),
    // the full set as a recovery fallback; excludes `exclude` unless it is
    // the only option.
    std::size_t PickReplica(ShardState& shard, std::ptrdiff_t exclude);
    std::unique_ptr<NodeConnection> Acquire(const ShardState& shard,
                                            ReplicaState& replica);
    void Release(ReplicaState& replica, std::unique_ptr<NodeConnection> conn);
    void MarkHealth(ReplicaState& replica, bool healthy);
    void Probe(const ShardState& shard, ReplicaState& replica);
    void HealthLoop();

    PrivateEmbeddingService* service_;
    Options options_;
    Hello hello_;
    std::vector<std::unique_ptr<ShardState>> shards_;
    std::atomic<std::uint64_t> next_request_id_{1};

    mutable Mutex mu_;
    CondVar stop_cv_;
    bool stop_ GPUDPF_GUARDED_BY(mu_) = false;
    Stats stats_ GPUDPF_GUARDED_BY(mu_);
    std::vector<std::uint64_t> shard_failovers_ GPUDPF_GUARDED_BY(mu_);
    std::thread health_thread_;
};

}  // namespace net
}  // namespace gpudpf
