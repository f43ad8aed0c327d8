#include "src/net/sharded_router.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/common/env.h"
#include "src/net/server_node.h"
#include "src/pir/shard_merge.h"

namespace gpudpf {
namespace net {

namespace {
// Idle connections kept per (shard, replica); beyond this, released
// connections are simply closed.
constexpr std::size_t kMaxIdlePerReplica = 16;
}  // namespace

ShardedRouter::ShardedRouter(PrivateEmbeddingService* service,
                             std::vector<std::vector<Endpoint>> shards,
                             Options options)
    : service_(service),
      options_(options),
      hello_(ServiceHello(*service)) {
    if (shards.empty()) {
        throw std::invalid_argument("ShardedRouter: no shards");
    }
    if (options_.request_timeout_ms <= 0) {
        options_.request_timeout_ms = static_cast<int>(
            GpudpfEnvU64("GPUDPF_NET_REQUEST_TIMEOUT_MS", 10'000));
    }
    if (options_.shard_attempts <= 0) {
        options_.shard_attempts =
            static_cast<int>(GpudpfEnvU64("GPUDPF_NET_SHARD_ATTEMPTS", 2));
        if (options_.shard_attempts <= 0) options_.shard_attempts = 1;
    }
    if (options_.health_period_ms <= 0) {
        options_.health_period_ms = static_cast<int>(
            GpudpfEnvU64("GPUDPF_NET_HEALTH_PERIOD_MS", 100));
    }
    const std::size_t shard_count = shards.size();
    shards_.reserve(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) {
        if (shards[k].empty()) {
            throw std::invalid_argument(
                "ShardedRouter: shard with no replicas");
        }
        auto shard = std::make_unique<ShardState>();
        shard->assignment.shard_index = static_cast<std::uint32_t>(k);
        shard->assignment.shard_count =
            static_cast<std::uint32_t>(shard_count);
        const ShardRange full =
            ShardRangeOf(hello_.full_bin_size, shard_count, k);
        shard->assignment.full_row_begin = full.begin;
        shard->assignment.full_row_end = full.end;
        // hot_bin_size is 0 for a hot-less service; ShardRangeOf then
        // yields the empty window the node expects.
        const ShardRange hot =
            ShardRangeOf(hello_.hot_bin_size, shard_count, k);
        shard->assignment.hot_row_begin = hot.begin;
        shard->assignment.hot_row_end = hot.end;
        shard->replicas.reserve(shards[k].size());
        for (auto& endpoint : shards[k]) {
            auto state = std::make_unique<ReplicaState>();
            state->endpoint = std::move(endpoint);
            shard->replicas.push_back(std::move(state));
        }
        shards_.push_back(std::move(shard));
    }
    {
        MutexLock lock(mu_);
        shard_failovers_.assign(shard_count, 0);
    }
    if (options_.health_thread) {
        health_thread_ = std::thread([this] { HealthLoop(); });
    }
}

ShardedRouter::~ShardedRouter() { Stop(); }

void ShardedRouter::Stop() {
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    stop_cv_.NotifyAll();
    if (health_thread_.joinable()) health_thread_.join();
    for (auto& shard : shards_) {
        for (auto& replica : shard->replicas) {
            MutexLock lock(replica->mu);
            replica->idle.clear();
        }
    }
}

ShardedRouter::Stats ShardedRouter::stats() const {
    MutexLock lock(mu_);
    return stats_;
}

std::vector<std::uint64_t> ShardedRouter::per_shard_failovers() const {
    MutexLock lock(mu_);
    return shard_failovers_;
}

std::size_t ShardedRouter::healthy_count(std::size_t k) const {
    std::size_t count = 0;
    for (const auto& replica : shards_.at(k)->replicas) {
        MutexLock lock(replica->mu);
        if (replica->healthy) ++count;
    }
    return count;
}

std::size_t ShardedRouter::PickReplica(ShardState& shard,
                                       std::ptrdiff_t exclude) {
    const std::size_t n = shard.replicas.size();
    auto eligible = [&](std::size_t i, bool need_healthy) {
        if (static_cast<std::ptrdiff_t>(i) == exclude && n > 1) return false;
        if (!need_healthy) return true;
        MutexLock lock(shard.replicas[i]->mu);
        return shard.replicas[i]->healthy;
    };
    // Healthy replicas first; if none qualify, fall back to the full set —
    // the attempt doubles as a recovery probe during a shard outage.
    for (const bool need_healthy : {true, false}) {
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t i =
                shard.rr_next.fetch_add(1, std::memory_order_relaxed) % n;
            if (eligible(i, need_healthy)) return i;
        }
    }
    return exclude >= 0 ? static_cast<std::size_t>(exclude) : 0;
}

std::unique_ptr<NodeConnection> ShardedRouter::Acquire(
    const ShardState& shard, ReplicaState& replica) {
    {
        MutexLock lock(replica.mu);
        while (!replica.idle.empty()) {
            auto conn = std::move(replica.idle.back());
            replica.idle.pop_back();
            if (conn->usable()) return conn;
        }
    }
    auto conn =
        NodeConnection::Dial(replica.endpoint.host, replica.endpoint.port,
                             hello_, options_.request_timeout_ms);
    if (conn == nullptr) return nullptr;
    // Shard handshake at dial time: the node validates the assignment
    // against its geometry and echoes it; every pooled connection of this
    // replica is therefore ready for ranged lookups.
    if (!conn->ShardHello(shard.assignment, options_.request_timeout_ms)) {
        return nullptr;
    }
    return conn;
}

void ShardedRouter::Release(ReplicaState& replica,
                            std::unique_ptr<NodeConnection> conn) {
    if (conn == nullptr || !conn->usable()) return;
    MutexLock lock(replica.mu);
    if (replica.idle.size() < kMaxIdlePerReplica) {
        replica.idle.push_back(std::move(conn));
    }
}

void ShardedRouter::MarkHealth(ReplicaState& replica, bool healthy) {
    MutexLock lock(replica.mu);
    replica.healthy = healthy;
    // A replica that just failed has a pool of connections into the same
    // failure; drop them so recovery starts from fresh dials.
    if (!healthy) replica.idle.clear();
}

ShardedRouter::LookupOutcome ShardedRouter::Lookup(
    PrivateEmbeddingService::Client* client,
    const std::vector<std::uint64_t>& wanted, RequestPriority priority) {
    auto prep = client->Prepare(wanted, /*keep_wire_keys=*/true);
    // One key set for the whole fleet: every shard evaluates the same
    // keys, only over its own row window. The range fields are rewritten
    // per shard just before each upload.
    LookupRequestFrame req;
    req.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    req.priority = priority;
    req.has_hot = !prep.wire_hot_keys0.empty();
    req.has_range = true;
    req.full_keys0 = std::move(prep.wire_full_keys0);
    req.full_keys1 = std::move(prep.wire_full_keys1);
    req.hot_keys0 = std::move(prep.wire_hot_keys0);
    req.hot_keys1 = std::move(prep.wire_hot_keys1);

    const std::size_t shard_count = shards_.size();
    struct Pending {
        std::size_t replica = 0;
        std::unique_ptr<NodeConnection> conn;
        int attempts = 0;   // send attempts consumed (success or failure)
        int failovers = 0;  // attempts beyond the first
    };
    std::vector<Pending> pending(shard_count);

    // One (dial+)send attempt for shard k; returns false on transport
    // failure (attempt consumed, replica marked unhealthy).
    auto try_send = [&](std::size_t k, std::ptrdiff_t exclude) {
        ShardState& shard = *shards_[k];
        Pending& p = pending[k];
        ++p.attempts;
        if (p.attempts > 1) ++p.failovers;
        p.replica = PickReplica(shard, exclude);
        ReplicaState& replica = *shard.replicas[p.replica];
        p.conn = Acquire(shard, replica);
        req.full_row_begin = shard.assignment.full_row_begin;
        req.full_row_end = shard.assignment.full_row_end;
        req.hot_row_begin = shard.assignment.hot_row_begin;
        req.hot_row_end = shard.assignment.hot_row_end;
        if (p.conn != nullptr && p.conn->SendLookup(req)) return true;
        p.conn.reset();
        MarkHealth(replica, false);
        MutexLock lock(mu_);
        ++stats_.transport_errors;
        return false;
    };
    auto shard_dead = [&](std::size_t k) -> std::runtime_error {
        // A missing shard share would corrupt the merge, so a shard with
        // no healthy replica is a loud per-request failure.
        return std::runtime_error(
            "ShardedRouter::Lookup: shard " + std::to_string(k) +
            " failed on all attempts (no healthy replica)");
    };

    // SCATTER: upload to one replica of every shard before reading any
    // reply, so all nodes scan their windows concurrently.
    for (std::size_t k = 0; k < shard_count; ++k) {
        std::ptrdiff_t exclude = -1;
        while (!try_send(k, exclude)) {
            if (pending[k].attempts >= options_.shard_attempts) {
                throw shard_dead(k);
            }
            exclude = static_cast<std::ptrdiff_t>(pending[k].replica);
        }
    }

    // GATHER in shard-index order; a transport failure mid-collect fails
    // over to the shard's other replicas with a fresh synchronous
    // send+collect.
    std::vector<NodeConnection::ShardReply> replies(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) {
        Pending& p = pending[k];
        for (;;) {
            auto reply = p.conn->CollectShard(req.request_id, req.has_hot,
                                              options_.request_timeout_ms);
            if (reply.status == NodeConnection::LookupStatus::kTransport) {
                ReplicaState& replica = *shards_[k]->replicas[p.replica];
                p.conn.reset();
                MarkHealth(replica, false);
                {
                    MutexLock lock(mu_);
                    ++stats_.transport_errors;
                }
                std::ptrdiff_t exclude =
                    static_cast<std::ptrdiff_t>(p.replica);
                for (;;) {
                    if (p.attempts >= options_.shard_attempts) {
                        throw shard_dead(k);
                    }
                    if (try_send(k, exclude)) break;
                    exclude = static_cast<std::ptrdiff_t>(p.replica);
                }
                continue;
            }
            if (reply.status == NodeConnection::LookupStatus::kRejected) {
                {
                    MutexLock lock(mu_);
                    ++stats_.rejected;
                }
                throw ReplicaRequestError(
                    std::string("shard node rejected request: ") +
                        AdmissionStatusName(reply.rejection),
                    reply.rejection, RequestStatus::kFailed);
            }
            if (reply.status == NodeConnection::LookupStatus::kFailed) {
                throw ReplicaRequestError(
                    std::string("shard request finished ") +
                        RequestStatusName(reply.final_status),
                    AdmissionStatus::kAccepted, reply.final_status);
            }
            if (reply.full.shard_index != k ||
                (req.has_hot && reply.hot.shard_index != k)) {
                throw std::runtime_error(
                    "ShardedRouter::Lookup: partial tagged with wrong "
                    "shard index");
            }
            Release(*shards_[k]->replicas[p.replica], std::move(p.conn));
            replies[k] = std::move(reply);
            break;
        }
    }

    // MERGE: per table, per server, per bin, XOR the K shard shares in
    // shard-index order — exactly the full-scan share (XOR over disjoint
    // row ranges commutes with the scan split).
    auto merge_lists =
        [&](auto pick) -> std::vector<PirResponse> {
        std::vector<PirResponse> out;
        for (std::size_t k = 0; k < shard_count; ++k) {
            const std::vector<PirResponse>& part = pick(replies[k]);
            if (k == 0) out.resize(part.size());
            if (part.size() != out.size()) {
                throw std::runtime_error(
                    "ShardedRouter::Lookup: shard partial bin-count "
                    "mismatch");
            }
            for (std::size_t b = 0; b < out.size(); ++b) {
                AccumulateShare(out[b], part[b]);
            }
        }
        return out;
    };
    const auto full0 = merge_lists(
        [](const NodeConnection::ShardReply& r)
            -> const std::vector<PirResponse>& { return r.full.server0; });
    const auto full1 = merge_lists(
        [](const NodeConnection::ShardReply& r)
            -> const std::vector<PirResponse>& { return r.full.server1; });

    // Local reconstruction: same session code, same decode, same merge as
    // the in-process path — the bytes match it exactly.
    auto full = client->ReconstructTablePartial(prep, /*hot=*/false, full0,
                                                full1);
    PrivateEmbeddingService::TablePartial hot;
    if (req.has_hot) {
        const auto hot0 = merge_lists(
            [](const NodeConnection::ShardReply& r)
                -> const std::vector<PirResponse>& { return r.hot.server0; });
        const auto hot1 = merge_lists(
            [](const NodeConnection::ShardReply& r)
                -> const std::vector<PirResponse>& { return r.hot.server1; });
        hot = client->ReconstructTablePartial(prep, /*hot=*/true, hot0, hot1);
    }
    LookupOutcome outcome;
    outcome.result = service_->FinalizeLookupResult(
        prep, full, req.has_hot ? &hot : nullptr);
    {
        MutexLock lock(mu_);
        ++stats_.requests;
        for (std::size_t k = 0; k < shard_count; ++k) {
            if (pending[k].failovers > 0) {
                ++outcome.shards_failed_over;
                stats_.failovers +=
                    static_cast<std::uint64_t>(pending[k].failovers);
                shard_failovers_[k] +=
                    static_cast<std::uint64_t>(pending[k].failovers);
            }
        }
    }
    return outcome;
}

void ShardedRouter::Probe(const ShardState& shard, ReplicaState& replica) {
    {
        MutexLock lock(mu_);
        ++stats_.health_probes;
    }
    auto conn = Acquire(shard, replica);
    const std::uint64_t nonce =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    if (conn != nullptr && conn->Ping(nonce, options_.request_timeout_ms)) {
        MarkHealth(replica, true);
        Release(replica, std::move(conn));
    } else {
        MarkHealth(replica, false);
    }
}

void ShardedRouter::CheckNow() {
    for (auto& shard : shards_) {
        for (auto& replica : shard->replicas) Probe(*shard, *replica);
    }
}

void ShardedRouter::HealthLoop() {
    const auto period = std::chrono::milliseconds(options_.health_period_ms);
    for (;;) {
        {
            MutexLock lock(mu_);
            if (stop_) return;
            stop_cv_.WaitUntil(mu_, std::chrono::steady_clock::now() + period);
            if (stop_) return;
        }
        CheckNow();
    }
}

}  // namespace net
}  // namespace gpudpf
