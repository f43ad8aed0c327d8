// Fleet target: K PirServerNode shards (one replica each, every node over
// its own full service) on loopback, behind a ShardedRouter whose
// planning-only service twin prepares keys and reconstructs. Caller
// threads issue synchronous lookups; each drives its own Client.
#include <algorithm>
#include <atomic>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/net/remote_client.h"
#include "src/net/server_node.h"
#include "src/net/sharded_router.h"
#include "src/net/wire.h"
#include "src/pir/shard_merge.h"
#include "target.h"

namespace perfbench {
namespace {

using gpudpf::PirResponse;
using gpudpf::PrivateEmbeddingService;
namespace net = gpudpf::net;

constexpr int kTimeoutMs = 10'000;

net::ShardedRouter::Options RouterOptions() {
    net::ShardedRouter::Options o;
    o.request_timeout_ms = kTimeoutMs;
    o.shard_attempts = 2;
    o.health_period_ms = 100;
    o.health_thread = true;
    return o;
}

gpudpf::ServiceConfig PlanningConfig(const gpudpf::ServiceConfig& config) {
    gpudpf::ServiceConfig planning = config;
    planning.planning_only = true;
    return planning;
}

class FleetTarget final : public Target {
  public:
    FleetTarget(const Workload& workload, const Inputs& inputs)
        : workload_(workload), inputs_(inputs) {
        std::vector<std::vector<net::ShardedRouter::Endpoint>> shards;
        for (std::size_t k = 0; k < workload.fleet_shards; ++k) {
            services_.push_back(std::make_unique<PrivateEmbeddingService>(
                *inputs.embeddings, inputs.stats, workload.config));
            nodes_.push_back(std::make_unique<net::PirServerNode>(
                services_.back().get(), net::PirServerNode::Options{}));
            shards.push_back({{"127.0.0.1", nodes_.back()->port()}});
        }
        planning_ = std::make_unique<PrivateEmbeddingService>(
            *inputs.embeddings, inputs.stats, PlanningConfig(workload.config));
        router_ = std::make_unique<net::ShardedRouter>(planning_.get(), shards,
                                                       RouterOptions());
        auto first = planning_->MakeClient();
        const auto outcome = router_->Lookup(first.get(), inputs.Wanted(0));
        if (!OracleMatches(*inputs.embeddings, inputs.Wanted(0),
                           outcome.result)) {
            throw std::runtime_error("first lookup failed the oracle");
        }
        for (std::size_t c = 0; c < workload.clients; ++c) {
            clients_.push_back(planning_->MakeClient());
        }
        hello_ = net::ServiceHello(*planning_);
        for (std::size_t k = 0; k < workload.fleet_shards; ++k) {
            net::ShardHelloFrame a;
            a.shard_index = static_cast<std::uint32_t>(k);
            a.shard_count = static_cast<std::uint32_t>(workload.fleet_shards);
            const auto full = gpudpf::ShardRangeOf(hello_.full_bin_size,
                                                   workload.fleet_shards, k);
            const auto hot = gpudpf::ShardRangeOf(hello_.hot_bin_size,
                                                  workload.fleet_shards, k);
            a.full_row_begin = full.begin;
            a.full_row_end = full.end;
            a.hot_row_begin = hot.begin;
            a.hot_row_end = hot.end;
            assignments_.push_back(a);
        }
        conns_.resize(workload.outstanding);
    }

    ~FleetTarget() override {
        conns_.clear();
        router_.reset();
        for (auto& node : nodes_) node->Stop();
    }

    RunOutput Run(const RunOptions& options) override;

    std::size_t CountOneCallDifferences(
        const std::map<std::uint64_t, LookupResult>& results) override {
        PrivateEmbeddingService twin(*inputs_.embeddings, inputs_.stats,
                                     PlanningConfig(workload_.config));
        std::vector<std::vector<net::ShardedRouter::Endpoint>> shards;
        for (const auto& node : nodes_) {
            shards.push_back({{"127.0.0.1", node->port()}});
        }
        net::ShardedRouter router(&twin, shards, RouterOptions());
        twin.MakeClient();  // mirrors the set-up client
        std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
        for (std::size_t c = 0; c < workload_.clients; ++c) {
            clients.push_back(twin.MakeClient());
        }
        std::size_t differ = 0;
        for (const auto& [seq, result] : results) {
            const auto again = router.Lookup(clients[seq % clients.size()].get(),
                                             inputs_.Wanted(seq));
            differ += SameResult(again.result, result) ? 0 : 1;
        }
        return differ;
    }

    FrontEndTotals Totals() const override {
        FrontEndTotals t;
        for (const auto& service : services_) {
            const auto c = service->front_end().counters();
            t.batches += c.batches;
            t.completed += c.completed;
            t.rejected += c.rejected_queue_full + c.rejected_invalid;
            t.deadline_expired += c.deadline_expired;
            t.last_linger_us = c.last_linger_us;
        }
        return t;
    }

    NetCounts Net() const override {
        NetCounts n;
        n.request_bytes = request_bytes_.load();
        n.reply_bytes = reply_bytes_.load();
        double rows = 0.0;
        for (const auto& node : nodes_) {
            const auto s = node->stats();
            if (s.completed > 0) {
                rows += static_cast<double>(s.rows_scanned) /
                        static_cast<double>(s.completed);
            }
        }
        n.rows_per_node_per_lookup = rows / static_cast<double>(nodes_.size());
        const auto r = router_->stats();
        n.failovers = r.failovers;
        n.transport_errors = r.transport_errors + decomposed_errors_.load();
        return n;
    }

    const PrivateEmbeddingService& Geometry() const override {
        return *planning_;
    }

  private:
    // One traced lookup on the calling thread; false or a throw on failure.
    bool Decomposed(std::size_t thread, PrivateEmbeddingService::Client* client,
                    std::uint64_t seq, double origin, Tracer* tracer,
                    std::size_t* inflight_max, double* first, LookupResult* out);
    // The caller thread's shard connections, (re)dialed as needed.
    bool Connections(std::size_t thread);

    const Workload& workload_;
    const Inputs& inputs_;
    std::vector<std::unique_ptr<PrivateEmbeddingService>> services_;
    std::vector<std::unique_ptr<net::PirServerNode>> nodes_;
    std::unique_ptr<PrivateEmbeddingService> planning_;
    std::unique_ptr<net::ShardedRouter> router_;
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients_;
    net::Hello hello_;
    std::vector<net::ShardHelloFrame> assignments_;
    // Decomposed path: per caller thread, one connection per shard.
    std::vector<std::vector<std::unique_ptr<net::NodeConnection>>> conns_;
    std::atomic<std::uint64_t> next_request_id_{1};
    std::atomic<double> request_bytes_{0.0};
    std::atomic<double> reply_bytes_{0.0};
    std::atomic<std::uint64_t> decomposed_errors_{0};
    std::uint64_t next_seq_ = 0;
};

bool FleetTarget::Connections(std::size_t thread) {
    auto& conns = conns_[thread];
    conns.resize(nodes_.size());
    for (std::size_t k = 0; k < nodes_.size(); ++k) {
        if (conns[k] != nullptr && conns[k]->usable()) continue;
        conns[k] = net::NodeConnection::Dial("127.0.0.1", nodes_[k]->port(),
                                             hello_, kTimeoutMs);
        if (conns[k] == nullptr ||
            !conns[k]->ShardHello(assignments_[k], kTimeoutMs)) {
            conns[k].reset();
            return false;
        }
    }
    return true;
}

bool FleetTarget::Decomposed(std::size_t thread,
                             PrivateEmbeddingService::Client* client,
                             std::uint64_t seq, double origin, Tracer* tracer,
                             std::size_t* inflight_max, double* first,
                             LookupResult* out) {
    const std::uint64_t root = tracer->NewId();
    PrivateEmbeddingService::PreparedLookup prep;
    {
        ScopedSpan span(tracer, "Client::Prepare", seq, root);
        prep = client->Prepare(inputs_.Wanted(seq), /*keep_wire_keys=*/true);
    }
    CaptureReplay(prep);
    if (!Connections(thread)) {
        ++decomposed_errors_;
        return false;
    }
    auto& conns = conns_[thread];
    const std::size_t shard_count = conns.size();
    net::LookupRequestFrame req;
    req.request_id = next_request_id_.fetch_add(1);
    req.has_hot = !prep.wire_hot_keys0.empty();
    req.has_range = true;
    req.full_keys0 = std::move(prep.wire_full_keys0);
    req.full_keys1 = std::move(prep.wire_full_keys1);
    req.hot_keys0 = std::move(prep.wire_hot_keys0);
    req.hot_keys1 = std::move(prep.wire_hot_keys1);
    const bool measure_frames = request_bytes_.load() == 0.0;
    double request_bytes = 0.0;
    for (std::size_t k = 0; k < shard_count; ++k) {
        req.full_row_begin = assignments_[k].full_row_begin;
        req.full_row_end = assignments_[k].full_row_end;
        req.hot_row_begin = assignments_[k].hot_row_begin;
        req.hot_row_end = assignments_[k].hot_row_end;
        if (measure_frames) {
            request_bytes += static_cast<double>(
                net::kHeaderBytes + net::EncodeLookupRequest(req).size());
        }
        bool sent = false;
        {
            ScopedSpan span(tracer, "NodeConnection::SendLookup", seq, root);
            sent = conns[k]->SendLookup(req);
        }
        if (!sent) {
            ++decomposed_errors_;
            return false;
        }
    }
    for (const auto& service : services_) {
        *inflight_max = std::max(*inflight_max, service->front_end().inflight());
    }
    std::vector<net::NodeConnection::ShardReply> replies(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) {
        {
            ScopedSpan span(tracer, "NodeConnection::CollectShard", seq, root);
            replies[k] =
                conns[k]->CollectShard(req.request_id, req.has_hot, kTimeoutMs);
        }
        if (replies[k].status != net::NodeConnection::LookupStatus::kComplete) {
            if (replies[k].status ==
                net::NodeConnection::LookupStatus::kTransport) {
                ++decomposed_errors_;
            }
            return false;
        }
    }
    if (measure_frames) {
        double reply_bytes = 0.0;
        for (const auto& r : replies) {
            reply_bytes += static_cast<double>(
                net::kHeaderBytes + net::EncodeShardPartial(r.full).size());
            if (req.has_hot) {
                reply_bytes += static_cast<double>(
                    net::kHeaderBytes + net::EncodeShardPartial(r.hot).size());
            }
        }
        request_bytes_.store(request_bytes);
        reply_bytes_.store(reply_bytes);
    }
    // Per table and server, merge the K shard shares of every bin.
    auto merge = [&](auto pick) {
        const std::size_t bins = pick(replies[0]).size();
        std::vector<PirResponse> merged(bins);
        std::vector<PirResponse> partials(shard_count);
        for (std::size_t k = 0; k < shard_count; ++k) {
            if (pick(replies[k]).size() != bins) {
                throw std::runtime_error("shard partial bin-count mismatch");
            }
        }
        for (std::size_t b = 0; b < bins; ++b) {
            for (std::size_t k = 0; k < shard_count; ++k) {
                partials[k] = std::move(pick(replies[k])[b]);
            }
            merged[b] = gpudpf::MergeShardShares(partials);
        }
        return merged;
    };
    std::vector<PirResponse> full0, full1, hot0, hot1;
    {
        ScopedSpan span(tracer, "MergeShardShares", seq, root);
        full0 = merge([](auto& r) -> auto& { return r.full.server0; });
        full1 = merge([](auto& r) -> auto& { return r.full.server1; });
        if (req.has_hot) {
            hot0 = merge([](auto& r) -> auto& { return r.hot.server0; });
            hot1 = merge([](auto& r) -> auto& { return r.hot.server1; });
        }
    }
    PrivateEmbeddingService::TablePartial hot, full;
    if (req.has_hot) {
        ScopedSpan span(tracer, "Client::ReconstructTablePartial", seq, root);
        hot = client->ReconstructTablePartial(prep, /*hot=*/true, hot0, hot1);
    }
    *first = Now();
    {
        ScopedSpan span(tracer, "Client::ReconstructTablePartial", seq, root);
        full = client->ReconstructTablePartial(prep, /*hot=*/false, full0,
                                               full1);
    }
    {
        ScopedSpan span(tracer, "FinalizeLookupResult", seq, root);
        *out = planning_->FinalizeLookupResult(prep, full,
                                               req.has_hot ? &hot : nullptr);
    }
    tracer->Record("lookup", seq, 0, origin, Now(), root);
    return true;
}

RunOutput FleetTarget::Run(const RunOptions& options) {
    const PhaseSpec& spec = options.spec;
    const std::size_t threads = workload_.outstanding;
    const std::uint64_t base = next_seq_;
    struct PerThread {
        PhaseResult phase;
        std::map<std::uint64_t, LookupResult> results;
        std::size_t inflight_max = 0;
    };
    std::vector<PerThread> per(threads);
    const std::vector<double> schedule =
        spec.open ? ArrivalSchedule(spec.rate_qps, spec.seconds,
                                    spec.schedule_seed)
                  : std::vector<double>{};
    std::atomic<std::size_t> next_open{0};
    const double t0 = Now();
    const double end = t0 + spec.seconds;

    auto one = [&](std::size_t t, std::uint64_t seq, double origin) {
        PerThread& me = per[t];
        ++me.phase.attempted;
        const double start = Now();
        LookupResult result;
        double first = 0.0;
        PrivateEmbeddingService::Client* client = clients_[t].get();
        bool ok = false;
        // Runs on a caller thread: a throwing step is a failed request,
        // never an exception escaping the thread.
        try {
            if (options.tracer != nullptr) {
                ok = Decomposed(t, client, seq, origin, options.tracer,
                                &me.inflight_max, &first, &result);
            } else {
                result = router_->Lookup(client, inputs_.Wanted(seq)).result;
                ok = true;
            }
        } catch (const std::exception&) {
            ok = false;
        }
        const double done = Now();
        if (!ok) {
            ++me.phase.failed;
            return;
        }
        if (!OracleMatches(*inputs_.embeddings, inputs_.Wanted(seq), result)) {
            ++me.phase.mismatched;
            return;
        }
        me.phase.samples.push_back(
            Sample{origin, start, options.tracer != nullptr ? first : done,
                   done});
        if (options.keep_results) me.results.emplace(seq, std::move(result));
    };

    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            if (spec.open) {
                for (;;) {
                    const std::size_t i = next_open.fetch_add(1);
                    if (i >= schedule.size()) break;
                    const double origin = t0 + schedule[i];
                    SleepUntil(origin);
                    one(t, base + i, origin);
                }
                return;
            }
            // Closed loop: thread t owns seqs base + t, base + t + T, ...,
            // so each client sees a fixed request order.
            for (std::uint64_t j = 0;; ++j) {
                const std::uint64_t seq = base + t + threads * j;
                if (options.max_requests > 0
                        ? seq >= base + options.max_requests
                        : Now() >= end) {
                    break;
                }
                one(t, seq, Now());
            }
        });
    }
    for (auto& w : workers) w.join();

    RunOutput out;
    out.phase.name = spec.name;
    out.phase.t0 = t0;
    out.phase.seconds =
        options.max_requests > 0 ? Now() - t0 : spec.seconds;
    std::uint64_t used = spec.open ? schedule.size() : 0;
    for (PerThread& me : per) {
        out.phase.attempted += me.phase.attempted;
        out.phase.failed += me.phase.failed;
        out.phase.mismatched += me.phase.mismatched;
        out.phase.samples.insert(out.phase.samples.end(),
                                 me.phase.samples.begin(),
                                 me.phase.samples.end());
        out.results.merge(me.results);
        out.inflight_max = std::max(out.inflight_max, me.inflight_max);
    }
    if (!spec.open) used = out.phase.attempted + threads;
    next_seq_ = base + used;
    return out;
}

}  // namespace

std::unique_ptr<Target> MakeFleetTarget(const Workload& workload,
                                        const Inputs& inputs) {
    return std::make_unique<FleetTarget>(workload, inputs);
}

}  // namespace perfbench
