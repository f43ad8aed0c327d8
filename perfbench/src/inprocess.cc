// In-process target: one PrivateEmbeddingService driven by a single
// generator thread through non-blocking submissions with completion
// callbacks. Every client is prepared on the generator thread only.
#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <stdexcept>
#include <utility>

#include "src/common/mutex.h"
#include "target.h"

namespace perfbench {

using gpudpf::MutexLock;
using gpudpf::PrivateEmbeddingService;
using gpudpf::RequestStatus;
using gpudpf::ServingFrontEnd;

namespace {

// State of one submitted request. The callbacks hold it by shared_ptr; the
// generator drops the handle (which holds the callbacks) once the request
// is drained, which breaks the reference cycle.
struct Slot {
    std::uint64_t seq = 0;
    double origin = 0.0;
    double start = 0.0;
    double submit_raw_at = 0.0;  // decomposed path: SubmitRaw call start
    std::atomic<double> raw_first{-1.0};
    std::atomic<double> first{-1.0};
    std::atomic<double> done{-1.0};
    std::atomic<int> status{static_cast<int>(RequestStatus::kInFlight)};
    ServingFrontEnd::RequestHandle handle;

    // Decomposed path. `prep` is written before submission and only read
    // afterwards; the partials and result are guarded by `mu`, except
    // that the callback completing the last partial reads them unlocked
    // once no other writer remains.
    std::uint64_t root = 0;
    PrivateEmbeddingService::PreparedLookup prep;
    gpudpf::Mutex mu;
    PrivateEmbeddingService::TablePartial full, hot;
    int expected = 0;
    int got = 0;
    LookupResult result;
    bool has_result = false;
    bool error = false;
};

void SetOnce(std::atomic<double>& slot, double value) {
    double unset = -1.0;
    slot.compare_exchange_strong(unset, value);
}

// Completed requests handed from callbacks to the generator thread.
struct DoneQueue {
    gpudpf::Mutex mu;
    gpudpf::CondVar cv;
    std::vector<std::shared_ptr<Slot>> ready GPUDPF_GUARDED_BY(mu);

    void Push(std::shared_ptr<Slot> slot) {
        {
            MutexLock lock(mu);
            ready.push_back(std::move(slot));
        }
        cv.NotifyOne();
    }

    // Waits until something is ready or `deadline` (Now() seconds).
    std::vector<std::shared_ptr<Slot>> TakeUntil(double deadline) {
        const auto until =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   std::max(0.0, deadline - Now())));
        MutexLock lock(mu);
        while (ready.empty() && Clock::now() < until) {
            cv.WaitUntil(mu, until);
        }
        std::vector<std::shared_ptr<Slot>> out;
        out.swap(ready);
        return out;
    }
};

class InProcessTarget final : public Target {
  public:
    InProcessTarget(const Workload& workload, const Inputs& inputs)
        : workload_(workload), inputs_(inputs) {
        service_ = std::make_unique<PrivateEmbeddingService>(
            *inputs.embeddings, inputs.stats, workload.config);
        auto first = service_->MakeClient();
        const auto result = first->Lookup(inputs.Wanted(0));
        if (!OracleMatches(*inputs.embeddings, inputs.Wanted(0), result)) {
            throw std::runtime_error("first lookup failed the oracle");
        }
        for (std::size_t c = 0; c < workload.clients; ++c) {
            clients_.push_back(service_->MakeClient());
        }
    }

    RunOutput Run(const RunOptions& options) override;

    std::size_t CountOneCallDifferences(
        const std::map<std::uint64_t, LookupResult>& results) override {
        PrivateEmbeddingService twin(*inputs_.embeddings, inputs_.stats,
                                     workload_.config);
        twin.MakeClient();  // mirrors the set-up client
        std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
        for (std::size_t c = 0; c < workload_.clients; ++c) {
            clients.push_back(twin.MakeClient());
        }
        std::size_t differ = 0;
        for (const auto& [seq, result] : results) {
            const auto again =
                clients[seq % clients.size()]->Lookup(inputs_.Wanted(seq));
            differ += SameResult(again, result) ? 0 : 1;
        }
        return differ;
    }

    FrontEndTotals Totals() const override {
        const auto c = service_->front_end().counters();
        FrontEndTotals t;
        t.batches = c.batches;
        t.completed = c.completed;
        t.rejected = c.rejected_queue_full + c.rejected_invalid;
        t.deadline_expired = c.deadline_expired;
        t.last_linger_us = c.last_linger_us;
        return t;
    }

    NetCounts Net() const override { return NetCounts{}; }

    const PrivateEmbeddingService& Geometry() const override {
        return *service_;
    }

  private:
    void SubmitOneCall(const std::shared_ptr<Slot>& slot,
                       PrivateEmbeddingService::Client* client,
                       const std::shared_ptr<DoneQueue>& queue);
    void SubmitDecomposed(const std::shared_ptr<Slot>& slot,
                          PrivateEmbeddingService::Client* client,
                          const std::shared_ptr<DoneQueue>& queue,
                          Tracer* tracer);

    const Workload& workload_;
    const Inputs& inputs_;
    std::unique_ptr<PrivateEmbeddingService> service_;
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients_;
    std::uint64_t next_seq_ = 0;
};

std::function<void(RequestStatus)> CompletionCallback(
    const std::shared_ptr<Slot>& slot, const std::shared_ptr<DoneQueue>& queue) {
    return [slot, queue](RequestStatus status) {
        slot->status.store(static_cast<int>(status));
        slot->done.store(Now());
        queue->Push(slot);
    };
}

void InProcessTarget::SubmitOneCall(const std::shared_ptr<Slot>& slot,
                                    PrivateEmbeddingService::Client* client,
                                    const std::shared_ptr<DoneQueue>& queue) {
    ServingFrontEnd::SubmitOptions opts;
    opts.on_partial = [slot](const ServingFrontEnd::TablePartial&) {
        SetOnce(slot->first, Now());
    };
    opts.on_complete = CompletionCallback(slot, queue);
    slot->handle = service_->front_end().SubmitRequest(
        {client, inputs_.Wanted(slot->seq)}, std::move(opts));
}

void InProcessTarget::SubmitDecomposed(const std::shared_ptr<Slot>& slot,
                                       PrivateEmbeddingService::Client* client,
                                       const std::shared_ptr<DoneQueue>& queue,
                                       Tracer* tracer) {
    slot->root = tracer->NewId();
    {
        ScopedSpan span(tracer, "Client::Prepare", slot->seq, slot->root);
        slot->prep = client->Prepare(inputs_.Wanted(slot->seq));
    }
    CaptureReplay(slot->prep);
    gpudpf::RawLookup raw;
    raw.full_server0 = std::move(slot->prep.full_server0);
    raw.full_server1 = std::move(slot->prep.full_server1);
    raw.hot_server0 = std::move(slot->prep.hot_server0);
    raw.hot_server1 = std::move(slot->prep.hot_server1);
    raw.has_hot = !raw.hot_server0.jobs.empty();
    slot->expected = raw.has_hot ? 2 : 1;

    const PrivateEmbeddingService* service = service_.get();
    ServingFrontEnd::RawSubmitOptions opts;
    opts.on_raw_partial = [slot, client, service,
                           tracer](gpudpf::RawTablePartial&& part) {
        SetOnce(slot->raw_first, Now());
        try {
            PrivateEmbeddingService::TablePartial table;
            {
                ScopedSpan span(tracer, "Client::ReconstructTablePartial",
                                slot->seq, slot->root);
                table = client->ReconstructTablePartial(
                    slot->prep, part.hot, part.server0, part.server1);
            }
            SetOnce(slot->first, Now());
            bool last = false;
            {
                MutexLock lock(slot->mu);
                (part.hot ? slot->hot : slot->full) = std::move(table);
                last = ++slot->got == slot->expected;
            }
            if (!last) return;
            LookupResult result;
            {
                ScopedSpan span(tracer, "FinalizeLookupResult", slot->seq,
                                slot->root);
                result = service->FinalizeLookupResult(
                    slot->prep, slot->full,
                    slot->expected == 2 ? &slot->hot : nullptr);
            }
            MutexLock lock(slot->mu);
            slot->result = std::move(result);
            slot->has_result = true;
        } catch (...) {
            MutexLock lock(slot->mu);
            slot->error = true;
        }
    };
    opts.on_complete = CompletionCallback(slot, queue);
    ScopedSpan span(tracer, "ServingFrontEnd::SubmitRaw", slot->seq,
                    slot->root);
    slot->submit_raw_at = Now();
    slot->handle =
        service_->front_end().SubmitRaw(std::move(raw), std::move(opts));
}

RunOutput InProcessTarget::Run(const RunOptions& options) {
    const PhaseSpec& spec = options.spec;
    Tracer* tracer = options.tracer;
    RunOutput out;
    PhaseResult& phase = out.phase;
    phase.name = spec.name;
    auto queue = std::make_shared<DoneQueue>();
    std::map<std::uint64_t, std::shared_ptr<Slot>> pending;

    auto drain = [&](const std::vector<std::shared_ptr<Slot>>& ready) {
        for (const auto& slot : ready) {
            pending.erase(slot->seq);
            const auto status = static_cast<RequestStatus>(slot->status.load());
            LookupResult result;
            bool ok = status == RequestStatus::kComplete;
            if (ok && tracer == nullptr) {
                try {
                    result = slot->handle.Result();
                } catch (...) {
                    ok = false;
                }
            } else if (ok) {
                MutexLock lock(slot->mu);
                ok = slot->has_result && !slot->error;
                result = std::move(slot->result);
            }
            slot->handle = ServingFrontEnd::RequestHandle();
            if (!ok) {
                ++phase.failed;
                continue;
            }
            if (!OracleMatches(*inputs_.embeddings,
                               inputs_.Wanted(slot->seq), result)) {
                ++phase.mismatched;
                continue;
            }
            const double done = slot->done.load();
            const double first = slot->first.load();
            phase.samples.push_back(
                Sample{slot->origin, slot->start, first > 0 ? first : done,
                       done});
            if (tracer != nullptr) {
                tracer->Record("lookup", slot->seq, 0, slot->origin, done,
                               slot->root);
                out.submit_to_first.push_back(slot->raw_first.load() -
                                              slot->submit_raw_at);
                out.submit_to_complete.push_back(done - slot->submit_raw_at);
            }
            if (options.keep_results) {
                out.results.emplace(slot->seq, std::move(result));
            }
        }
    };

    auto submit = [&](double origin) {
        auto slot = std::make_shared<Slot>();
        slot->seq = next_seq_++;
        slot->origin = origin;
        slot->start = Now();
        PrivateEmbeddingService::Client* client =
            clients_[slot->seq % clients_.size()].get();
        ++phase.attempted;
        if (tracer != nullptr) {
            SubmitDecomposed(slot, client, queue, tracer);
            out.inflight_max = std::max(out.inflight_max,
                                        service_->front_end().inflight());
        } else {
            SubmitOneCall(slot, client, queue);
        }
        if (!slot->handle.ok()) {
            ++phase.refused;
            return;
        }
        pending.emplace(slot->seq, std::move(slot));
    };

    phase.t0 = Now();
    phase.seconds = spec.seconds;
    const double end = phase.t0 + spec.seconds;
    if (spec.open) {
        for (const double at :
             ArrivalSchedule(spec.rate_qps, spec.seconds, spec.schedule_seed)) {
            const double origin = phase.t0 + at;
            while (Now() < origin) drain(queue->TakeUntil(origin));
            submit(origin);
        }
    } else {
        std::size_t submitted = 0;
        for (;;) {
            const bool count_bound = options.max_requests > 0;
            if (count_bound ? submitted >= options.max_requests
                            : Now() >= end) {
                break;
            }
            while (pending.size() < spec.outstanding &&
                   (count_bound ? submitted < options.max_requests
                                : Now() < end)) {
                submit(Now());
                ++submitted;
            }
            drain(queue->TakeUntil(count_bound ? Now() + 1.0 : end));
        }
    }
    // Let every admitted request finish; one that never completes counts
    // as failed.
    const double give_up = Now() + 30.0;
    while (!pending.empty() && Now() < give_up) {
        drain(queue->TakeUntil(give_up));
    }
    phase.failed += pending.size();
    if (options.max_requests > 0) phase.seconds = Now() - phase.t0;
    return out;
}

}  // namespace

std::unique_ptr<Target> MakeInProcessTarget(const Workload& workload,
                                            const Inputs& inputs) {
    return std::make_unique<InProcessTarget>(workload, inputs);
}

}  // namespace perfbench
