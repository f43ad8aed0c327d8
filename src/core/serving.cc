#include "src/core/serving.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/batchpir/pbr_session.h"

namespace gpudpf {

// ---------------------------------------------------------------------------
// RequestHandle

RequestStatus ServingFrontEnd::RequestHandle::status() const {
    if (req_ == nullptr) return RequestStatus::kFailed;
    MutexLock lock(req_->mu);
    return req_->status;
}

bool ServingFrontEnd::RequestHandle::NextPartial(TablePartial* out) {
    if (req_ == nullptr) return false;
    MutexLock lock(req_->mu);
    if (req_->partials.empty()) return false;
    *out = *req_->partials.front();
    req_->partials.pop_front();
    return true;
}

bool ServingFrontEnd::RequestHandle::WaitPartial(TablePartial* out) {
    if (req_ == nullptr) return false;
    MutexLock lock(req_->mu);
    while (req_->partials.empty() &&
           req_->status == RequestStatus::kInFlight) {
        req_->cv.Wait(req_->mu);
    }
    if (req_->partials.empty()) return false;  // terminal and fully drained
    *out = *req_->partials.front();
    req_->partials.pop_front();
    return true;
}

void ServingFrontEnd::RequestHandle::Wait() {
    if (req_ == nullptr) return;
    MutexLock lock(req_->mu);
    while (req_->status == RequestStatus::kInFlight) req_->cv.Wait(req_->mu);
}

PrivateEmbeddingService::LookupResult ServingFrontEnd::RequestHandle::Result() {
    if (req_ == nullptr) {
        throw std::runtime_error("RequestHandle::Result: request not admitted");
    }
    MutexLock lock(req_->mu);
    while (req_->status == RequestStatus::kInFlight) req_->cv.Wait(req_->mu);
    switch (req_->status) {
        case RequestStatus::kComplete:
            return std::move(req_->result);
        case RequestStatus::kCancelled:
            throw std::runtime_error("RequestHandle::Result: request cancelled");
        case RequestStatus::kDeadlineExpired:
            throw std::runtime_error(
                "RequestHandle::Result: request deadline expired");
        default:
            if (req_->error != nullptr) std::rethrow_exception(req_->error);
            throw std::runtime_error("RequestHandle::Result: request failed");
    }
}

bool ServingFrontEnd::RequestHandle::Cancel() {
    if (req_ == nullptr || admission_ != AdmissionStatus::kAccepted) {
        return false;
    }
    bool was_queued = false;
    {
        MutexLock lock(req_->mu);
        if (req_->status != RequestStatus::kInFlight) return false;
        // Holding req_->mu with a still-in-flight status pins the
        // front-end alive for the MarkCancelled call: every completion
        // path needs this mutex to flip the status (a queued cancel flips
        // it below, before releasing), so the batcher cannot finish this
        // request, Shutdown() cannot return, and the front-end cannot be
        // destroyed — even though handles may outlive it once terminal.
        if (!front_end_->MarkCancelled(req_, &was_queued)) return false;
        if (was_queued) {
            // Flip the context too (nothing polls it — the jobs never
            // ran), so every kCancelled request reads the same way.
            req_->context->Cancel();
            req_->status = RequestStatus::kCancelled;
        }
    }
    if (was_queued) {
        req_->cv.NotifyAll();
        if (req_->on_complete) req_->on_complete(RequestStatus::kCancelled);
    }
    return true;
}

// ---------------------------------------------------------------------------
// ServingFrontEnd

ServingFrontEnd::ServingFrontEnd(PrivateEmbeddingService* service,
                                 Options options)
    : service_(service),
      options_(options),
      engine_(service->server_sharding()) {
    if (options_.max_inflight_requests == 0) {
        options_.max_inflight_requests = 1;
    }
    batcher_ = std::thread([this] { BatcherLoop(); });
}

ServingFrontEnd::~ServingFrontEnd() { Stop(); }

std::size_t ServingFrontEnd::SlotCap(RequestPriority priority) const {
    if (priority == RequestPriority::kInteractive) {
        return options_.max_inflight_requests;
    }
    // Background traffic never gets the top quarter of the slots (at
    // least one reserved whenever there are two or more), so interactive
    // requests always find headroom under a kBatch flood. Only a
    // single-slot front-end has no reservation — reserving its one slot
    // would shut kBatch out entirely.
    if (options_.max_inflight_requests < 2) {
        return options_.max_inflight_requests;
    }
    const std::size_t reserve =
        std::max<std::size_t>(1, options_.max_inflight_requests / 4);
    return options_.max_inflight_requests - reserve;
}

ServingFrontEnd::RequestHandle ServingFrontEnd::SubmitImpl(
    LookupRequest request, SubmitOptions options, bool blocking) {
    if (service_->planning_only()) {
        // A planning-only service has no tables to answer from; reject
        // before any slot accounting or client-side work.
        MutexLock lock(mu_);
        ++counters_.rejected_invalid;
        return RequestHandle{AdmissionStatus::kInvalidRequest, nullptr, this};
    }
    if (request.client == nullptr || request.wanted.empty()) {
        MutexLock lock(mu_);
        ++counters_.rejected_invalid;
        return RequestHandle{AdmissionStatus::kInvalidRequest, nullptr, this};
    }
    {
        MutexLock lock(mu_);
        if (blocking) {
            while (!stop_ && inflight_ >= SlotCap(options.priority)) {
                slot_cv_.Wait(mu_);
            }
        }
        if (stop_) {
            return RequestHandle{AdmissionStatus::kShutdown, nullptr, this};
        }
        if (inflight_ >= SlotCap(options.priority)) {
            ++counters_.rejected_queue_full;
            return RequestHandle{AdmissionStatus::kQueueFull, nullptr, this};
        }
        ++inflight_;
        ++preparing_;
    }
    return Enqueue(std::move(request), std::move(options));
}

ServingFrontEnd::RequestHandle ServingFrontEnd::SubmitRequest(
    LookupRequest request, SubmitOptions options) {
    return SubmitImpl(std::move(request), std::move(options),
                      /*blocking=*/false);
}

ServingFrontEnd::RequestHandle ServingFrontEnd::SubmitRequestOrWait(
    LookupRequest request, SubmitOptions options) {
    return SubmitImpl(std::move(request), std::move(options),
                      /*blocking=*/true);
}

ServingFrontEnd::RequestHandle ServingFrontEnd::SubmitRequest(
    LookupRequest request) {
    return SubmitRequest(std::move(request), SubmitOptions{});
}

ServingFrontEnd::RequestHandle ServingFrontEnd::SubmitRequestOrWait(
    LookupRequest request) {
    return SubmitRequestOrWait(std::move(request), SubmitOptions{});
}

ServingFrontEnd::RequestHandle ServingFrontEnd::Enqueue(
    LookupRequest request, SubmitOptions options) {
    const auto admitted_at = std::chrono::steady_clock::now();
    auto req = std::make_shared<Request>();
    req->client = request.client;
    req->priority = options.priority;
    std::uint64_t deadline_us = options.deadline_us;
    if (deadline_us == 0) deadline_us = options_.default_deadline_us;
    if (deadline_us != 0 && deadline_us != kNoDeadline) {
        req->has_deadline = true;
        req->deadline = admitted_at + std::chrono::microseconds(deadline_us);
    }
    req->on_partial = std::move(options.on_partial);
    req->on_complete = std::move(options.on_complete);
    // The execution context every layer below shares: the engine's shard
    // tasks poll it (when attached via skip_abandoned_work), the assembly
    // path polls it, and completion reads it for the terminal status.
    req->context = std::make_shared<JobContext>(
        options.priority == RequestPriority::kBatch
            ? TaskPriority::kBatch
            : TaskPriority::kInteractive);
    if (req->has_deadline) req->context->set_deadline(req->deadline);

    // Client-side phase outside the lock: concurrent submitters generate
    // their DPF keys in parallel while the batcher answers previous work.
    // The admission slot is already held, so the batcher cannot exit (and
    // shutdown cannot complete) before this request is enqueued.
    try {
        req->prep = request.client->Prepare(request.wanted);
    } catch (...) {
        // Release the slot or the batcher would wait for this request
        // forever (shutdown requires preparing_ == 0).
        {
            MutexLock lock(mu_);
            --inflight_;
            --preparing_;
        }
        slot_cv_.NotifyAll();
        queue_cv_.NotifyAll();
        throw;
    }
    req->queued_at = std::chrono::steady_clock::now();
    {
        MutexLock lock(mu_);
        queue_.push_back(req);
        NoteArrival(req->queued_at);
        --preparing_;
    }
    queue_cv_.NotifyOne();
    return RequestHandle{AdmissionStatus::kAccepted, std::move(req), this};
}

void ServingFrontEnd::NoteArrival(std::chrono::steady_clock::time_point now) {
    // Inter-arrival EWMA for the adaptive batching window. The decay
    // is time-based (half-life linger_ewma_half_life_us), so a long
    // quiet gap discounts stale history on its own.
    if (have_arrival_) {
        const double dt_us =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - last_arrival_)
                .count() /
            1e3;
        if (options_.linger_ewma_half_life_us > 0) {
            const double w = std::exp2(
                -dt_us /
                static_cast<double>(options_.linger_ewma_half_life_us));
            arrival_ewma_us_ = w * arrival_ewma_us_ + (1.0 - w) * dt_us;
        } else {
            arrival_ewma_us_ = dt_us;
        }
    }
    last_arrival_ = now;
    have_arrival_ = true;
}

ServingFrontEnd::RequestHandle ServingFrontEnd::SubmitRaw(
    RawLookup raw, RawSubmitOptions options) {
    // The jobs were parsed off the wire, not produced by a local client:
    // re-check shape here so a malformed (but individually-parseable)
    // upload is rejected before it can poison a pooled batch. Both logical
    // servers must cover the same bins of each submitted table, and a
    // ranged (sharded) request's eval windows must sit inside the table's
    // bin (begin <= end <= bin_size). The window is checked against the
    // bin size, not each job's rows: a ragged last bin holds fewer rows,
    // and the batch clips every window to its job's rows (an empty
    // intersection answers a zero share).
    const bool shape_ok =
        !service_->planning_only() && !raw.full_server0.jobs.empty() &&
        raw.full_server0.jobs.size() == raw.full_server1.jobs.size() &&
        (!raw.has_hot ||
         (!raw.hot_server0.jobs.empty() &&
          raw.hot_server0.jobs.size() == raw.hot_server1.jobs.size())) &&
        (!raw.has_range ||
         (raw.full_row_begin <= raw.full_row_end &&
          raw.full_row_end <= service_->full_pbr().bin_size() &&
          (!raw.has_hot ||
           (service_->hot_pbr() != nullptr &&
            raw.hot_row_begin <= raw.hot_row_end &&
            raw.hot_row_end <= service_->hot_pbr()->bin_size()))));
    if (!shape_ok) {
        MutexLock lock(mu_);
        ++counters_.rejected_invalid;
        return RequestHandle{AdmissionStatus::kInvalidRequest, nullptr, this};
    }
    const auto admitted_at = std::chrono::steady_clock::now();
    auto req = std::make_shared<Request>();
    req->raw = true;
    req->raw_prep = std::move(raw);
    req->priority = options.priority;
    std::uint64_t deadline_us = options.deadline_us;
    if (deadline_us == 0) deadline_us = options_.default_deadline_us;
    if (deadline_us != 0 && deadline_us != kNoDeadline) {
        req->has_deadline = true;
        req->deadline = admitted_at + std::chrono::microseconds(deadline_us);
    }
    req->queued_at = admitted_at;
    req->on_raw_partial = std::move(options.on_raw_partial);
    req->on_complete = std::move(options.on_complete);
    req->context = std::make_shared<JobContext>(
        options.priority == RequestPriority::kBatch
            ? TaskPriority::kBatch
            : TaskPriority::kInteractive);
    if (req->has_deadline) req->context->set_deadline(req->deadline);
    {
        MutexLock lock(mu_);
        if (stop_) {
            return RequestHandle{AdmissionStatus::kShutdown, nullptr, this};
        }
        if (inflight_ >= SlotCap(options.priority)) {
            ++counters_.rejected_queue_full;
            return RequestHandle{AdmissionStatus::kQueueFull, nullptr, this};
        }
        // No client-side phase to run: admit and enqueue in one critical
        // section (no preparing_ window).
        ++inflight_;
        queue_.push_back(req);
        NoteArrival(admitted_at);
    }
    queue_cv_.NotifyOne();
    return RequestHandle{AdmissionStatus::kAccepted, std::move(req), this};
}

bool ServingFrontEnd::MarkCancelled(const std::shared_ptr<Request>& req,
                                    bool* was_queued) {
    *was_queued = false;
    {
        MutexLock lock(mu_);
        if (req->stage == Request::Stage::kQueued) {
            // Unwind before dispatch: tombstone the queue entry (the
            // batcher drops it at drain) and hand the slot back now. The
            // caller completes the request (it holds req->mu), so count
            // the cancellation here while mu_ is held.
            req->stage = Request::Stage::kDone;
            --inflight_;
            ++counters_.cancelled;
            *was_queued = true;
        } else if (req->stage == Request::Stage::kDispatched) {
            // Mid-batch: flip the shared context. The engine skips the
            // request's not-yet-started shard tasks (the pooled batch
            // itself is never poisoned — dead jobs just complete empty),
            // partial delivery stops, and the request completes
            // kCancelled instead of kComplete.
            req->context->Cancel();
        } else {
            return false;  // batch already finished; completion is racing in
        }
    }
    if (*was_queued) slot_cv_.NotifyAll();
    return true;
}

void ServingFrontEnd::Stop() {
    // Phase 1 — reject: every Submit* that takes mu_ after this sees
    // stop_ and returns kShutdown; nothing new enters the queue.
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    queue_cv_.NotifyAll();
    slot_cv_.NotifyAll();
    // Phases 2+3 — drain, then join: the batcher loop only exits once the
    // queue is empty AND no admitted request is still in its client-side
    // preparation (preparing_ == 0), so every admitted handle reaches a
    // terminal status before join returns. Idempotent: a second Stop()
    // finds the thread unjoinable and returns immediately.
    if (batcher_.joinable()) batcher_.join();
}

std::size_t ServingFrontEnd::inflight() const {
    MutexLock lock(mu_);
    return inflight_;
}

ServingFrontEnd::Counters ServingFrontEnd::counters() const {
    MutexLock lock(mu_);
    return counters_;
}

std::uint64_t ServingFrontEnd::ComputeLingerUs() const {
    std::uint64_t linger = options_.batcher_linger_us;
    if (options_.adaptive_linger && have_arrival_ && arrival_ewma_us_ > 0.0) {
        // Linger about two expected inter-arrivals — long enough to catch
        // the requests that are coming, without charging sparse traffic a
        // window nobody joins — scaled down as the (smoothed) queue depth
        // approaches capacity, where dispatching beats waiting.
        const double cap = static_cast<double>(options_.batcher_linger_us);
        const double depth =
            std::max(static_cast<double>(queue_.size()), depth_ewma_);
        const double frac = std::min(
            1.0, depth / static_cast<double>(options_.max_inflight_requests));
        double window = 2.0 * arrival_ewma_us_ * (1.0 - frac);
        window = std::max(0.0, std::min(cap, window));
        linger = static_cast<std::uint64_t>(window);
    }
    return linger;
}

void ServingFrontEnd::BatcherLoop() {
    for (;;) {
        std::vector<std::shared_ptr<Request>> batch;
        {
            MutexLock lock(mu_);
            while (queue_.empty() && !(stop_ && preparing_ == 0)) {
                queue_cv_.Wait(mu_);
            }
            if (queue_.empty()) return;  // stopped and fully drained
            if (!stop_ && queue_.size() < options_.max_inflight_requests) {
                // Give concurrent submitters a window to join this batch,
                // but never sleep past the earliest queued deadline —
                // recomputed after every wake-up, so a near-deadline
                // request arriving mid-window still dispatches (or
                // expires) on time instead of sleeping out the full
                // window. The window counts from the oldest queued
                // request's arrival: a request that queued while the
                // previous batch ran has already waited that long.
                auto window_start = std::chrono::steady_clock::now();
                for (const auto& req : queue_) {
                    if (req->stage == Request::Stage::kQueued) {
                        window_start = std::min(window_start, req->queued_at);
                    }
                }
                const std::uint64_t linger = ComputeLingerUs();
                counters_.last_linger_us = linger;
                const auto window_end =
                    window_start + std::chrono::microseconds(linger);
                // The window deliberately runs to term even if the queue
                // fills mid-way: cutting it short would make dispatch
                // timing — and thus kQueueFull backpressure — racy for
                // the submitter that took the last slot. The dead time is
                // bounded by the linger cap, and the adaptive policy
                // already shrinks the window as the queue deepens.
                while (!stop_) {
                    auto cap = window_end;
                    for (const auto& req : queue_) {
                        if (req->stage != Request::Stage::kQueued ||
                            !req->has_deadline) {
                            continue;
                        }
                        // +1us: duration_cast truncation must not wake us
                        // just short of the deadline.
                        const auto dl =
                            req->deadline + std::chrono::microseconds(1);
                        if (dl < cap) cap = dl;
                    }
                    if (std::chrono::steady_clock::now() >= cap) break;
                    // Wakes on arrivals (to recompute the deadline cap and
                    // the capacity check), stop, timeout, or spuriously;
                    // the loop re-derives how long is left either way.
                    queue_cv_.WaitUntil(mu_, cap);
                }
            }
            batch.reserve(queue_.size());
            for (auto& req : queue_) {
                // Tombstones (queued cancels) already completed and
                // released their slot; just drop them.
                if (req->stage != Request::Stage::kQueued) continue;
                req->stage = Request::Stage::kDispatched;
                batch.push_back(std::move(req));
            }
            queue_.clear();
            if (!batch.empty()) {
                ++counters_.batches;
                depth_ewma_ =
                    0.5 * depth_ewma_ + 0.5 * static_cast<double>(batch.size());
            }
        }
        if (batch.empty()) continue;  // the drain was all tombstones

        // Triage before any answer work: cancelled and already-expired
        // requests complete now — and release their slots now — instead of
        // occupying the batch.
        std::vector<std::shared_ptr<Request>> runnable;
        std::vector<std::shared_ptr<Request>> cancelled;
        std::vector<std::shared_ptr<Request>> expired;
        runnable.reserve(batch.size());  // the common case: everything runs
        const auto now = std::chrono::steady_clock::now();
        for (auto& req : batch) {
            if (req->context->cancelled()) {
                cancelled.push_back(std::move(req));
            } else if (req->has_deadline && req->deadline <= now) {
                expired.push_back(std::move(req));
            } else {
                runnable.push_back(std::move(req));
            }
        }
        if (!cancelled.empty() || !expired.empty()) {
            {
                MutexLock lock(mu_);
                for (auto& req : cancelled) req->stage = Request::Stage::kDone;
                for (auto& req : expired) req->stage = Request::Stage::kDone;
                inflight_ -= cancelled.size() + expired.size();
            }
            slot_cv_.NotifyAll();
            for (auto& req : cancelled) {
                CompleteRequest(req, RequestStatus::kCancelled);
            }
            for (auto& req : expired) {
                CompleteRequest(req, RequestStatus::kDeadlineExpired);
            }
        }
        if (runnable.empty()) continue;

        // Intra-batch priority: interactive requests' jobs go to the
        // answer pool before batch-class jobs; FIFO within a class.
        std::stable_sort(runnable.begin(), runnable.end(),
                         [](const std::shared_ptr<Request>& a,
                            const std::shared_ptr<Request>& b) {
                             return static_cast<int>(a->priority) <
                                    static_cast<int>(b->priority);
                         });
        ProcessBatch(runnable);
        {
            MutexLock lock(mu_);
            for (auto& req : runnable) req->stage = Request::Stage::kDone;
            inflight_ -= runnable.size();
        }
        slot_cv_.NotifyAll();
        // Complete only after releasing the admission slots, so a caller
        // unblocked by its handle can immediately submit again without
        // bouncing off a stale queue-full.
        for (auto& req : runnable) {
            // result_ready/error were written by pool workers before
            // AnswerBatchNotify's barrier; the snapshot still takes the
            // request mutex — the members are guarded by it, and "the
            // barrier happened to order this" is exactly the kind of
            // implicit contract the annotation pass exists to retire. A
            // cancel that arrived mid-batch wins over every outcome: its
            // Cancel() already returned true. A deadline that passed
            // mid-batch (the engine skipped the remaining work, so no
            // result was assembled) reports kDeadlineExpired, not kFailed
            // — unless a real server-side error landed first.
            bool result_ready = false;
            bool has_error = false;
            {
                MutexLock lock(req->mu);
                result_ready = req->result_ready;
                has_error = req->error != nullptr;
            }
            RequestStatus final = RequestStatus::kComplete;
            if (req->context->cancelled()) {
                final = RequestStatus::kCancelled;
            } else if (!result_ready || has_error) {
                final = (!has_error && req->context->expired())
                            ? RequestStatus::kDeadlineExpired
                            : RequestStatus::kFailed;
            }
            CompleteRequest(req, final);
        }
    }
}

void ServingFrontEnd::ProcessBatch(
    const std::vector<std::shared_ptr<Request>>& batch) {
    try {
        // One job group per (request, table): the unit of streaming. The
        // group index doubles as the engine job tag, so per-job completion
        // notifications route straight back to their group.
        struct Group {
            Request* req = nullptr;
            bool hot = false;
            std::size_t s0_begin = 0, s0_count = 0;  // server-0 job range
            std::size_t s1_begin = 0, s1_count = 0;  // server-1 job range
            std::atomic<std::size_t> remaining{0};
        };
        std::deque<Group> groups;  // stable addresses; atomics can't move
        std::vector<AnswerEngine::TableJob> jobs;

        // Raw requests carry their parsed jobs in raw_prep (no client ran
        // locally); local requests in the client-prepared prep. The job
        // pooling below is source-agnostic through these two accessors.
        auto jobs0 = [](const Request& req,
                        bool hot) -> const PbrSession::BinJobs& {
            if (req.raw) {
                return hot ? req.raw_prep.hot_server0
                           : req.raw_prep.full_server0;
            }
            return hot ? req.prep.hot_server0 : req.prep.full_server0;
        };
        auto jobs1 = [](const Request& req,
                        bool hot) -> const PbrSession::BinJobs& {
            if (req.raw) {
                return hot ? req.raw_prep.hot_server1
                           : req.raw_prep.full_server1;
            }
            return hot ? req.prep.hot_server1 : req.prep.full_server1;
        };

        std::size_t total = 0;
        for (const auto& req : batch) {
            total += jobs0(*req, false).jobs.size() +
                     jobs1(*req, false).jobs.size() +
                     jobs0(*req, true).jobs.size() +
                     jobs1(*req, true).jobs.size();
        }
        jobs.reserve(total);

        auto append_group = [&](Request* req, bool hot) {
            const PbrSession::BinJobs& j0 = jobs0(*req, hot);
            const PbrSession::BinJobs& j1 = jobs1(*req, hot);
            const PirTable* table = hot ? service_->hot_table_.get()
                                        : service_->full_table_.get();
            // The tag routes completions back to the group; the context
            // (withheld when skip_abandoned_work is off) lets the engine
            // skip shard tasks of cancelled/expired requests. The request
            // — and through it the context — outlives the whole batch.
            AnswerEngine::JobBinding binding;
            binding.tag = groups.size();
            binding.context = options_.skip_abandoned_work
                                  ? req->context.get()
                                  : nullptr;
            groups.emplace_back();
            Group& g = groups.back();
            g.req = req;
            g.hot = hot;
            // Sharded-fleet range scoping: clip every bin job of a ranged
            // raw request to its table's eval window, so the engine scans
            // only this node's assigned row slice of each bin and the
            // streamed shares are per-shard partials.
            const bool clip = req->raw && req->raw_prep.has_range;
            const std::uint64_t win_begin =
                hot ? req->raw_prep.hot_row_begin
                    : req->raw_prep.full_row_begin;
            const std::uint64_t win_end = hot ? req->raw_prep.hot_row_end
                                              : req->raw_prep.full_row_end;
            auto clip_jobs = [&](std::vector<AnswerEngine::TableJob>& bound) {
                if (!clip) return;
                for (AnswerEngine::TableJob& tj : bound) {
                    // A window past a ragged bin's last row is empty.
                    tj.job.eval_begin = std::min(win_begin, tj.job.num_rows);
                    tj.job.eval_end = win_end;
                }
            };
            g.s0_begin = jobs.size();
            g.s0_count = j0.jobs.size();
            auto bound0 = PbrSession::BindJobs(j0, table, binding);
            clip_jobs(bound0);
            jobs.insert(jobs.end(), bound0.begin(), bound0.end());
            g.s1_begin = jobs.size();
            g.s1_count = j1.jobs.size();
            auto bound1 = PbrSession::BindJobs(j1, table, binding);
            clip_jobs(bound1);
            jobs.insert(jobs.end(), bound1.begin(), bound1.end());
            g.remaining.store(g.s0_count + g.s1_count,
                              std::memory_order_relaxed);
        };

        // Streaming-first job order: within each priority class (the batch
        // arrives interactive-first), EVERY request's tiny hot-table jobs
        // are submitted before any request's full-table jobs. The pool
        // drains in submission order, so each request's first partial —
        // its hot share — completes long before the long full-table jobs
        // finish, which is what makes time-to-first-partial beat the
        // one-shot latency.
        for (const auto& req : batch) {
            req->has_hot = req->raw ? req->raw_prep.has_hot
                                    : service_->hot_pbr() != nullptr;
            req->groups_remaining.store(req->has_hot ? 2 : 1,
                                        std::memory_order_relaxed);
            req->full_partial.reset();
            req->hot_partial.reset();
        }
        std::size_t lo = 0;
        while (lo < batch.size()) {
            std::size_t hi = lo;
            while (hi < batch.size() &&
                   batch[hi]->priority == batch[lo]->priority) {
                ++hi;
            }
            for (std::size_t r = lo; r < hi; ++r) {
                if (batch[r]->has_hot) append_group(batch[r].get(), true);
            }
            for (std::size_t r = lo; r < hi; ++r) {
                append_group(batch[r].get(), false);
            }
            lo = hi;
        }

        std::vector<PirResponse> responses(jobs.size());

        // Runs on the pool worker that finished a group's last job:
        // assemble that table's partial from the two servers' shares,
        // stream it, and — on the request's last group — finalize the full
        // result.
        auto group_done = [&](Group& g) {
            Request* req = g.req;
            // A dead request's partials are never assembled: its jobs may
            // have been skipped by the engine (empty responses), and even
            // complete responses are waste nobody will read. Both kill
            // signals are monotonic, so a group skipped here can never be
            // followed by a finalization below.
            if (!req->context->ShouldSkip()) {
                try {
                    auto slice = [&](std::size_t begin, std::size_t n) {
                        return std::vector<PirResponse>(
                            std::make_move_iterator(responses.begin() +
                                                    begin),
                            std::make_move_iterator(responses.begin() +
                                                    begin + n));
                    };
                    auto r0 = slice(g.s0_begin, g.s0_count);
                    auto r1 = slice(g.s1_begin, g.s1_count);
                    if (req->raw) {
                        // Networked request: this table's shares leave the
                        // node verbatim — assembly happens on the remote
                        // client, with the same AssembleFromShares the
                        // in-process path runs, so the final bytes match.
                        if (!req->context->cancelled() &&
                            req->on_raw_partial) {
                            RawTablePartial part;
                            part.hot = g.hot;
                            part.server0 = std::move(r0);
                            part.server1 = std::move(r1);
                            req->on_raw_partial(std::move(part));
                        }
                    } else {
                        auto kept = std::make_shared<const TablePartial>(
                            service_->AssembleFromShares(req->prep, g.hot, r0,
                                                         r1));
                        (g.hot ? req->hot_partial : req->full_partial) = kept;
                        if (!req->context->cancelled()) {
                            {
                                MutexLock lock(req->mu);
                                req->partials.push_back(kept);
                            }
                            req->cv.NotifyAll();
                            if (req->on_partial) req->on_partial(*kept);
                        }
                    }
                } catch (...) {
                    MutexLock lock(req->mu);
                    if (req->error == nullptr) {
                        req->error = std::current_exception();
                    }
                }
            }
            if (req->groups_remaining.fetch_sub(
                    1, std::memory_order_acq_rel) != 1) {
                return;
            }
            // Last group of this request: the acq_rel countdown makes the
            // other group's kept partial visible here.
            if (req->context->ShouldSkip()) return;
            if (req->raw) {
                // Nothing to assemble node-side — the raw partials already
                // streamed out. Flag readiness so completion reports
                // kComplete (unless an error landed first).
                MutexLock lock(req->mu);
                if (req->error == nullptr) req->result_ready = true;
                return;
            }
            try {
                {
                    MutexLock lock(req->mu);
                    if (req->error != nullptr) return;
                }
                auto result = service_->FinalizeLookupResult(
                    req->prep, *req->full_partial,
                    req->has_hot ? req->hot_partial.get() : nullptr);
                MutexLock lock(req->mu);
                req->result = std::move(result);
                req->result_ready = true;
            } catch (...) {
                MutexLock lock(req->mu);
                if (req->error == nullptr) {
                    req->error = std::current_exception();
                }
            }
        };

        const AnswerEngine::BatchStats stats = engine_.AnswerBatchNotify(
            jobs, [&](std::size_t q, PirResponse&& resp) {
                responses[q] = std::move(resp);
                Group& g =
                    groups[static_cast<std::size_t>(jobs[q].binding.tag)];
                if (g.remaining.fetch_sub(1, std::memory_order_acq_rel) ==
                    1) {
                    group_done(g);
                }
            });
        if (stats.jobs_skipped > 0 || stats.shards_skipped > 0) {
            MutexLock lock(mu_);
            counters_.jobs_skipped += stats.jobs_skipped;
            counters_.shards_skipped += stats.shards_skipped;
        }
    } catch (...) {
        // Propagate the failure to every request of the batch that has no
        // result yet instead of dropping handles (which would leave their
        // waiters with a generic "request failed" and no cause).
        for (const auto& req : batch) {
            MutexLock lock(req->mu);
            if (!req->result_ready && req->error == nullptr) {
                req->error = std::current_exception();
            }
        }
    }
}

void ServingFrontEnd::CompleteRequest(const std::shared_ptr<Request>& req,
                                      RequestStatus final_status) {
    RequestStatus final = final_status;
    // A mid-batch cancel wins over every other outcome — complete, failed,
    // or a deadline expiry the triage classified before the cancel flag
    // landed — because Cancel() already returned true promising a
    // kCancelled finish.
    if (req->context != nullptr && req->context->cancelled()) {
        final = RequestStatus::kCancelled;
    }
    // Count before the status becomes observable, so a caller unblocked by
    // its handle reads up-to-date counters. CompleteRequest runs at most
    // once per request (queued cancels tombstone the entry the batcher
    // would otherwise complete), so the count can't double.
    {
        MutexLock lock(mu_);
        switch (final) {
            case RequestStatus::kComplete:
                ++counters_.completed;
                break;
            case RequestStatus::kCancelled:
                ++counters_.cancelled;
                break;
            case RequestStatus::kDeadlineExpired:
                ++counters_.deadline_expired;
                break;
            default:
                ++counters_.failed;
                break;
        }
    }
    {
        MutexLock lock(req->mu);
        if (req->status != RequestStatus::kInFlight) return;
        req->status = final;
    }
    req->cv.NotifyAll();
    if (req->on_complete) req->on_complete(final);
}

}  // namespace gpudpf
