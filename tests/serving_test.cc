// Serving front-end tests: interleaved async submissions from many clients
// must be bit-identical to serialized sequential Lookups, admission control
// must reject over-capacity submissions with a clean status, and shutdown
// must drain in-flight work without deadlocking. The RequestHandle tests
// cover the streaming API: partial arrival order (hot before full),
// reassembly identity, cancellation before and during a batch, deadline
// expiry, priority classes, and the adaptive batching window.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/service.h"
#include "src/core/serving.h"
#include "src/ml/embedding.h"
#include "src/workloads/dataset.h"

namespace gpudpf {
namespace {

struct ServingWorld {
    explicit ServingWorld(const ServiceConfig& config,
                          std::uint64_t vocab = 512) {
        RecWorkloadSpec spec;
        spec.name = "serving-test";
        spec.vocab = vocab;
        spec.num_train = 1'200;
        spec.num_test = 100;
        spec.min_history = 4;
        spec.max_history = 10;
        spec.num_clusters = 8;
        spec.seed = 17;
        const RecDataset dataset = GenerateRecDataset(spec);
        const AccessStats stats = ComputeRecStats(dataset, 4);
        emb = std::make_unique<EmbeddingTable>(vocab, spec.dim);
        Rng rng(7);
        emb->InitRandom(rng, 0.2f);
        service = std::make_unique<PrivateEmbeddingService>(*emb, stats,
                                                            config);
    }

    std::unique_ptr<EmbeddingTable> emb;
    std::unique_ptr<PrivateEmbeddingService> service;
};

// Co-design on, so the front-end pools hot- and full-table jobs together.
ServiceConfig BaseConfig() {
    ServiceConfig config;
    config.codesign.hot_size = 64;
    config.codesign.colocate_c = 2;
    config.codesign.q_hot = 16;
    config.codesign.q_full = 8;
    return config;
}

using LookupResult = PrivateEmbeddingService::LookupResult;

// Shards the answer engine runs for one server's full-table bin jobs,
// summed over the bins: AnswerEngine::ShardsFor of each bin's rows.
std::uint64_t FullTableShards(const PrivateEmbeddingService& service) {
    const Pbr& pbr = service.full_pbr();
    std::uint64_t shards = 0;
    for (std::uint64_t b = 0; b < pbr.num_bins(); ++b) {
        shards += AnswerEngine::ShardsFor(pbr.BinEntries(b),
                                          service.config().server_shards);
    }
    return shards;
}

void ExpectSameResult(const LookupResult& a, const LookupResult& b,
                      std::size_t client, std::size_t lookup) {
    EXPECT_EQ(a.retrieved, b.retrieved)
        << "client " << client << " lookup " << lookup;
    EXPECT_EQ(a.embeddings, b.embeddings)
        << "client " << client << " lookup " << lookup;
    EXPECT_EQ(a.upload_bytes, b.upload_bytes);
    EXPECT_EQ(a.download_bytes, b.download_bytes);
}

TEST(ServingFrontEndTest, InterleavedAsyncMatchesSerializedSequential) {
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kLookups = 3;
    std::vector<std::vector<std::vector<std::uint64_t>>> wanted(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        for (std::size_t l = 0; l < kLookups; ++l) {
            wanted[c].push_back(
                {c + l, 65 + 3 * c, 200 + 10 * l, 511 - 7 * c, 300});
        }
    }

    // Reference: sequential-engine config, one client at a time, each
    // lookup completing before the next is issued.
    ServingWorld ref_world(BaseConfig());
    std::vector<std::vector<LookupResult>> ref(kClients);
    {
        std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.push_back(ref_world.service->MakeClient());
        }
        for (std::size_t c = 0; c < kClients; ++c) {
            for (std::size_t l = 0; l < kLookups; ++l) {
                ref[c].push_back(clients[c]->Lookup(wanted[c][l]));
            }
        }
    }

    // Async: sharded multi-threaded config, every client submitting from
    // its own thread so requests interleave arbitrarily in the batcher.
    ServiceConfig async_config = BaseConfig();
    async_config.server_shards = 3;
    async_config.server_threads = 2;
    async_config.batcher_linger_us = 300;
    ServingWorld async_world(async_config);
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.push_back(async_world.service->MakeClient());
    }
    std::vector<std::vector<LookupResult>> got(kClients);
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                std::vector<ServingFrontEnd::RequestHandle> handles;
                for (std::size_t l = 0; l < kLookups; ++l) {
                    handles.push_back(
                        async_world.service->front_end().SubmitRequestOrWait(
                            {clients[c].get(), wanted[c][l]}));
                    ASSERT_TRUE(handles.back().ok());
                }
                for (auto& h : handles) got[c].push_back(h.Result());
            });
        }
        for (auto& t : threads) t.join();
    }

    for (std::size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(got[c].size(), kLookups);
        for (std::size_t l = 0; l < kLookups; ++l) {
            ExpectSameResult(got[c][l], ref[c][l], c, l);
        }
    }
    // And the reference itself matches direct table reads.
    for (std::size_t c = 0; c < kClients; ++c) {
        for (std::size_t l = 0; l < kLookups; ++l) {
            for (std::size_t i = 0; i < wanted[c][l].size(); ++i) {
                if (!ref[c][l].retrieved[i]) continue;
                const float* expected =
                    ref_world.emb->Row(wanted[c][l][i]);
                for (int d = 0; d < ref_world.emb->dim(); ++d) {
                    EXPECT_FLOAT_EQ(ref[c][l].embeddings[i][d], expected[d]);
                }
            }
        }
    }
}

TEST(ServingFrontEndTest, QueueFullRejectsWithCleanStatus) {
    ServiceConfig config = BaseConfig();
    config.max_inflight_requests = 2;
    // Long linger so admitted requests stay in flight while we over-submit.
    config.batcher_linger_us = 100'000;
    ServingWorld world(config);
    auto client = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    auto t1 = fe.SubmitRequest({client.get(), {1, 2}});
    ASSERT_TRUE(t1.ok());
    // Let the batcher enter its linger window before filling the queue, so
    // the remaining submissions deterministically land inside it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto t2 = fe.SubmitRequest({client.get(), {3, 4}});
    ASSERT_TRUE(t2.ok());
    EXPECT_EQ(fe.inflight(), 2u);

    auto rejected = fe.SubmitRequest({client.get(), {5, 6}});
    EXPECT_EQ(rejected.admission(), AdmissionStatus::kQueueFull);
    EXPECT_FALSE(rejected.ok());
    EXPECT_STREQ(AdmissionStatusName(rejected.admission()), "queue-full");

    // The rejected submission must not consume client randomness: once the
    // admitted work completes, a resubmission still succeeds and resolves.
    auto r1 = t1.Result();
    auto r2 = t2.Result();
    EXPECT_EQ(r1.retrieved.size(), 2u);
    EXPECT_EQ(r2.retrieved.size(), 2u);
    auto t3 = fe.SubmitRequest({client.get(), {5, 6}});
    ASSERT_TRUE(t3.ok());
    EXPECT_EQ(t3.Result().retrieved.size(), 2u);
}

TEST(ServingFrontEndTest, RejectionDoesNotAdvanceClientRng) {
    // Two identical worlds; one experiences a queue-full rejection between
    // lookups. Accepted results must stay bit-identical.
    ServiceConfig config = BaseConfig();
    config.max_inflight_requests = 2;
    // Long linger: the first submission opens a batching window the later
    // ones deterministically land in (the window is not cut short when the
    // queue fills, only skipped for the NEXT batch).
    config.batcher_linger_us = 100'000;
    ServingWorld plain(BaseConfig());
    ServingWorld pressured(config);
    auto pc = plain.service->MakeClient();
    auto qc = pressured.service->MakeClient();

    const std::vector<std::uint64_t> first{1, 70, 200};
    const std::vector<std::uint64_t> second{2, 80, 300};
    const std::vector<std::uint64_t> third{3, 90, 400};
    auto p1 = pc->Lookup(first);
    auto p2 = pc->Lookup(second);

    auto t1 = pressured.service->front_end().SubmitRequest({qc.get(), first});
    ASSERT_TRUE(t1.ok());
    // As above: make sure the batcher is lingering before the queue fills.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto t2 = pressured.service->front_end().SubmitRequest({qc.get(), second});
    ASSERT_TRUE(t2.ok());
    // Over-capacity submission is rejected before any client-side work.
    auto rejected =
        pressured.service->front_end().SubmitRequest({qc.get(), third});
    EXPECT_EQ(rejected.admission(), AdmissionStatus::kQueueFull);
    ExpectSameResult(t1.Result(), p1, 0, 0);
    ExpectSameResult(t2.Result(), p2, 0, 1);

    // Had the rejected submission consumed client randomness, this third
    // lookup would diverge from the serialized reference.
    auto p3 = pc->Lookup(third);
    auto q3 = qc->Lookup(third);
    ExpectSameResult(q3, p3, 0, 2);
}

TEST(ServingFrontEndTest, FailedPreparationReleasesItsAdmissionSlot) {
    ServiceConfig config = BaseConfig();
    config.max_inflight_requests = 1;
    ServingWorld world(config);
    auto client = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    // Out-of-vocab index: the planner throws during the client-side phase,
    // on the submitting thread.
    EXPECT_THROW(fe.SubmitRequest({client.get(), {1u << 20}}),
                 std::invalid_argument);
    // The slot must have been released: the next lookup is admitted and
    // completes, and shutdown (service destruction) does not deadlock.
    EXPECT_EQ(fe.inflight(), 0u);
    EXPECT_EQ(client->Lookup({1, 2}).retrieved.size(), 2u);
}

TEST(ServingFrontEndTest, ShutdownDrainsInflightWorkWithoutDeadlock) {
    ServiceConfig config = BaseConfig();
    config.max_inflight_requests = 8;
    config.batcher_linger_us = 50'000;
    ServingWorld world(config);
    auto client = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    std::vector<ServingFrontEnd::RequestHandle> handles;
    for (int i = 0; i < 5; ++i) {
        handles.push_back(
            fe.SubmitRequest({client.get(), {1ull + i, 100ull + i}}));
        ASSERT_TRUE(handles[i].ok());
    }
    // Shutdown with all five still lingering in the queue: every admitted
    // handle must still resolve.
    fe.Shutdown();
    for (auto& h : handles) {
        auto result = h.Result();
        EXPECT_EQ(result.retrieved.size(), 2u);
    }
    EXPECT_EQ(fe.inflight(), 0u);

    auto after = fe.SubmitRequest({client.get(), {7}});
    EXPECT_EQ(after.admission(), AdmissionStatus::kShutdown);
    auto blocking = fe.SubmitRequestOrWait({client.get(), {7}});
    EXPECT_EQ(blocking.admission(), AdmissionStatus::kShutdown);
    EXPECT_THROW(client->Lookup({7}), std::runtime_error);
    // Idempotent: a second shutdown (and the destructor's) is a no-op.
    fe.Shutdown();
}

using TablePartial = PrivateEmbeddingService::TablePartial;

// Merges streamed per-table partials the way a client would and checks the
// result against a one-shot LookupResult.
void ExpectPartialsReassemble(const std::vector<TablePartial>& partials,
                              const LookupResult& expected) {
    ASSERT_FALSE(expected.retrieved.empty());
    const std::size_t dim = expected.embeddings[0].size();
    std::vector<std::vector<float>> merged(expected.retrieved.size(),
                                           std::vector<float>(dim, 0.0f));
    std::size_t download = 0;
    for (const TablePartial& p : partials) {
        ASSERT_EQ(p.served.size(), expected.retrieved.size());
        ASSERT_EQ(p.values.size(), p.served.size() * dim);
        for (std::size_t i = 0; i < p.served.size(); ++i) {
            if (!p.served[i]) continue;
            merged[i].assign(p.values.begin() + i * dim,
                             p.values.begin() + (i + 1) * dim);
        }
        download += p.download_bytes;
    }
    EXPECT_EQ(merged, expected.embeddings);
    EXPECT_EQ(download, expected.download_bytes);
}

TEST(RequestHandleTest, PartialsStreamHotBeforeFullAndReassemble) {
    // Reference result from a sequential world with identical seeds.
    ServingWorld ref_world(BaseConfig());
    const std::vector<std::uint64_t> wanted{3, 65, 200, 511};
    const LookupResult ref = ref_world.service->MakeClient()->Lookup(wanted);

    ServiceConfig config = BaseConfig();
    config.server_shards = 3;
    // One answer worker: jobs then run strictly in submission order, so
    // the hot-before-full arrival assertion is deterministic (with more
    // workers OS preemption can stall the last hot job past the full
    // ones; the multi-threaded path is covered by the other tests).
    config.server_threads = 1;
    ServingWorld world(config);
    auto client = world.service->MakeClient();

    std::atomic<int> callback_partials{0};
    ServingFrontEnd::SubmitOptions options;
    options.on_partial = [&](const TablePartial&) { ++callback_partials; };
    auto handle = world.service->front_end().SubmitRequest(
        {client.get(), wanted}, std::move(options));
    ASSERT_TRUE(handle.ok());
    ASSERT_EQ(handle.admission(), AdmissionStatus::kAccepted);

    // The hot table is tiny and its jobs are pooled ahead of the full-table
    // jobs, so the hot partial must stream out first.
    std::vector<TablePartial> partials;
    TablePartial partial;
    while (handle.WaitPartial(&partial)) partials.push_back(partial);
    ASSERT_EQ(partials.size(), 2u);
    EXPECT_EQ(partials[0].table, TablePartial::Table::kHot);
    EXPECT_EQ(partials[1].table, TablePartial::Table::kFull);
    EXPECT_EQ(callback_partials.load(), 2);

    // After the stream ends the handle is terminal and the final result is
    // bit-identical to the one-shot path; the partials reassemble to it.
    EXPECT_EQ(handle.status(), RequestStatus::kComplete);
    const LookupResult result = handle.Result();
    ExpectSameResult(result, ref, 0, 0);
    ExpectPartialsReassemble(partials, ref);
}

TEST(RequestHandleTest, CancelBeforeDispatchUnwindsQueuedRequest) {
    ServiceConfig config = BaseConfig();
    config.max_inflight_requests = 4;
    config.batcher_linger_us = 100'000;
    ServingWorld world(config);
    auto client = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    // First submission opens the 100 ms batching window; the second lands
    // inside it and is cancelled while still queued.
    auto keep = fe.SubmitRequest({client.get(), {1, 2}});
    ASSERT_TRUE(keep.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::atomic<int> completions{0};
    ServingFrontEnd::SubmitOptions options;
    options.on_complete = [&](RequestStatus status) {
        EXPECT_EQ(status, RequestStatus::kCancelled);
        ++completions;
    };
    auto victim = fe.SubmitRequest({client.get(), {3, 4}}, std::move(options));
    ASSERT_TRUE(victim.ok());
    EXPECT_EQ(fe.inflight(), 2u);

    EXPECT_TRUE(victim.Cancel());
    // A queued cancel completes immediately: the slot is back, the handle
    // is terminal, the stream is empty, and Result() reports cancellation.
    EXPECT_EQ(victim.status(), RequestStatus::kCancelled);
    EXPECT_EQ(fe.inflight(), 1u);
    EXPECT_EQ(completions.load(), 1);
    TablePartial partial;
    EXPECT_FALSE(victim.WaitPartial(&partial));
    EXPECT_THROW(victim.Result(), std::runtime_error);
    // A second cancel is a no-op.
    EXPECT_FALSE(victim.Cancel());

    // The surviving request is untouched by its batchmate's cancellation.
    const LookupResult kept = keep.Result();
    EXPECT_EQ(kept.retrieved.size(), 2u);
    EXPECT_EQ(fe.counters().cancelled, 1u);
}

TEST(RequestHandleTest, CancelMidBatchCompletesWithoutDanglingState) {
    // Large enough that the full-table jobs are still running when the hot
    // partial arrives, giving Cancel() a real mid-batch window.
    ServiceConfig config = BaseConfig();
    config.server_threads = 2;
    ServingWorld world(config, /*vocab=*/2'048);
    ServingWorld ref_world(BaseConfig(), /*vocab=*/2'048);
    auto client = world.service->MakeClient();
    auto bystander = world.service->MakeClient();
    auto ref_client = ref_world.service->MakeClient();
    ref_world.service->MakeClient();  // keep seed order aligned

    const std::vector<std::uint64_t> wanted{7, 100, 900, 2'000};
    auto victim =
        world.service->front_end().SubmitRequest({client.get(), wanted});
    ASSERT_TRUE(victim.ok());
    auto keep = world.service->front_end().SubmitRequest(
        {bystander.get(), {11, 500}});
    ASSERT_TRUE(keep.ok());

    // Wait for the first streamed partial — the batch is now mid-flight —
    // then cancel. Whether the cancel wins is a race against the batch
    // finishing, but the contract is exact either way: a true return means
    // the handle finishes kCancelled, false means it was already done.
    // (With two workers the first partial's table is not deterministic —
    // arrival order is only asserted by the single-worker ordering test.)
    TablePartial partial;
    const bool got_partial = victim.WaitPartial(&partial);
    EXPECT_TRUE(got_partial);
    const bool cancel_won = victim.Cancel();
    victim.Wait();
    if (cancel_won) {
        EXPECT_EQ(victim.status(), RequestStatus::kCancelled);
        EXPECT_THROW(victim.Result(), std::runtime_error);
    } else {
        EXPECT_EQ(victim.status(), RequestStatus::kComplete);
        EXPECT_EQ(victim.Result().retrieved.size(), wanted.size());
    }

    // The batch was not poisoned: the bystander's result is bit-identical
    // to the sequential reference, and shutdown drains cleanly.
    ExpectSameResult(keep.Result(), ref_client->Lookup({11, 500}), 1, 0);
    world.service->front_end().Shutdown();
    EXPECT_EQ(world.service->front_end().inflight(), 0u);
}

// Deterministic mid-batch skip: one answer worker (the engine then runs
// the pooled batch inline, jobs in submission order) and a victim whose
// first (hot) partial blocks the batch until the main thread has cancelled
// it. Every one of the victim's full-table jobs is still pending at that
// point, so the skip counters are exact: 2 servers x full-table bins jobs,
// each of the shards the engine gives its bin (FullTableShards). The
// survivor in the same batch must stay bit-identical to the sequential
// reference. (The multi-thread skip path has exact-counter coverage in
// sharded_pir_test's engine-level context matrix and racy serving
// coverage in CancelHeavyLoad below.)
TEST(RequestHandleTest, MidBatchCancelSkipsRemainingShardWork) {
    const std::vector<std::uint64_t> victim_wanted{7, 100, 300, 511};
    const std::vector<std::uint64_t> survivor_wanted{11, 200};

    ServingWorld ref_world(BaseConfig());
    ref_world.service->MakeClient();  // victim's slot: align seeds
    auto ref_survivor = ref_world.service->MakeClient();
    const LookupResult ref = ref_survivor->Lookup(survivor_wanted);

    ServiceConfig config = BaseConfig();
    config.server_shards = 2;
    config.server_threads = 1;
    config.batcher_linger_us = 100'000;  // both requests join one batch
    ServingWorld world(config);
    auto victim = world.service->MakeClient();
    auto survivor = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    std::promise<void> partial_seen;
    std::promise<void> cancelled;
    std::shared_future<void> cancelled_f = cancelled.get_future().share();
    std::atomic<bool> first{true};
    ServingFrontEnd::SubmitOptions options;
    options.on_partial = [&](const TablePartial&) {
        if (first.exchange(false)) {
            partial_seen.set_value();
            cancelled_f.wait();
        }
    };
    auto victim_handle = fe.SubmitRequest({victim.get(), victim_wanted},
                                          std::move(options));
    ASSERT_TRUE(victim_handle.ok());
    // Let the batcher open its window before the survivor joins.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto survivor_handle = fe.SubmitRequest({survivor.get(), survivor_wanted});
    ASSERT_TRUE(survivor_handle.ok());

    // The victim's hot partial is out, so the batch is mid-flight and
    // its full-table jobs have not started: the cancel is genuinely
    // mid-batch, and the skip is deterministic.
    partial_seen.get_future().wait();
    EXPECT_TRUE(victim_handle.Cancel());
    cancelled.set_value();

    victim_handle.Wait();
    EXPECT_EQ(victim_handle.status(), RequestStatus::kCancelled);
    EXPECT_THROW(victim_handle.Result(), std::runtime_error);

    ExpectSameResult(survivor_handle.Result(), ref, 1, 0);

    const std::uint64_t full_jobs = 2 * world.service->full_pbr().num_bins();
    const ServingFrontEnd::Counters counters = fe.counters();
    EXPECT_EQ(counters.jobs_skipped, full_jobs);
    EXPECT_EQ(counters.shards_skipped,
              2 * FullTableShards(*world.service));
    EXPECT_EQ(counters.cancelled, 1u);
    EXPECT_EQ(counters.completed, 1u);
}

// Same determinization for deadline expiry: the victim's deadline passes
// while its first partial blocks the batch, so its remaining shard tasks
// observe the expired context, the partial result is never assembled, and
// the final status is kDeadlineExpired — with the survivor untouched.
TEST(RequestHandleTest, MidBatchExpirySkipsRemainingShardWork) {
    const std::vector<std::uint64_t> victim_wanted{3, 90, 250, 400};
    const std::vector<std::uint64_t> survivor_wanted{5, 310};

    ServingWorld ref_world(BaseConfig());
    ref_world.service->MakeClient();
    auto ref_survivor = ref_world.service->MakeClient();
    const LookupResult ref = ref_survivor->Lookup(survivor_wanted);

    ServiceConfig config = BaseConfig();
    config.server_shards = 2;
    config.server_threads = 1;
    config.batcher_linger_us = 20'000;
    ServingWorld world(config);
    auto victim = world.service->MakeClient();
    auto survivor = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    const auto t0 = std::chrono::steady_clock::now();
    std::promise<void> partial_seen;
    std::promise<void> released;
    std::shared_future<void> released_f = released.get_future().share();
    std::atomic<bool> first{true};
    ServingFrontEnd::SubmitOptions options;
    options.deadline_us = 1'000'000;
    options.on_partial = [&](const TablePartial&) {
        if (first.exchange(false)) {
            partial_seen.set_value();
            released_f.wait();
        }
    };
    auto victim_handle =
        fe.SubmitRequest({victim.get(), victim_wanted}, std::move(options));
    ASSERT_TRUE(victim_handle.ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto survivor_handle = fe.SubmitRequest({survivor.get(), survivor_wanted});
    ASSERT_TRUE(survivor_handle.ok());

    // Very slow (sanitized) runners could expire the victim before it is
    // even dispatched; the skip-count assertions only hold on the mid-batch
    // path, so fall back to the status check alone in that case.
    const bool dispatched =
        partial_seen.get_future().wait_for(std::chrono::seconds(30)) ==
        std::future_status::ready;
    if (dispatched) {
        // The deadline is 1 s after admission, which happened after t0:
        // sleeping until t0 + 1.2 s guarantees it has passed before the
        // batch resumes.
        std::this_thread::sleep_until(t0 + std::chrono::milliseconds(1'200));
        released.set_value();
    }

    victim_handle.Wait();
    EXPECT_EQ(victim_handle.status(), RequestStatus::kDeadlineExpired);
    EXPECT_THROW(victim_handle.Result(), std::runtime_error);
    ExpectSameResult(survivor_handle.Result(), ref, 1, 0);

    const ServingFrontEnd::Counters counters = fe.counters();
    EXPECT_EQ(counters.deadline_expired, 1u);
    EXPECT_EQ(counters.completed, 1u);
    if (dispatched) {
        const std::uint64_t full_jobs =
            2 * world.service->full_pbr().num_bins();
        EXPECT_EQ(counters.jobs_skipped, full_jobs);
        EXPECT_EQ(counters.shards_skipped,
                  2 * FullTableShards(*world.service));
    }
}

// Cancel-heavy concurrent load on a 4-worker answer pool, with the
// engine-level skip of abandoned work on and off: half the requests are
// cancelled right after their first partial while the rest must remain
// bit-identical to the serialized sequential reference. This is the racy
// companion of the deterministic skip tests above — statuses must be exact
// (a true Cancel() means kCancelled), nothing may hang, and no
// cancellation may leak into a survivor's bytes.
TEST(RequestHandleTest, CancelHeavyLoadKeepsSurvivorsBitIdentical) {
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kLookups = 4;
    std::vector<std::vector<std::vector<std::uint64_t>>> wanted(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        for (std::size_t l = 0; l < kLookups; ++l) {
            wanted[c].push_back({c + l, 64 + 5 * c, 180 + 11 * l, 440});
        }
    }
    auto is_victim = [](std::size_t c, std::size_t l) {
        return (c + l) % 2 == 0;
    };

    ServingWorld ref_world(BaseConfig());
    std::vector<std::vector<LookupResult>> ref(kClients);
    {
        std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.push_back(ref_world.service->MakeClient());
        }
        // Victims burn client randomness at Prepare() whether or not they
        // are later cancelled, so the reference runs every lookup too.
        for (std::size_t c = 0; c < kClients; ++c) {
            for (std::size_t l = 0; l < kLookups; ++l) {
                ref[c].push_back(clients[c]->Lookup(wanted[c][l]));
            }
        }
    }

    for (const bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "skip" : "no-skip");
        ServiceConfig config = BaseConfig();
        config.server_shards = 3;
        config.server_threads = 4;
        config.batcher_linger_us = 300;
        config.skip_abandoned_work = skip;
        ServingWorld world(config);
        std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.push_back(world.service->MakeClient());
        }
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                for (std::size_t l = 0; l < kLookups; ++l) {
                    auto handle =
                        world.service->front_end().SubmitRequestOrWait(
                            {clients[c].get(), wanted[c][l]});
                    ASSERT_TRUE(handle.ok());
                    if (is_victim(c, l)) {
                        TablePartial partial;
                        handle.WaitPartial(&partial);
                        const bool won = handle.Cancel();
                        handle.Wait();
                        if (won) {
                            EXPECT_EQ(handle.status(),
                                      RequestStatus::kCancelled);
                        } else {
                            EXPECT_EQ(handle.status(),
                                      RequestStatus::kComplete);
                        }
                    } else {
                        ExpectSameResult(handle.Result(), ref[c][l], c, l);
                    }
                }
            });
        }
        for (auto& t : threads) t.join();
        world.service->front_end().Shutdown();
        EXPECT_EQ(world.service->front_end().inflight(), 0u);
    }
}

TEST(RequestHandleTest, DeadlineExpiryCompletesWithDeadlineStatus) {
    ServiceConfig config = BaseConfig();
    // Without the deadline cap the batcher would linger 50 ms; the 2 ms
    // request deadline must cut that short and expire the request.
    config.batcher_linger_us = 50'000;
    ServingWorld world(config);
    auto client = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    ServingFrontEnd::SubmitOptions options;
    options.deadline_us = 2'000;
    auto handle = fe.SubmitRequest({client.get(), {1, 2, 3}},
                                   std::move(options));
    ASSERT_TRUE(handle.ok());
    handle.Wait();
    EXPECT_EQ(handle.status(), RequestStatus::kDeadlineExpired);
    TablePartial partial;
    EXPECT_FALSE(handle.NextPartial(&partial));
    EXPECT_THROW(handle.Result(), std::runtime_error);
    EXPECT_EQ(fe.counters().deadline_expired, 1u);
    EXPECT_EQ(fe.inflight(), 0u);

    // The front-end is healthy afterwards; kNoDeadline opts out even when
    // a default deadline is configured (next test covers the default).
    ServingFrontEnd::SubmitOptions no_deadline;
    no_deadline.deadline_us = ServingFrontEnd::kNoDeadline;
    auto ok_handle = fe.SubmitRequest({client.get(), {4, 5}},
                                      std::move(no_deadline));
    ASSERT_TRUE(ok_handle.ok());
    EXPECT_EQ(ok_handle.Result().retrieved.size(), 2u);
}

TEST(RequestHandleTest, DefaultDeadlineFromConfigExpiresLookups) {
    ServiceConfig config = BaseConfig();
    config.batcher_linger_us = 50'000;
    config.default_deadline_us = 2'000;
    ServingWorld world(config);
    auto client = world.service->MakeClient();
    // The sync wrapper inherits the service-wide default deadline and
    // surfaces expiry as a runtime_error.
    EXPECT_THROW(client->Lookup({1, 2}), std::runtime_error);
    EXPECT_EQ(world.service->front_end().counters().deadline_expired, 1u);
}

TEST(RequestHandleTest, BatchPriorityIsCappedButNotStarved) {
    ServiceConfig config = BaseConfig();
    config.max_inflight_requests = 4;  // kBatch may hold at most 3 slots
    // Wide batching window: all the admissions below must land inside it
    // even when sanitizers slow the per-submission key generation.
    config.batcher_linger_us = 300'000;
    ServingWorld world(config);
    auto client = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    // Fill the kBatch share of the slots inside one batching window.
    ServingFrontEnd::SubmitOptions batch_options;
    batch_options.priority = RequestPriority::kBatch;
    std::vector<ServingFrontEnd::RequestHandle> admitted;
    admitted.push_back(fe.SubmitRequest({client.get(), {1}}, batch_options));
    ASSERT_TRUE(admitted.back().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (int i = 0; i < 2; ++i) {
        admitted.push_back(
            fe.SubmitRequest({client.get(), {2ull + i}}, batch_options));
        ASSERT_TRUE(admitted.back().ok());
    }
    // The 4th slot is reserved for interactive traffic.
    auto rejected = fe.SubmitRequest({client.get(), {9}}, batch_options);
    EXPECT_EQ(rejected.admission(), AdmissionStatus::kQueueFull);
    auto interactive = fe.SubmitRequest({client.get(), {10}});
    ASSERT_TRUE(interactive.ok());

    // Nothing starves: every admitted request completes.
    for (auto& h : admitted) {
        EXPECT_EQ(h.Result().retrieved.size(), 1u);
    }
    EXPECT_EQ(interactive.Result().retrieved.size(), 1u);
    EXPECT_EQ(fe.counters().completed, 4u);

    // And under a sustained interactive + batch mix, kBatch requests keep
    // flowing (blocking admission waits for its capped share).
    ServiceConfig mix_config = BaseConfig();
    mix_config.max_inflight_requests = 4;
    mix_config.batcher_linger_us = 200;
    ServingWorld mix_world(mix_config);
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kLookups = 4;
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    for (std::size_t c = 0; c < kThreads; ++c) {
        clients.push_back(mix_world.service->MakeClient());
    }
    std::atomic<std::size_t> done{0};
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kThreads; ++c) {
            threads.emplace_back([&, c] {
                ServingFrontEnd::SubmitOptions options;
                options.priority = (c % 2 == 0) ? RequestPriority::kBatch
                                                : RequestPriority::kInteractive;
                for (std::size_t l = 0; l < kLookups; ++l) {
                    auto handle =
                        mix_world.service->front_end().SubmitRequestOrWait(
                            {clients[c].get(), {c + l, 100 + c}}, options);
                    ASSERT_TRUE(handle.ok());
                    EXPECT_EQ(handle.Result().retrieved.size(), 2u);
                    ++done;
                }
            });
        }
        for (auto& t : threads) t.join();
    }
    EXPECT_EQ(done.load(), kThreads * kLookups);
}

TEST(RequestHandleTest, EmptyWantedRejectedAtAdmissionWithoutRngBurn) {
    ServingWorld plain(BaseConfig());
    ServingWorld checked(BaseConfig());
    auto pc = plain.service->MakeClient();
    auto cc = checked.service->MakeClient();
    ServingFrontEnd& fe = checked.service->front_end();

    // Rejected before any slot or client-side work, on every entry point.
    auto handle = fe.SubmitRequest({cc.get(), {}});
    EXPECT_EQ(handle.admission(), AdmissionStatus::kInvalidRequest);
    EXPECT_FALSE(handle.ok());
    EXPECT_FALSE(handle.Cancel());
    auto blocking = fe.SubmitRequestOrWait({cc.get(), {}});
    EXPECT_EQ(blocking.admission(), AdmissionStatus::kInvalidRequest);
    EXPECT_STREQ(AdmissionStatusName(blocking.admission()),
                 "invalid-request");
    EXPECT_THROW(cc->Lookup({}), std::invalid_argument);
    EXPECT_EQ(fe.inflight(), 0u);
    EXPECT_EQ(fe.counters().rejected_invalid, 3u);

    // A null client is malformed too.
    EXPECT_EQ(fe.SubmitRequest({nullptr, {1}}).admission(),
              AdmissionStatus::kInvalidRequest);

    // No client randomness was consumed: the next lookup still matches the
    // serialized reference world.
    ExpectSameResult(cc->Lookup({1, 70, 200}), pc->Lookup({1, 70, 200}), 0, 0);
}

TEST(RequestHandleTest, AdaptiveLingerStaysBitIdenticalUnderLoad) {
    constexpr std::size_t kClients = 4;
    constexpr std::size_t kLookups = 3;
    std::vector<std::vector<std::vector<std::uint64_t>>> wanted(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        for (std::size_t l = 0; l < kLookups; ++l) {
            wanted[c].push_back({c + l, 65 + 3 * c, 200 + 10 * l, 300});
        }
    }

    ServingWorld ref_world(BaseConfig());
    std::vector<std::vector<LookupResult>> ref(kClients);
    {
        std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.push_back(ref_world.service->MakeClient());
        }
        for (std::size_t c = 0; c < kClients; ++c) {
            for (std::size_t l = 0; l < kLookups; ++l) {
                ref[c].push_back(clients[c]->Lookup(wanted[c][l]));
            }
        }
    }

    // Adaptive window under concurrent submissions: the policy only moves
    // the batching boundary, never the bytes.
    ServiceConfig config = BaseConfig();
    config.server_shards = 3;
    config.server_threads = 2;
    config.adaptive_linger = true;
    config.batcher_linger_us = 300;
    config.linger_ewma_half_life_us = 500;
    ServingWorld world(config);
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.push_back(world.service->MakeClient());
    }
    std::vector<std::vector<LookupResult>> got(kClients);
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < kClients; ++c) {
            threads.emplace_back([&, c] {
                for (std::size_t l = 0; l < kLookups; ++l) {
                    auto handle =
                        world.service->front_end().SubmitRequestOrWait(
                            {clients[c].get(), wanted[c][l]});
                    ASSERT_TRUE(handle.ok());
                    got[c].push_back(handle.Result());
                }
            });
        }
        for (auto& t : threads) t.join();
    }
    for (std::size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(got[c].size(), kLookups);
        for (std::size_t l = 0; l < kLookups; ++l) {
            ExpectSameResult(got[c][l], ref[c][l], c, l);
        }
    }
    // The adaptive window honors its cap.
    EXPECT_LE(world.service->front_end().counters().last_linger_us, 300u);
}

// The batching window counts from the oldest queued request's arrival, not
// from when the batcher looks. B queues while A's batch is held open by A's
// blocking partial callback, so by the time that batch ends B has waited
// longer than the window: it must dispatch at once instead of lingering a
// whole window again.
TEST(ServingFrontEndTest, LingerCountsFromTheOldestArrival) {
    using Clock = std::chrono::steady_clock;
    ServiceConfig config = BaseConfig();
    config.server_threads = 1;
    config.batcher_linger_us = 200'000;
    ServingWorld world(config);
    auto a = world.service->MakeClient();
    auto b = world.service->MakeClient();
    ServingFrontEnd& fe = world.service->front_end();

    std::promise<void> a_partial;
    std::promise<Clock::time_point> a_done;
    std::promise<Clock::time_point> b_done;
    std::atomic<bool> first{true};
    ServingFrontEnd::SubmitOptions a_options;
    a_options.on_partial = [&](const TablePartial&) {
        if (first.exchange(false)) {
            a_partial.set_value();
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
        }
    };
    a_options.on_complete = [&](RequestStatus) {
        a_done.set_value(Clock::now());
    };
    auto a_handle =
        fe.SubmitRequest({a.get(), {3, 65, 200, 511}}, std::move(a_options));
    ASSERT_TRUE(a_handle.ok());
    a_partial.get_future().wait();

    ServingFrontEnd::SubmitOptions b_options;
    b_options.on_complete = [&](RequestStatus) {
        b_done.set_value(Clock::now());
    };
    auto b_handle =
        fe.SubmitRequest({b.get(), {7, 300}}, std::move(b_options));
    ASSERT_TRUE(b_handle.ok());

    const Clock::time_point a_at = a_done.get_future().get();
    const Clock::time_point b_at = b_done.get_future().get();
    EXPECT_EQ(a_handle.status(), RequestStatus::kComplete);
    EXPECT_EQ(b_handle.status(), RequestStatus::kComplete);
    EXPECT_LT(b_at - a_at, std::chrono::milliseconds(100))
        << "B completed "
        << std::chrono::duration_cast<std::chrono::milliseconds>(b_at - a_at)
               .count()
        << " ms after A";
    EXPECT_EQ(fe.counters().last_linger_us, 200'000u);
}

// Stop() ordering regression: submissions racing Stop() must each either
// be admitted and drain to completion, or be rejected with an explicit
// kShutdown/kQueueFull — never hang, crash, or get silently dropped.
TEST(ServingFrontEndTest, SubmitRacingStopDrainsOrRejectsCleanly) {
    ServiceConfig config = BaseConfig();
    config.batcher_linger_us = 200;
    ServingWorld world(config);
    auto& fe = world.service->front_end();

    constexpr std::size_t kThreads = 3;
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    for (std::size_t t = 0; t < kThreads; ++t) {
        clients.push_back(world.service->MakeClient());
    }
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> shut_out{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t l = 0; l < 8; ++l) {
                auto handle = fe.SubmitRequest(
                    {clients[t].get(), {t + l, 100 + 3 * l, 511 - 5 * t}});
                if (handle.ok()) {
                    // Admitted before the stop: the drain guarantee means
                    // this completes with a result.
                    handle.Wait();
                    EXPECT_EQ(handle.status(), RequestStatus::kComplete);
                    ++completed;
                } else {
                    EXPECT_TRUE(
                        handle.admission() == AdmissionStatus::kShutdown ||
                        handle.admission() == AdmissionStatus::kQueueFull)
                        << AdmissionStatusName(handle.admission());
                    if (handle.admission() == AdmissionStatus::kShutdown) {
                        ++shut_out;
                    }
                }
            }
        });
    }
    // Let a few submissions land, then stop mid-stream.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    fe.Stop();
    for (auto& t : threads) t.join();

    // Everything admitted drained; post-stop submissions were shut out.
    EXPECT_EQ(fe.inflight(), 0u);
    auto post = fe.SubmitRequest({clients[0].get(), {1}});
    EXPECT_EQ(post.admission(), AdmissionStatus::kShutdown);
    // Stop is idempotent, and the legacy Shutdown() alias still works.
    fe.Stop();
    fe.Shutdown();
    EXPECT_GT(completed.load() + shut_out.load(), 0u);
}

// SubmitRaw admission edges: a structurally-invalid raw upload (the shape
// a malformed wire request would produce) and a post-stop submission are
// both rejected with explicit statuses.
TEST(ServingFrontEndTest, SubmitRawRejectsMalformedShapeAndShutdown) {
    ServingWorld world(BaseConfig());
    auto& fe = world.service->front_end();

    // Empty full-table jobs: invalid regardless of the hot table.
    RawLookup empty;
    auto handle = fe.SubmitRaw(std::move(empty), {});
    EXPECT_EQ(handle.admission(), AdmissionStatus::kInvalidRequest);

    // Ranged uploads whose full-table window ends past the bin size, or
    // is inverted, are rejected before any job is read. (A window may end
    // past a ragged last bin's rows: net_test's ragged matrix.)
    const std::uint64_t bin_size = world.service->full_pbr().bin_size();
    const std::uint64_t windows[][2] = {{0, bin_size + 1}, {2, 1}};
    for (const auto& window : windows) {
        RawLookup ranged;
        ranged.full_server0.jobs.resize(1);
        ranged.full_server1.jobs.resize(1);
        ranged.has_range = true;
        ranged.full_row_begin = window[0];
        ranged.full_row_end = window[1];
        handle = fe.SubmitRaw(std::move(ranged), {});
        EXPECT_EQ(handle.admission(), AdmissionStatus::kInvalidRequest)
            << "[" << window[0] << ", " << window[1] << ")";
    }

    fe.Stop();
    RawLookup late;
    late.full_server0.jobs.resize(1);
    late.full_server1.jobs.resize(1);
    handle = fe.SubmitRaw(std::move(late), {});
    EXPECT_EQ(handle.admission(), AdmissionStatus::kShutdown);
}

}  // namespace
}  // namespace gpudpf
