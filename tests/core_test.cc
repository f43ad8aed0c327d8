// End-to-end integration tests through the public PrivateEmbeddingService
// API: retrieved embeddings must equal direct table reads, co-design on and
// off, plus latency/communication accounting sanity.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "src/core/service.h"
#include "src/net/comm_model.h"

namespace gpudpf {
namespace {

struct TestWorld {
    explicit TestWorld(CodesignConfig codesign, std::uint64_t vocab = 512) {
        RecWorkloadSpec spec;
        spec.name = "core-test";
        spec.vocab = vocab;
        spec.num_train = 1'500;
        spec.num_test = 200;
        spec.min_history = 4;
        spec.max_history = 10;
        spec.num_clusters = 8;
        spec.seed = 11;
        dataset = GenerateRecDataset(spec);
        stats = ComputeRecStats(dataset, 4);
        emb = std::make_unique<EmbeddingTable>(vocab, spec.dim);
        Rng rng(3);
        emb->InitRandom(rng, 0.2f);

        ServiceConfig config;
        config.prf = PrfKind::kChacha20;
        config.codesign = codesign;
        config.dnn_flops = 10'000;
        service = std::make_unique<PrivateEmbeddingService>(*emb, stats,
                                                            config);
        client = service->MakeClient();
    }

    RecDataset dataset;
    AccessStats stats;
    std::unique_ptr<EmbeddingTable> emb;
    std::unique_ptr<PrivateEmbeddingService> service;
    std::unique_ptr<PrivateEmbeddingService::Client> client;
};

void ExpectRetrievedMatchesTable(const TestWorld& world,
                                 const std::vector<std::uint64_t>& wanted) {
    auto result = world.client->Lookup(wanted);
    ASSERT_EQ(result.retrieved.size(), wanted.size());
    ASSERT_EQ(result.embeddings.size(), wanted.size());
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        if (!result.retrieved[i]) continue;
        const float* expected = world.emb->Row(wanted[i]);
        for (int d = 0; d < world.emb->dim(); ++d) {
            EXPECT_FLOAT_EQ(result.embeddings[i][d], expected[d])
                << "wanted[" << i << "]=" << wanted[i] << " dim " << d;
        }
    }
}

TEST(ServiceTest, PlainBatchPirRetrievesExactEmbeddings) {
    CodesignConfig codesign;
    codesign.q_full = 8;
    TestWorld world(codesign);
    ExpectRetrievedMatchesTable(world, {0, 100, 200, 300, 400, 511});
}

TEST(ServiceTest, SpreadLookupsAllRetrieved) {
    CodesignConfig codesign;
    codesign.q_full = 8;  // 8 bins of 64
    TestWorld world(codesign);
    const std::vector<std::uint64_t> wanted{1, 65, 129, 193, 257, 321};
    auto result = world.client->Lookup(wanted);
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        EXPECT_TRUE(result.retrieved[i]) << i;
    }
}

TEST(ServiceTest, CodesignRetrievesExactEmbeddings) {
    CodesignConfig codesign;
    codesign.hot_size = 64;
    codesign.colocate_c = 2;
    codesign.q_hot = 16;
    codesign.q_full = 8;
    TestWorld world(codesign);
    ExpectRetrievedMatchesTable(world, {0, 1, 2, 3, 100, 200, 300, 511});
}

TEST(ServiceTest, RealInferenceHistoriesRoundTrip) {
    CodesignConfig codesign;
    codesign.hot_size = 128;
    codesign.colocate_c = 2;
    codesign.q_hot = 32;
    codesign.q_full = 16;
    TestWorld world(codesign);
    for (int s = 0; s < 10; ++s) {
        ExpectRetrievedMatchesTable(world, world.dataset.test[s].history);
    }
}

TEST(ServiceTest, CommunicationMatchesPlannerAccounting) {
    CodesignConfig codesign;
    codesign.hot_size = 64;
    codesign.colocate_c = 1;
    codesign.q_hot = 8;
    codesign.q_full = 4;
    TestWorld world(codesign);
    auto result = world.client->Lookup({1, 2, 3});
    EXPECT_EQ(result.upload_bytes,
              world.service->planner().UploadBytesPerServer());
    EXPECT_EQ(result.download_bytes, world.service->planner().DownloadBytes(
                                         world.emb->dim() * sizeof(float)));
}

TEST(ServiceTest, LatencyBreakdownIsPopulated) {
    CodesignConfig codesign;
    codesign.q_full = 8;
    TestWorld world(codesign);
    auto result = world.client->Lookup({5, 6});
    EXPECT_GT(result.latency.gen_sec, 0.0);
    EXPECT_GT(result.latency.pir_sec, 0.0);
    EXPECT_GT(result.latency.network_sec, 0.0);
    EXPECT_GT(result.latency.dnn_sec, 0.0);
    EXPECT_NEAR(result.latency.total_sec(),
                result.latency.gen_sec + result.latency.pir_sec +
                    result.latency.network_sec + result.latency.dnn_sec,
                1e-12);
    // Network includes at least one RTT.
    EXPECT_GE(result.latency.network_sec, 0.05);
}

TEST(ServiceTest, DroppedLookupsAreZeroFilled) {
    CodesignConfig codesign;
    codesign.q_full = 1;  // single bin: heavy collisions
    TestWorld world(codesign);
    auto result = world.client->Lookup({10, 20, 30, 40});
    bool any_dropped = false;
    for (std::size_t i = 0; i < result.retrieved.size(); ++i) {
        if (result.retrieved[i]) continue;
        any_dropped = true;
        for (const float v : result.embeddings[i]) EXPECT_EQ(v, 0.0f);
    }
    EXPECT_TRUE(any_dropped);
}

// The per-slot decode AssembleFromShares replaced, kept as its reference:
// every slot of every real bin row scans all of `wanted` and copies into
// each retrieved position holding the slot's index.
struct ReferencePartial {
    std::vector<bool> served;
    std::vector<std::vector<float>> embeddings;
};

ReferencePartial ScanAssembleReference(
    const PrivateEmbeddingService& service,
    const PrivateEmbeddingService::PreparedLookup& prep, bool hot,
    const std::vector<std::vector<std::uint8_t>>& rows) {
    const std::size_t base = service.dim() * sizeof(float);
    const EmbeddingLayout& layout = service.layout();
    ReferencePartial partial;
    partial.served.assign(prep.wanted.size(), false);
    partial.embeddings.assign(prep.wanted.size(),
                              std::vector<float>(service.dim(), 0.0f));
    const Pbr::Plan& plan = hot ? prep.plan.hot_plan : prep.plan.full_plan;
    for (std::size_t b = 0; b < plan.queries.size(); ++b) {
        if (!plan.queries[b].real) continue;
        const std::uint64_t index = plan.queries[b].global_index;
        const std::uint64_t owner = hot ? layout.HotContent(index) : index;
        std::vector<std::uint64_t> slots{owner};
        for (const std::uint64_t p : layout.Partners(owner)) {
            slots.push_back(p);
        }
        for (std::size_t slot = 0; slot < slots.size(); ++slot) {
            for (std::size_t i = 0; i < prep.wanted.size(); ++i) {
                if (prep.wanted[i] != slots[slot] || !prep.plan.retrieved[i]) {
                    continue;
                }
                std::memcpy(partial.embeddings[i].data(),
                            rows[b].data() + slot * base, base);
                partial.served[i] = true;
            }
        }
    }
    return partial;
}

// Two random XOR shares of `rows`, one response per row: r0[b] is random
// and r0[b] ^ r1[b] holds rows[b] zero-padded to whole 16-byte words.
void ShareRows(const std::vector<std::vector<std::uint8_t>>& rows, Rng& rng,
               std::vector<PirResponse>* r0, std::vector<PirResponse>* r1) {
    r0->assign(rows.size(), PirResponse());
    r1->assign(rows.size(), PirResponse());
    for (std::size_t b = 0; b < rows.size(); ++b) {
        PirResponse plain((rows[b].size() + 15) / 16, 0);
        std::memcpy(plain.data(), rows[b].data(), rows[b].size());
        for (const u128 word : plain) {
            const u128 mask = rng.Next128();
            (*r0)[b].push_back(mask);
            (*r1)[b].push_back(mask ^ word);
        }
    }
}

// Co-design on with co-located partners: the geometry AssembleFromShares
// decodes.
CodesignConfig ColocatedCodesign() {
    CodesignConfig codesign;
    codesign.hot_size = 64;
    codesign.colocate_c = 2;
    codesign.q_hot = 16;
    codesign.q_full = 8;
    return codesign;
}

TEST(ServiceTest, AssembleFromSharesMatchesPerSlotScan) {
    // Rows whose every byte names its (bin, byte) pair, so a slot copied to
    // the wrong position or from the wrong row shows. The wanted list holds
    // duplicate indices, an owner together with its co-located partners,
    // and more full-table indices than the 8 full bins can serve, so some
    // positions are dropped.
    TestWorld world(ColocatedCodesign());
    const PrivateEmbeddingService& service = *world.service;
    const EmbeddingLayout& layout = service.layout();
    std::uint64_t owner = 300;
    while (layout.Partners(owner).empty()) ++owner;
    std::vector<std::uint64_t> wanted{owner, 0, 1, owner, 2, 0};
    for (const std::uint64_t p : layout.Partners(owner)) wanted.push_back(p);
    for (std::uint64_t i = 0; i < 24; ++i) wanted.push_back(100 + 17 * i);
    wanted.push_back(owner);
    const PrivateEmbeddingService::PreparedLookup prep =
        world.client->Prepare(wanted);
    ASSERT_GT(prep.plan.num_dropped, 0u);

    const std::size_t dim = static_cast<std::size_t>(service.dim());
    const std::size_t row_bytes = layout.RowBytes(dim * sizeof(float));
    Rng share_rng(29);
    for (const bool hot : {false, true}) {
        const Pbr::Plan& plan = hot ? prep.plan.hot_plan : prep.plan.full_plan;
        std::vector<std::vector<std::uint8_t>> rows(plan.queries.size());
        for (std::size_t b = 0; b < rows.size(); ++b) {
            rows[b].resize(row_bytes);
            for (std::size_t k = 0; k < row_bytes; ++k) {
                rows[b][k] = static_cast<std::uint8_t>(b * 131 + k * 7 + 1);
            }
        }
        std::vector<PirResponse> r0, r1;
        ShareRows(rows, share_rng, &r0, &r1);
        const auto got = service.AssembleFromShares(prep, hot, r0, r1);
        const auto want = ScanAssembleReference(service, prep, hot, rows);
        using Table = PrivateEmbeddingService::TablePartial::Table;
        EXPECT_EQ(got.table, hot ? Table::kHot : Table::kFull);
        EXPECT_EQ(got.served, want.served) << "hot=" << hot;
        ASSERT_EQ(got.values.size(), wanted.size() * dim);
        std::size_t served = 0;
        for (std::size_t i = 0; i < wanted.size(); ++i) {
            EXPECT_EQ(std::memcmp(got.values.data() + i * dim,
                                  want.embeddings[i].data(),
                                  dim * sizeof(float)),
                      0)
                << "hot=" << hot << " position " << i;
            if (!prep.plan.retrieved[i]) {
                EXPECT_FALSE(got.served[i]) << "hot=" << hot << " " << i;
                for (std::size_t d = 0; d < dim; ++d) {
                    EXPECT_EQ(got.values[i * dim + d], 0.0f);
                }
            }
            served += got.served[i] ? 1 : 0;
        }
        EXPECT_GT(served, 0u) << "hot=" << hot;
    }
}

TEST(ServiceTest, AssembleFromSharesRejectsMismatchedShares) {
    // The two servers' responses must hold one response per bin, each
    // exactly one row of words; anything else is refused before a partial
    // is returned, on both tables.
    TestWorld world(ColocatedCodesign());
    const PrivateEmbeddingService& service = *world.service;
    const auto prep = world.client->Prepare({0, 1, 2, 300});
    const std::size_t row_bytes =
        service.layout().RowBytes(service.dim() * sizeof(float));
    Rng share_rng(31);
    for (const bool hot : {false, true}) {
        const Pbr::Plan& plan = hot ? prep.plan.hot_plan : prep.plan.full_plan;
        const std::vector<std::vector<std::uint8_t>> rows(
            plan.queries.size(), std::vector<std::uint8_t>(row_bytes, 5));
        std::vector<PirResponse> r0, r1;
        ShareRows(rows, share_rng, &r0, &r1);
        EXPECT_NO_THROW(service.AssembleFromShares(prep, hot, r0, r1));

        auto short_r1 = r1;
        short_r1.pop_back();
        EXPECT_THROW(service.AssembleFromShares(prep, hot, r0, short_r1),
                     std::invalid_argument)
            << "hot=" << hot;
        auto short_both0 = r0;
        auto short_both1 = r1;
        short_both0.pop_back();
        short_both1.pop_back();
        EXPECT_THROW(
            service.AssembleFromShares(prep, hot, short_both0, short_both1),
            std::invalid_argument)
            << "hot=" << hot;
        // One word short in one bin, a real bin and a dummy bin alike: in
        // one server's response, or in both (the two agree, but are not a
        // row).
        for (std::size_t b = 0; b < plan.queries.size(); ++b) {
            auto ragged0 = r0;
            auto ragged1 = r1;
            ragged1[b].pop_back();
            EXPECT_THROW(service.AssembleFromShares(prep, hot, r0, ragged1),
                         std::invalid_argument)
                << "hot=" << hot << " bin " << b;
            ragged0[b].pop_back();
            EXPECT_THROW(
                service.AssembleFromShares(prep, hot, ragged0, ragged1),
                std::invalid_argument)
                << "hot=" << hot << " bin " << b;
        }
    }
}

TEST(ServiceTest, FinalizeRejectsPartialsNotAlignedWithWanted) {
    // FinalizeLookupResult reads each partial by wanted position, so a
    // partial whose `served` or `values` does not span the wanted list is
    // refused instead of read out of bounds.
    TestWorld world(ColocatedCodesign());
    const PrivateEmbeddingService& service = *world.service;
    const auto prep = world.client->Prepare({0, 1, 2, 300});
    const std::size_t row_bytes =
        service.layout().RowBytes(service.dim() * sizeof(float));
    Rng share_rng(37);
    PrivateEmbeddingService::TablePartial partials[2];
    for (const bool hot : {false, true}) {
        const Pbr::Plan& plan = hot ? prep.plan.hot_plan : prep.plan.full_plan;
        const std::vector<std::vector<std::uint8_t>> rows(
            plan.queries.size(), std::vector<std::uint8_t>(row_bytes, 5));
        std::vector<PirResponse> r0, r1;
        ShareRows(rows, share_rng, &r0, &r1);
        partials[hot] = service.AssembleFromShares(prep, hot, r0, r1);
    }
    const auto& full = partials[0];
    const auto& hot = partials[1];
    EXPECT_NO_THROW(service.FinalizeLookupResult(prep, full, &hot));
    EXPECT_NO_THROW(service.FinalizeLookupResult(prep, full, nullptr));

    auto short_values = hot;
    short_values.values.pop_back();
    EXPECT_THROW(service.FinalizeLookupResult(prep, full, &short_values),
                 std::invalid_argument);
    auto short_served = full;
    short_served.served.pop_back();
    EXPECT_THROW(service.FinalizeLookupResult(prep, short_served, &hot),
                 std::invalid_argument);
    EXPECT_THROW(service.FinalizeLookupResult(prep, short_served, nullptr),
                 std::invalid_argument);
}

TEST(ServiceTest, PreparedKeysAreTheWireKeysAndKeepTheRngStream) {
    // Prepare hands the generated keys to the bin jobs without a
    // serialize/parse round trip; with keep_wire_keys it also returns their
    // bytes. Those bytes must parse back to the same keys and jobs, the
    // upload must count them, and a twin client (same seed) that prepares
    // the other way round must stay on the same key stream.
    CodesignConfig codesign;
    codesign.hot_size = 64;
    codesign.colocate_c = 2;
    codesign.q_hot = 16;
    codesign.q_full = 8;
    TestWorld world(codesign);
    TestWorld twin(codesign);
    const std::vector<std::uint64_t> lookups[] = {
        {0, 1, 2, 3, 100, 200}, {7, 7, 300, 511}, {5, 64, 65, 400, 401}};
    for (std::size_t step = 0; step < 6; ++step) {
        const std::vector<std::uint64_t>& wanted = lookups[step % 3];
        if (step == 4) {
            // A full in-process lookup between prepares, on both clients.
            const auto a = world.client->Lookup(wanted);
            const auto b = twin.client->Lookup(wanted);
            EXPECT_EQ(a.retrieved, b.retrieved);
            EXPECT_EQ(a.embeddings, b.embeddings);
            continue;
        }
        const bool wire_first = step % 2 == 0;
        const auto prep = world.client->Prepare(wanted, wire_first);
        const auto other = twin.client->Prepare(wanted, !wire_first);
        const auto& wired = wire_first ? prep : other;
        const auto& bare = wire_first ? other : prep;
        EXPECT_TRUE(bare.wire_full_keys0.empty());
        EXPECT_TRUE(bare.wire_hot_keys1.empty());
        EXPECT_EQ(prep.upload_bytes, other.upload_bytes);

        std::size_t wire_bytes = 0;
        const struct {
            const PbrSession::BinJobs* wired_jobs;
            const PbrSession::BinJobs* bare_jobs;
            const std::vector<std::vector<std::uint8_t>>* wire;
            const Pbr* pbr;
            bool server0;
        } tables[] = {
            {&wired.full_server0, &bare.full_server0, &wired.wire_full_keys0,
             &world.service->full_pbr(), true},
            {&wired.full_server1, &bare.full_server1, &wired.wire_full_keys1,
             &world.service->full_pbr(), false},
            {&wired.hot_server0, &bare.hot_server0, &wired.wire_hot_keys0,
             world.service->hot_pbr(), true},
            {&wired.hot_server1, &bare.hot_server1, &wired.wire_hot_keys1,
             world.service->hot_pbr(), false},
        };
        for (const auto& t : tables) {
            ASSERT_EQ(t.wire->size(), t.pbr->num_bins());
            ASSERT_EQ(t.wired_jobs->keys.size(), t.pbr->num_bins());
            ASSERT_EQ(t.bare_jobs->keys.size(), t.pbr->num_bins());
            ASSERT_EQ(t.wired_jobs->jobs.size(), t.pbr->num_bins());
            for (std::size_t b = 0; b < t.wire->size(); ++b) {
                const std::vector<std::uint8_t>& bytes = (*t.wire)[b];
                if (t.server0) wire_bytes += bytes.size();
                const DpfKey parsed =
                    DpfKey::Deserialize(bytes.data(), bytes.size());
                EXPECT_EQ(parsed.Serialize(), bytes);
                EXPECT_EQ(t.wired_jobs->keys[b].Serialize(), bytes)
                    << "step " << step << " bin " << b;
                EXPECT_EQ(t.bare_jobs->keys[b].Serialize(), bytes)
                    << "step " << step << " bin " << b;
                for (const PbrSession::BinJobs* jobs :
                     {t.wired_jobs, t.bare_jobs}) {
                    const AnswerEngine::Job& job = jobs->jobs[b];
                    EXPECT_EQ(job.key, &jobs->keys[b]);
                    EXPECT_EQ(job.row_begin, b * t.pbr->bin_size());
                    EXPECT_EQ(job.num_rows, t.pbr->BinEntries(b));
                }
            }
        }
        EXPECT_EQ(prep.upload_bytes, wire_bytes);
        EXPECT_EQ(prep.upload_bytes,
                  world.service->planner().UploadBytesPerServer());
    }
}

TEST(NetModelTest, LatencyComposition) {
    const NetworkSpec net = NetworkSpec::FourG();
    const double lat = NetworkLatency(net, 75'000, 75'000);
    // 50ms RTT + 2 x 10ms transfer.
    EXPECT_NEAR(lat, 0.05 + 2 * 75'000 / 7.5e6, 1e-9);
    const ClientDeviceSpec dev = ClientDeviceSpec::CoreI3();
    EXPECT_GT(KeyGenLatency(dev, 16, 10), 0.0);
    EXPECT_NEAR(DnnLatency(dev, 5e9), 1.0, 1e-9);
}

}  // namespace
}  // namespace gpudpf
