// Batch-PIR (PBR) tests: binning invariants, drop accounting, obliviousness
// of the issued query shape, and real two-server retrieval through
// PbrSession.
#include <gtest/gtest.h>

#include <set>

#include "src/batchpir/pbr.h"
#include "src/batchpir/pbr_session.h"
#include "src/common/rng.h"

namespace gpudpf {
namespace {

TEST(PbrTest, BinGeometry) {
    Pbr pbr(1000, 128);
    EXPECT_EQ(pbr.num_bins(), 8u);  // ceil(1000/128)
    EXPECT_EQ(pbr.bin_size(), 128u);
    EXPECT_EQ(pbr.bin_log_domain(), 7);
    EXPECT_EQ(pbr.BinEntries(0), 128u);
    EXPECT_EQ(pbr.BinEntries(7), 1000u - 7 * 128);  // ragged tail
}

TEST(PbrTest, BinSizeClampedToTable) {
    Pbr pbr(10, 1000);
    EXPECT_EQ(pbr.num_bins(), 1u);
    EXPECT_EQ(pbr.bin_size(), 10u);
}

TEST(PbrTest, RejectsEmpty) {
    EXPECT_THROW(Pbr(0, 4), std::invalid_argument);
    EXPECT_THROW(Pbr(4, 0), std::invalid_argument);
}

TEST(PbrTest, IndexMapping) {
    Pbr pbr(256, 32);
    EXPECT_EQ(pbr.BinOf(0), 0u);
    EXPECT_EQ(pbr.BinOf(31), 0u);
    EXPECT_EQ(pbr.BinOf(32), 1u);
    EXPECT_EQ(pbr.LocalIndex(33), 1u);
}

TEST(PbrPlanTest, AlwaysIssuesOneQueryPerBin) {
    // Obliviousness: the number and shape of queries never depends on the
    // wanted set.
    Pbr pbr(256, 32);
    Rng rng(1);
    for (const std::vector<std::uint64_t>& wanted :
         std::vector<std::vector<std::uint64_t>>{
             {}, {0}, {0, 1, 2, 3}, {0, 32, 64, 96, 128, 160, 192, 224}}) {
        const auto plan = pbr.PlanBatch(wanted, rng);
        EXPECT_EQ(plan.queries.size(), pbr.num_bins());
        for (const auto& q : plan.queries) {
            EXPECT_LT(q.local_index, pbr.BinEntries(q.bin));
            EXPECT_EQ(q.global_index, q.bin * pbr.bin_size() + q.local_index);
        }
    }
}

TEST(PbrPlanTest, CollisionsAreDropped) {
    Pbr pbr(256, 32);
    Rng rng(2);
    // 0, 1, 2 share bin 0: only the first is served.
    const auto plan = pbr.PlanBatch({0, 1, 2, 40}, rng);
    EXPECT_EQ(plan.num_real(), 2u);
    EXPECT_EQ(plan.dropped.size(), 2u);
    EXPECT_EQ(plan.queries[0].global_index, 0u);
    EXPECT_TRUE(plan.queries[0].real);
    EXPECT_TRUE(plan.queries[1].real);
    EXPECT_EQ(plan.queries[1].global_index, 40u);
}

TEST(PbrPlanTest, DuplicatesServedByOneQuery) {
    Pbr pbr(64, 8);
    Rng rng(3);
    const auto plan = pbr.PlanBatch({5, 5, 5}, rng);
    EXPECT_EQ(plan.num_real(), 1u);
    EXPECT_TRUE(plan.dropped.empty());
}

TEST(PbrPlanTest, SpreadBatchFullyRetrieved) {
    Pbr pbr(256, 32);
    Rng rng(4);
    const auto plan = pbr.PlanBatch({1, 33, 65, 97, 129, 161, 193, 225}, rng);
    EXPECT_EQ(plan.num_real(), 8u);
    EXPECT_TRUE(plan.dropped.empty());
}

TEST(PbrPlanTest, OutOfRangeThrows) {
    Pbr pbr(100, 10);
    Rng rng(5);
    EXPECT_THROW(pbr.PlanBatch({100}, rng), std::invalid_argument);
}

TEST(PbrAnalyticsTest, ExpectedRetrievedFractionMatchesSimulation) {
    Pbr pbr(1024, 64);  // 16 bins
    Rng rng(6);
    const std::size_t kBatch = 8;
    const int kTrials = 3000;
    double retrieved = 0;
    for (int t = 0; t < kTrials; ++t) {
        std::vector<std::uint64_t> wanted;
        std::set<std::uint64_t> dedup;
        while (dedup.size() < kBatch) dedup.insert(rng.UniformInt(1024));
        wanted.assign(dedup.begin(), dedup.end());
        retrieved += static_cast<double>(pbr.PlanBatch(wanted, rng).num_real());
    }
    const double measured = retrieved / (kTrials * kBatch);
    EXPECT_NEAR(measured, pbr.ExpectedRetrievedFraction(kBatch), 0.02);
}

TEST(PbrAnalyticsTest, SmallerBinsDropLess) {
    Pbr coarse(1024, 256);  // 4 bins
    Pbr fine(1024, 32);     // 32 bins
    EXPECT_LT(coarse.ExpectedRetrievedFraction(8),
              fine.ExpectedRetrievedFraction(8));
}

TEST(PbrCostTest, CommunicationTradeoff) {
    // Section 4.1: smaller bins cost more communication.
    Pbr coarse(1 << 16, 1 << 12);
    Pbr fine(1 << 16, 1 << 8);
    EXPECT_LT(coarse.UploadBytesPerServer(), fine.UploadBytesPerServer());
    EXPECT_LT(coarse.DownloadBytes(64), fine.DownloadBytes(64));
    // ... but the same total computation.
    EXPECT_EQ(coarse.PrfExpansions() > 0, true);
    EXPECT_NEAR(static_cast<double>(coarse.PrfExpansions()),
                static_cast<double>(fine.PrfExpansions()), 0.1 * (1 << 16));
}

TEST(PbrSessionTest, EndToEndBatchedRetrieval) {
    Rng rng(7);
    PirTable table(500, 40);
    table.FillRandom(rng);
    Pbr pbr(500, 64);
    PbrSession session(&pbr, PrfKind::kChacha20, 11);

    const std::vector<std::uint64_t> wanted{3, 77, 499, 200};
    const auto plan = pbr.PlanBatch(wanted, rng);
    const auto req = session.BuildRequest(plan);
    EXPECT_EQ(req.keys_for_server0.size(), pbr.num_bins());

    const auto r0 = session.Answer(table, req.keys_for_server0);
    const auto r1 = session.Answer(table, req.keys_for_server1);
    const auto entries = session.Reconstruct(r0, r1, 40);
    ASSERT_EQ(entries.size(), pbr.num_bins());
    for (std::size_t b = 0; b < plan.queries.size(); ++b) {
        // Every bin (dummy included) returns a valid entry of the bin.
        EXPECT_EQ(entries[b], table.EntryBytes(plan.queries[b].global_index))
            << "bin " << b;
    }
}

TEST(PbrSessionTest, UploadMatchesAccounting) {
    // Pbr's upload account and the bytes PbrSession actually builds derive
    // from one key-size definition (DpfKey::SerializedSizeFor). The serving
    // geometries: movielens full bins (1,125 rows, 2^11 domain: 4 tree
    // levels), movielens hot bins (45 rows, 2^6: no tree) and taobao bins
    // (65,536 rows, 2^16: 9 levels); an XOR key is 5 + 16 + 17 * levels +
    // 16 bytes.
    struct Geometry {
        std::uint64_t rows;
        std::uint64_t bin_size;
        std::size_t key_bytes;
    };
    Rng rng(8);
    for (const Geometry g : {Geometry{27'000, 1'125, 105},
                             Geometry{2'700, 45, 37},
                             Geometry{262'144, 65'536, 190}}) {
        const Pbr pbr(g.rows, g.bin_size);
        for (const PrfKind prf : {PrfKind::kAes128, PrfKind::kChacha20}) {
            PbrSession session(&pbr, prf, 12);
            const auto req = session.BuildRequest(pbr.PlanBatch({1, 30}, rng));
            EXPECT_EQ(req.UploadBytesPerServer(), pbr.UploadBytesPerServer())
                << g.bin_size << " " << PrfKindName(prf);
            EXPECT_EQ(pbr.UploadBytesPerServer(), pbr.num_bins() * g.key_bytes)
                << g.bin_size;
        }
    }
}

TEST(PbrSessionTest, RejectsMalformedInput) {
    Pbr pbr(128, 16);
    PbrSession session(&pbr, PrfKind::kChacha20);
    Pbr::Plan bad_plan;
    bad_plan.queries.resize(3);  // wrong bin count
    EXPECT_THROW(session.BuildRequest(bad_plan), std::invalid_argument);

    PirTable table(128, 16);
    std::vector<std::vector<std::uint8_t>> too_few(2);
    EXPECT_THROW(session.Answer(table, too_few), std::invalid_argument);
}

TEST(PbrSessionTest, ParseJobsRejectsKeysOfAnotherDpf) {
    // A well-formed key whose header names another PRF, output width,
    // domain or share kind than the session's bin DPF is refused, not
    // scanned.
    Rng rng(9);
    Pbr pbr(128, 16);
    PbrSession session(&pbr, PrfKind::kChacha20, 13);
    const auto req = session.BuildRequest(pbr.PlanBatch({5, 100}, rng));
    EXPECT_EQ(session.ParseJobs(req.keys_for_server1).jobs.size(),
              pbr.num_bins());

    for (const PrfKind prf : AllPrfKinds()) {
        if (prf == PrfKind::kChacha20) continue;
        auto keys = req.keys_for_server1;
        keys.back()[2] = static_cast<std::uint8_t>(prf);
        EXPECT_THROW(session.ParseJobs(keys), std::invalid_argument)
            << PrfKindName(prf);
    }
    // Re-serialized, so the length matches the declared width.
    DpfKey wide =
        DpfKey::Deserialize(req.keys_for_server0[0].data(),
                            req.keys_for_server0[0].size());
    wide.params.out_words = 2;
    wide.final_cw.resize(2);
    auto keys = req.keys_for_server0;
    keys[0] = wide.Serialize();
    EXPECT_THROW(session.ParseJobs(keys), std::invalid_argument);

    DpfKey deep = DpfKey::Deserialize(req.keys_for_server0[0].data(),
                                      req.keys_for_server0[0].size());
    deep.params.log_domain += 1;
    deep.cw.resize(deep.params.TreeDepth());
    keys[0] = deep.Serialize();
    EXPECT_THROW(session.ParseJobs(keys), std::invalid_argument);

    // A well-formed additive key over the session's very domain and PRF:
    // the session answers XOR-share keys only.
    const Dpf additive(
        DpfParams{pbr.bin_log_domain(), PrfKind::kChacha20, 1});
    keys = req.keys_for_server0;
    keys[1] = additive.GenIndicator(3, rng).first.Serialize();
    EXPECT_THROW(session.ParseJobs(keys), std::invalid_argument);
}

}  // namespace
}  // namespace gpudpf
