// Two-server PIR protocol tests: end-to-end retrieval through serialized
// keys, naive-PIR baseline equivalence, and communication accounting.
#include <gtest/gtest.h>

#include <cstring>

#include "src/common/rng.h"
#include "src/pir/protocol.h"
#include "src/pir/table.h"

namespace gpudpf {
namespace {

TEST(PirTableTest, DimensionsAndPadding) {
    PirTable t(100, 100);  // 100 bytes pads to 7 words = 112 bytes
    EXPECT_EQ(t.num_entries(), 100u);
    EXPECT_EQ(t.entry_bytes(), 100u);
    EXPECT_EQ(t.words_per_entry(), 7u);
    // The 100 rows fit in one tile, and a tile of 7-word rows fills whole
    // cache lines, so the storage is exactly one tile of padded rows.
    ASSERT_GE(t.rows_per_tile(), 100u);
    EXPECT_EQ(t.size_bytes(), t.rows_per_tile() * 7 * 16);
}

TEST(PirTableTest, SetAndGetEntry) {
    PirTable t(8, 32);
    std::vector<std::uint8_t> payload(32);
    for (int i = 0; i < 32; ++i) payload[i] = static_cast<std::uint8_t>(i * 3);
    t.SetEntry(5, payload.data(), payload.size());
    EXPECT_EQ(t.EntryBytes(5), payload);
    // Other entries remain zero.
    const auto other = t.EntryBytes(4);
    for (std::uint8_t b : other) EXPECT_EQ(b, 0);
}

TEST(PirTableTest, BoundsChecked) {
    PirTable t(4, 16);
    std::uint8_t byte = 1;
    EXPECT_THROW(t.SetEntry(4, &byte, 1), std::out_of_range);
    EXPECT_THROW(t.EntryBytes(4), std::out_of_range);
    EXPECT_THROW(PirTable(0, 16), std::invalid_argument);
    EXPECT_THROW(PirTable(4, 0), std::invalid_argument);
}

class PirEndToEndTest : public ::testing::TestWithParam<PrfKind> {};

TEST_P(PirEndToEndTest, RetrievesExactEntry) {
    Rng rng(21);
    const int log_domain = 10;
    PirTable table(1 << log_domain, 64);
    table.FillRandom(rng);
    PirServer s0(&table);
    PirServer s1(&table);
    PirClient client(log_domain, GetParam(), /*seed=*/77);

    for (std::uint64_t index : {std::uint64_t{0}, std::uint64_t{511},
                                std::uint64_t{1023}}) {
        PirQuery q = client.Query(index);
        const PirResponse r0 =
            s0.Answer(q.key_for_server0.data(), q.key_for_server0.size());
        const PirResponse r1 =
            s1.Answer(q.key_for_server1.data(), q.key_for_server1.size());
        EXPECT_EQ(client.Reconstruct(r0, r1, table.entry_bytes()),
                  table.EntryBytes(index))
            << "index=" << index;
    }
}

INSTANTIATE_TEST_SUITE_P(AllPrfs, PirEndToEndTest,
                         ::testing::ValuesIn(AllPrfKinds()),
                         [](const auto& info) {
                             std::string n = PrfKindName(info.param);
                             n.erase(std::remove(n.begin(), n.end(), '-'),
                                     n.end());
                             return n;
                         });

TEST(PirEndToEndTest, WideEntries) {
    Rng rng(22);
    const int log_domain = 8;
    PirTable table(1 << log_domain, 1024);  // 1 KiB entries (paper's max)
    table.FillRandom(rng);
    PirServer s0(&table);
    PirServer s1(&table);
    PirClient client(log_domain, PrfKind::kChacha20);
    PirQuery q = client.Query(200);
    const PirResponse r0 =
        s0.Answer(q.key_for_server0.data(), q.key_for_server0.size());
    const PirResponse r1 =
        s1.Answer(q.key_for_server1.data(), q.key_for_server1.size());
    EXPECT_EQ(client.Reconstruct(r0, r1, 1024), table.EntryBytes(200));
}

TEST(PirEndToEndTest, TableSmallerThanDomain) {
    Rng rng(23);
    PirTable table(700, 32);  // not a power of two
    table.FillRandom(rng);
    PirServer server(&table);
    PirClient client(10, PrfKind::kAes128);
    PirQuery q = client.Query(699);
    const PirResponse r0 =
        server.Answer(q.key_for_server0.data(), q.key_for_server0.size());
    const PirResponse r1 =
        server.Answer(q.key_for_server1.data(), q.key_for_server1.size());
    EXPECT_EQ(client.Reconstruct(r0, r1, 32), table.EntryBytes(699));
}

TEST(PirCommunicationTest, DpfUploadIsLogarithmic) {
    PirClient small(10, PrfKind::kChacha20);
    PirClient large(20, PrfKind::kChacha20);
    const std::size_t small_bytes = small.Query(1).UploadBytesPerServer();
    const std::size_t large_bytes = large.Query(1).UploadBytesPerServer();
    // 2^20-entry queries cost ~2x a 2^10 query, not 1024x.
    EXPECT_LT(large_bytes, 3 * small_bytes);
    // And the absolute size matches the paper's ~1.3KB-for-1M claim order.
    EXPECT_LT(large_bytes, 2048u);
}

TEST(PirCommunicationTest, NaiveUploadIsLinear) {
    Rng rng(24);
    const auto q = naive_pir::MakeQuery(5, 1 << 10, rng);
    EXPECT_EQ(q.UploadBytesPerServer(), (1u << 10) * 16);
}

TEST(NaivePirTest, RetrievesEntryAndMatchesDpfPath) {
    Rng rng(25);
    PirTable table(256, 48);
    table.FillRandom(rng);
    const std::uint64_t index = 123;

    // The naive scheme's shares are additive: the entry is r0 + r1.
    const auto q = naive_pir::MakeQuery(index, 256, rng);
    const PirResponse r0 = naive_pir::Answer(table, q.share_for_server0);
    const PirResponse r1 = naive_pir::Answer(table, q.share_for_server1);
    std::vector<u128> sum(r0.size());
    for (std::size_t k = 0; k < sum.size(); ++k) sum[k] = r0[k] + r1[k];
    std::vector<std::uint8_t> naive(48);
    std::memcpy(naive.data(), sum.data(), naive.size());
    EXPECT_EQ(naive, table.EntryBytes(index));

    // The DPF path (XOR shares) retrieves the same bytes.
    PirServer server(&table);
    PirClient client(8, PrfKind::kChacha20);
    const PirQuery dq = client.Query(index);
    EXPECT_EQ(client.Reconstruct(server.Answer(dq.key_for_server0.data(),
                                               dq.key_for_server0.size()),
                                 server.Answer(dq.key_for_server1.data(),
                                               dq.key_for_server1.size()),
                                 48),
              table.EntryBytes(index));
}

TEST(NaivePirTest, SharesIndividuallyRandom) {
    Rng rng(26);
    const auto q = naive_pir::MakeQuery(7, 64, rng);
    // Neither share alone should be the indicator vector.
    int nonzero0 = 0;
    for (const u128 v : q.share_for_server0) nonzero0 += (v != 0);
    EXPECT_GT(nonzero0, 60);
    for (std::uint64_t j = 0; j < 64; ++j) {
        EXPECT_EQ(q.share_for_server0[j] + q.share_for_server1[j],
                  static_cast<u128>(j == 7 ? 1 : 0));
    }
}

TEST(PirServerTest, RejectsAdditiveKeys) {
    // The serving path answers XOR-share keys only: a well-formed additive
    // key for the same table is refused before any row is read.
    Rng rng(28);
    PirTable table(256, 16);
    PirServer server(&table);
    const Dpf additive(DpfParams{8, PrfKind::kAes128, 1});
    const auto bytes = additive.GenIndicator(3, rng).first.Serialize();
    EXPECT_THROW(server.Answer(bytes.data(), bytes.size()),
                 std::invalid_argument);
    PirClient client(8, PrfKind::kAes128);
    const PirQuery q = client.Query(3);
    EXPECT_NO_THROW(
        server.Answer(q.key_for_server0.data(), q.key_for_server0.size()));
}

TEST(PirServerTest, RejectsUndersizedDomain) {
    Rng rng(27);
    PirTable table(2048, 16);
    PirServer server(&table);
    PirClient client(10, PrfKind::kAes128);  // domain 1024 < 2048 entries
    PirQuery q = client.Query(3);
    EXPECT_THROW(
        server.Answer(q.key_for_server0.data(), q.key_for_server0.size()),
        std::invalid_argument);
}

}  // namespace
}  // namespace gpudpf
