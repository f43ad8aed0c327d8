// Networked serving tier tests.
//
// Wire layer: every decoder is exercised against an adversarial corpus —
// truncations at every byte boundary, single-bit flips at every position,
// frames whose element counts lie about the payload, version skew, bad
// magic, oversized payloads — and must return an error (or a benign
// decode) without crashing; the CI asan/ubsan jobs make "without
// crashing" a real check. Socket framing is covered over a socketpair.
//
// Serving tier: a ShardedRouter over loopback PirServerNodes — K=1 shard
// of 1/2/4 replicas (a replicated deployment) and K=1/2/4/8 shards, on
// even and ragged-last-bin geometries — must produce results
// BIT-IDENTICAL to in-process serving for every batch size, admission
// backpressure on a node must propagate to the remote caller as an
// explicit rejection, and killing a replica mid-run must fail over to
// the survivors with every request still completing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/core/service.h"
#include "src/core/serving.h"
#include "src/ml/embedding.h"
#include "src/net/remote_client.h"
#include "src/net/server_node.h"
#include "src/net/sharded_router.h"
#include "src/net/wire.h"
#include "src/pir/shard_merge.h"
#include "src/workloads/dataset.h"

namespace gpudpf {
namespace {

using net::DecodeStatus;
using net::Frame;
using net::FrameType;
using net::IoStatus;

// --- wire-layer fixtures ---------------------------------------------------

net::LookupRequestFrame SampleLookupRequest() {
    net::LookupRequestFrame req;
    req.request_id = 42;
    req.priority = RequestPriority::kBatch;
    req.deadline_us = 5'000;
    req.has_hot = true;
    req.full_keys0 = {{1, 2, 3}, {4, 5}};
    req.full_keys1 = {{6}, {7, 8, 9, 10}};
    req.hot_keys0 = {{11, 12}};
    req.hot_keys1 = {{13}};
    return req;
}

net::LookupRequestFrame SampleRangedLookupRequest() {
    net::LookupRequestFrame req = SampleLookupRequest();
    req.has_range = true;
    req.full_row_begin = 16;
    req.full_row_end = 32;
    req.hot_row_begin = 4;
    req.hot_row_end = 8;
    return req;
}

net::ShardHelloFrame SampleShardHello() {
    net::ShardHelloFrame sh;
    sh.shard_index = 1;
    sh.shard_count = 4;
    sh.full_row_begin = 16;
    sh.full_row_end = 32;
    sh.hot_row_begin = 4;
    sh.hot_row_end = 8;
    return sh;
}

net::ShardPartialFrame SampleShardPartial() {
    net::ShardPartialFrame part;
    part.request_id = 42;
    part.shard_index = 2;
    part.hot = true;
    part.server0 = {{MakeU128(1, 2), MakeU128(3, 4)}, {MakeU128(5, 6)}};
    part.server1 = {{MakeU128(7, 8), MakeU128(9, 10)}, {}};
    return part;
}

TEST(WireTest, FrameHeaderValidation) {
    Frame frame;
    frame.type = FrameType::kPing;
    frame.payload = net::EncodePing({99});
    std::vector<std::uint8_t> bytes = net::EncodeFrame(frame);

    Frame out;
    EXPECT_EQ(net::DecodeFrame(bytes.data(), bytes.size(),
                               net::MaxFramePayload(), &out),
              DecodeStatus::kOk);
    EXPECT_EQ(out.type, FrameType::kPing);

    // Bad magic.
    auto bad = bytes;
    bad[0] ^= 0xff;
    EXPECT_EQ(net::DecodeFrame(bad.data(), bad.size(), net::MaxFramePayload(),
                               &out),
              DecodeStatus::kBadMagic);

    // Version skew.
    bad = bytes;
    bad[4] += 1;
    EXPECT_EQ(net::DecodeFrame(bad.data(), bad.size(), net::MaxFramePayload(),
                               &out),
              DecodeStatus::kBadVersion);

    // A v2 or v3 peer (v3 carried additive keys and shares): version
    // skew, not a misparse.
    for (const std::uint8_t old_version : {2, 3}) {
        bad = bytes;
        bad[4] = old_version;
        bad[5] = 0;
        EXPECT_EQ(net::DecodeFrame(bad.data(), bad.size(),
                                   net::MaxFramePayload(), &out),
                  DecodeStatus::kBadVersion)
            << "v" << int{old_version};
    }

    // Unknown frame type.
    bad = bytes;
    bad[6] = 0x7f;
    EXPECT_EQ(net::DecodeFrame(bad.data(), bad.size(), net::MaxFramePayload(),
                               &out),
              DecodeStatus::kBadType);

    // Type 5, v2's retired table-partial frame, is no longer a frame type.
    bad = bytes;
    bad[6] = 5;
    bad[7] = 0;
    EXPECT_EQ(net::DecodeFrame(bad.data(), bad.size(), net::MaxFramePayload(),
                               &out),
              DecodeStatus::kBadType);

    // Payload length beyond the cap.
    bad = bytes;
    const std::uint32_t huge = 0xffffffffu;
    std::memcpy(bad.data() + 8, &huge, 4);
    EXPECT_EQ(net::DecodeFrame(bad.data(), bad.size(), net::MaxFramePayload(),
                               &out),
              DecodeStatus::kOversized);

    // Trailing garbage after a complete frame.
    bad = bytes;
    bad.push_back(0);
    EXPECT_EQ(net::DecodeFrame(bad.data(), bad.size(), net::MaxFramePayload(),
                               &out),
              DecodeStatus::kMalformed);
}

TEST(WireTest, PayloadRoundtrips) {
    net::Hello hello;
    hello.full_num_bins = 8;
    hello.full_bin_size = 64;
    hello.hot_num_bins = 4;
    hello.hot_bin_size = 16;
    hello.dim = 16;
    hello.row_bytes = 192;
    auto bytes = net::EncodeHello(hello);
    net::Hello hello2;
    ASSERT_TRUE(net::DecodeHello(bytes.data(), bytes.size(), &hello2));
    EXPECT_EQ(hello, hello2);

    const auto req = SampleLookupRequest();
    bytes = net::EncodeLookupRequest(req);
    net::LookupRequestFrame req2;
    ASSERT_TRUE(net::DecodeLookupRequest(bytes.data(), bytes.size(), &req2));
    EXPECT_EQ(req2.request_id, req.request_id);
    EXPECT_EQ(req2.priority, req.priority);
    EXPECT_EQ(req2.deadline_us, req.deadline_us);
    EXPECT_EQ(req2.has_hot, req.has_hot);
    EXPECT_EQ(req2.full_keys0, req.full_keys0);
    EXPECT_EQ(req2.full_keys1, req.full_keys1);
    EXPECT_EQ(req2.hot_keys0, req.hot_keys0);
    EXPECT_EQ(req2.hot_keys1, req.hot_keys1);

    net::RejectedFrame rej{7, AdmissionStatus::kQueueFull};
    bytes = net::EncodeRejected(rej);
    net::RejectedFrame rej2;
    ASSERT_TRUE(net::DecodeRejected(bytes.data(), bytes.size(), &rej2));
    EXPECT_EQ(rej2.request_id, 7u);
    EXPECT_EQ(rej2.status, AdmissionStatus::kQueueFull);

    net::LookupCompleteFrame done{9, RequestStatus::kDeadlineExpired};
    bytes = net::EncodeLookupComplete(done);
    net::LookupCompleteFrame done2;
    ASSERT_TRUE(
        net::DecodeLookupComplete(bytes.data(), bytes.size(), &done2));
    EXPECT_EQ(done2.request_id, 9u);
    EXPECT_EQ(done2.status, RequestStatus::kDeadlineExpired);
}

TEST(WireTest, ShardPayloadRoundtrips) {
    // Ranged lookup request: the row windows survive the wire.
    const auto ranged = SampleRangedLookupRequest();
    auto bytes = net::EncodeLookupRequest(ranged);
    net::LookupRequestFrame ranged2;
    ASSERT_TRUE(
        net::DecodeLookupRequest(bytes.data(), bytes.size(), &ranged2));
    EXPECT_TRUE(ranged2.has_range);
    EXPECT_EQ(ranged2.full_row_begin, ranged.full_row_begin);
    EXPECT_EQ(ranged2.full_row_end, ranged.full_row_end);
    EXPECT_EQ(ranged2.hot_row_begin, ranged.hot_row_begin);
    EXPECT_EQ(ranged2.hot_row_end, ranged.hot_row_end);
    EXPECT_EQ(ranged2.full_keys0, ranged.full_keys0);
    EXPECT_EQ(ranged2.hot_keys1, ranged.hot_keys1);
    // An unranged request decodes with zeroed windows.
    bytes = net::EncodeLookupRequest(SampleLookupRequest());
    ASSERT_TRUE(
        net::DecodeLookupRequest(bytes.data(), bytes.size(), &ranged2));
    EXPECT_FALSE(ranged2.has_range);
    EXPECT_EQ(ranged2.full_row_end, 0u);

    const auto sh = SampleShardHello();
    bytes = net::EncodeShardHello(sh);
    net::ShardHelloFrame sh2;
    ASSERT_TRUE(net::DecodeShardHello(bytes.data(), bytes.size(), &sh2));
    EXPECT_EQ(sh2, sh);
    EXPECT_EQ(net::EncodeShardHello(sh2), bytes);

    const auto part = SampleShardPartial();
    bytes = net::EncodeShardPartial(part);
    net::ShardPartialFrame part2;
    ASSERT_TRUE(net::DecodeShardPartial(bytes.data(), bytes.size(), &part2));
    EXPECT_EQ(part2.request_id, part.request_id);
    EXPECT_EQ(part2.shard_index, part.shard_index);
    EXPECT_EQ(part2.hot, part.hot);
    EXPECT_EQ(part2.server0, part.server0);
    EXPECT_EQ(part2.server1, part.server1);
    // Re-encoding reproduces the exact bytes (the bit-identity contract at
    // the frame level), and the Into-encoder writes the same bytes into a
    // reused buffer.
    EXPECT_EQ(net::EncodeShardPartial(part2), bytes);
    std::vector<std::uint8_t> scratch(3, 0xab);  // stale content is cleared
    net::EncodeShardPartialInto(part2, scratch);
    EXPECT_EQ(scratch, bytes);
    net::EncodeShardPartialInto(part2, scratch);
    EXPECT_EQ(scratch, bytes);
}

TEST(WireTest, ShardStructuralRejections) {
    // Shard hello: zero count, index out of range, inverted windows.
    net::ShardHelloFrame sh = SampleShardHello();
    net::ShardHelloFrame out;
    sh.shard_count = 0;
    auto bytes = net::EncodeShardHello(sh);
    EXPECT_FALSE(net::DecodeShardHello(bytes.data(), bytes.size(), &out));
    sh = SampleShardHello();
    sh.shard_index = sh.shard_count;
    bytes = net::EncodeShardHello(sh);
    EXPECT_FALSE(net::DecodeShardHello(bytes.data(), bytes.size(), &out));
    sh = SampleShardHello();
    sh.full_row_begin = sh.full_row_end + 1;
    bytes = net::EncodeShardHello(sh);
    EXPECT_FALSE(net::DecodeShardHello(bytes.data(), bytes.size(), &out));
    sh = SampleShardHello();
    sh.hot_row_begin = sh.hot_row_end + 1;
    bytes = net::EncodeShardHello(sh);
    EXPECT_FALSE(net::DecodeShardHello(bytes.data(), bytes.size(), &out));

    // Ranged lookup request with inverted windows.
    net::LookupRequestFrame req = SampleRangedLookupRequest();
    net::LookupRequestFrame req_out;
    req.full_row_begin = req.full_row_end + 1;
    bytes = net::EncodeLookupRequest(req);
    EXPECT_FALSE(
        net::DecodeLookupRequest(bytes.data(), bytes.size(), &req_out));
    req = SampleRangedLookupRequest();
    req.hot_row_begin = req.hot_row_end + 1;
    bytes = net::EncodeLookupRequest(req);
    EXPECT_FALSE(
        net::DecodeLookupRequest(bytes.data(), bytes.size(), &req_out));

    // has_range must be a strict boolean byte (offset: id 8 + priority 1 +
    // deadline 8 + has_hot 1).
    bytes = net::EncodeLookupRequest(SampleRangedLookupRequest());
    bytes[18] = 2;
    EXPECT_FALSE(
        net::DecodeLookupRequest(bytes.data(), bytes.size(), &req_out));

    // ShardPartial whose response word count exceeds the actual bytes —
    // rejected before any allocation sized from it (the count lives after
    // id 8 + shard_index 4 + hot 1 + nbins 4).
    bytes = net::EncodeShardPartial(SampleShardPartial());
    const std::uint32_t lying_words = 1u << 30;
    std::memcpy(bytes.data() + 17, &lying_words, 4);
    net::ShardPartialFrame part_out;
    EXPECT_FALSE(
        net::DecodeShardPartial(bytes.data(), bytes.size(), &part_out));
}

// Decoding any truncation of a valid frame must fail cleanly.
TEST(WireTest, TruncationCorpusNeverCrashes) {
    Frame frame;
    frame.type = FrameType::kLookupRequest;
    frame.payload = net::EncodeLookupRequest(SampleLookupRequest());
    const auto bytes = net::EncodeFrame(frame);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        Frame out;
        EXPECT_NE(net::DecodeFrame(bytes.data(), len, net::MaxFramePayload(),
                                   &out),
                  DecodeStatus::kOk)
            << "truncated to " << len;
        // Payload decoders on truncated payloads: must return false, not
        // crash.
        net::LookupRequestFrame req;
        if (len > net::kHeaderBytes) {
            EXPECT_FALSE(net::DecodeLookupRequest(
                bytes.data() + net::kHeaderBytes, len - net::kHeaderBytes,
                &req))
                << "payload truncated to " << (len - net::kHeaderBytes);
        }
    }
    // Same corpus against the ranged lookup-request decoder ...
    const auto ranged_bytes =
        net::EncodeLookupRequest(SampleRangedLookupRequest());
    for (std::size_t len = 0; len < ranged_bytes.size(); ++len) {
        net::LookupRequestFrame req;
        EXPECT_FALSE(
            net::DecodeLookupRequest(ranged_bytes.data(), len, &req));
    }
    // ... the shard-hello decoder ...
    const auto sh_bytes = net::EncodeShardHello(SampleShardHello());
    for (std::size_t len = 0; len < sh_bytes.size(); ++len) {
        net::ShardHelloFrame sh;
        EXPECT_FALSE(net::DecodeShardHello(sh_bytes.data(), len, &sh));
    }
    // ... and the shard-partial decoder.
    const auto sp_bytes = net::EncodeShardPartial(SampleShardPartial());
    for (std::size_t len = 0; len < sp_bytes.size(); ++len) {
        net::ShardPartialFrame part;
        EXPECT_FALSE(net::DecodeShardPartial(sp_bytes.data(), len, &part));
    }
}

// Flipping any single bit must produce either a clean error or a benign
// alternative decode — never a crash or out-of-bounds access (asan/ubsan
// enforce the latter in CI).
TEST(WireTest, BitFlipCorpusNeverCrashes) {
    auto run_corpus = [](FrameType type, std::vector<std::uint8_t> payload) {
        Frame frame;
        frame.type = type;
        frame.payload = std::move(payload);
        const auto bytes = net::EncodeFrame(frame);
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            for (int bit = 0; bit < 8; ++bit) {
                auto mutated = bytes;
                mutated[i] ^= static_cast<std::uint8_t>(1u << bit);
                Frame out;
                const DecodeStatus status =
                    net::DecodeFrame(mutated.data(), mutated.size(),
                                     net::MaxFramePayload(), &out);
                if (status != DecodeStatus::kOk) continue;
                net::LookupRequestFrame req;
                net::ShardHelloFrame sh;
                net::ShardPartialFrame shard_part;
                net::RejectedFrame rej;
                net::LookupCompleteFrame done;
                net::PingFrame ping;
                net::Hello hello;
                switch (out.type) {
                    case FrameType::kLookupRequest:
                        net::DecodeLookupRequest(out.payload.data(),
                                                 out.payload.size(), &req);
                        break;
                    case FrameType::kShardHello:
                        net::DecodeShardHello(out.payload.data(),
                                              out.payload.size(), &sh);
                        break;
                    case FrameType::kShardPartial:
                        net::DecodeShardPartial(out.payload.data(),
                                                out.payload.size(),
                                                &shard_part);
                        break;
                    case FrameType::kRejected:
                        net::DecodeRejected(out.payload.data(),
                                            out.payload.size(), &rej);
                        break;
                    case FrameType::kLookupComplete:
                        net::DecodeLookupComplete(out.payload.data(),
                                                  out.payload.size(), &done);
                        break;
                    case FrameType::kClientHello:
                    case FrameType::kServerHello:
                        net::DecodeHello(out.payload.data(),
                                         out.payload.size(), &hello);
                        break;
                    default:
                        net::DecodePing(out.payload.data(),
                                        out.payload.size(), &ping);
                        break;
                }
            }
        }
    };
    run_corpus(FrameType::kLookupRequest,
               net::EncodeLookupRequest(SampleLookupRequest()));
    run_corpus(FrameType::kLookupRequest,
               net::EncodeLookupRequest(SampleRangedLookupRequest()));
    run_corpus(FrameType::kShardHello,
               net::EncodeShardHello(SampleShardHello()));
    run_corpus(FrameType::kShardPartial,
               net::EncodeShardPartial(SampleShardPartial()));
}

// Element counts that lie about the payload must be rejected before any
// allocation sized from them.
TEST(WireTest, LengthLyingCountsRejected) {
    // LookupRequest claiming 2^32-1 bins in a tiny payload.
    std::vector<std::uint8_t> payload(8 + 1 + 8 + 1, 0);
    const std::uint32_t lie = 0xffffffffu;
    payload.resize(payload.size() + 4);
    std::memcpy(payload.data() + payload.size() - 4, &lie, 4);
    net::LookupRequestFrame req;
    EXPECT_FALSE(
        net::DecodeLookupRequest(payload.data(), payload.size(), &req));

    // ShardPartial claiming a huge bin count (id 8 + shard_index 4 +
    // hot 1, then the count). A lying response word count is covered in
    // ShardStructuralRejections.
    std::vector<std::uint8_t> part_payload(8 + 4 + 1, 0);
    part_payload.resize(part_payload.size() + 4);
    std::memcpy(part_payload.data() + part_payload.size() - 4, &lie, 4);
    net::ShardPartialFrame part;
    EXPECT_FALSE(net::DecodeShardPartial(part_payload.data(),
                                         part_payload.size(), &part));
}

TEST(WireTest, SocketFraming) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    Frame frame;
    frame.type = FrameType::kPing;
    frame.payload = net::EncodePing({1234});
    ASSERT_EQ(net::WriteFrame(fds[0], frame), IoStatus::kOk);
    Frame in;
    ASSERT_EQ(net::ReadFrame(fds[1], &in, /*timeout_ms=*/1'000),
              IoStatus::kOk);
    EXPECT_EQ(in.type, FrameType::kPing);
    EXPECT_EQ(in.payload, frame.payload);

    // Nothing pending: timeout, not a hang.
    EXPECT_EQ(net::ReadFrame(fds[1], &in, /*timeout_ms=*/10),
              IoStatus::kTimeout);

    // Garbage header: kBadFrame with the decode reason.
    const std::uint8_t junk[net::kHeaderBytes] = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_EQ(::send(fds[0], junk, sizeof(junk), 0),
              static_cast<ssize_t>(sizeof(junk)));
    DecodeStatus ds = DecodeStatus::kOk;
    EXPECT_EQ(net::ReadFrame(fds[1], &in, /*timeout_ms=*/1'000,
                             net::MaxFramePayload(), &ds),
              IoStatus::kBadFrame);
    EXPECT_EQ(ds, DecodeStatus::kBadMagic);

    // Orderly close: kClosed.
    ::close(fds[0]);
    EXPECT_EQ(net::ReadFrame(fds[1], &in, /*timeout_ms=*/1'000),
              IoStatus::kClosed);
    ::close(fds[1]);
}

// --- serving-tier fixtures -------------------------------------------------

ServiceConfig NetBaseConfig() {
    ServiceConfig config;
    config.codesign.hot_size = 64;
    config.codesign.colocate_c = 2;
    config.codesign.q_hot = 16;
    config.codesign.q_full = 8;
    return config;
}

// Everything needed for a replicated loopback deployment: one in-process
// reference service (expected results), one planning service (the remote
// client's side of the wire), and N identically-configured replica
// services, each behind a PirServerNode.
struct NetWorld {
    NetWorld(const ServiceConfig& config, std::size_t num_replicas,
             std::uint64_t vocab = 512) {
        RecWorkloadSpec spec;
        spec.name = "net-test";
        spec.vocab = vocab;
        spec.num_train = 1'200;
        spec.num_test = 100;
        spec.min_history = 4;
        spec.max_history = 10;
        spec.num_clusters = 8;
        spec.seed = 17;
        const RecDataset dataset = GenerateRecDataset(spec);
        stats = ComputeRecStats(dataset, 4);
        emb = std::make_unique<EmbeddingTable>(vocab, spec.dim);
        Rng rng(7);
        emb->InitRandom(rng, 0.2f);
        expected = Make(config);
        // The router-side twin is planning-only: no physical tables, so
        // every routed test doubles as proof the client/router path never
        // touches table storage.
        ServiceConfig planning_config = config;
        planning_config.planning_only = true;
        planning = Make(planning_config);
        for (std::size_t i = 0; i < num_replicas; ++i) {
            replicas.push_back(Make(config));
            nodes.push_back(std::make_unique<net::PirServerNode>(
                replicas.back().get(), net::PirServerNode::Options{}));
        }
    }

    std::unique_ptr<PrivateEmbeddingService> Make(
        const ServiceConfig& config) {
        return std::make_unique<PrivateEmbeddingService>(*emb, stats, config);
    }

    // Groups the nodes into shard_count shards of equal replica count
    // (consecutive nodes become replicas of the same shard). One shard of
    // every node is a replicated deployment.
    std::vector<std::vector<net::ShardedRouter::Endpoint>> ShardEndpoints(
        std::size_t shard_count) const {
        const std::size_t per_shard = nodes.size() / shard_count;
        std::vector<std::vector<net::ShardedRouter::Endpoint>> shards(
            shard_count);
        for (std::size_t i = 0; i < shard_count * per_shard; ++i) {
            shards[i / per_shard].push_back(
                {"127.0.0.1", nodes[i]->port()});
        }
        return shards;
    }

    std::unique_ptr<EmbeddingTable> emb;
    AccessStats stats;
    std::unique_ptr<PrivateEmbeddingService> expected;
    std::unique_ptr<PrivateEmbeddingService> planning;
    std::vector<std::unique_ptr<PrivateEmbeddingService>> replicas;
    std::vector<std::unique_ptr<net::PirServerNode>> nodes;
};

using LookupResult = PrivateEmbeddingService::LookupResult;

void ExpectBitIdentical(const LookupResult& a, const LookupResult& b) {
    ASSERT_EQ(a.retrieved, b.retrieved);
    ASSERT_EQ(a.embeddings, b.embeddings);
    EXPECT_EQ(a.upload_bytes, b.upload_bytes);
    EXPECT_EQ(a.download_bytes, b.download_bytes);
}

// Replicated serving is the sharded router at K=1: results must be
// bit-identical to in-process serving for every replica count and batch
// size.
TEST(NetServingTest, LoopbackBitIdentityMatrix) {
    const std::vector<std::vector<std::uint64_t>> batches = {
        {3},
        {1, 65, 200, 511},
        {0, 7, 64, 65, 128, 300, 400, 500},
    };
    for (const std::size_t num_replicas : {1u, 2u, 4u}) {
        NetWorld world(NetBaseConfig(), num_replicas);
        net::ShardedRouter::Options opts;
        opts.health_thread = false;  // deterministic replica choice
        net::ShardedRouter router(world.planning.get(),
                                  world.ShardEndpoints(1), opts);
        auto expected_client = world.expected->MakeClient();
        auto remote_client = world.planning->MakeClient();
        std::size_t lookups = 0;
        for (int round = 0; round < 2; ++round) {
            for (const auto& wanted : batches) {
                const LookupResult want = expected_client->Lookup(wanted);
                const auto got = router.Lookup(remote_client.get(), wanted);
                ExpectBitIdentical(want, got.result);
                EXPECT_EQ(got.shards_failed_over, 0u);
                ++lookups;
            }
        }
        const auto stats = router.stats();
        EXPECT_EQ(stats.requests, lookups);
        EXPECT_EQ(stats.failovers, 0u);
        // Round-robin spreads the work over every replica, and the
        // replicas together answered each lookup exactly once.
        std::uint64_t completed = 0;
        for (std::size_t i = 0; i < num_replicas; ++i) {
            const std::uint64_t answered = world.nodes[i]->stats().completed;
            EXPECT_GT(answered, 0u) << "replica " << i << " never answered"
                                    << " (replicas=" << num_replicas << ")";
            completed += answered;
        }
        EXPECT_EQ(completed, lookups);
    }
}

// A node at its admission cap rejects over the wire with kQueueFull, and
// the router surfaces that as an explicit non-retried error.
TEST(NetServingTest, AdmissionRejectionPropagates) {
    ServiceConfig config = NetBaseConfig();
    // Four slots, fixed 1s linger (adaptive linger would dispatch the
    // fillers as soon as the queue deepens, releasing their slots). kBatch
    // traffic is capped at 3 of the 4 slots, so three queued interactive
    // fillers deterministically exhaust the kBatch cap while the batcher
    // lingers — whenever it wakes, queue.size() < 4 keeps the window open.
    config.max_inflight_requests = 4;
    config.batcher_linger_us = 1'000'000;
    config.adaptive_linger = false;
    NetWorld world(config, /*num_replicas=*/1);
    auto& replica = *world.replicas[0];

    auto filler = replica.MakeClient();
    auto h1 = replica.front_end().SubmitRequest({filler.get(), {1, 2}});
    auto h2 = replica.front_end().SubmitRequest({filler.get(), {3, 4}});
    auto h3 = replica.front_end().SubmitRequest({filler.get(), {5, 6}});
    ASSERT_TRUE(h1.ok());
    ASSERT_TRUE(h2.ok());
    ASSERT_TRUE(h3.ok());

    net::ShardedRouter::Options opts;
    opts.health_thread = false;
    net::ShardedRouter router(world.planning.get(), world.ShardEndpoints(1),
                              opts);
    auto client = world.planning->MakeClient();
    try {
        router.Lookup(client.get(), {7, 8}, RequestPriority::kBatch);
        FAIL() << "expected ReplicaRequestError";
    } catch (const net::ReplicaRequestError& e) {
        EXPECT_EQ(e.admission(), AdmissionStatus::kQueueFull);
    }
    EXPECT_EQ(router.stats().rejected, 1u);
    const auto node_stats = world.nodes[0]->stats();
    EXPECT_EQ(node_stats.rejected, 1u);

    h1.Wait();
    h2.Wait();
    h3.Wait();
}

// Killing a replica mid-run: the router marks it unhealthy, fails the
// broken request over to the survivor, and every request still completes
// with bit-identical results.
TEST(NetServingTest, FailoverReroutesAndCompletes) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/2);
    net::ShardedRouter::Options opts;
    opts.health_thread = false;
    opts.request_timeout_ms = 2'000;
    net::ShardedRouter router(world.planning.get(), world.ShardEndpoints(1),
                              opts);
    auto expected_client = world.expected->MakeClient();
    auto remote_client = world.planning->MakeClient();

    const std::vector<std::uint64_t> wanted = {1, 65, 200, 511};
    for (int i = 0; i < 2; ++i) {
        ExpectBitIdentical(expected_client->Lookup(wanted),
                           router.Lookup(remote_client.get(), wanted).result);
    }
    EXPECT_EQ(router.healthy_count(0), 2u);

    // Kill replica 0 hard (connections die mid-stream, listener closes).
    world.nodes[0]->Abort();
    const std::uint64_t survivor_before = world.nodes[1]->stats().completed;

    // Every subsequent request completes on the survivor; the ones that
    // pick the dead replica first are transparently rerouted.
    std::uint64_t rerouted = 0;
    for (int i = 0; i < 6; ++i) {
        const LookupResult want = expected_client->Lookup(wanted);
        const auto got = router.Lookup(remote_client.get(), wanted);
        ExpectBitIdentical(want, got.result);
        rerouted += got.shards_failed_over;
    }
    EXPECT_EQ(world.nodes[1]->stats().completed, survivor_before + 6);
    EXPECT_GE(rerouted, 1u);
    EXPECT_EQ(router.stats().failovers, rerouted);
    EXPECT_GE(router.stats().transport_errors, rerouted);

    // A health sweep confirms the death; later picks skip the replica
    // without burning a retry.
    router.CheckNow();
    EXPECT_EQ(router.healthy_count(0), 1u);
    const auto got = router.Lookup(remote_client.get(), wanted);
    EXPECT_EQ(got.shards_failed_over, 0u);
    EXPECT_EQ(world.nodes[1]->stats().completed, survivor_before + 7);
}

// The background health thread flips a dead replica unhealthy on its own.
TEST(NetServingTest, HealthThreadMarksDeadReplica) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/2);
    net::ShardedRouter::Options opts;
    opts.health_period_ms = 20;
    opts.request_timeout_ms = 500;
    net::ShardedRouter router(world.planning.get(), world.ShardEndpoints(1),
                              opts);
    world.nodes[1]->Abort();
    // Wait for a sweep to notice (bounded).
    for (int i = 0; i < 200 && router.healthy_count(0) != 1; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(router.healthy_count(0), 1u);
    EXPECT_GT(router.stats().health_probes, 0u);
}

// A node configured with a different PIR geometry refuses the handshake —
// the router cannot silently reconstruct garbage from a mismatched node.
TEST(NetServingTest, MismatchedGeometryRefused) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/1);
    ServiceConfig other = NetBaseConfig();
    other.codesign.q_full = 4;  // different full-table binning
    auto other_service = world.Make(other);

    const net::Hello mine = net::ServiceHello(*other_service);
    auto conn = net::NodeConnection::Dial("127.0.0.1", world.nodes[0]->port(),
                                          mine, /*timeout_ms=*/2'000);
    EXPECT_EQ(conn, nullptr);
    EXPECT_EQ(world.nodes[0]->stats().hello_rejected, 1u);
}

// --- sharded fleet ---------------------------------------------------------

// ShardRangeOf partitions [0, num_rows) exactly: contiguous, ordered,
// covering, with empty trailing ranges when K > num_rows.
TEST(ShardMergeTest, RangePartitionCovers) {
    for (const std::uint64_t num_rows : {1ull, 4ull, 64ull, 257ull}) {
        for (const std::size_t shard_count : {1u, 2u, 3u, 8u, 300u}) {
            std::uint64_t cursor = 0;
            for (std::size_t k = 0; k < shard_count; ++k) {
                const ShardRange range =
                    ShardRangeOf(num_rows, shard_count, k);
                EXPECT_EQ(range.begin, cursor);
                EXPECT_LE(range.begin, range.end);
                EXPECT_LE(range.end, num_rows);
                cursor = range.end;
            }
            EXPECT_EQ(cursor, num_rows)
                << num_rows << " rows over " << shard_count << " shards";
        }
    }
    EXPECT_THROW(ShardRangeOf(8, 0, 0), std::invalid_argument);
}

// XORing per-shard shares reproduces the full share; empty partials are
// zero shares; length mismatches fail loud.
TEST(ShardMergeTest, MergeShardShares) {
    const PirResponse a = {MakeU128(1, 2), MakeU128(3, 4)};
    const PirResponse b = {MakeU128(5, 6), MakeU128(7, 8)};
    const PirResponse c = {MakeU128(~0ull, ~0ull), MakeU128(9, 10)};
    PirResponse want(2, 0);
    for (const PirResponse* part : {&a, &b, &c}) {
        for (std::size_t w = 0; w < want.size(); ++w) {
            want[w] ^= (*part)[w];
        }
    }
    EXPECT_EQ(MergeShardShares({a, b, c}), want);
    EXPECT_EQ(MergeShardShares({a, {}, b, c, {}}), want);

    PirResponse acc;
    AccumulateShare(acc, a);
    EXPECT_EQ(acc, a);
    AccumulateShare(acc, {});
    EXPECT_EQ(acc, a);
    PirResponse short_share = {MakeU128(1, 1)};
    EXPECT_THROW(AccumulateShare(acc, short_share), std::invalid_argument);
    EXPECT_THROW(MergeShardShares({a, short_share}), std::invalid_argument);
    EXPECT_THROW(MergeShardShares({{}, {}}), std::invalid_argument);
}

// Sharded scatter-gather must be bit-identical to in-process serving for
// every shard count and batch size — including K=8, where the hot table's
// 4-row bins leave shards 4..7 with EMPTY eval windows (their zero shares
// must merge away cleanly). The ragged geometry (27,000 rows in 16 bins
// of 1,688: the last bin holds 1,680; a 62-row hot table in 4-row bins:
// the last holds 2) puts every shard's window end past the last bin's
// rows, and at K >= 4 whole hot windows start past it.
TEST(NetServingTest, ShardedBitIdentityMatrix) {
    struct Geometry {
        const char* name;
        ServiceConfig config;
        std::uint64_t vocab;
        std::vector<std::vector<std::uint64_t>> batches;
    };
    ServiceConfig ragged = NetBaseConfig();
    ragged.codesign.hot_size = 62;
    ragged.codesign.q_full = 16;
    const std::vector<Geometry> geometries = {
        {"even", NetBaseConfig(), 512,
         {{3}, {1, 65, 200, 511}, {0, 7, 64, 65, 128, 300, 400, 500}}},
        {"ragged", ragged, 27'000,
         {{26'999}, {1, 65, 25'320, 26'990}, {0, 7, 61, 62, 1'688, 26'999}}},
    };
    for (const Geometry& geometry : geometries) {
        for (const std::size_t shard_count : {1u, 2u, 4u, 8u}) {
            SCOPED_TRACE(std::string(geometry.name) + " K=" +
                         std::to_string(shard_count));
            NetWorld world(geometry.config, shard_count, geometry.vocab);
            net::ShardedRouter::Options opts;
            opts.health_thread = false;  // deterministic replica choice
            net::ShardedRouter router(world.planning.get(),
                                      world.ShardEndpoints(shard_count), opts);
            auto expected_client = world.expected->MakeClient();
            auto remote_client = world.planning->MakeClient();
            std::size_t lookups = 0;
            for (int round = 0; round < 2; ++round) {
                for (const auto& wanted : geometry.batches) {
                    const LookupResult want = expected_client->Lookup(wanted);
                    const auto got =
                        router.Lookup(remote_client.get(), wanted);
                    ExpectBitIdentical(want, got.result);
                    EXPECT_EQ(got.shards_failed_over, 0u);
                    ++lookups;
                }
            }
            const auto stats = router.stats();
            EXPECT_EQ(stats.requests, lookups);
            EXPECT_EQ(stats.failovers, 0u);
            // Every node answered every lookup (its shard of it). Counters
            // are incremented before the terminal frame is sent, so a
            // client that has collected every reply reads exact stats.
            for (std::size_t k = 0; k < shard_count; ++k) {
                const auto node_stats = world.nodes[k]->stats();
                EXPECT_EQ(node_stats.completed, lookups) << "shard " << k;
                EXPECT_EQ(node_stats.requests, lookups) << "shard " << k;
            }
        }
    }
}

// Sharding composed with replication: K=2 shards x 2 replicas, still
// bit-identical, with each shard's lookups spread over its replicas.
TEST(NetServingTest, ShardedWithReplicationBitIdentical) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/4);
    net::ShardedRouter::Options opts;
    opts.health_thread = false;
    net::ShardedRouter router(world.planning.get(), world.ShardEndpoints(2),
                              opts);
    auto expected_client = world.expected->MakeClient();
    auto remote_client = world.planning->MakeClient();
    const std::vector<std::uint64_t> wanted = {1, 65, 200, 511};
    for (int i = 0; i < 4; ++i) {
        ExpectBitIdentical(expected_client->Lookup(wanted),
                           router.Lookup(remote_client.get(), wanted).result);
    }
    // Round-robin within each shard spreads the work over both replicas.
    for (const auto& node : world.nodes) {
        EXPECT_GT(node->stats().completed, 0u);
    }
}

// Kill one shard OWNER mid-run: requests fail over to that shard's
// sibling replica (counted per shard), every request completes, results
// stay bit-identical. A shard with NO replica left fails loud.
TEST(NetServingTest, ShardOwnerFailoverAndLoudFailure) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/4);
    net::ShardedRouter::Options opts;
    opts.health_thread = false;
    opts.request_timeout_ms = 2'000;
    net::ShardedRouter router(world.planning.get(), world.ShardEndpoints(2),
                              opts);
    auto expected_client = world.expected->MakeClient();
    auto remote_client = world.planning->MakeClient();
    const std::vector<std::uint64_t> wanted = {1, 65, 200, 511};
    for (int i = 0; i < 2; ++i) {
        ExpectBitIdentical(expected_client->Lookup(wanted),
                           router.Lookup(remote_client.get(), wanted).result);
    }

    // Kill shard 1's first replica hard (nodes are grouped [0,1 | 2,3]).
    world.nodes[2]->Abort();
    for (int i = 0; i < 6; ++i) {
        const LookupResult want = expected_client->Lookup(wanted);
        const auto got = router.Lookup(remote_client.get(), wanted);
        ExpectBitIdentical(want, got.result);
    }
    const auto failovers = router.per_shard_failovers();
    ASSERT_EQ(failovers.size(), 2u);
    EXPECT_EQ(failovers[0], 0u);
    EXPECT_GE(failovers[1], 1u);
    router.CheckNow();
    EXPECT_EQ(router.healthy_count(0), 2u);
    EXPECT_EQ(router.healthy_count(1), 1u);

    // Kill shard 1's sibling too: the shard has no replica left, and the
    // router must fail the lookup loudly rather than return a partial
    // merge.
    world.nodes[3]->Abort();
    EXPECT_THROW(router.Lookup(remote_client.get(), wanted),
                 std::runtime_error);
}

// A planning-only service rejects local submissions at admission — it has
// no tables to scan; only the client/router machinery is live.
TEST(NetServingTest, PlanningOnlyRejectsLocalSubmission) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/1);
    auto client = world.planning->MakeClient();
    auto handle =
        world.planning->front_end().SubmitRequest({client.get(), {1, 2}});
    EXPECT_FALSE(handle.ok());
    EXPECT_EQ(handle.admission(), AdmissionStatus::kInvalidRequest);
}

// A ranged request on a connection that never did the shard handshake is
// an explicit per-request rejection, not a dropped connection.
TEST(NetServingTest, RangedRequestWithoutShardHelloRejected) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/1);
    const net::Hello hello = net::ServiceHello(*world.planning);
    auto conn = net::NodeConnection::Dial("127.0.0.1", world.nodes[0]->port(),
                                          hello, /*timeout_ms=*/2'000);
    ASSERT_NE(conn, nullptr);
    // A well-formed ranged request (the fixture decodes cleanly); the
    // rejection must come from the missing handshake, not a decode error.
    const net::LookupRequestFrame req = SampleRangedLookupRequest();
    ASSERT_TRUE(conn->SendLookup(req));
    const auto reply = conn->CollectShard(req.request_id, req.has_hot,
                                          /*timeout_ms=*/2'000);
    EXPECT_EQ(reply.status, net::NodeConnection::LookupStatus::kRejected);
    EXPECT_EQ(reply.rejection, AdmissionStatus::kInvalidRequest);
}

// A request without a range on a connection that sent no kShardHello is
// evaluated over shard 0 of 1 — the whole bin — and answered with
// shard-0 kShardPartial frames equal to the full-bin answer.
TEST(NetServingTest, UnrangedRequestWithoutShardHelloIsWholeBin) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/1);
    const net::Hello hello = net::ServiceHello(*world.planning);
    auto conn = net::NodeConnection::Dial("127.0.0.1", world.nodes[0]->port(),
                                          hello, /*timeout_ms=*/2'000);
    ASSERT_NE(conn, nullptr);

    // Same-seed clients: the planning client prepares exactly the keys the
    // reference client's in-process lookup answers.
    auto remote_client = world.planning->MakeClient();
    auto expected_client = world.expected->MakeClient();
    const std::vector<std::uint64_t> wanted = {1, 65, 200, 511};
    auto prep = remote_client->Prepare(wanted, /*keep_wire_keys=*/true);
    net::LookupRequestFrame req;
    req.request_id = 7;
    req.has_hot = !prep.wire_hot_keys0.empty();
    req.full_keys0 = std::move(prep.wire_full_keys0);
    req.full_keys1 = std::move(prep.wire_full_keys1);
    req.hot_keys0 = std::move(prep.wire_hot_keys0);
    req.hot_keys1 = std::move(prep.wire_hot_keys1);
    ASSERT_FALSE(req.has_range);
    ASSERT_TRUE(req.has_hot);
    ASSERT_TRUE(conn->SendLookup(req));
    const auto reply = conn->CollectShard(req.request_id, req.has_hot,
                                          /*timeout_ms=*/2'000);
    ASSERT_EQ(reply.status, net::NodeConnection::LookupStatus::kComplete);
    EXPECT_EQ(reply.full.shard_index, 0u);
    EXPECT_EQ(reply.hot.shard_index, 0u);

    const auto full = remote_client->ReconstructTablePartial(
        prep, /*hot=*/false, reply.full.server0, reply.full.server1);
    const auto hot = remote_client->ReconstructTablePartial(
        prep, /*hot=*/true, reply.hot.server0, reply.hot.server1);
    ExpectBitIdentical(expected_client->Lookup(wanted),
                       world.planning->FinalizeLookupResult(prep, full, &hot));
    const auto node_stats = world.nodes[0]->stats();
    EXPECT_EQ(node_stats.completed, 1u);
    // The whole bin was scanned for every key of both tables.
    EXPECT_EQ(node_stats.rows_scanned,
              hello.full_bin_size * 2 * hello.full_num_bins +
                  hello.hot_bin_size * 2 * hello.hot_num_bins);
}

// A key whose header names no PRF, or a party other than 0/1, is refused
// with kInvalidRequest before any work: no silently wrong share is
// answered, and the connection keeps serving well-formed requests.
TEST(NetServingTest, MalformedKeyHeaderRejected) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/1);
    const net::Hello hello = net::ServiceHello(*world.planning);
    auto conn = net::NodeConnection::Dial("127.0.0.1", world.nodes[0]->port(),
                                          hello, /*timeout_ms=*/2'000);
    ASSERT_NE(conn, nullptr);
    auto remote_client = world.planning->MakeClient();
    const std::vector<std::uint64_t> wanted = {1, 65, 200, 511};
    auto request = [&](std::uint64_t id) {
        auto prep = remote_client->Prepare(wanted, /*keep_wire_keys=*/true);
        net::LookupRequestFrame req;
        req.request_id = id;
        req.has_hot = !prep.wire_hot_keys0.empty();
        req.full_keys0 = std::move(prep.wire_full_keys0);
        req.full_keys1 = std::move(prep.wire_full_keys1);
        req.hot_keys0 = std::move(prep.wire_hot_keys0);
        req.hot_keys1 = std::move(prep.wire_hot_keys1);
        return req;
    };
    // Header bytes: party, log_domain, PRF, out_words, share kind. PRF
    // bytes 0 (AES) and 1 (SHA-256) are valid kinds, but not this ChaCha20
    // node's; share-kind byte 0 (additive) is a valid kind, but its key
    // would have another length.
    const struct {
        std::size_t offset;
        std::uint8_t value;
    } corruptions[] = {{2, 5}, {2, 0x7f}, {0, 2}, {2, 1},
                       {2, 0}, {4, 2},    {4, 0}};
    std::uint64_t id = 1;
    auto expect_rejected = [&](const net::LookupRequestFrame& req,
                               const std::string& what) {
        ASSERT_TRUE(conn->SendLookup(req));
        const auto reply = conn->CollectShard(req.request_id, req.has_hot,
                                              /*timeout_ms=*/2'000);
        EXPECT_EQ(reply.status, net::NodeConnection::LookupStatus::kRejected)
            << what;
        EXPECT_EQ(reply.rejection, AdmissionStatus::kInvalidRequest) << what;
    };
    for (const auto& c : corruptions) {
        net::LookupRequestFrame req = request(id++);
        ASSERT_FALSE(req.full_keys1.empty());
        req.full_keys1.back()[c.offset] = c.value;
        expect_rejected(req, "byte " + std::to_string(c.offset) + " = " +
                                 std::to_string(int{c.value}));
    }
    // A well-formed additive key for the same bin domain and PRF: the node
    // answers XOR-share keys only.
    {
        net::LookupRequestFrame req = request(id++);
        const DpfKey genuine = DpfKey::Deserialize(
            req.full_keys1.back().data(), req.full_keys1.back().size());
        DpfParams additive = genuine.params;
        additive.share = ShareKind::kAdditive;
        Rng rng(7);
        req.full_keys1.back() =
            Dpf(additive).GenIndicator(1, rng).second.Serialize();
        expect_rejected(req, "additive key");
    }
    auto stats = world.nodes[0]->stats();
    EXPECT_EQ(stats.rejected, std::size(corruptions) + 1);
    EXPECT_EQ(stats.completed, 0u);
    EXPECT_EQ(stats.rows_scanned, 0u);

    const net::LookupRequestFrame good = request(id++);
    ASSERT_TRUE(conn->SendLookup(good));
    const auto reply = conn->CollectShard(good.request_id, good.has_hot,
                                          /*timeout_ms=*/2'000);
    EXPECT_EQ(reply.status, net::NodeConnection::LookupStatus::kComplete);
    EXPECT_EQ(world.nodes[0]->stats().completed, 1u);
}

// A shard hello whose windows disagree with the node's canonical
// partition is refused (the connection closes) — a mismatched fleet plan
// cannot silently mis-merge shares.
TEST(NetServingTest, ShardHelloMismatchedPlanRefused) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/1);
    const net::Hello hello = net::ServiceHello(*world.planning);
    auto conn = net::NodeConnection::Dial("127.0.0.1", world.nodes[0]->port(),
                                          hello, /*timeout_ms=*/2'000);
    ASSERT_NE(conn, nullptr);
    net::ShardHelloFrame bad;
    bad.shard_index = 0;
    bad.shard_count = 2;
    bad.full_row_begin = 1;  // canonical partition starts shard 0 at row 0
    bad.full_row_end = 2;
    EXPECT_FALSE(conn->ShardHello(bad, /*timeout_ms=*/2'000));
    EXPECT_EQ(world.nodes[0]->stats().hello_rejected, 1u);

    // The canonical assignment on a fresh connection is accepted.
    auto good_conn = net::NodeConnection::Dial(
        "127.0.0.1", world.nodes[0]->port(), hello, /*timeout_ms=*/2'000);
    ASSERT_NE(good_conn, nullptr);
    net::ShardHelloFrame good;
    good.shard_index = 0;
    good.shard_count = 2;
    const ShardRange full = ShardRangeOf(hello.full_bin_size, 2, 0);
    good.full_row_begin = full.begin;
    good.full_row_end = full.end;
    const ShardRange hot = ShardRangeOf(hello.hot_bin_size, 2, 0);
    good.hot_row_begin = hot.begin;
    good.hot_row_end = hot.end;
    EXPECT_TRUE(good_conn->ShardHello(good, /*timeout_ms=*/2'000));
}

// Graceful Stop(): in-flight requests drain with terminal frames before
// the connection dies; later requests are rejected at dial time.
TEST(NetServingTest, StopDrainsBeforeClosing) {
    NetWorld world(NetBaseConfig(), /*num_replicas=*/1);
    net::ShardedRouter::Options opts;
    opts.health_thread = false;
    net::ShardedRouter router(world.planning.get(), world.ShardEndpoints(1),
                              opts);
    auto client = world.planning->MakeClient();
    ASSERT_NO_THROW(router.Lookup(client.get(), {1, 2, 3}));

    world.nodes[0]->Stop();
    EXPECT_THROW(router.Lookup(client.get(), {4, 5}), std::runtime_error);
}

}  // namespace
}  // namespace gpudpf
