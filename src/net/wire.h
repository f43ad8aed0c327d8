// Versioned wire protocol of the networked serving tier.
//
// Every message is one length-prefixed frame:
//
//   offset  size  field
//   0       4     magic 0x47445046 ("GPDF" little-endian on the wire)
//   4       2     protocol version (kProtocolVersion), little-endian
//   6       2     frame type (FrameType), little-endian
//   8       4     payload length in bytes, little-endian
//   12      n     payload (layout per frame type, all integers little-endian)
//
// Frame types and payloads:
//
//   kClientHello / kServerHello — session setup. Both carry a Hello: the
//     PIR geometry (per-table bin counts and sizes, embedding dim, physical
//     row bytes) the speaker is configured with. The server rejects a
//     mismatched client by closing; the client verifies the echoed geometry
//     before sending keys — bit-identity with the in-process path is only
//     guaranteed against an identically-configured node.
//   kLookupRequest — one lookup's client-side output: request id, priority,
//     deadline, and both logical servers' serialized per-bin DPF keys for
//     the full (and optionally hot) table, plus optional per-table
//     [row_begin, row_end) eval windows (has_range). The node evaluates
//     the keys over only that row slice; a request without a range is
//     evaluated over its connection's shard window (the whole bin on a
//     connection that sent no kShardHello).
//   kShardHello — connection-scoped shard assignment (client -> server,
//     echoed back): shard index/count plus the per-table row ranges this
//     connection's requests cover. The server validates the assignment
//     against its own geometry (and ShardRowBoundary partition) and closes
//     on mismatch, so a misconfigured fleet fails at connect time, not with
//     silently-wrong shares. Without one, a connection is shard 0 of 1.
//   kRejected — admission rejection (AdmissionStatus) for a request id;
//     carries the front-end's max_inflight_requests backpressure
//     (kQueueFull) and drain-time kShutdown to the remote client.
//   kShardPartial — one table's raw answer shares for a request id over
//     the request's row window, both logical servers, tagged with the
//     shard index that produced it and streamed as soon as that table's
//     job group finishes. Partial shares from all K shards XOR (in
//     shard-index order) to exactly the full-scan share — see
//     src/pir/shard_merge.h. Every lookup is answered this way; a
//     replicated deployment is simply K=1.
//   kLookupComplete — terminal RequestStatus for a request id; after the
//     last kShardPartial on success.
//   kPing / kPong — router health checks; echo the 8-byte nonce.
//
// Deserialization is strictly bounds-checked: decoders never read past the
// buffer, reject truncated and trailing bytes, validate every element count
// against the bytes actually remaining (a frame lying about counts cannot
// trigger a large allocation), and cap whole-frame payloads at
// MaxFramePayload() (GPUDPF_NET_MAX_FRAME_MB). Malformed input is an error
// return, never UB — tests/net_test.cc fuzzes truncations and bit flips
// under asan/ubsan.
//
// The socket helpers at the bottom (poll()-timeout framed reads, EINTR- and
// partial-write-safe framed writes) are shared by the server node, the
// remote client, and the router's health checker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/request_types.h"
#include "src/pir/answer_engine.h"

namespace gpudpf {
namespace net {

inline constexpr std::uint32_t kMagic = 0x47445046u;
// v2: sharded fleet — kShardHello/kShardPartial frames and the optional
// per-request row-range block on kLookupRequest.
// v3: kShardPartial answers every lookup; type 5 (v2's untagged
// table-partial frame) is retired and decodes as kBadType.
// v4: lookup keys are XOR-share DPF keys (a 5-byte key header with a
// share-kind byte) and partial shares are XOR shares; a v3 peer would
// merge them as Z_2^128 sums, so the versions refuse each other.
inline constexpr std::uint16_t kProtocolVersion = 4;
inline constexpr std::size_t kHeaderBytes = 12;

enum class FrameType : std::uint16_t {
    kClientHello = 1,
    kServerHello = 2,
    kLookupRequest = 3,
    kRejected = 4,
    kLookupComplete = 6,
    kPing = 7,
    kPong = 8,
    kShardHello = 9,
    kShardPartial = 10,
};

const char* FrameTypeName(FrameType type);

// Whole-frame payload cap: GPUDPF_NET_MAX_FRAME_MB MiB (default 64).
std::size_t MaxFramePayload();

struct Frame {
    FrameType type = FrameType::kPing;
    std::vector<std::uint8_t> payload;
};

// --- header ----------------------------------------------------------------

enum class DecodeStatus {
    kOk,
    kTruncated,   // fewer bytes than the header/payload claims to need
    kBadMagic,    // not a protocol frame at all
    kBadVersion,  // version skew: peer speaks a different protocol revision
    kBadType,     // type value outside FrameType
    kOversized,   // payload length exceeds the max_payload cap
    kMalformed,   // payload structure invalid (counts, enums, trailing bytes)
};

const char* DecodeStatusName(DecodeStatus status);

struct FrameHeader {
    std::uint16_t version = 0;
    FrameType type = FrameType::kPing;
    std::uint32_t payload_len = 0;
};

// Decodes the 12-byte header from `data` (`len` >= kHeaderBytes or
// kTruncated), validating magic, version, type, and payload_len against
// `max_payload`.
DecodeStatus DecodeFrameHeader(const std::uint8_t* data, std::size_t len,
                               std::size_t max_payload, FrameHeader* out);

// One contiguous buffer: header + payload.
std::vector<std::uint8_t> EncodeFrame(const Frame& frame);

// Encodes into `out` (cleared first), reusing its capacity — the
// per-connection scratch variant for hot send paths that would otherwise
// allocate a fresh buffer per frame.
void EncodeFrameInto(const Frame& frame, std::vector<std::uint8_t>& out);

// Decodes a complete frame from a contiguous buffer (header validation,
// exact length match — trailing bytes are kMalformed).
DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t len,
                         std::size_t max_payload, Frame* out);

// --- payloads --------------------------------------------------------------

// PIR geometry both ends must agree on (see file comment). Sent by the
// client (kClientHello) and echoed by the server (kServerHello).
struct Hello {
    std::uint64_t full_num_bins = 0;
    std::uint64_t full_bin_size = 0;
    std::uint64_t hot_num_bins = 0;  // 0 = no hot table
    std::uint64_t hot_bin_size = 0;
    std::uint32_t dim = 0;
    std::uint32_t row_bytes = 0;

    friend bool operator==(const Hello& a, const Hello& b) {
        return a.full_num_bins == b.full_num_bins &&
               a.full_bin_size == b.full_bin_size &&
               a.hot_num_bins == b.hot_num_bins &&
               a.hot_bin_size == b.hot_bin_size && a.dim == b.dim &&
               a.row_bytes == b.row_bytes;
    }
    friend bool operator!=(const Hello& a, const Hello& b) {
        return !(a == b);
    }
};

std::vector<std::uint8_t> EncodeHello(const Hello& hello);
bool DecodeHello(const std::uint8_t* data, std::size_t len, Hello* out);

// One lookup's upload: both logical servers' serialized per-bin DPF keys.
// Key lists are index-aligned (keys0[b] and keys1[b] are bin b's pair) and
// the decoder enforces equal counts per table.
//
// has_range marks an explicitly RANGED request: the node evaluates the
// keys over only the bin-relative row window [full_row_begin,
// full_row_end) (and, when has_hot, [hot_row_begin, hot_row_end)).
// Without it the node uses the connection's shard window. The decoder
// rejects inverted windows; window-vs-geometry validation is the server
// node's job (it knows the bin sizes).
struct LookupRequestFrame {
    std::uint64_t request_id = 0;
    RequestPriority priority = RequestPriority::kInteractive;
    std::uint64_t deadline_us = 0;  // 0 = node default
    bool has_hot = false;
    bool has_range = false;
    std::uint64_t full_row_begin = 0;
    std::uint64_t full_row_end = 0;
    std::uint64_t hot_row_begin = 0;
    std::uint64_t hot_row_end = 0;
    std::vector<std::vector<std::uint8_t>> full_keys0;
    std::vector<std::vector<std::uint8_t>> full_keys1;
    std::vector<std::vector<std::uint8_t>> hot_keys0;
    std::vector<std::vector<std::uint8_t>> hot_keys1;
};

std::vector<std::uint8_t> EncodeLookupRequest(const LookupRequestFrame& req);
void EncodeLookupRequestInto(const LookupRequestFrame& req,
                             std::vector<std::uint8_t>& out);
bool DecodeLookupRequest(const std::uint8_t* data, std::size_t len,
                         LookupRequestFrame* out);

struct RejectedFrame {
    std::uint64_t request_id = 0;
    AdmissionStatus status = AdmissionStatus::kQueueFull;
};

std::vector<std::uint8_t> EncodeRejected(const RejectedFrame& rej);
bool DecodeRejected(const std::uint8_t* data, std::size_t len,
                    RejectedFrame* out);

/// Connection-scoped shard assignment: which slice of the fleet's row space
// this connection's ranged requests will cover. Sent by a sharded client
// right after the geometry hello; the server validates it against its own
// tables (and the canonical ShardRangeOf partition) and echoes it, or
// closes the connection on mismatch.
struct ShardHelloFrame {
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 0;
    std::uint64_t full_row_begin = 0;
    std::uint64_t full_row_end = 0;
    std::uint64_t hot_row_begin = 0;  // 0/0 when the service has no hot table
    std::uint64_t hot_row_end = 0;

    friend bool operator==(const ShardHelloFrame& a, const ShardHelloFrame& b) {
        return a.shard_index == b.shard_index &&
               a.shard_count == b.shard_count &&
               a.full_row_begin == b.full_row_begin &&
               a.full_row_end == b.full_row_end &&
               a.hot_row_begin == b.hot_row_begin &&
               a.hot_row_end == b.hot_row_end;
    }
    friend bool operator!=(const ShardHelloFrame& a, const ShardHelloFrame& b) {
        return !(a == b);
    }
};

std::vector<std::uint8_t> EncodeShardHello(const ShardHelloFrame& hello);
bool DecodeShardHello(const std::uint8_t* data, std::size_t len,
                      ShardHelloFrame* out);

// One table's raw shares over one shard's row window, tagged with the
// shard index that produced it: server0[b]/server1[b] are the two logical
// servers' per-bin responses, index-aligned with the uploaded keys. The
// u128 share words travel little-endian; re-encoding a decoded frame
// reproduces the exact bytes. The shares of all K shards XOR (in
// shard-index order — MergeShardShares) to the full-table shares.
struct ShardPartialFrame {
    std::uint64_t request_id = 0;
    std::uint32_t shard_index = 0;
    bool hot = false;
    std::vector<PirResponse> server0;
    std::vector<PirResponse> server1;
};

std::vector<std::uint8_t> EncodeShardPartial(const ShardPartialFrame& part);
void EncodeShardPartialInto(const ShardPartialFrame& part,
                            std::vector<std::uint8_t>& out);
bool DecodeShardPartial(const std::uint8_t* data, std::size_t len,
                        ShardPartialFrame* out);

struct LookupCompleteFrame {
    std::uint64_t request_id = 0;
    RequestStatus status = RequestStatus::kComplete;
};

std::vector<std::uint8_t> EncodeLookupComplete(const LookupCompleteFrame& done);
bool DecodeLookupComplete(const std::uint8_t* data, std::size_t len,
                          LookupCompleteFrame* out);

struct PingFrame {
    std::uint64_t nonce = 0;
};

std::vector<std::uint8_t> EncodePing(const PingFrame& ping);
bool DecodePing(const std::uint8_t* data, std::size_t len, PingFrame* out);

// --- socket framing --------------------------------------------------------

enum class IoStatus {
    kOk,
    kTimeout,   // poll() deadline passed before the full frame arrived
    kClosed,    // orderly EOF from the peer
    kError,     // socket error (errno-level)
    kBadFrame,  // protocol violation; see the DecodeStatus out-param
};

const char* IoStatusName(IoStatus status);

// Writes header + payload, handling partial writes and EINTR; never raises
// SIGPIPE. Returns kOk, kClosed (EPIPE/ECONNRESET), or kError.
IoStatus WriteFrame(int fd, const Frame& frame);

// WriteFrame encoding into caller-owned scratch (cleared, capacity kept):
// the per-connection-buffer variant for hot send paths. The caller owns
// serialization of concurrent writers on one fd (and of the scratch).
IoStatus WriteFrame(int fd, const Frame& frame,
                    std::vector<std::uint8_t>& scratch);

// Reads exactly one frame. `timeout_ms` bounds the wait for EACH burst of
// bytes (poll()-based; < 0 blocks indefinitely); a peer that stalls
// mid-frame times out. On kBadFrame, *decode_status (if non-null) says
// what was wrong.
IoStatus ReadFrame(int fd, Frame* out, int timeout_ms,
                   std::size_t max_payload = MaxFramePayload(),
                   DecodeStatus* decode_status = nullptr);

}  // namespace net
}  // namespace gpudpf
