#include "src/net/wire.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>

#include "src/common/env.h"
#include "src/common/u128.h"

namespace gpudpf {
namespace net {
namespace {

// --- little-endian append/consume helpers ----------------------------------

void PutU8(std::vector<std::uint8_t>& out, std::uint8_t v) {
    out.push_back(v);
}

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
    const std::size_t off = out.size();
    out.resize(off + 2);
    std::memcpy(out.data() + off, &v, 2);
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
    const std::size_t off = out.size();
    out.resize(off + 4);
    std::memcpy(out.data() + off, &v, 4);
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
    const std::size_t off = out.size();
    out.resize(off + 8);
    std::memcpy(out.data() + off, &v, 8);
}

// Bounds-checked sequential reader: every Read* fails (returns false)
// instead of reading past the end, and remaining() lets decoders validate
// element counts against the bytes actually present before allocating.
struct Reader {
    const std::uint8_t* data;
    std::size_t len;
    std::size_t off = 0;

    std::size_t remaining() const { return len - off; }
    bool done() const { return off == len; }

    bool ReadU8(std::uint8_t* v) {
        if (remaining() < 1) return false;
        *v = data[off];
        off += 1;
        return true;
    }
    bool ReadU16(std::uint16_t* v) {
        if (remaining() < 2) return false;
        std::memcpy(v, data + off, 2);
        off += 2;
        return true;
    }
    bool ReadU32(std::uint32_t* v) {
        if (remaining() < 4) return false;
        std::memcpy(v, data + off, 4);
        off += 4;
        return true;
    }
    bool ReadU64(std::uint64_t* v) {
        if (remaining() < 8) return false;
        std::memcpy(v, data + off, 8);
        off += 8;
        return true;
    }
    bool ReadBytes(std::size_t n, std::vector<std::uint8_t>* out) {
        if (remaining() < n) return false;
        out->assign(data + off, data + off + n);
        off += n;
        return true;
    }
};

// --- composite fields ------------------------------------------------------

void PutKeyList(std::vector<std::uint8_t>& out,
                const std::vector<std::vector<std::uint8_t>>& keys) {
    for (const auto& key : keys) {
        PutU32(out, static_cast<std::uint32_t>(key.size()));
        out.insert(out.end(), key.begin(), key.end());
    }
}

bool ReadKeyList(Reader& r, std::size_t count,
                 std::vector<std::vector<std::uint8_t>>* out) {
    // count was validated against remaining() by the caller; each key's
    // own length is checked against what is actually left.
    out->clear();
    out->reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t key_len = 0;
        if (!r.ReadU32(&key_len)) return false;
        std::vector<std::uint8_t> key;
        if (!r.ReadBytes(key_len, &key)) return false;
        out->push_back(std::move(key));
    }
    return true;
}

void PutResponseList(std::vector<std::uint8_t>& out,
                     const std::vector<PirResponse>& responses) {
    for (const auto& resp : responses) {
        PutU32(out, static_cast<std::uint32_t>(resp.size()));
        const std::size_t off = out.size();
        out.resize(off + resp.size() * 16);
        for (std::size_t w = 0; w < resp.size(); ++w) {
            StoreU128Le(resp[w], out.data() + off + w * 16);
        }
    }
}

bool ReadResponseList(Reader& r, std::size_t count,
                      std::vector<PirResponse>* out) {
    out->clear();
    out->reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t words = 0;
        if (!r.ReadU32(&words)) return false;
        // A lying word count cannot allocate past the frame: 16 bytes per
        // u128 word must already be present.
        if (words > r.remaining() / 16) return false;
        PirResponse resp(words);
        for (std::uint32_t w = 0; w < words; ++w) {
            resp[w] = LoadU128Le(r.data + r.off + w * 16);
        }
        r.off += static_cast<std::size_t>(words) * 16;
        out->push_back(std::move(resp));
    }
    return true;
}

}  // namespace

const char* FrameTypeName(FrameType type) {
    switch (type) {
        case FrameType::kClientHello:
            return "client-hello";
        case FrameType::kServerHello:
            return "server-hello";
        case FrameType::kLookupRequest:
            return "lookup-request";
        case FrameType::kRejected:
            return "rejected";
        case FrameType::kLookupComplete:
            return "lookup-complete";
        case FrameType::kPing:
            return "ping";
        case FrameType::kPong:
            return "pong";
        case FrameType::kShardHello:
            return "shard-hello";
        case FrameType::kShardPartial:
            return "shard-partial";
    }
    return "unknown";
}

const char* DecodeStatusName(DecodeStatus status) {
    switch (status) {
        case DecodeStatus::kOk:
            return "ok";
        case DecodeStatus::kTruncated:
            return "truncated";
        case DecodeStatus::kBadMagic:
            return "bad-magic";
        case DecodeStatus::kBadVersion:
            return "bad-version";
        case DecodeStatus::kBadType:
            return "bad-type";
        case DecodeStatus::kOversized:
            return "oversized";
        case DecodeStatus::kMalformed:
            return "malformed";
    }
    return "unknown";
}

std::size_t MaxFramePayload() {
    static const std::size_t cap = static_cast<std::size_t>(GpudpfEnvU64(
                                       "GPUDPF_NET_MAX_FRAME_MB", 64))
                                   << 20;
    return cap;
}

// --- header ----------------------------------------------------------------

DecodeStatus DecodeFrameHeader(const std::uint8_t* data, std::size_t len,
                               std::size_t max_payload, FrameHeader* out) {
    if (len < kHeaderBytes) return DecodeStatus::kTruncated;
    Reader r{data, len};
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint16_t type = 0;
    std::uint32_t payload_len = 0;
    r.ReadU32(&magic);
    r.ReadU16(&version);
    r.ReadU16(&type);
    r.ReadU32(&payload_len);
    if (magic != kMagic) return DecodeStatus::kBadMagic;
    if (version != kProtocolVersion) return DecodeStatus::kBadVersion;
    // Type 5 is v2's retired table-partial frame; the enum skips it.
    if (type < static_cast<std::uint16_t>(FrameType::kClientHello) ||
        type > static_cast<std::uint16_t>(FrameType::kShardPartial) ||
        type == 5) {
        return DecodeStatus::kBadType;
    }
    if (payload_len > max_payload) return DecodeStatus::kOversized;
    out->version = version;
    out->type = static_cast<FrameType>(type);
    out->payload_len = payload_len;
    return DecodeStatus::kOk;
}

std::vector<std::uint8_t> EncodeFrame(const Frame& frame) {
    std::vector<std::uint8_t> out;
    EncodeFrameInto(frame, out);
    return out;
}

void EncodeFrameInto(const Frame& frame, std::vector<std::uint8_t>& out) {
    out.clear();
    out.reserve(kHeaderBytes + frame.payload.size());
    PutU32(out, kMagic);
    PutU16(out, kProtocolVersion);
    PutU16(out, static_cast<std::uint16_t>(frame.type));
    PutU32(out, static_cast<std::uint32_t>(frame.payload.size()));
    out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t len,
                         std::size_t max_payload, Frame* out) {
    FrameHeader header;
    const DecodeStatus status =
        DecodeFrameHeader(data, len, max_payload, &header);
    if (status != DecodeStatus::kOk) return status;
    if (len < kHeaderBytes + header.payload_len) return DecodeStatus::kTruncated;
    if (len > kHeaderBytes + header.payload_len) return DecodeStatus::kMalformed;
    out->type = header.type;
    out->payload.assign(data + kHeaderBytes,
                        data + kHeaderBytes + header.payload_len);
    return DecodeStatus::kOk;
}

// --- payloads --------------------------------------------------------------

std::vector<std::uint8_t> EncodeHello(const Hello& hello) {
    std::vector<std::uint8_t> out;
    out.reserve(40);
    PutU64(out, hello.full_num_bins);
    PutU64(out, hello.full_bin_size);
    PutU64(out, hello.hot_num_bins);
    PutU64(out, hello.hot_bin_size);
    PutU32(out, hello.dim);
    PutU32(out, hello.row_bytes);
    return out;
}

bool DecodeHello(const std::uint8_t* data, std::size_t len, Hello* out) {
    Reader r{data, len};
    if (!r.ReadU64(&out->full_num_bins)) return false;
    if (!r.ReadU64(&out->full_bin_size)) return false;
    if (!r.ReadU64(&out->hot_num_bins)) return false;
    if (!r.ReadU64(&out->hot_bin_size)) return false;
    if (!r.ReadU32(&out->dim)) return false;
    if (!r.ReadU32(&out->row_bytes)) return false;
    return r.done();
}

std::vector<std::uint8_t> EncodeLookupRequest(const LookupRequestFrame& req) {
    std::vector<std::uint8_t> out;
    EncodeLookupRequestInto(req, out);
    return out;
}

void EncodeLookupRequestInto(const LookupRequestFrame& req,
                             std::vector<std::uint8_t>& out) {
    out.clear();
    PutU64(out, req.request_id);
    PutU8(out, EncodeRequestPriority(req.priority));
    PutU64(out, req.deadline_us);
    PutU8(out, req.has_hot ? 1 : 0);
    PutU8(out, req.has_range ? 1 : 0);
    if (req.has_range) {
        PutU64(out, req.full_row_begin);
        PutU64(out, req.full_row_end);
        if (req.has_hot) {
            PutU64(out, req.hot_row_begin);
            PutU64(out, req.hot_row_end);
        }
    }
    PutU32(out, static_cast<std::uint32_t>(req.full_keys0.size()));
    PutKeyList(out, req.full_keys0);
    PutKeyList(out, req.full_keys1);
    if (req.has_hot) {
        PutU32(out, static_cast<std::uint32_t>(req.hot_keys0.size()));
        PutKeyList(out, req.hot_keys0);
        PutKeyList(out, req.hot_keys1);
    }
}

bool DecodeLookupRequest(const std::uint8_t* data, std::size_t len,
                         LookupRequestFrame* out) {
    Reader r{data, len};
    std::uint8_t priority = 0;
    std::uint8_t has_hot = 0;
    if (!r.ReadU64(&out->request_id)) return false;
    if (!r.ReadU8(&priority)) return false;
    if (!DecodeRequestPriority(priority, &out->priority)) return false;
    if (!r.ReadU64(&out->deadline_us)) return false;
    if (!r.ReadU8(&has_hot)) return false;
    if (has_hot > 1) return false;
    out->has_hot = has_hot == 1;
    std::uint8_t has_range = 0;
    if (!r.ReadU8(&has_range)) return false;
    if (has_range > 1) return false;
    out->has_range = has_range == 1;
    out->full_row_begin = out->full_row_end = 0;
    out->hot_row_begin = out->hot_row_end = 0;
    if (out->has_range) {
        if (!r.ReadU64(&out->full_row_begin)) return false;
        if (!r.ReadU64(&out->full_row_end)) return false;
        if (out->full_row_begin > out->full_row_end) return false;
        if (out->has_hot) {
            if (!r.ReadU64(&out->hot_row_begin)) return false;
            if (!r.ReadU64(&out->hot_row_end)) return false;
            if (out->hot_row_begin > out->hot_row_end) return false;
        }
    }

    // One bin count per table covers BOTH servers' key lists, so unequal
    // counts are structurally unrepresentable. Count sanity: every key
    // entry needs at least its 4-byte length prefix for EACH server, so a
    // count larger than remaining/8 lies about the frame.
    auto read_table = [&r](std::vector<std::vector<std::uint8_t>>* keys0,
                           std::vector<std::vector<std::uint8_t>>* keys1) {
        std::uint32_t nbins = 0;
        if (!r.ReadU32(&nbins)) return false;
        if (nbins == 0 || nbins > r.remaining() / 8) return false;
        return ReadKeyList(r, nbins, keys0) && ReadKeyList(r, nbins, keys1);
    };
    if (!read_table(&out->full_keys0, &out->full_keys1)) return false;
    if (out->has_hot) {
        if (!read_table(&out->hot_keys0, &out->hot_keys1)) return false;
    } else {
        out->hot_keys0.clear();
        out->hot_keys1.clear();
    }
    return r.done();
}

std::vector<std::uint8_t> EncodeRejected(const RejectedFrame& rej) {
    std::vector<std::uint8_t> out;
    out.reserve(9);
    PutU64(out, rej.request_id);
    PutU8(out, EncodeAdmissionStatus(rej.status));
    return out;
}

bool DecodeRejected(const std::uint8_t* data, std::size_t len,
                    RejectedFrame* out) {
    Reader r{data, len};
    std::uint8_t status = 0;
    if (!r.ReadU64(&out->request_id)) return false;
    if (!r.ReadU8(&status)) return false;
    if (!DecodeAdmissionStatus(status, &out->status)) return false;
    return r.done();
}

std::vector<std::uint8_t> EncodeShardHello(const ShardHelloFrame& hello) {
    std::vector<std::uint8_t> out;
    out.reserve(40);
    PutU32(out, hello.shard_index);
    PutU32(out, hello.shard_count);
    PutU64(out, hello.full_row_begin);
    PutU64(out, hello.full_row_end);
    PutU64(out, hello.hot_row_begin);
    PutU64(out, hello.hot_row_end);
    return out;
}

bool DecodeShardHello(const std::uint8_t* data, std::size_t len,
                      ShardHelloFrame* out) {
    Reader r{data, len};
    if (!r.ReadU32(&out->shard_index)) return false;
    if (!r.ReadU32(&out->shard_count)) return false;
    if (!r.ReadU64(&out->full_row_begin)) return false;
    if (!r.ReadU64(&out->full_row_end)) return false;
    if (!r.ReadU64(&out->hot_row_begin)) return false;
    if (!r.ReadU64(&out->hot_row_end)) return false;
    // Structural sanity the decoder can check without geometry: a real
    // assignment has at least one shard, indexes inside the fleet, and
    // non-inverted windows.
    if (out->shard_count == 0) return false;
    if (out->shard_index >= out->shard_count) return false;
    if (out->full_row_begin > out->full_row_end) return false;
    if (out->hot_row_begin > out->hot_row_end) return false;
    return r.done();
}

std::vector<std::uint8_t> EncodeShardPartial(const ShardPartialFrame& part) {
    std::vector<std::uint8_t> out;
    EncodeShardPartialInto(part, out);
    return out;
}

void EncodeShardPartialInto(const ShardPartialFrame& part,
                            std::vector<std::uint8_t>& out) {
    out.clear();
    PutU64(out, part.request_id);
    PutU32(out, part.shard_index);
    PutU8(out, part.hot ? 1 : 0);
    PutU32(out, static_cast<std::uint32_t>(part.server0.size()));
    PutResponseList(out, part.server0);
    PutResponseList(out, part.server1);
}

bool DecodeShardPartial(const std::uint8_t* data, std::size_t len,
                        ShardPartialFrame* out) {
    Reader r{data, len};
    std::uint8_t hot = 0;
    std::uint32_t nbins = 0;
    if (!r.ReadU64(&out->request_id)) return false;
    if (!r.ReadU32(&out->shard_index)) return false;
    if (!r.ReadU8(&hot)) return false;
    if (hot > 1) return false;
    out->hot = hot == 1;
    if (!r.ReadU32(&nbins)) return false;
    // Each response needs at least its 4-byte word count, per server.
    if (nbins > r.remaining() / 8) return false;
    if (!ReadResponseList(r, nbins, &out->server0)) return false;
    if (!ReadResponseList(r, nbins, &out->server1)) return false;
    return r.done();
}

std::vector<std::uint8_t> EncodeLookupComplete(
    const LookupCompleteFrame& done) {
    std::vector<std::uint8_t> out;
    out.reserve(9);
    PutU64(out, done.request_id);
    PutU8(out, EncodeRequestStatus(done.status));
    return out;
}

bool DecodeLookupComplete(const std::uint8_t* data, std::size_t len,
                          LookupCompleteFrame* out) {
    Reader r{data, len};
    std::uint8_t status = 0;
    if (!r.ReadU64(&out->request_id)) return false;
    if (!r.ReadU8(&status)) return false;
    if (!DecodeRequestStatus(status, &out->status)) return false;
    return r.done();
}

std::vector<std::uint8_t> EncodePing(const PingFrame& ping) {
    std::vector<std::uint8_t> out;
    out.reserve(8);
    PutU64(out, ping.nonce);
    return out;
}

bool DecodePing(const std::uint8_t* data, std::size_t len, PingFrame* out) {
    Reader r{data, len};
    if (!r.ReadU64(&out->nonce)) return false;
    return r.done();
}

// --- socket framing --------------------------------------------------------

const char* IoStatusName(IoStatus status) {
    switch (status) {
        case IoStatus::kOk:
            return "ok";
        case IoStatus::kTimeout:
            return "timeout";
        case IoStatus::kClosed:
            return "closed";
        case IoStatus::kError:
            return "error";
        case IoStatus::kBadFrame:
            return "bad-frame";
    }
    return "unknown";
}

namespace {

IoStatus ReadFully(int fd, std::uint8_t* buf, std::size_t n, int timeout_ms) {
    std::size_t off = 0;
    while (off < n) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc == 0) return IoStatus::kTimeout;
        if (rc < 0) {
            if (errno == EINTR) continue;
            return IoStatus::kError;
        }
        const ssize_t got = ::recv(fd, buf + off, n - off, 0);
        if (got == 0) return IoStatus::kClosed;
        if (got < 0) {
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
                continue;
            }
            return errno == ECONNRESET ? IoStatus::kClosed : IoStatus::kError;
        }
        off += static_cast<std::size_t>(got);
    }
    return IoStatus::kOk;
}

}  // namespace

IoStatus WriteFrame(int fd, const Frame& frame) {
    std::vector<std::uint8_t> scratch;
    return WriteFrame(fd, frame, scratch);
}

IoStatus WriteFrame(int fd, const Frame& frame,
                    std::vector<std::uint8_t>& scratch) {
    EncodeFrameInto(frame, scratch);
    std::size_t off = 0;
    while (off < scratch.size()) {
        const ssize_t sent = ::send(fd, scratch.data() + off,
                                    scratch.size() - off, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR) continue;
            return (errno == EPIPE || errno == ECONNRESET) ? IoStatus::kClosed
                                                           : IoStatus::kError;
        }
        off += static_cast<std::size_t>(sent);
    }
    return IoStatus::kOk;
}

IoStatus ReadFrame(int fd, Frame* out, int timeout_ms,
                   std::size_t max_payload, DecodeStatus* decode_status) {
    if (decode_status != nullptr) *decode_status = DecodeStatus::kOk;
    std::uint8_t header_bytes[kHeaderBytes];
    IoStatus io = ReadFully(fd, header_bytes, kHeaderBytes, timeout_ms);
    if (io != IoStatus::kOk) return io;
    FrameHeader header;
    const DecodeStatus status = DecodeFrameHeader(header_bytes, kHeaderBytes,
                                                  max_payload, &header);
    if (status != DecodeStatus::kOk) {
        // No resync: a bad header means the stream is not (or no longer)
        // speaking the protocol, so the caller must close the connection.
        if (decode_status != nullptr) *decode_status = status;
        return IoStatus::kBadFrame;
    }
    out->type = header.type;
    out->payload.resize(header.payload_len);
    if (header.payload_len > 0) {
        io = ReadFully(fd, out->payload.data(), header.payload_len,
                       timeout_ms);
        if (io != IoStatus::kOk) return io;
    }
    return IoStatus::kOk;
}

}  // namespace net
}  // namespace gpudpf
