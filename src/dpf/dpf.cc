#include "src/dpf/dpf.h"

#include <cstring>
#include <stdexcept>

namespace gpudpf {
namespace {

// Converts an additive key's leaf seed into `n` pseudorandom output words
// (the "convert" step of the BGI construction). For n == 1 the seed itself
// is the conversion (it is already a PRG output for every node below the
// root); XOR keys convert differently (see GenBatch).
void Convert(const Prg& prg, u128 seed, u128* out, int n) {
    if (n == 1) {
        out[0] = seed;
        return;
    }
    prg.ExpandWide(seed, out, static_cast<std::size_t>(n));
}

bool IsShareKind(int value) {
    return value == static_cast<int>(ShareKind::kAdditive) ||
           value == static_cast<int>(ShareKind::kXor);
}

}  // namespace

int DpfParams::TreeDepth() const {
    if (share == ShareKind::kAdditive) return log_domain;
    return log_domain > kXorBlockLog ? log_domain - kXorBlockLog : 0;
}

std::size_t DpfKey::SerializedSizeFor(const DpfParams& params) {
    // Layout: header (party:1, log_domain:1, prf:1, out_words:1, share:1)
    // + root seed (16) + per-level (seed 16 + packed t bits 1) + final CWs.
    return 5 + 16 + static_cast<std::size_t>(params.TreeDepth()) * 17 +
           static_cast<std::size_t>(params.out_words) * 16;
}

std::vector<std::uint8_t> DpfKey::Serialize() const {
    std::vector<std::uint8_t> out;
    out.reserve(SerializedSize());
    out.push_back(static_cast<std::uint8_t>(party));
    out.push_back(static_cast<std::uint8_t>(params.log_domain));
    out.push_back(static_cast<std::uint8_t>(params.prf));
    out.push_back(static_cast<std::uint8_t>(params.out_words));
    out.push_back(static_cast<std::uint8_t>(params.share));
    std::uint8_t buf[16];
    StoreU128Le(root_seed, buf);
    out.insert(out.end(), buf, buf + 16);
    for (const auto& c : cw) {
        StoreU128Le(c.seed, buf);
        out.insert(out.end(), buf, buf + 16);
        out.push_back(static_cast<std::uint8_t>((c.t_left ? 1 : 0) |
                                                (c.t_right ? 2 : 0)));
    }
    for (const auto& f : final_cw) {
        StoreU128Le(f, buf);
        out.insert(out.end(), buf, buf + 16);
    }
    return out;
}

DpfKey DpfKey::Deserialize(const std::uint8_t* data, std::size_t len) {
    if (len < 21) throw std::invalid_argument("DpfKey: truncated buffer");
    if (data[0] > 1) throw std::invalid_argument("DpfKey: party not 0 or 1");
    if (!IsPrfKind(data[2])) {
        throw std::invalid_argument("DpfKey: unknown PRF kind");
    }
    if (!IsShareKind(data[4])) {
        throw std::invalid_argument("DpfKey: unknown share kind");
    }
    DpfKey key;
    key.party = data[0];
    key.params.log_domain = data[1];
    key.params.prf = static_cast<PrfKind>(data[2]);
    key.params.out_words = data[3];
    key.params.share = static_cast<ShareKind>(data[4]);
    if (len != SerializedSizeFor(key.params)) {
        throw std::invalid_argument("DpfKey: bad length");
    }
    std::size_t off = 5;
    key.root_seed = LoadU128Le(data + off);
    off += 16;
    key.cw.resize(key.params.TreeDepth());
    for (auto& c : key.cw) {
        c.seed = LoadU128Le(data + off);
        off += 16;
        c.t_left = (data[off] & 1) != 0;
        c.t_right = (data[off] & 2) != 0;
        ++off;
    }
    key.final_cw.resize(key.params.out_words);
    for (auto& f : key.final_cw) {
        f = LoadU128Le(data + off);
        off += 16;
    }
    return key;
}

Dpf::Dpf(DpfParams params, ChachaLanes lanes)
    : params_(params), prg_(params.prf, lanes) {
    if (params_.log_domain < 1 || params_.log_domain > 40) {
        throw std::invalid_argument("Dpf: log_domain out of range");
    }
    if (params_.out_words < 1 || params_.out_words > 255) {
        throw std::invalid_argument("Dpf: out_words out of range");
    }
    if (params_.share == ShareKind::kXor && params_.out_words != 1) {
        throw std::invalid_argument("Dpf: XOR keys have one output word");
    }
}

std::vector<std::pair<DpfKey, DpfKey>> Dpf::GenBatch(
    const std::vector<std::uint64_t>& alphas, const std::vector<u128>& beta,
    Rng& rng) const {
    for (std::uint64_t alpha : alphas) {
        if (alpha >= domain_size()) {
            throw std::invalid_argument("Dpf::Gen: alpha outside domain");
        }
    }
    if (beta.size() != static_cast<std::size_t>(params_.out_words)) {
        throw std::invalid_argument("Dpf::Gen: beta width mismatch");
    }
    const bool xor_share = params_.share == ShareKind::kXor;
    if (xor_share && beta[0] != 1) {
        throw std::invalid_argument("Dpf::Gen: XOR keys share one bit");
    }

    // Walk state of point i: party p's seed and control bit at [2i + p].
    const std::size_t m = alphas.size();
    std::vector<std::pair<DpfKey, DpfKey>> keys(m);
    std::vector<u128> seeds(2 * m);
    std::vector<u128> lefts(2 * m);
    std::vector<u128> rights(2 * m);
    std::vector<std::uint8_t> ts(2 * m);
    for (std::size_t i = 0; i < m; ++i) {
        auto& [k0, k1] = keys[i];
        k0.party = 0;
        k1.party = 1;
        k0.params = k1.params = params_;
        k0.root_seed = rng.Next128();
        k1.root_seed = rng.Next128();
        k0.cw.resize(params_.TreeDepth());
        k1.cw.resize(params_.TreeDepth());
        seeds[2 * i] = k0.root_seed;
        seeds[2 * i + 1] = k1.root_seed;
        ts[2 * i] = 0;
        ts[2 * i + 1] = 1;
    }

    // An XOR key's tree is the top TreeDepth() levels of the domain's:
    // level `level` still branches on bit n - 1 - level of alpha.
    const int n = params_.log_domain;
    for (int level = 0; level < params_.TreeDepth(); ++level) {
        prg_.ExpandBatch(seeds.data(), 2 * m, lefts.data(), rights.data());
        for (std::size_t i = 0; i < m; ++i) {
            const int bit = static_cast<int>((alphas[i] >> (n - 1 - level)) & 1);
            u128 s0l = lefts[2 * i], s0r = rights[2 * i];
            u128 s1l = lefts[2 * i + 1], s1r = rights[2 * i + 1];
            const bool t0l = Lsb(s0l), t0r = Lsb(s0r);
            const bool t1l = Lsb(s1l), t1r = Lsb(s1r);
            s0l = ClearLsb(s0l); s0r = ClearLsb(s0r);
            s1l = ClearLsb(s1l); s1r = ClearLsb(s1r);

            // The "lose" child (off the path to alpha) gets seeds that
            // cancel; the "keep" child stays pseudorandom and diverging.
            const u128 s_cw = (bit == 0) ? (s0r ^ s1r) : (s0l ^ s1l);
            const bool t_cw_l = t0l ^ t1l ^ (bit == 1) ^ true;
            const bool t_cw_r = t0r ^ t1r ^ (bit == 1);

            const CorrectionWord cw{s_cw, t_cw_l, t_cw_r};
            keys[i].first.cw[level] = cw;
            keys[i].second.cw[level] = cw;

            const u128 s0_keep = (bit == 0) ? s0l : s0r;
            const u128 s1_keep = (bit == 0) ? s1l : s1r;
            const bool t0_keep = (bit == 0) ? t0l : t0r;
            const bool t1_keep = (bit == 0) ? t1l : t1r;
            const bool t_cw_keep = (bit == 0) ? t_cw_l : t_cw_r;

            const bool t0 = ts[2 * i] != 0;
            const bool t1 = ts[2 * i + 1] != 0;
            seeds[2 * i] = t0 ? (s0_keep ^ s_cw) : s0_keep;
            seeds[2 * i + 1] = t1 ? (s1_keep ^ s_cw) : s1_keep;
            ts[2 * i] = t0_keep ^ (t0 && t_cw_keep);
            ts[2 * i + 1] = t1_keep ^ (t1 && t_cw_keep);
        }
    }

    if (xor_share) {
        // The leaf converts to the left half of its seed's expansion — a
        // full 128-bit PRG output. (The seed itself has its LSB cleared,
        // so with it bit 0 of the final CW would be 1 exactly when
        // alpha % 128 == 0.) The final CW makes the on-path blocks XOR to
        // the unit block of alpha's bit; t0 XOR t1 == 1 there, so exactly
        // one party adds it. Off-path leaves match and cancel.
        prg_.ExpandBatch(seeds.data(), 2 * m, lefts.data(), rights.data());
        for (std::size_t i = 0; i < m; ++i) {
            const u128 cw = lefts[2 * i] ^ lefts[2 * i + 1] ^
                            (static_cast<u128>(1)
                             << (alphas[i] & (kXorBlockRows - 1)));
            keys[i].first.final_cw = {cw};
            keys[i].second.final_cw = {cw};
        }
        return keys;
    }

    // Final output correction words: make the on-path leaf shares sum to
    // beta. Off-path leaves have identical (s, t) on both sides and cancel.
    std::vector<u128> conv0(params_.out_words);
    std::vector<u128> conv1(params_.out_words);
    for (std::size_t i = 0; i < m; ++i) {
        auto& [k0, k1] = keys[i];
        Convert(prg_, seeds[2 * i], conv0.data(), params_.out_words);
        Convert(prg_, seeds[2 * i + 1], conv1.data(), params_.out_words);
        k0.final_cw.resize(params_.out_words);
        for (int w = 0; w < params_.out_words; ++w) {
            u128 cw = beta[w] - conv0[w] + conv1[w];
            if (ts[2 * i + 1] != 0) cw = static_cast<u128>(0) - cw;  // (-1)^{t1}
            k0.final_cw[w] = cw;
        }
        k1.final_cw = k0.final_cw;
    }
    return keys;
}

std::pair<DpfKey, DpfKey> Dpf::Gen(std::uint64_t alpha,
                                   const std::vector<u128>& beta,
                                   Rng& rng) const {
    return std::move(GenBatch({alpha}, beta, rng)[0]);
}

std::pair<DpfKey, DpfKey> Dpf::GenIndicator(std::uint64_t alpha,
                                            Rng& rng) const {
    return std::move(GenIndicatorBatch({alpha}, rng)[0]);
}

std::vector<std::pair<DpfKey, DpfKey>> Dpf::GenIndicatorBatch(
    const std::vector<std::uint64_t>& alphas, Rng& rng) const {
    std::vector<u128> beta(params_.out_words, 0);
    beta[0] = 1;
    return GenBatch(alphas, beta, rng);
}

Dpf::Node Dpf::Root(const DpfKey& key) const {
    return Node{key.root_seed, key.party == 1};
}

void Dpf::ExpandNode(const DpfKey& key, const Node& parent, int level,
                     Node* left, Node* right) const {
    u128 sl, sr;
    prg_.Expand(parent.seed, &sl, &sr);
    bool tl = Lsb(sl);
    bool tr = Lsb(sr);
    sl = ClearLsb(sl);
    sr = ClearLsb(sr);
    if (parent.t) {
        const CorrectionWord& cw = key.cw[level];
        sl ^= cw.seed;
        sr ^= cw.seed;
        tl ^= cw.t_left;
        tr ^= cw.t_right;
    }
    left->seed = sl;
    left->t = tl;
    right->seed = sr;
    right->t = tr;
}

void Dpf::Finalize(const DpfKey& key, const Node& leaf, u128* out) const {
    Convert(prg_, leaf.seed, out, params_.out_words);
    for (int w = 0; w < params_.out_words; ++w) {
        if (leaf.t) out[w] += key.final_cw[w];
        if (key.party == 1) out[w] = static_cast<u128>(0) - out[w];
    }
}

void Dpf::EvalPoint(const DpfKey& key, std::uint64_t x, u128* out) const {
    if (x >= domain_size()) {
        throw std::invalid_argument("Dpf::EvalPoint: x outside domain");
    }
    Node node = Root(key);
    const int n = params_.log_domain;
    for (int level = 0; level < params_.TreeDepth(); ++level) {
        Node left;
        Node right;
        ExpandNode(key, node, level, &left, &right);
        node = ((x >> (n - 1 - level)) & 1) ? right : left;
    }
    if (params_.share == ShareKind::kAdditive) {
        Finalize(key, node, out);
        return;
    }
    u128 block;
    u128 unused;
    prg_.Expand(node.seed, &block, &unused);
    if (node.t) block ^= key.final_cw[0];
    out[0] = (block >> (x & (kXorBlockRows - 1))) & 1;
}

void Dpf::EvalFullDomain(const DpfKey& key, std::vector<u128>* out) const {
    if (params_.share != ShareKind::kAdditive) {
        throw std::invalid_argument("Dpf::EvalFullDomain: additive keys only");
    }
    const std::uint64_t L = domain_size();
    const int n = params_.log_domain;
    const int w = params_.out_words;
    out->assign(L * static_cast<std::uint64_t>(w), 0);

    // Iterative depth-first traversal with an explicit stack of (node,
    // level) — O(log L) live state, the sequential analogue of the
    // memory-bounded GPU traversal.
    struct Frame {
        Node node;
        int level;
        std::uint64_t index;  // node index within its level
    };
    std::vector<Frame> stack;
    stack.reserve(2 * n + 2);
    stack.push_back({Root(key), 0, 0});
    while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        if (f.level == n) {
            Finalize(key, f.node, out->data() + f.index * w);
            continue;
        }
        Node left;
        Node right;
        ExpandNode(key, f.node, f.level, &left, &right);
        // Push right first so leaves are produced left-to-right.
        stack.push_back({right, f.level + 1, 2 * f.index + 1});
        stack.push_back({left, f.level + 1, 2 * f.index});
    }
}

void Dpf::EvalRangeBatched(const DpfKey& key, std::uint64_t begin,
                           std::uint64_t end, u128* out,
                           RangeScratch* scratch) const {
    const DpfKey* keys = &key;
    EvalRangeBatched(&keys, 1, begin, end, out, scratch);
}

void Dpf::EvalRangeBatched(const DpfKey* const* keys, std::size_t num_keys,
                           std::uint64_t begin, std::uint64_t end, u128* out,
                           RangeScratch* scratch) const {
    if (params_.share != ShareKind::kXor) {
        throw std::invalid_argument("Dpf::EvalRangeBatched: XOR keys only");
    }
    const int depth = params_.TreeDepth();
    for (std::size_t k = 0; k < num_keys; ++k) {
        const DpfKey& key = *keys[k];
        if (key.params.share != params_.share ||
            key.params.log_domain != params_.log_domain ||
            key.params.prf != params_.prf ||
            key.cw.size() != static_cast<std::size_t>(depth) ||
            key.final_cw.empty()) {
            throw std::invalid_argument(
                "Dpf::EvalRangeBatched: key of another Dpf");
        }
    }
    if (begin > end || end > domain_size()) {
        throw std::invalid_argument("Dpf::EvalRangeBatched: bad range");
    }
    if (begin == end || num_keys == 0) return;
    const std::uint64_t first = begin >> kXorBlockLog;
    const std::uint64_t last = (end - 1) >> kXorBlockLog;
    const std::size_t blocks = static_cast<std::size_t>(last - first) + 1;

    // The frontier at level d is the same contiguous node index range for
    // every key, [first >> (depth-d), last >> (depth-d)] — the nodes whose
    // leaf spans intersect the blocks [first, last] — so it never holds
    // more than `blocks` nodes. Each level expands all keys' frontiers,
    // key-major and contiguous, through one batched PRG call; each key's
    // children are then corrected with its own correction word and the
    // ones inside the next frontier are written, key-major, into the other
    // seed buffer.
    const std::size_t cap = num_keys * blocks;
    for (int side = 0; side < 2; ++side) {
        if (scratch->seeds[side].size() < cap) {
            scratch->seeds[side].resize(cap);
            scratch->ts[side].resize(cap);
        }
    }
    if (scratch->child_left.size() < cap) {
        scratch->child_left.resize(cap);
        scratch->child_right.resize(cap);
    }
    const u128* lefts = scratch->child_left.data();
    const u128* rights = scratch->child_right.data();

    int cur = 0;
    for (std::size_t k = 0; k < num_keys; ++k) {
        scratch->seeds[cur][k] = keys[k]->root_seed;
        scratch->ts[cur][k] = keys[k]->party == 1 ? 1 : 0;
    }
    std::uint64_t lo = 0;  // frontier's first node index at this level
    std::size_t count = 1;
    for (int level = 0; level < depth; ++level) {
        prg_.ExpandBatch(scratch->seeds[cur].data(), num_keys * count,
                         scratch->child_left.data(),
                         scratch->child_right.data());
        const int child_shift = depth - level - 1;
        const std::uint64_t next_lo = first >> child_shift;
        const std::size_t next_count =
            static_cast<std::size_t>((last >> child_shift) - next_lo) + 1;
        // Parent i's children sit at next-frontier positions 2i - skip and
        // 2i + 1 - skip; only the first parent's left child and the last
        // parent's right child can fall outside it.
        const std::size_t skip = static_cast<std::size_t>(next_lo - 2 * lo);
        const int next = 1 - cur;
        for (std::size_t k = 0; k < num_keys; ++k) {
            const std::uint8_t* t_in = scratch->ts[cur].data() + k * count;
            const u128* kl = lefts + k * count;
            const u128* kr = rights + k * count;
            u128* s_out = scratch->seeds[next].data() + k * next_count;
            std::uint8_t* t_out = scratch->ts[next].data() + k * next_count;
            // Branch-free correction: t selects the correction word
            // through an all-ones/all-zeros mask instead of a branch.
            const CorrectionWord& cw = keys[k]->cw[level];
            const std::uint8_t t_left = cw.t_left ? 1 : 0;
            const std::uint8_t t_right = cw.t_right ? 1 : 0;
            for (std::size_t i = 0; i < count; ++i) {
                const std::uint8_t t = t_in[i];
                const u128 seed_cw = cw.seed & (static_cast<u128>(0) - t);
                const std::size_t pos = 2 * i - skip;  // wraps for i = skip = 0
                if (2 * i >= skip) {
                    s_out[pos] = ClearLsb(kl[i]) ^ seed_cw;
                    t_out[pos] =
                        static_cast<std::uint8_t>(Lsb(kl[i]) ^ (t_left & t));
                }
                if (pos + 1 < next_count) {
                    s_out[pos + 1] = ClearLsb(kr[i]) ^ seed_cw;
                    t_out[pos + 1] =
                        static_cast<std::uint8_t>(Lsb(kr[i]) ^ (t_right & t));
                }
            }
        }
        cur = next;
        lo = next_lo;
        count = next_count;
    }

    // Leaf conversion, as in GenBatch: block = left PRG output of the
    // leaf seed, XOR the final CW under the leaf's control-bit mask. The
    // leaf frontier is exactly the blocks [first, last] of every key.
    prg_.ExpandBatch(scratch->seeds[cur].data(), cap,
                     scratch->child_left.data(), scratch->child_right.data());
    const std::uint8_t* t_leaf = scratch->ts[cur].data();
    for (std::size_t k = 0; k < num_keys; ++k) {
        const u128 final_cw = keys[k]->final_cw[0];
        for (std::size_t i = k * blocks; i < (k + 1) * blocks; ++i) {
            out[i] = lefts[i] ^ (final_cw & (static_cast<u128>(0) - t_leaf[i]));
        }
    }
}

}  // namespace gpudpf
