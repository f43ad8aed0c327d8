#include "src/dpf/dpf.h"

#include <cstring>
#include <stdexcept>

namespace gpudpf {
namespace {

// Converts a leaf seed into `n` pseudorandom output words (the "convert"
// step of the BGI construction). For n == 1 the seed itself is the
// conversion (it is already a PRG output for every node below the root).
void Convert(const Prg& prg, u128 seed, u128* out, int n) {
    if (n == 1) {
        out[0] = seed;
        return;
    }
    prg.ExpandWide(seed, out, static_cast<std::size_t>(n));
}

}  // namespace

std::size_t DpfKey::SerializedSize() const {
    // Layout: header (party:1, log_domain:1, prf:1, out_words:1) +
    // root seed (16) + per-level (seed 16 + packed t bits 1) + final CWs.
    return 4 + 16 + cw.size() * 17 + final_cw.size() * 16;
}

std::vector<std::uint8_t> DpfKey::Serialize() const {
    std::vector<std::uint8_t> out;
    out.reserve(SerializedSize());
    out.push_back(static_cast<std::uint8_t>(party));
    out.push_back(static_cast<std::uint8_t>(params.log_domain));
    out.push_back(static_cast<std::uint8_t>(params.prf));
    out.push_back(static_cast<std::uint8_t>(params.out_words));
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
    if (len < 20) throw std::invalid_argument("DpfKey: truncated buffer");
    if (data[0] > 1) throw std::invalid_argument("DpfKey: party not 0 or 1");
    if (!IsPrfKind(data[2])) {
        throw std::invalid_argument("DpfKey: unknown PRF kind");
    }
    DpfKey key;
    key.party = data[0];
    key.params.log_domain = data[1];
    key.params.prf = static_cast<PrfKind>(data[2]);
    key.params.out_words = data[3];
    const std::size_t expected = 4 + 16 +
                                 static_cast<std::size_t>(key.params.log_domain) * 17 +
                                 static_cast<std::size_t>(key.params.out_words) * 16;
    if (len != expected) throw std::invalid_argument("DpfKey: bad length");
    std::size_t off = 4;
    key.root_seed = LoadU128Le(data + off);
    off += 16;
    key.cw.resize(key.params.log_domain);
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
        k0.cw.resize(params_.log_domain);
        k1.cw.resize(params_.log_domain);
        seeds[2 * i] = k0.root_seed;
        seeds[2 * i + 1] = k1.root_seed;
        ts[2 * i] = 0;
        ts[2 * i + 1] = 1;
    }

    const int n = params_.log_domain;
    for (int level = 0; level < n; ++level) {
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
    for (int level = 0; level < n; ++level) {
        Node left;
        Node right;
        ExpandNode(key, node, level, &left, &right);
        node = ((x >> (n - 1 - level)) & 1) ? right : left;
    }
    Finalize(key, node, out);
}

void Dpf::EvalFullDomain(const DpfKey& key, std::vector<u128>* out) const {
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
    if (begin > end || end > domain_size()) {
        throw std::invalid_argument("Dpf::EvalRangeBatched: bad range");
    }
    if (begin == end) return;
    const int n = params_.log_domain;
    const std::size_t leaves = static_cast<std::size_t>(end - begin);

    // The frontier at level d is the contiguous node index range
    // [begin >> (n-d), (end-1) >> (n-d)] — the nodes whose leaf spans
    // intersect [begin, end). Each level expands the whole frontier
    // through one batched PRG call and writes both children of every
    // frontier node, interleaved, into the other seed buffer; the next
    // frontier is that buffer from offset next_lo - 2*lo (0 or 1). A
    // frontier never holds more than leaves/2 + 1 parents, so leaves + 2
    // children bound every buffer.
    const std::size_t cap = leaves + 2;
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
    scratch->seeds[cur][0] = key.root_seed;
    scratch->ts[cur][0] = key.party == 1 ? 1 : 0;
    std::size_t off = 0;   // frontier's first node within seeds[cur]
    std::uint64_t lo = 0;  // frontier's first node index at this level
    std::size_t count = 1;
    // With one output word (the serving width) the last level is fused
    // with Finalize below, so no leaf seed or control bit is stored to
    // scratch and read back; wider outputs walk to the leaves and call
    // Finalize on each.
    const int walk = params_.out_words == 1 ? n - 1 : n;
    for (int level = 0; level < walk; ++level) {
        prg_.ExpandBatch(scratch->seeds[cur].data() + off, count,
                         scratch->child_left.data(),
                         scratch->child_right.data());
        const int child_shift = n - level - 1;
        const std::uint64_t next_lo = begin >> child_shift;
        const std::uint64_t next_hi = (end - 1) >> child_shift;
        const std::uint8_t* t_in = scratch->ts[cur].data() + off;
        const int next = 1 - cur;
        u128* s_out = scratch->seeds[next].data();
        std::uint8_t* t_out = scratch->ts[next].data();
        // Branch-free correction: t selects the correction word through
        // an all-ones/all-zeros mask instead of a branch.
        const CorrectionWord& cw = key.cw[level];
        const std::uint8_t t_left = cw.t_left ? 1 : 0;
        const std::uint8_t t_right = cw.t_right ? 1 : 0;
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint8_t t = t_in[i];
            const u128 seed_cw = cw.seed & (static_cast<u128>(0) - t);
            s_out[2 * i] = ClearLsb(lefts[i]) ^ seed_cw;
            s_out[2 * i + 1] = ClearLsb(rights[i]) ^ seed_cw;
            t_out[2 * i] = static_cast<std::uint8_t>(Lsb(lefts[i]) ^
                                                     (t_left & t));
            t_out[2 * i + 1] = static_cast<std::uint8_t>(Lsb(rights[i]) ^
                                                         (t_right & t));
        }
        cur = next;
        off = static_cast<std::size_t>(next_lo - 2 * lo);
        lo = next_lo;
        count = static_cast<std::size_t>(next_hi - next_lo) + 1;
    }

    if (params_.out_words != 1) {
        for (std::size_t i = 0; i < count; ++i) {
            Finalize(key,
                     Node{scratch->seeds[cur][off + i],
                          scratch->ts[cur][off + i] != 0},
                     out + i * static_cast<std::size_t>(params_.out_words));
        }
        return;
    }

    // Last level fused with Finalize: leaf share v = s + (final_cw & -t),
    // negated for party 1 through a mask fixed once per key. Child j of
    // the parent frontier (j = 2i + side) is leaf 2*lo + j, stored at
    // out[j - leaf_off]; only the frontier's first parent (left child
    // when leaf_off is 1) and last parent (right child when the leaf span
    // ends on a left child) have a child outside [begin, end).
    prg_.ExpandBatch(scratch->seeds[cur].data() + off, count,
                     scratch->child_left.data(), scratch->child_right.data());
    const std::uint8_t* t_in = scratch->ts[cur].data() + off;
    const CorrectionWord& cw = key.cw[n - 1];
    const u128 neg = key.party == 1 ? ~static_cast<u128>(0) : 0;
    const u128 final_cw = (key.final_cw[0] ^ neg) - neg;
    auto leaf = [&](u128 child, bool t_side, std::uint8_t t) {
        const u128 mask = static_cast<u128>(0) - t;
        const u128 s = ClearLsb(child) ^ (cw.seed & mask);
        const std::uint8_t t_leaf =
            static_cast<std::uint8_t>(Lsb(child) ^ (t_side & t));
        return ((s ^ neg) - neg) + (final_cw & (static_cast<u128>(0) - t_leaf));
    };
    const std::size_t leaf_off = static_cast<std::size_t>(begin - 2 * lo);
    std::size_t i = 0;
    if (leaf_off == 1) {
        out[0] = leaf(rights[0], cw.t_right, t_in[0]);
        i = 1;
    }
    const std::size_t full_end = (leaf_off + leaves) / 2;
    for (; i < full_end; ++i) {
        const std::uint8_t t = t_in[i];
        out[2 * i - leaf_off] = leaf(lefts[i], cw.t_left, t);
        out[2 * i + 1 - leaf_off] = leaf(rights[i], cw.t_right, t);
    }
    if (((leaf_off + leaves) & 1) != 0) {
        out[leaves - 1] = leaf(lefts[full_end], cw.t_left, t_in[full_end]);
    }
}

}  // namespace gpudpf
