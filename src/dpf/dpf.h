// Distributed point function (DPF) — the paper's core cryptographic
// primitive (Section 3.1, construction of Gilboa-Ishai [32] with the
// correction-word refinement of Boyle-Gilboa-Ishai [12]).
//
// Two share kinds (ShareKind, one header byte of every key):
//
//   kXor       the serving path's only kind. The early-terminated
//              construction of Boyle-Gilboa-Ishai ("Function Secret
//              Sharing: Improvements and Extensions", CCS 2016) with
//              nu = 7: the GGM tree stops 7 levels short of the domain,
//              and each of its leaves converts to one 128-bit block whose
//              bit j is party b's XOR share of [x == alpha] for
//              x = 128 * leaf + j. Eval(k0,x) XOR Eval(k1,x) ==
//              (x == alpha). A key carries max(0, log_domain - 7)
//              correction words and one 128-bit final correction word.
//   kAdditive  shares in Z_2^128: Eval(k0,x) + Eval(k1,x) ==
//              (x == alpha ? beta : 0), log_domain correction words and
//              `out_words` final words. Kept for the gpusim strategies
//              and the bench_fig*/tab* paper model, which measure it.
//
// Communication is O(lambda * log L): one 128-bit seed plus one 128+2-bit
// correction word per tree level, and the final output correction words.
//
// The class exposes whole-domain evaluation of additive keys (the
// reference the gpusim strategies are checked against), node-level
// primitives (Root / ExpandNode / Finalize) from which those strategies
// are composed, point evaluation of both kinds, and the batched range
// evaluator of XOR keys that the serving kernel runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/u128.h"
#include "src/crypto/prg.h"

namespace gpudpf {

// How the two parties' outputs combine (see the file comment). The value
// is the key's share-kind header byte.
enum class ShareKind : std::uint8_t { kAdditive = 0, kXor = 1 };

// Leaves packed into one XOR-key block: the tree of an XOR key ends
// kXorBlockLog levels above the domain.
constexpr int kXorBlockLog = 7;
constexpr std::uint64_t kXorBlockRows = std::uint64_t{1} << kXorBlockLog;

// Static parameters of a DPF instance.
struct DpfParams {
    // Tree depth; domain size L = 2^log_domain. Must be in [1, 40].
    int log_domain = 20;
    // PRF used for node expansion (paper Section 3.2.6).
    PrfKind prf = PrfKind::kChacha20;
    // Output width in 128-bit words (1 for PIR indicator shares; wider
    // outputs support other DPF applications and are exercised by tests).
    // XOR keys have exactly one (their block).
    int out_words = 1;
    ShareKind share = ShareKind::kAdditive;

    // Levels of the key's GGM tree, i.e. its correction-word count:
    // log_domain for additive keys, max(0, log_domain - 7) for XOR keys.
    int TreeDepth() const;
};

// Per-level correction word.
struct CorrectionWord {
    u128 seed = 0;
    bool t_left = false;
    bool t_right = false;
};

// One party's DPF key.
struct DpfKey {
    int party = 0;  // 0 or 1
    u128 root_seed = 0;
    std::vector<CorrectionWord> cw;  // params.TreeDepth() entries
    std::vector<u128> final_cw;      // out_words entries
    DpfParams params;

    // Serialized size in bytes of a key with these params — the
    // client->server upload cost (Table 4 "Bytes" column). The one
    // definition every upload account derives from.
    static std::size_t SerializedSizeFor(const DpfParams& params);
    std::size_t SerializedSize() const { return SerializedSizeFor(params); }
    std::vector<std::uint8_t> Serialize() const;
    // Parses untrusted bytes: throws std::invalid_argument on a bad length,
    // a party byte other than 0/1, a PRF byte outside PrfKind or a
    // share-kind byte outside ShareKind.
    static DpfKey Deserialize(const std::uint8_t* data, std::size_t len);
};

class Dpf {
  public:
    // `lanes` pins the ChaCha20 ExpandBatch path (see Prg); the default is
    // the widest the host allows. Every path yields the same bytes. Throws
    // std::invalid_argument on a log_domain outside [1, 40], out_words
    // outside [1, 255], or XOR params with out_words != 1.
    explicit Dpf(DpfParams params, ChachaLanes lanes = WidestChachaLanes());

    const DpfParams& params() const { return params_; }
    std::uint64_t domain_size() const {
        return std::uint64_t{1} << params_.log_domain;
    }
    const Prg& prg() const { return prg_; }

    // Generates the two keys of each point function alphas[i] -> beta,
    // level-synchronously: every tree level expands all 2n party seeds in
    // one Prg::ExpandBatch call. Root seeds are drawn k0 then k1, point by
    // point, so the keys and the Rng position afterwards equal n
    // successive Gen calls. beta.size() must equal params.out_words, and
    // XOR keys share one bit, so their beta must be {1}; every alpha is
    // checked before any seed is drawn.
    std::vector<std::pair<DpfKey, DpfKey>> GenBatch(
        const std::vector<std::uint64_t>& alphas,
        const std::vector<u128>& beta, Rng& rng) const;

    // GenBatch of one point.
    std::pair<DpfKey, DpfKey> Gen(std::uint64_t alpha,
                                  const std::vector<u128>& beta,
                                  Rng& rng) const;

    // Convenience: beta = (1, 0, ...) — the PIR indicator (of either kind).
    std::pair<DpfKey, DpfKey> GenIndicator(std::uint64_t alpha, Rng& rng) const;
    std::vector<std::pair<DpfKey, DpfKey>> GenIndicatorBatch(
        const std::vector<std::uint64_t>& alphas, Rng& rng) const;

    // Evaluates the share at a single point x; out must hold out_words
    // words. For an XOR key out[0] is the share bit (0 or 1).
    void EvalPoint(const DpfKey& key, std::uint64_t x, u128* out) const;

    // Sequential full-domain evaluation of an additive key (iterative DFS
    // with O(log L) state). out is resized to L * out_words, laid out
    // point-major. Throws std::invalid_argument on an XOR key.
    void EvalFullDomain(const DpfKey& key, std::vector<u128>* out) const;

    // Reusable frontier buffers for EvalRangeBatched, so a kernel that
    // walks many ranges pays the allocations once.
    struct RangeScratch {
        std::vector<u128> seeds[2];
        std::vector<std::uint8_t> ts[2];
        std::vector<u128> child_left;
        std::vector<u128> child_right;
    };

    // Evaluates an XOR key over the contiguous point range [begin, end):
    // writes one selection block per 128-point block that intersects the
    // range, out[i] covering points [128 * (begin / 128 + i), + 128), bit j
    // of a block being the share bit of its j-th point (the caller sizes
    // out; `(end - 1) / 128 - begin / 128 + 1` words). The edge blocks'
    // bits of points outside [begin, end) are unspecified: callers read
    // only the range's bits. The multi-key form below with one key.
    void EvalRangeBatched(const DpfKey& key, std::uint64_t begin,
                          std::uint64_t end, u128* out,
                          RangeScratch* scratch) const;

    // Evaluates num_keys XOR keys of this Dpf's log_domain and PRF over
    // one range [begin, end), key-major: key k's blocks start at
    // out + k * blocks, each as the single-key form writes them (blocks =
    // `(end - 1) / 128 - begin / 128 + 1`). Bits equal EvalPoint's for
    // every PrfKind.
    // The tree walk is level-order and shared by the keys: every key's
    // frontier at a level covers the same node range, and all of them are
    // expanded in one Prg::ExpandBatch call (AES-NI pipelined, ChaCha20
    // multi-lane), so a few-block range of many keys still fills the
    // vector lanes — the paper's level-by-level batching across queries.
    // Each key's children are then corrected with its own correction word,
    // branch-free (the control bit becomes a mask); subtrees disjoint from
    // the range are never expanded, and the leaves convert through one more
    // batched call. Throws std::invalid_argument, before any output is
    // written, on an additive Dpf, a key whose share kind, log_domain, PRF
    // or correction-word count differs from this Dpf's, or unless
    // begin <= end <= L. Peak scratch is num_keys * blocks nodes. This is
    // the per-shard primitive of the server answer engine.
    void EvalRangeBatched(const DpfKey* const* keys, std::size_t num_keys,
                          std::uint64_t begin, std::uint64_t end, u128* out,
                          RangeScratch* scratch) const;

    // --- Node-level primitives for parallel kernels -----------------------

    // Expansion state of one tree node.
    struct Node {
        u128 seed = 0;
        bool t = false;
    };

    // Root node of a key (level 0 state, before any correction words).
    Node Root(const DpfKey& key) const;

    // Expands `parent` at tree level `level` (0-based: the level of the
    // parent) into its two children, applying the level's correction word.
    void ExpandNode(const DpfKey& key, const Node& parent, int level,
                    Node* left, Node* right) const;

    // Converts a leaf node of an additive key into out_words output share
    // words.
    void Finalize(const DpfKey& key, const Node& leaf, u128* out) const;

  private:
    DpfParams params_;
    Prg prg_;
};

}  // namespace gpudpf
