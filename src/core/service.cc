#include "src/core/service.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "src/common/cpuid.h"
#include "src/common/env.h"
#include "src/core/serving.h"
#include "src/kernels/cpu_kernel.h"
#include "src/kernels/strategy.h"

namespace gpudpf {
namespace {

// One line per process, on the first service construction: which scan
// path the answer engines' CPU kernel runs, how many NUMA nodes the
// probe saw, and what the CPU feature probe found — so a deployment can
// tell from its log whether the AES-NI / AVX paths and first-touch
// placement are live.
std::once_flag g_cpu_paths_log_once;
void LogSelectedCpuPaths() {
    std::call_once(g_cpu_paths_log_once, [] {
        // Surface GPUDPF_* typos before logging what was selected: every
        // knob is read through the src/common/env.h registry, so anything
        // unrecognized here is a variable nothing will ever parse.
        WarnUnrecognizedGpudpfEnv();
        std::fprintf(
            stderr,
            "gpudpf: scan '%s' numa nodes %d (cpu features: %s)\n",
            ScanPathName(),
            GetNumaTopology().num_nodes, CpuFeatureSummary().c_str());
    });
}

std::uint64_t FullBinSize(std::uint64_t vocab, std::uint64_t q_full) {
    const std::uint64_t q = std::max<std::uint64_t>(1, q_full);
    return std::max<std::uint64_t>(1, (vocab + q - 1) / q);
}

std::uint64_t HotBinSize(std::uint64_t hot, std::uint64_t q_hot) {
    const std::uint64_t q = std::max<std::uint64_t>(1, q_hot);
    return std::max<std::uint64_t>(1, (hot + q - 1) / q);
}

// Modeled single-batch GPU latency for answering one table's bin queries.
double ServerPirLatency(const Pbr& pbr, std::size_t row_bytes, PrfKind prf) {
    StrategyConfig config;
    config.kind = StrategyKind::kMemBoundTree;
    config.log_domain = pbr.bin_log_domain();
    config.num_entries = pbr.bin_size();
    config.entry_bytes = row_bytes;
    config.prf = prf;
    config.batch = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(pbr.num_bins(), 1u << 16));
    config.chunk_k = std::min<std::uint64_t>(128, config.num_entries);
    static const GpuCostModel model;
    return model.Estimate(MakeStrategy(config)->Analyze()).latency_sec;
}

}  // namespace

PrivateEmbeddingService::PrivateEmbeddingService(
    const EmbeddingTable& embeddings, const AccessStats& stats,
    const ServiceConfig& config)
    : config_(config),
      dim_(embeddings.dim()),
      base_entry_bytes_(static_cast<std::size_t>(embeddings.dim()) *
                        sizeof(float)),
      layout_(embeddings.vocab(), stats, config.codesign),
      full_pbr_(embeddings.vocab(),
                FullBinSize(embeddings.vocab(), config.codesign.q_full)),
      hot_pbr_(config.codesign.hot_size > 0
                   ? std::make_unique<Pbr>(
                         config.codesign.hot_size,
                         HotBinSize(config.codesign.hot_size,
                                    config.codesign.q_hot))
                   : nullptr),
      planner_(&layout_, hot_pbr_.get(), &full_pbr_),
      // The pool is constructed before the tables (declaration order) so
      // BuildPhysicalTable can route tiled zeroing through its pinned
      // workers for NUMA first-touch placement.
      server_pool_(config.server_threads > 0
                       ? std::make_unique<ThreadPool>(
                             config.server_threads,
                             /*pin_to_cores=*/config.shard_placement ==
                                 ShardPlacement::kPinned)
                       : nullptr),
      full_table_(config.planning_only
                      ? nullptr
                      : std::make_unique<PirTable>(BuildPhysicalTable(
                            embeddings, [&] {
                                std::vector<std::uint64_t> owners(
                                    embeddings.vocab());
                                for (std::uint64_t i = 0;
                                     i < embeddings.vocab(); ++i) {
                                    owners[i] = i;
                                }
                                return owners;
                            }()))) {
    LogSelectedCpuPaths();
    if (hot_pbr_ != nullptr && !config_.planning_only) {
        std::vector<std::uint64_t> owners(layout_.hot_size());
        for (std::uint64_t s = 0; s < layout_.hot_size(); ++s) {
            owners[s] = layout_.HotContent(s);
        }
        hot_table_ =
            std::make_unique<PirTable>(BuildPhysicalTable(embeddings, owners));
    }
    ServingFrontEnd::Options fe_options;
    fe_options.max_inflight_requests = config_.max_inflight_requests;
    fe_options.batcher_linger_us = config_.batcher_linger_us;
    fe_options.adaptive_linger = config_.adaptive_linger;
    fe_options.linger_ewma_half_life_us = config_.linger_ewma_half_life_us;
    fe_options.default_deadline_us = config_.default_deadline_us;
    fe_options.skip_abandoned_work = config_.skip_abandoned_work;
    front_end_ = std::make_unique<ServingFrontEnd>(this, fe_options);
}

PrivateEmbeddingService::~PrivateEmbeddingService() = default;

std::unique_ptr<PrivateEmbeddingService::Client>
PrivateEmbeddingService::MakeClient() {
    // Three seeds per client (device RNG + the two session key streams),
    // assigned by creation order so runs are reproducible.
    const std::uint64_t k =
        clients_made_.fetch_add(1, std::memory_order_relaxed);
    return std::unique_ptr<Client>(
        new Client(this, config_.client_seed + 3 * k));
}

PirTable PrivateEmbeddingService::BuildPhysicalTable(
    const EmbeddingTable& embeddings,
    const std::vector<std::uint64_t>& owners) const {
    const std::size_t row_bytes = layout_.RowBytes(base_entry_bytes_);
    // First-touch placement only helps (and only holds) when tiles have
    // stable worker owners: tiled layout, pinned shard placement, and a
    // dedicated pinned pool with more than one worker. The shard count
    // must match the answer engine's so the zeroing partition is the
    // serving partition.
    TilePlacement placement;
    if (NumaFirstTouchEnabled(config_.numa) &&
        config_.table_layout == TableLayout::kTiled &&
        config_.shard_placement == ShardPlacement::kPinned &&
        server_pool_ != nullptr && server_pool_->thread_count() > 1) {
        placement.pool = server_pool_.get();
        placement.num_shards = config_.server_shards;
    }
    PirTable table(owners.size(), row_bytes, config_.table_layout,
                   placement.pool != nullptr ? &placement : nullptr);
    std::vector<std::uint8_t> row(row_bytes, 0);
    for (std::uint64_t r = 0; r < owners.size(); ++r) {
        std::fill(row.begin(), row.end(), 0);
        const std::uint64_t owner = owners[r];
        std::memcpy(row.data(), embeddings.Row(owner), base_entry_bytes_);
        const auto& partners = layout_.Partners(owner);
        for (std::size_t j = 0; j < partners.size(); ++j) {
            std::memcpy(row.data() + (j + 1) * base_entry_bytes_,
                        embeddings.Row(partners[j]), base_entry_bytes_);
        }
        table.SetEntry(r, row.data(), row.size());
    }
    return table;
}

PrivateEmbeddingService::Client::Client(PrivateEmbeddingService* service,
                                        std::uint64_t seed)
    : service_(service),
      rng_(seed),
      full_session_(&service->full_pbr_, service->config_.prf, seed + 1,
                    service->server_sharding()) {
    if (service_->hot_pbr_ != nullptr) {
        hot_session_ = std::make_unique<PbrSession>(
            service_->hot_pbr_.get(), service_->config_.prf, seed + 2,
            service_->server_sharding());
    }
}

PrivateEmbeddingService::PreparedLookup
PrivateEmbeddingService::Client::Prepare(
    const std::vector<std::uint64_t>& wanted, bool keep_wire_keys) {
    PreparedLookup prep;
    prep.wanted = wanted;
    prep.plan = service_->planner_.Plan(wanted, rng_);

    // Keys go straight into the bin jobs; only a networked upload
    // (keep_wire_keys) serializes them. Every key of a table has the size
    // DpfKey::SerializedSizeFor gives, so the upload is accounted per bin.
    PbrSession::Request full_wire;
    PbrSession::PreparedJobs full = full_session_.PrepareJobs(
        prep.plan.full_plan, keep_wire_keys ? &full_wire : nullptr);
    prep.upload_bytes += service_->full_pbr_.UploadBytesPerServer();
    prep.full_server0 = std::move(full.server0);
    prep.full_server1 = std::move(full.server1);
    prep.wire_full_keys0 = std::move(full_wire.keys_for_server0);
    prep.wire_full_keys1 = std::move(full_wire.keys_for_server1);

    if (hot_session_ != nullptr) {
        PbrSession::Request hot_wire;
        PbrSession::PreparedJobs hot = hot_session_->PrepareJobs(
            prep.plan.hot_plan, keep_wire_keys ? &hot_wire : nullptr);
        prep.upload_bytes += service_->hot_pbr_->UploadBytesPerServer();
        prep.hot_server0 = std::move(hot.server0);
        prep.hot_server1 = std::move(hot.server1);
        prep.wire_hot_keys0 = std::move(hot_wire.keys_for_server0);
        prep.wire_hot_keys1 = std::move(hot_wire.keys_for_server1);
    }
    return prep;
}

PrivateEmbeddingService::TablePartial
PrivateEmbeddingService::Client::ReconstructTablePartial(
    const PreparedLookup& prep, bool hot, const std::vector<PirResponse>& r0,
    const std::vector<PirResponse>& r1) const {
    const PbrSession& session = hot ? *hot_session_ : full_session_;
    const std::size_t row_bytes =
        service_->layout_.RowBytes(service_->base_entry_bytes_);
    const auto rows = session.Reconstruct(r0, r1, row_bytes);
    return service_->AssembleTablePartial(prep, hot, rows);
}

PrivateEmbeddingService::LookupResult
PrivateEmbeddingService::Client::Lookup(
    const std::vector<std::uint64_t>& wanted) {
    ServingFrontEnd::RequestHandle handle =
        service_->front_end().SubmitRequestOrWait({this, wanted});
    if (handle.admission() == AdmissionStatus::kInvalidRequest) {
        throw std::invalid_argument(
            "PrivateEmbeddingService::Client::Lookup: empty wanted list");
    }
    if (!handle.ok()) {
        throw std::runtime_error(
            "PrivateEmbeddingService::Client::Lookup: front-end is shut down");
    }
    return handle.Result();
}

PrivateEmbeddingService::TablePartial
PrivateEmbeddingService::AssembleTablePartial(
    const PreparedLookup& prep, bool hot,
    const std::vector<std::vector<std::uint8_t>>& rows) const {
    const std::size_t base = base_entry_bytes_;
    const std::vector<std::uint64_t>& wanted = prep.wanted;

    TablePartial partial;
    partial.table =
        hot ? TablePartial::Table::kHot : TablePartial::Table::kFull;
    partial.served.assign(wanted.size(), false);
    partial.embeddings.assign(wanted.size(), std::vector<float>(dim_, 0.0f));

    // The retrieved positions of each wanted index, sorted by index, so a
    // slot finds its positions by binary search instead of a scan of
    // `wanted`. Dropped positions are absent and stay zero.
    std::vector<std::pair<std::uint64_t, std::size_t>> positions;
    positions.reserve(wanted.size());
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        if (prep.plan.retrieved[i]) positions.emplace_back(wanted[i], i);
    }
    std::sort(positions.begin(), positions.end());

    // Positions served per owner index: a row's base slot holds its owner's
    // embedding and the following slots the co-located partners'.
    auto deliver_row = [&](std::uint64_t owner,
                           const std::vector<std::uint8_t>& row) {
        auto copy_slot = [&](std::uint64_t index, std::size_t slot) {
            auto it = std::lower_bound(
                positions.begin(), positions.end(),
                std::pair<std::uint64_t, std::size_t>{index, 0});
            for (; it != positions.end() && it->first == index; ++it) {
                std::memcpy(partial.embeddings[it->second].data(),
                            row.data() + slot * base, base);
                partial.served[it->second] = true;
            }
        };
        copy_slot(owner, 0);
        const auto& partners = layout_.Partners(owner);
        for (std::size_t j = 0; j < partners.size(); ++j) {
            copy_slot(partners[j], j + 1);
        }
    };

    const Pbr::Plan& plan = hot ? prep.plan.hot_plan : prep.plan.full_plan;
    for (std::size_t b = 0; b < plan.queries.size(); ++b) {
        const auto& q = plan.queries[b];
        if (!q.real) continue;
        deliver_row(hot ? layout_.HotContent(q.global_index) : q.global_index,
                    rows[b]);
    }
    partial.download_bytes = (hot ? *hot_pbr_ : full_pbr_)
                                 .DownloadBytes(layout_.RowBytes(base));
    return partial;
}

PrivateEmbeddingService::LookupResult
PrivateEmbeddingService::FinalizeLookupResult(const PreparedLookup& prep,
                                              const TablePartial& full,
                                              const TablePartial* hot) const {
    LookupResult result;
    result.retrieved = prep.plan.retrieved;
    result.embeddings.assign(prep.wanted.size(),
                             std::vector<float>(dim_, 0.0f));
    result.upload_bytes = prep.upload_bytes;

    // An index served by both tables gets the same bytes from either (each
    // served slot is the exact embedding row of its owner), so the merge
    // order cannot change the result.
    auto merge = [&](const TablePartial& part) {
        for (std::size_t i = 0; i < part.served.size(); ++i) {
            if (part.served[i]) result.embeddings[i] = part.embeddings[i];
        }
        result.download_bytes += part.download_bytes;
    };
    merge(full);
    if (hot != nullptr) merge(*hot);

    // Latency breakdown (Figure 12 composition).
    std::uint64_t keys = full_pbr_.num_bins();
    double gen = KeyGenLatency(config_.client_device, keys,
                               full_pbr_.bin_log_domain());
    double pir = ServerPirLatency(full_pbr_, layout_.RowBytes(base_entry_bytes_),
                                  config_.prf);
    if (hot_pbr_ != nullptr) {
        gen += KeyGenLatency(config_.client_device, hot_pbr_->num_bins(),
                             hot_pbr_->bin_log_domain());
        pir += ServerPirLatency(*hot_pbr_, layout_.RowBytes(base_entry_bytes_),
                                config_.prf);
    }
    result.latency.gen_sec = gen;
    result.latency.pir_sec = pir;
    result.latency.network_sec = NetworkLatency(
        config_.network, result.upload_bytes, result.download_bytes);
    result.latency.dnn_sec = DnnLatency(config_.client_device,
                                        config_.dnn_flops);
    return result;
}

}  // namespace gpudpf
