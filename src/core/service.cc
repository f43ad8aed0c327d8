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
// path the answer engines' CPU kernel runs and what the CPU feature probe
// found — so a deployment can tell from its log whether the AES-NI / AVX
// paths are live.
std::once_flag g_cpu_paths_log_once;
void LogSelectedCpuPaths() {
    std::call_once(g_cpu_paths_log_once, [] {
        // Surface GPUDPF_* typos before logging what was selected: every
        // knob is read through the src/common/env.h registry, so anything
        // unrecognized here is a variable nothing will ever parse.
        WarnUnrecognizedGpudpfEnv();
        std::fprintf(stderr, "gpudpf: scan '%s' (cpu features: %s)\n",
                     ScanPathName(), CpuFeatureSummary().c_str());
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
      server_pool_(config.server_threads > 0
                       ? std::make_unique<ThreadPool>(config.server_threads)
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
    const std::size_t row_bytes = layout_.RowBytes(base_entry_bytes_);
    modeled_gen_sec_ = KeyGenLatency(config_.client_device,
                                     full_pbr_.num_bins(),
                                     full_pbr_.bin_log_domain());
    modeled_pir_sec_ = ServerPirLatency(full_pbr_, row_bytes, config_.prf);
    if (hot_pbr_ != nullptr) {
        modeled_gen_sec_ += KeyGenLatency(config_.client_device,
                                          hot_pbr_->num_bins(),
                                          hot_pbr_->bin_log_domain());
        modeled_pir_sec_ += ServerPirLatency(*hot_pbr_, row_bytes, config_.prf);
    }
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
    PirTable table(owners.size(), row_bytes);
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
    prep.retrieved_positions.reserve(wanted.size());
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        if (prep.plan.retrieved[i]) {
            prep.retrieved_positions.emplace_back(wanted[i], i);
        }
    }
    std::sort(prep.retrieved_positions.begin(),
              prep.retrieved_positions.end());

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
    return service_->AssembleFromShares(prep, hot, r0, r1);
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
PrivateEmbeddingService::AssembleFromShares(
    const PreparedLookup& prep, bool hot, const std::vector<PirResponse>& r0,
    const std::vector<PirResponse>& r1) const {
    const Pbr::Plan& plan = hot ? prep.plan.hot_plan : prep.plan.full_plan;
    if (r0.size() != plan.queries.size() || r1.size() != r0.size()) {
        throw std::invalid_argument(
            "PrivateEmbeddingService::AssembleFromShares: response count "
            "mismatch");
    }
    const std::size_t base = base_entry_bytes_;
    const std::size_t dim = static_cast<std::size_t>(dim_);
    const std::size_t n = prep.wanted.size();

    TablePartial partial;
    partial.table =
        hot ? TablePartial::Table::kHot : TablePartial::Table::kFull;
    partial.served.assign(n, false);
    partial.values.assign(n * dim, 0.0f);

    // One row buffer for every bin.
    const std::size_t row_bytes = layout_.RowBytes(base);
    std::vector<u128> row((row_bytes + 15) / 16);
    const auto* row_data = reinterpret_cast<const std::uint8_t*>(row.data());
    const auto& positions = prep.retrieved_positions;

    // A row's base slot holds its owner's embedding and the following slots
    // the co-located partners'. Dropped positions are absent from
    // `positions` and stay zero.
    auto copy_slot = [&](std::uint64_t index, std::size_t slot) {
        auto it = std::lower_bound(
            positions.begin(), positions.end(),
            std::pair<std::uint64_t, std::size_t>{index, 0});
        for (; it != positions.end() && it->first == index; ++it) {
            std::memcpy(partial.values.data() + it->second * dim,
                        row_data + slot * base, base);
            partial.served[it->second] = true;
        }
    };
    for (std::size_t b = 0; b < plan.queries.size(); ++b) {
        if (r0[b].size() != row.size() || r1[b].size() != row.size()) {
            throw std::invalid_argument(
                "PrivateEmbeddingService::AssembleFromShares: response word "
                "count mismatch");
        }
        const auto& q = plan.queries[b];
        if (!q.real) continue;
        for (std::size_t k = 0; k < row.size(); ++k) {
            row[k] = r0[b][k] ^ r1[b][k];
        }
        const std::uint64_t owner =
            hot ? layout_.HotContent(q.global_index) : q.global_index;
        copy_slot(owner, 0);
        const auto& partners = layout_.Partners(owner);
        for (std::size_t j = 0; j < partners.size(); ++j) {
            copy_slot(partners[j], j + 1);
        }
    }
    partial.download_bytes =
        (hot ? *hot_pbr_ : full_pbr_).DownloadBytes(row_bytes);
    return partial;
}

PrivateEmbeddingService::LookupResult
PrivateEmbeddingService::FinalizeLookupResult(const PreparedLookup& prep,
                                              const TablePartial& full,
                                              const TablePartial* hot) const {
    const std::size_t dim = static_cast<std::size_t>(dim_);
    const std::size_t n = prep.wanted.size();
    auto aligned = [&](const TablePartial& part) {
        return part.served.size() == n && part.values.size() == n * dim;
    };
    if (!aligned(full) || (hot != nullptr && !aligned(*hot))) {
        throw std::invalid_argument(
            "PrivateEmbeddingService::FinalizeLookupResult: partial not "
            "aligned with the wanted list");
    }
    LookupResult result;
    result.retrieved = prep.plan.retrieved;
    result.upload_bytes = prep.upload_bytes;
    result.download_bytes =
        full.download_bytes + (hot != nullptr ? hot->download_bytes : 0);

    // An index served by both tables gets the same bytes from either (each
    // served slot is the exact embedding row of its owner); the hot table's
    // are taken.
    result.embeddings.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const TablePartial* src = nullptr;
        if (hot != nullptr && hot->served[i]) {
            src = hot;
        } else if (full.served[i]) {
            src = &full;
        }
        if (src == nullptr) {
            result.embeddings[i].assign(dim, 0.0f);
        } else {
            const float* v = src->values.data() + i * dim;
            result.embeddings[i].assign(v, v + dim);
        }
    }

    // Latency breakdown (Figure 12 composition).
    result.latency.gen_sec = modeled_gen_sec_;
    result.latency.pir_sec = modeled_pir_sec_;
    result.latency.network_sec = NetworkLatency(
        config_.network, result.upload_bytes, result.download_bytes);
    result.latency.dnn_sec = DnnLatency(config_.client_device,
                                        config_.dnn_flops);
    return result;
}

}  // namespace gpudpf
