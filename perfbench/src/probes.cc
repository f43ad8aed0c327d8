#include "probes.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/crypto/prg.h"
#include "src/dpf/dpf.h"
#include "src/kernels/accumulate.h"
#include "src/pir/answer_engine.h"
#include "src/pir/table.h"

namespace perfbench {
namespace {

using gpudpf::u128;

constexpr double kProbeSeconds = 0.25;
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;

// Keeps probed results observable so the calls are not optimized away.
std::atomic<std::uint64_t> g_sink{0};

// Calls fn until `seconds` have passed (at least `min_calls` times);
// returns the duration of each call in seconds.
template <typename Fn>
std::vector<double> TimeCalls(Fn fn, double seconds, std::size_t min_calls) {
    std::vector<double> took;
    const double t0 = Now();
    while (took.size() < min_calls || Now() - t0 < seconds) {
        const double start = Now();
        fn();
        took.push_back(Now() - start);
    }
    return took;
}

double Sum(const std::vector<double>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
}

std::vector<gpudpf::AnswerEngine::TableJob> TableJobs(
    const std::vector<ReplayLookup>& replay, std::size_t count,
    const gpudpf::PirTable& full, const gpudpf::PirTable* hot) {
    std::vector<gpudpf::AnswerEngine::TableJob> jobs;
    for (std::size_t i = 0; i < count; ++i) {
        const ReplayLookup& r = replay[i];
        for (const auto* bins : {&r.full0, &r.full1}) {
            for (const auto& job : bins->jobs) jobs.push_back({&full, job, {}});
        }
        if (hot == nullptr) continue;
        for (const auto* bins : {&r.hot0, &r.hot1}) {
            for (const auto& job : bins->jobs) jobs.push_back({hot, job, {}});
        }
    }
    return jobs;
}

// Sequential read of `bytes` bytes split across `threads` threads, timed
// over repeated passes: the host's read ceiling for a buffer the size of
// the workload's tables. Returns bytes per second.
double ReadCeiling(std::size_t bytes, std::size_t threads) {
    const std::size_t words = bytes / sizeof(std::uint64_t);
    std::vector<std::uint64_t> buffer(words);
    for (std::size_t i = 0; i < words; ++i) buffer[i] = i * 0x9e3779b97f4a7c15ULL;
    std::atomic<bool> go{false};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> words_read{0};
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < threads; ++t) {
        readers.emplace_back([&, t] {
            const std::size_t begin = words * t / threads;
            const std::size_t end = words * (t + 1) / threads;
            std::uint64_t acc = 0;
            while (!go.load(std::memory_order_acquire)) {
            }
            while (!stop.load(std::memory_order_relaxed)) {
                for (std::size_t i = begin; i < end; ++i) acc += buffer[i];
                words_read.fetch_add(end - begin, std::memory_order_relaxed);
            }
            g_sink.fetch_add(acc, std::memory_order_relaxed);
        });
    }
    const double t0 = Now();
    go.store(true, std::memory_order_release);
    SleepUntil(t0 + kProbeSeconds);
    const std::uint64_t read = words_read.load();
    const double elapsed = Now() - t0;
    stop.store(true);
    for (auto& r : readers) r.join();
    return static_cast<double>(read) * sizeof(std::uint64_t) / elapsed;
}

}  // namespace

void ProbeLayers(const Workload& workload, const Inputs& inputs,
                 const gpudpf::PrivateEmbeddingService& geometry,
                 const std::vector<ReplayLookup>& replay, double batch_n,
                 MetricMap* metrics) {
    auto put = [&](const char* name, double value, const char* unit) {
        (*metrics)[name] = Metric{value, unit};
    };

    // codesign: QueryPlanner::Plan on the workload's wanted lists.
    {
        gpudpf::Rng rng(workload.spec.seed);
        std::size_t i = 0;
        const auto took = TimeCalls(
            [&] {
                g_sink.fetch_add(
                    geometry.planner().Plan(inputs.Wanted(i++), rng).num_dropped,
                    std::memory_order_relaxed);
            },
            kProbeSeconds, 64);
        put("codesign.plan_us", Percentile(took, 0.5) * 1e6, "us");
    }

    // crypto: Prg::ExpandBatch at the workload's PRF. One expansion emits
    // two 128-bit child seeds, counted as two blocks.
    {
        constexpr std::size_t kSeeds = 2048;
        gpudpf::Prg prg(workload.config.prf);
        gpudpf::Rng rng(7);
        std::vector<u128> seeds(kSeeds), left(kSeeds), right(kSeeds);
        for (auto& s : seeds) s = rng.Next128();
        const auto took = TimeCalls(
            [&] {
                prg.ExpandBatch(seeds.data(), kSeeds, left.data(), right.data());
                seeds.swap(left);
            },
            kProbeSeconds, 4);
        put("crypto.prg_blocks_per_s",
            2.0 * kSeeds * static_cast<double>(took.size()) / Sum(took), "1/s");
    }

    const std::size_t row_bytes = geometry.layout().RowBytes(
        static_cast<std::size_t>(geometry.dim()) * sizeof(float));
    const std::uint64_t bin_rows = geometry.full_pbr().bin_size();

    // dpf: Dpf::EvalRangeBatched over whole bins with the traced lookups'
    // real full-table keys.
    if (!replay.empty()) {
        const auto& keys = replay[0].full0.keys;
        gpudpf::Dpf dpf(keys[0].params);
        std::vector<u128> out(bin_rows *
                              static_cast<std::size_t>(keys[0].params.out_words));
        gpudpf::Dpf::RangeScratch scratch;
        std::size_t k = 0;
        const auto took = TimeCalls(
            [&] {
                dpf.EvalRangeBatched(keys[k++ % keys.size()], 0, bin_rows,
                                     out.data(), &scratch);
            },
            kProbeSeconds, 4);
        put("dpf.leaves_per_s",
            static_cast<double>(bin_rows) * static_cast<double>(took.size()) /
                Sum(took),
            "1/s");
    }

    // kernels: AccumulateSegment over one bin of rows at the row width.
    {
        const std::size_t w = (row_bytes + 15) / 16;
        gpudpf::Rng rng(11);
        std::vector<u128> rows(bin_rows * w), shares(bin_rows), resp(w);
        for (auto& x : rows) x = rng.Next128();
        for (auto& x : shares) x = rng.Next128();
        const auto took = TimeCalls(
            [&] {
                gpudpf::AccumulateSegment(rows.data(), w, shares.data(),
                                          bin_rows, resp.data());
            },
            kProbeSeconds, 4);
        put("kernels.accumulate_gib_per_s",
            static_cast<double>(rows.size() * sizeof(u128)) *
                static_cast<double>(took.size()) / Sum(took) / kGiB,
            "GiB/s");
    }

    // pir: the traced lookups' parsed jobs replayed through a standalone
    // AnswerEngine over a benchmark-built table of the same geometry,
    // alone (b1) and at the observed batch size (bN).
    gpudpf::PirTable full(geometry.layout().vocab(), row_bytes,
                          workload.config.table_layout);
    std::unique_ptr<gpudpf::PirTable> hot;
    {
        gpudpf::Rng rng(13);
        full.FillRandom(rng);
        if (geometry.layout().has_hot_table()) {
            hot = std::make_unique<gpudpf::PirTable>(
                geometry.layout().hot_size(), row_bytes,
                workload.config.table_layout);
            hot->FillRandom(rng);
        }
    }
    const std::size_t table_bytes =
        full.size_bytes() + (hot != nullptr ? hot->size_bytes() : 0);
    const double ceiling = ReadCeiling(
        table_bytes, gpudpf::ThreadPool::Shared().thread_count());
    put("host.read_gib_per_s", ceiling / kGiB, "GiB/s");
    if (!replay.empty()) {
        gpudpf::AnswerEngine engine(geometry.server_sharding());
        const auto one = TableJobs(replay, 1, full, hot.get());
        double rows_per_lookup = 0.0;
        for (const auto& tj : one) {
            rows_per_lookup += static_cast<double>(tj.job.num_rows);
        }
        const double bytes_per_lookup =
            rows_per_lookup * static_cast<double>(full.words_per_entry() * 16);
        const auto b1 = TimeCalls([&] { engine.AnswerBatch(one); },
                                  kProbeSeconds, 3);
        const std::size_t n = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::lround(batch_n)), 1, replay.size());
        const auto many = TableJobs(replay, n, full, hot.get());
        const auto bn = TimeCalls([&] { engine.AnswerBatch(many); },
                                  2 * kProbeSeconds, 3);
        const double per_lookup_s = Percentile(bn, 0.5) / static_cast<double>(n);
        put("pir.answer_ms.b1", Percentile(b1, 0.5) * 1e3, "ms");
        put("pir.answer_ms_per_lookup.bN", per_lookup_s * 1e3, "ms");
        put("pir.batch_n", static_cast<double>(n), "count");
        put("pir.rows_per_s", rows_per_lookup / per_lookup_s, "1/s");
        // Computed from sizes: rows scanned per lookup (both servers) times
        // the physical row width.
        put("pir.table_mib_per_lookup", bytes_per_lookup / kMiB, "MiB");
        put("pir.read_ceiling_frac", bytes_per_lookup / per_lookup_s / ceiling,
            "frac");
    }
}

}  // namespace perfbench
