// A served system under load: the in-process service or the loopback
// sharded fleet. Both expose the same two paths per request:
//   - the one-call path (untraced): SubmitRequest / ShardedRouter::Lookup;
//   - the decomposed path (traced): the same lookup as its public steps,
//     each wrapped in a span, which must produce identical bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common.h"
#include "src/batchpir/pbr_session.h"
#include "src/common/mutex.h"
#include "src/core/service.h"
#include "src/core/serving.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

using LookupResult = gpudpf::PrivateEmbeddingService::LookupResult;

// One lookup's parsed per-bin jobs (both servers, both tables), kept from
// the traced run to replay through a standalone AnswerEngine.
struct ReplayLookup {
    gpudpf::PbrSession::BinJobs full0, full1, hot0, hot1;
};

// Deep copy that re-points each job at the copy's own keys.
gpudpf::PbrSession::BinJobs CloneBinJobs(const gpudpf::PbrSession::BinJobs& src);

struct RunOptions {
    PhaseSpec spec;
    // Closed loop only: stop after this many submissions instead of after
    // spec.seconds (0 = time-bound). Requests are then issued in a fixed
    // order per client, so their results repeat exactly for a seed.
    std::size_t max_requests = 0;
    bool keep_results = false;
    // Non-null selects the decomposed, traced path.
    Tracer* tracer = nullptr;
};

struct RunOutput {
    PhaseResult phase;
    std::map<std::uint64_t, LookupResult> results;  // by request seq
    // Decomposed path only: SubmitRaw call start to the first raw partial
    // and to completion, seconds.
    std::vector<double> submit_to_first;
    std::vector<double> submit_to_complete;
    // Decomposed path only: largest sampled front-end inflight().
    std::size_t inflight_max = 0;
};

// Front-end counters summed over every serving front-end of the target.
struct FrontEndTotals {
    std::uint64_t batches = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t last_linger_us = 0;
};

// Exact wire and scan counts of the fleet (zero in-process).
struct NetCounts {
    double request_bytes = 0.0;  // encoded request frames per lookup, all K
    double reply_bytes = 0.0;    // encoded partial frames per lookup, all K
    double rows_per_node_per_lookup = 0.0;
    std::uint64_t failovers = 0;
    std::uint64_t transport_errors = 0;
};

class Target {
  public:
    virtual ~Target() = default;

    virtual RunOutput Run(const RunOptions& options) = 0;

    // Replays the requests behind `results` through the one-call path on a
    // freshly built twin (same config, clients made in the same order) and
    // returns how many results differ in any byte.
    virtual std::size_t CountOneCallDifferences(
        const std::map<std::uint64_t, LookupResult>& results) = 0;

    virtual FrontEndTotals Totals() const = 0;
    virtual NetCounts Net() const = 0;

    // Service whose layout, planner and sharding describe the geometry.
    virtual const gpudpf::PrivateEmbeddingService& Geometry() const = 0;

    // Jobs of the first traced lookups, for the AnswerEngine replay. Read
    // only after the traced runs have returned.
    const std::vector<ReplayLookup>& replay() const { return replay_; }
    // DPF keys per lookup, both servers and tables (from a traced lookup).
    std::size_t keys_per_lookup() const { return keys_per_lookup_; }

  protected:
    // Records a traced lookup's jobs; callable from several caller threads.
    void CaptureReplay(const gpudpf::PrivateEmbeddingService::PreparedLookup& prep)
        GPUDPF_EXCLUDES(replay_mu_);

  private:
    gpudpf::Mutex replay_mu_;
    std::vector<ReplayLookup> replay_;
    std::size_t keys_per_lookup_ = 0;
};

// Builds the target and serves its first lookup (the span setup_s times).
// Throws if the first lookup fails the oracle.
std::unique_ptr<Target> MakeInProcessTarget(const Workload& workload,
                                            const Inputs& inputs);
std::unique_ptr<Target> MakeFleetTarget(const Workload& workload,
                                        const Inputs& inputs);

}  // namespace perfbench
