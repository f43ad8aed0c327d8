#include "target.h"

namespace perfbench {

gpudpf::PbrSession::BinJobs CloneBinJobs(
    const gpudpf::PbrSession::BinJobs& src) {
    gpudpf::PbrSession::BinJobs out;
    out.keys = src.keys;
    out.jobs = src.jobs;
    for (std::size_t i = 0; i < out.jobs.size(); ++i) {
        out.jobs[i].key = &out.keys[i];
    }
    return out;
}

void Target::CaptureReplay(
    const gpudpf::PrivateEmbeddingService::PreparedLookup& prep) {
    constexpr std::size_t kMaxReplay = 64;
    gpudpf::MutexLock lock(replay_mu_);
    keys_per_lookup_ = prep.full_server0.keys.size() +
                       prep.full_server1.keys.size() +
                       prep.hot_server0.keys.size() +
                       prep.hot_server1.keys.size();
    if (replay_.size() >= kMaxReplay) return;
    replay_.push_back(ReplayLookup{
        CloneBinJobs(prep.full_server0), CloneBinJobs(prep.full_server1),
        CloneBinJobs(prep.hot_server0), CloneBinJobs(prep.hot_server1)});
}

}  // namespace perfbench
