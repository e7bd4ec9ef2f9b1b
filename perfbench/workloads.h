#ifndef SVQA_PERFBENCH_WORKLOADS_H_
#define SVQA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "data/mvqa_generator.h"
#include "harness.h"

namespace perfbench {

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Attribute questions asked on top of the 100-question MVQA core set,
/// to widen the question pool (the world may yield fewer of either).
inline constexpr int kColorQuestions = 40;

/// The workload's inputs: the MVQA world (4,233 images), its knowledge
/// graph and questions, all drawn from `seed`.
svqa::data::MvqaDataset MakeDataset(uint64_t seed);

/// A seed-shuffled permutation of 0..n-1.
std::vector<std::size_t> Shuffled(std::size_t n, uint64_t seed);

/// Each workload fills `report` with its end-to-end metrics (untraced
/// run) or its per-layer metrics (traced run, `config.trace`).
void RunIngest(const RunConfig& config, Report* report);
void RunAskHot(const RunConfig& config, Report* report);
void RunServeMixed(const RunConfig& config, Report* report);

/// Threads each workload runs, the caller's included (checked against
/// nproc before it starts).
inline constexpr int kIngestThreads = 1;
inline constexpr int kAskHotThreads = 1;
/// Two serving workers, the client and the publisher.
inline constexpr int kServeThreads = 4;

}  // namespace perfbench

#endif  // SVQA_PERFBENCH_WORKLOADS_H_
