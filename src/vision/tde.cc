#include "vision/tde.h"

#include <algorithm>

namespace svqa::vision {

const char* InferenceModeName(InferenceMode mode) {
  return mode == InferenceMode::kOriginal ? "Original" : "TDE";
}

bool PredictRelation(const RelationModel& model, const Scene& scene,
                     const std::vector<Detection>& detections, int subject,
                     int object, InferenceMode mode, PairLogits* scratch,
                     PredictedRelation* out) {
  const bool tde = mode == InferenceMode::kTde;
  model.Score(scene, detections[subject], detections[object],
              /*with_masked=*/tde, scratch);
  SoftmaxInPlace(scratch->unmasked);
  const std::vector<double>& p = scratch->unmasked;

  // Existence gate: the unmasked model must prefer some relation over
  // background.
  const std::size_t arg_unmasked = static_cast<std::size_t>(
      std::max_element(p.begin(), p.end()) - p.begin());

  // Best non-background candidate (always reported, for Recall@K
  // ranking even when the gate stays closed).
  std::size_t chosen = 1;
  for (std::size_t i = 2; i < p.size(); ++i) {
    if (p[i] > p[chosen]) chosen = i;
  }
  double score = p[chosen];

  if (tde) {
    SoftmaxInPlace(scratch->masked);
    const std::vector<double>& p_masked = scratch->masked;
    // argmax over non-background classes of the total direct effect.
    double best = -2.0;
    for (std::size_t i = 1; i < p.size(); ++i) {
      const double diff = p[i] - p_masked[i];
      if (diff > best) {
        best = diff;
        chosen = i;
      }
    }
    score = best;
  }

  out->subject = subject;
  out->object = object;
  out->predicate = model.predicates()[chosen - 1];
  out->score = score;
  return arg_unmasked != 0;
}

}  // namespace svqa::vision
