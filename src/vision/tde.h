#ifndef SVQA_VISION_TDE_H_
#define SVQA_VISION_TDE_H_

#include <string>
#include <vector>

#include "vision/relation_model.h"

namespace svqa::vision {

/// \brief Inference modes for relation prediction.
enum class InferenceMode {
  /// Plain argmax over the unmasked logits (the "Original" rows of
  /// Table V).
  kOriginal,
  /// Total Direct Effect (paper Eq. 1-3, ref [24]): run the model twice,
  /// once with masked feature maps, and pick argmax(p - p') so the
  /// label-prior bias cancels.
  kTde,
};

const char* InferenceModeName(InferenceMode mode);

/// \brief A predicted relation for an ordered detection pair.
struct PredictedRelation {
  int subject = 0;  ///< Index into the detection vector.
  int object = 0;
  std::string predicate;
  double score = 0;  ///< Confidence used for Recall@K ranking.
};

/// \brief Applies Original or TDE inference to one pair. `out` is always
/// filled with the best non-background predicate and its confidence (the
/// ranked candidate used by Recall@K); the return value says whether the
/// existence gate fired (the pair becomes a scene-graph edge). `scratch`
/// holds the pair's logits and, afterwards, their softmax; reuse one
/// across pairs (one per thread).
bool PredictRelation(const RelationModel& model, const Scene& scene,
                     const std::vector<Detection>& detections, int subject,
                     int object, InferenceMode mode, PairLogits* scratch,
                     PredictedRelation* out);

}  // namespace svqa::vision

#endif  // SVQA_VISION_TDE_H_
