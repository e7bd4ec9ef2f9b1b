#ifndef SVQA_VISION_RELATION_MODEL_H_
#define SVQA_VISION_RELATION_MODEL_H_

#include <array>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "vision/detector.h"
#include "vision/scene.h"

namespace svqa::vision {

/// \brief Per-predicate logits for one ordered detection pair, for the
/// unmasked pass and (under TDE) the masked pass. Index 0 is the implicit
/// background ("no relation") class; index i>0 corresponds to
/// predicates()[i-1]. One instance is reused across pairs, so scoring
/// allocates nothing once the rows are sized.
struct PairLogits {
  std::vector<double> unmasked;
  /// Feature maps zeroed (paper Eq. 2): the content term is absent.
  /// Written only when the masked pass is requested.
  std::vector<double> masked;
};

/// \brief Tunable characteristics of a simulated relation predictor.
struct RelationModelOptions {
  /// Weight of the feature-derived (content) signal on the true
  /// predicate. Higher = the model reads relations from features better.
  double content_strength = 2.05;
  /// Std-dev of pair noise shared between masked and unmasked passes.
  double shared_noise = 0.8;
  /// Std-dev of noise that differs between masked and unmasked passes
  /// (limits how perfectly TDE can cancel the bias).
  double mask_noise = 0.35;
  /// Weight of the label-pair frequency prior (the training bias TDE
  /// removes). Sized so a head predicate's prior rivals the content
  /// signal — the regime where Original inference collapses tail
  /// predicates onto head ones and TDE pays off.
  double bias_strength = 2.2;
  /// Background (no relation) base logit.
  double background_logit = 1.6;
  /// Feature-derived evidence that a pair is *unrelated*: added to the
  /// background logit when features are unmasked and no true relation
  /// exists. Keeps the corpus-level false-edge rate realistic.
  double background_content_strength = 4.5;
  /// Per-unit penalty on all relation logits as box-center distance
  /// exceeds `proximity_radius` (union-box geometry: far-apart objects
  /// are rarely related). Geometry enters both the masked and unmasked
  /// passes (boxes are not masked), so TDE does not cancel it.
  double distance_penalty = 6.0;
  double proximity_radius = 0.25;
  /// Penalty on contact predicates (wear/hold/carry/ride) when the two
  /// boxes do not intersect at all.
  double no_contact_penalty = 5.0;
  uint64_t seed = 7;
};

/// \brief True for predicates that require physical contact (box
/// overlap): wear, hold, carry, ride.
bool IsContactPredicate(std::string_view predicate);

/// \brief Euclidean distance between two box centers.
double BoxCenterDistance(const std::array<float, 4>& a,
                         const std::array<float, 4>& b);

/// \brief True when two (x, y, w, h) boxes intersect.
bool BoxesOverlap(const std::array<float, 4>& a,
                  const std::array<float, 4>& b);

/// \brief Simulated scene-graph relation predictor.
///
/// Stands in for MOTIFNET / VCTree / VTransE (DESIGN.md §1). The logit of
/// predicate r for pair (a, b) decomposes exactly as the TDE analysis
/// (paper Eq. 1-3) assumes:
///
///     logit(r) = content(features, r) + bias(l_a, l_b, r) + noise
///
/// `content` carries the true relation only when features are unmasked;
/// `bias` is a label-pair frequency prior fitted from a corpus
/// (FitBias); `noise` is mostly shared between masked and unmasked
/// passes so that the TDE difference p - p' recovers content with a
/// small residual. The three Kinds differ in content strength and noise,
/// reproducing the Table V ordering (Motifs >= VCTree > VTransE).
class RelationModel {
 public:
  enum class Kind { kVTransE, kVCTree, kNeuralMotifs };

  static const char* KindName(Kind kind);

  /// Calibrated per-kind options (content strength / noise).
  static RelationModelOptions DefaultOptionsFor(Kind kind);

  /// \param predicates predicate vocabulary (without background).
  RelationModel(Kind kind, std::vector<std::string> predicates,
                RelationModelOptions options);

  /// Fits the label-pair predicate prior ("training bias") from a corpus
  /// of ground-truth scenes.
  void FitBias(const std::vector<Scene>& corpus);

  /// Logits for an ordered pair: the unmasked pass always, and the
  /// masked pass as well when `with_masked` is set. Both passes are
  /// scored in one loop from one label-pair prior lookup; each shared
  /// noise draw is made once and enters both, while each pass keeps its
  /// own mask-noise stream.
  void Score(const Scene& scene, const Detection& a, const Detection& b,
             bool with_masked, PairLogits* out) const;

  const std::vector<std::string>& predicates() const { return predicates_; }
  Kind kind() const { return kind_; }
  const RelationModelOptions& options() const { return options_; }

 private:
  using LabelPair = std::pair<std::string_view, std::string_view>;
  /// Orders label-pair keys by value so lookups need no string copies.
  struct LabelPairLess {
    using is_transparent = void;
    bool operator()(LabelPair x, LabelPair y) const { return x < y; }
  };

  /// Rewrites a probability row in place as its scaled log-prior
  /// (bias) logits.
  void ToBiasLogits(std::vector<double>* probabilities) const;

  Kind kind_;
  std::vector<std::string> predicates_;
  RelationModelOptions options_;
  /// Per predicate: requires box contact (IsContactPredicate).
  std::vector<bool> contact_;
  /// (subject label, object label) -> per-predicate bias logit,
  /// bias_strength * (log p - log(1/N)).
  std::map<std::pair<std::string, std::string>, std::vector<double>,
           LabelPairLess>
      bias_;
  /// Bias logits of the marginal predicate prior (fallback for unseen
  /// label pairs).
  std::vector<double> marginal_bias_;
};

/// \brief Softmax over `logits`, in place.
void SoftmaxInPlace(std::span<double> logits);

}  // namespace svqa::vision

#endif  // SVQA_VISION_RELATION_MODEL_H_
