#include "vision/relation_model.h"

#include <algorithm>
#include <cmath>

namespace svqa::vision {

bool IsContactPredicate(std::string_view predicate) {
  return predicate == "wear" || predicate == "hold" ||
         predicate == "carry" || predicate == "ride";
}

double BoxCenterDistance(const std::array<float, 4>& a,
                         const std::array<float, 4>& b) {
  const double ax = a[0] + a[2] / 2.0, ay = a[1] + a[3] / 2.0;
  const double bx = b[0] + b[2] / 2.0, by = b[1] + b[3] / 2.0;
  return std::sqrt((ax - bx) * (ax - bx) + (ay - by) * (ay - by));
}

bool BoxesOverlap(const std::array<float, 4>& a,
                  const std::array<float, 4>& b) {
  return a[0] < b[0] + b[2] && b[0] < a[0] + a[2] && a[1] < b[1] + b[3] &&
         b[1] < a[1] + a[3];
}

const char* RelationModel::KindName(Kind kind) {
  switch (kind) {
    case Kind::kVTransE:
      return "VTransE";
    case Kind::kVCTree:
      return "VCTree";
    case Kind::kNeuralMotifs:
      return "Neural-Motifs";
  }
  return "?";
}

RelationModelOptions RelationModel::DefaultOptionsFor(Kind kind) {
  RelationModelOptions o;
  switch (kind) {
    case Kind::kVTransE:
      // Translation-embedding model: weakest context signal.
      o.content_strength = 1.70;
      o.shared_noise = 0.95;
      break;
    case Kind::kVCTree:
      // Dynamic-tree context propagation.
      o.content_strength = 1.95;
      o.shared_noise = 0.85;
      break;
    case Kind::kNeuralMotifs:
      // Sequential (LSTM) global context: strongest.
      o.content_strength = 2.05;
      o.shared_noise = 0.80;
      break;
  }
  return o;
}

RelationModel::RelationModel(Kind kind, std::vector<std::string> predicates,
                             RelationModelOptions options)
    : kind_(kind), predicates_(std::move(predicates)), options_(options) {
  for (const std::string& p : predicates_) {
    contact_.push_back(IsContactPredicate(p));
  }
  marginal_bias_.assign(predicates_.size(), 1.0 / predicates_.size());
  ToBiasLogits(&marginal_bias_);
}

void RelationModel::ToBiasLogits(std::vector<double>* probabilities) const {
  // log-probability scaled by the bias strength; shifted so the mean
  // predicate sits near zero.
  const double log_uniform = std::log(1.0 / predicates_.size());
  for (double& p : *probabilities) {
    p = options_.bias_strength * (std::log(std::max(p, 1e-6)) - log_uniform);
  }
}

void RelationModel::FitBias(const std::vector<Scene>& corpus) {
  std::map<std::pair<std::string, std::string>, std::vector<double>,
           LabelPairLess>
      counts;
  std::vector<double> marginal(predicates_.size(), 1.0);  // add-one

  auto predicate_index = [this](const std::string& p) -> int {
    for (std::size_t i = 0; i < predicates_.size(); ++i) {
      if (predicates_[i] == p) return static_cast<int>(i);
    }
    return -1;
  };

  for (const Scene& scene : corpus) {
    for (const SceneRelation& rel : scene.relations) {
      const int pi = predicate_index(rel.predicate);
      if (pi < 0) continue;
      const auto key = std::make_pair(scene.objects[rel.subject].category,
                                      scene.objects[rel.object].category);
      auto& vec = counts[key];
      if (vec.empty()) vec.assign(predicates_.size(), 0.5);  // smoothing
      vec[pi] += 1.0;
      marginal[pi] += 1.0;
    }
  }

  // Normalize to conditional distributions, then keep only their bias
  // logits.
  for (auto& [key, vec] : counts) {
    double total = 0;
    for (double c : vec) total += c;
    for (double& c : vec) c /= total;
    ToBiasLogits(&vec);
  }
  double mtotal = 0;
  for (double c : marginal) mtotal += c;
  for (double& c : marginal) c /= mtotal;
  ToBiasLogits(&marginal);

  bias_ = std::move(counts);
  marginal_bias_ = std::move(marginal);
}

void RelationModel::Score(const Scene& scene, const Detection& a,
                          const Detection& b, bool with_masked,
                          PairLogits* out) const {
  const std::size_t n = predicates_.size();
  out->unmasked.resize(n + 1);
  if (with_masked) out->masked.resize(n + 1);
  double* unmasked = out->unmasked.data();
  double* masked = out->masked.data();

  // The true relation content: readable only through intact features,
  // so it enters the unmasked pass alone. A known pair without a true
  // relation instead signals its *absence* (background evidence).
  std::size_t true_predicate = n;
  bool no_relation = false;
  if (a.truth_index >= 0 && b.truth_index >= 0) {
    const std::string& truth =
        scene.PredicateBetween(a.truth_index, b.truth_index);
    no_relation = truth.empty();
    true_predicate = static_cast<std::size_t>(
        std::find(predicates_.begin(), predicates_.end(), truth) -
        predicates_.begin());
  }

  // Deterministic per-(scene, pair, predicate) noise. The shared part is
  // identical across masked/unmasked passes, so it is drawn once; the
  // mask part comes from a separate stream per pass.
  const uint64_t pair_seed = HashCombine(
      HashCombine(options_.seed, static_cast<uint64_t>(scene.id)),
      HashCombine(static_cast<uint64_t>(a.truth_index + 1) * 2654435761ULL,
                  static_cast<uint64_t>(b.truth_index + 1)));
  Rng shared_rng(pair_seed);
  Rng unmasked_rng(HashCombine(pair_seed, 0xbeef));
  Rng masked_rng(HashCombine(pair_seed, 0xdead));

  // Geometry (boxes are never masked, so these terms appear in both
  // passes and cancel in the TDE difference, as they should).
  const double distance = BoxCenterDistance(a.box, b.box);
  const double proximity_penalty =
      options_.distance_penalty *
      std::max(0.0, distance - options_.proximity_radius);
  const bool contact = BoxesOverlap(a.box, b.box);

  auto it = bias_.find(LabelPair(a.label, b.label));
  const double* bias =
      it != bias_.end() ? it->second.data() : marginal_bias_.data();
  // Each pass adds its terms in one fixed order (bias, content,
  // proximity, contact, shared noise, mask noise): floating-point
  // addition is not associative, so any other order changes the bits.
  for (std::size_t i = 0; i < n; ++i) {
    const bool no_contact = !contact && contact_[i];
    const double shared = shared_rng.NextGaussian() * options_.shared_noise;
    double logit = bias[i];
    if (i == true_predicate) logit += options_.content_strength;
    logit -= proximity_penalty;
    if (no_contact) logit -= options_.no_contact_penalty;
    logit += shared;
    logit += unmasked_rng.NextGaussian() * options_.mask_noise;
    unmasked[i + 1] = logit;
    if (with_masked) {
      double masked_logit = bias[i];
      masked_logit -= proximity_penalty;
      if (no_contact) masked_logit -= options_.no_contact_penalty;
      masked_logit += shared;
      masked_logit += masked_rng.NextGaussian() * options_.mask_noise;
      masked[i + 1] = masked_logit;
    }
  }
  // Background noise (shared so TDE cancels it too).
  const double background_noise =
      shared_rng.NextGaussian() * options_.shared_noise * 0.5;
  unmasked[0] = options_.background_logit;
  if (no_relation) unmasked[0] += options_.background_content_strength;
  unmasked[0] += background_noise;
  if (with_masked) {
    masked[0] = options_.background_logit + background_noise;
  }
}

void SoftmaxInPlace(std::span<double> logits) {
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double total = 0;
  for (double& l : logits) {
    l = std::exp(l - max_logit);
    total += l;
  }
  for (double& p : logits) p /= total;
}

}  // namespace svqa::vision
