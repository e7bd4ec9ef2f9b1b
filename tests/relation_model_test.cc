#include "vision/relation_model.h"

#include <gtest/gtest.h>

#include <string_view>

#include "data/vocabulary.h"
#include "data/world.h"
#include "vision/tde.h"

namespace svqa::vision {
namespace {

std::vector<std::string> Predicates() {
  return data::Vocabulary::Default().scene_predicates;
}

/// Scene: person wears hat (boxes overlap); dog near tree; unrelated
/// far-apart pair (dog, hat).
Scene MakeScene() {
  Scene scene;
  scene.id = 3;
  SceneObject person;
  person.category = "person";
  person.box = {0.4f, 0.4f, 0.2f, 0.3f};
  SceneObject hat;
  hat.category = "hat";
  hat.box = {0.45f, 0.35f, 0.1f, 0.1f};  // overlaps person
  SceneObject dog;
  dog.category = "dog";
  dog.box = {0.05f, 0.8f, 0.1f, 0.1f};  // far from person/hat
  SceneObject tree;
  tree.category = "tree";
  tree.box = {0.1f, 0.75f, 0.1f, 0.2f};  // near dog
  scene.objects = {person, hat, dog, tree};
  scene.relations = {SceneRelation{0, 1, "wear"},
                     SceneRelation{2, 3, "near"}};
  return scene;
}

std::vector<Detection> PerfectDetections(const Scene& scene) {
  std::vector<Detection> dets;
  for (std::size_t i = 0; i < scene.objects.size(); ++i) {
    Detection d;
    d.box = scene.objects[i].box;
    d.label = scene.objects[i].category;
    d.truth_index = static_cast<int>(i);
    dets.push_back(d);
  }
  return dets;
}

class RelationModelTest : public ::testing::Test {
 protected:
  RelationModelTest()
      : model_(RelationModel::Kind::kNeuralMotifs, Predicates(),
               RelationModel::DefaultOptionsFor(
                   RelationModel::Kind::kNeuralMotifs)) {
    scenes_.push_back(MakeScene());
    model_.FitBias(scenes_);
  }

  std::vector<Scene> scenes_;
  RelationModel model_;
};

/// Both passes of one pair, scored into a fresh buffer.
PairLogits ScoreBoth(const RelationModel& model, const Scene& scene,
                     const Detection& a, const Detection& b) {
  PairLogits logits;
  model.Score(scene, a, b, /*with_masked=*/true, &logits);
  return logits;
}

int PredicateIndex(std::string_view predicate) {
  const auto preds = Predicates();
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == predicate) return static_cast<int>(i);
  }
  return -1;
}

TEST_F(RelationModelTest, LogitVectorHasBackgroundSlot) {
  const Scene& scene = scenes_[0];
  const auto dets = PerfectDetections(scene);
  const auto logits = ScoreBoth(model_, scene, dets[0], dets[1]);
  EXPECT_EQ(logits.unmasked.size(), Predicates().size() + 1);
  EXPECT_EQ(logits.masked.size(), Predicates().size() + 1);
}

TEST_F(RelationModelTest, UnmaskedOnlyLeavesMaskedUntouched) {
  const Scene& scene = scenes_[0];
  const auto dets = PerfectDetections(scene);
  PairLogits logits;
  model_.Score(scene, dets[0], dets[1], /*with_masked=*/false, &logits);
  EXPECT_TRUE(logits.masked.empty());
  EXPECT_EQ(logits.unmasked,
            ScoreBoth(model_, scene, dets[0], dets[1]).unmasked);
}

TEST_F(RelationModelTest, Deterministic) {
  const Scene& scene = scenes_[0];
  const auto dets = PerfectDetections(scene);
  const auto first = ScoreBoth(model_, scene, dets[0], dets[1]);
  const auto second = ScoreBoth(model_, scene, dets[0], dets[1]);
  EXPECT_EQ(first.unmasked, second.unmasked);
  EXPECT_EQ(first.masked, second.masked);
}

TEST_F(RelationModelTest, ReusedBufferMatchesFreshOne) {
  // Scoring into a buffer that already holds another pair's logits gives
  // exactly the fresh result.
  const Scene& scene = scenes_[0];
  const auto dets = PerfectDetections(scene);
  PairLogits reused;
  model_.Score(scene, dets[2], dets[3], /*with_masked=*/true, &reused);
  model_.Score(scene, dets[0], dets[1], /*with_masked=*/true, &reused);
  const auto fresh = ScoreBoth(model_, scene, dets[0], dets[1]);
  EXPECT_EQ(reused.unmasked, fresh.unmasked);
  EXPECT_EQ(reused.masked, fresh.masked);
}

TEST_F(RelationModelTest, MaskedAndUnmaskedDiffer) {
  const Scene& scene = scenes_[0];
  const auto dets = PerfectDetections(scene);
  const auto logits = ScoreBoth(model_, scene, dets[0], dets[1]);
  EXPECT_NE(logits.unmasked, logits.masked);
}

TEST_F(RelationModelTest, TruePredicateGetsContentBoost) {
  // Averaged over noise (many scene ids), the true predicate's logit
  // difference unmasked-vs-masked equals ~content_strength.
  const int wear_index = PredicateIndex("wear");
  ASSERT_GE(wear_index, 0);

  double diff_sum = 0;
  const int n = 200;
  for (int id = 0; id < n; ++id) {
    Scene scene = MakeScene();
    scene.id = id;
    const auto dets = PerfectDetections(scene);
    const auto logits = ScoreBoth(model_, scene, dets[0], dets[1]);
    diff_sum +=
        logits.unmasked[wear_index + 1] - logits.masked[wear_index + 1];
  }
  EXPECT_NEAR(diff_sum / n, model_.options().content_strength, 0.25);
}

TEST_F(RelationModelTest, TdeDifferenceCancelsTheBias) {
  // Refit on a corpus where every person->hat relation is "near": the
  // prior now strongly favours "near" over "wear" for that label pair.
  // The unmasked logits carry that bias; the unmasked-minus-masked
  // difference of a non-true predicate is only mask noise (mean ~0).
  std::vector<Scene> corpus;
  for (int id = 0; id < 50; ++id) {
    Scene s = MakeScene();
    s.relations = {SceneRelation{0, 1, "near"}};
    corpus.push_back(s);
  }
  model_.FitBias(corpus);
  const int near_index = PredicateIndex("near");
  const int under_index = PredicateIndex("under");
  ASSERT_GE(near_index, 0);
  ASSERT_GE(under_index, 0);

  double near_minus_under = 0, near_diff = 0;
  const int n = 200;
  for (int id = 0; id < n; ++id) {
    Scene scene = MakeScene();
    scene.id = id;
    const auto dets = PerfectDetections(scene);
    const auto logits = ScoreBoth(model_, scene, dets[0], dets[1]);
    near_minus_under += logits.unmasked[near_index + 1] -
                        logits.unmasked[under_index + 1];
    near_diff += logits.unmasked[near_index + 1] -
                 logits.masked[near_index + 1];
  }
  EXPECT_GT(near_minus_under / n, 2.0);
  EXPECT_NEAR(near_diff / n, 0.0, 0.15);
}

TEST_F(RelationModelTest, ContactPredicatesPenalizedWithoutOverlap) {
  // dog (index 2) and tree (index 3) are adjacent but not overlapping:
  // "wear"-family logits must be heavily penalized vs spatial ones.
  const Scene& scene = scenes_[0];
  const auto dets = PerfectDetections(scene);
  const int wear_index = PredicateIndex("wear");
  const int near_index = PredicateIndex("near");
  double wear_sum = 0, near_sum = 0;
  for (int id = 0; id < 100; ++id) {
    Scene s = scene;
    s.id = id;
    const auto logits = ScoreBoth(model_, s, dets[2], dets[3]);
    wear_sum += logits.unmasked[wear_index + 1];
    near_sum += logits.unmasked[near_index + 1];
  }
  EXPECT_LT(wear_sum / 100, near_sum / 100 - 2.0);
}

TEST_F(RelationModelTest, KindOptionsOrdering) {
  const auto motifs =
      RelationModel::DefaultOptionsFor(RelationModel::Kind::kNeuralMotifs);
  const auto vctree =
      RelationModel::DefaultOptionsFor(RelationModel::Kind::kVCTree);
  const auto vtranse =
      RelationModel::DefaultOptionsFor(RelationModel::Kind::kVTransE);
  EXPECT_GE(motifs.content_strength, vctree.content_strength);
  EXPECT_GT(vctree.content_strength, vtranse.content_strength);
  EXPECT_LE(motifs.shared_noise, vtranse.shared_noise);
}

TEST_F(RelationModelTest, KindNames) {
  EXPECT_STREQ(RelationModel::KindName(RelationModel::Kind::kVTransE),
               "VTransE");
  EXPECT_STREQ(RelationModel::KindName(RelationModel::Kind::kVCTree),
               "VCTree");
  EXPECT_STREQ(
      RelationModel::KindName(RelationModel::Kind::kNeuralMotifs),
      "Neural-Motifs");
}

TEST(SoftmaxTest, SumsToOneAndOrdersLikeLogits) {
  std::vector<double> p = {1.0, 3.0, 2.0};
  SoftmaxInPlace(p);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[1], p[2]);
  EXPECT_GT(p[2], p[0]);
}

TEST(SoftmaxTest, StableForLargeLogits) {
  std::vector<double> p = {1000.0, 999.0};
  SoftmaxInPlace(p);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_GT(p[0], p[1]);
}

TEST(GeometryTest, BoxHelpers) {
  const std::array<float, 4> a = {0.0f, 0.0f, 0.2f, 0.2f};
  const std::array<float, 4> b = {0.1f, 0.1f, 0.2f, 0.2f};
  const std::array<float, 4> c = {0.5f, 0.5f, 0.1f, 0.1f};
  EXPECT_TRUE(BoxesOverlap(a, b));
  EXPECT_FALSE(BoxesOverlap(a, c));
  EXPECT_NEAR(BoxCenterDistance(a, a), 0.0, 1e-9);
  EXPECT_GT(BoxCenterDistance(a, c), 0.5);
}

TEST(GeometryTest, ContactPredicateSet) {
  EXPECT_TRUE(IsContactPredicate("wear"));
  EXPECT_TRUE(IsContactPredicate("hold"));
  EXPECT_TRUE(IsContactPredicate("carry"));
  EXPECT_TRUE(IsContactPredicate("ride"));
  EXPECT_FALSE(IsContactPredicate("near"));
  EXPECT_FALSE(IsContactPredicate("hang-out"));
}

// ---------------------------------------------------------------------------
// TDE inference
// ---------------------------------------------------------------------------

class TdeTest : public ::testing::Test {
 protected:
  TdeTest()
      : model_(RelationModel::Kind::kNeuralMotifs, Predicates(),
               RelationModel::DefaultOptionsFor(
                   RelationModel::Kind::kNeuralMotifs)) {
    // Fit bias on a corpus dominated by "near" so that head-predicate
    // bias is strong.
    for (int id = 0; id < 50; ++id) {
      Scene s = MakeScene();
      s.id = id;
      s.relations = {SceneRelation{0, 1, "near"},
                     SceneRelation{2, 3, "near"}};
      corpus_.push_back(s);
    }
    model_.FitBias(corpus_);
  }

  std::vector<Scene> corpus_;
  RelationModel model_;
};

TEST_F(TdeTest, TdeRecoversTailPredicateMoreOftenThanOriginal) {
  // True predicate "wear" (a tail class after the biased fit): TDE should
  // label it right more often than Original inference.
  int tde_right = 0, orig_right = 0, trials = 0;
  for (int id = 0; id < 300; ++id) {
    Scene s = MakeScene();
    s.id = 1000 + id;
    s.relations = {SceneRelation{0, 1, "wear"}};
    auto dets = PerfectDetections(s);
    PairLogits scratch;
    PredictedRelation rel;
    if (PredictRelation(model_, s, dets, 0, 1, InferenceMode::kTde, &scratch,
                        &rel)) {
      ++trials;
      if (rel.predicate == "wear") ++tde_right;
      PredictedRelation orig;
      if (PredictRelation(model_, s, dets, 0, 1, InferenceMode::kOriginal,
                          &scratch, &orig) &&
          orig.predicate == "wear") {
        ++orig_right;
      }
    }
  }
  ASSERT_GT(trials, 50);
  EXPECT_GT(tde_right, orig_right);
}

TEST_F(TdeTest, BackgroundPairsMostlyRejected) {
  // dog and hat are far apart and unrelated: almost no edges.
  int fired = 0;
  for (int id = 0; id < 200; ++id) {
    Scene s = MakeScene();
    s.id = 2000 + id;
    auto dets = PerfectDetections(s);
    PairLogits scratch;
    PredictedRelation rel;
    if (PredictRelation(model_, s, dets, 2, 1, InferenceMode::kOriginal,
                        &scratch, &rel)) {
      ++fired;
    }
  }
  EXPECT_LT(fired, 10);
}

TEST(InferenceModeTest, Names) {
  EXPECT_STREQ(InferenceModeName(InferenceMode::kOriginal), "Original");
  EXPECT_STREQ(InferenceModeName(InferenceMode::kTde), "TDE");
}

}  // namespace
}  // namespace svqa::vision
