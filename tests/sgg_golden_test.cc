// Bit-identity golden for scene-graph generation: hashes every predicted
// relation and candidate (predicate, score bits, endpoints), each scene
// graph's vertex and edge counts, and the virtual SGG micros over a
// fixed-seed world. The constants were captured from the straightforward
// two-pass ScorePair/Softmax implementation; the fused scorer must
// reproduce them exactly, in both inference modes and for every model
// kind, including an unfitted model that scores from the uniform prior.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string_view>

#include "data/vocabulary.h"
#include "data/world.h"
#include "vision/scene_graph_generator.h"

namespace svqa::vision {
namespace {

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(v >> (8 * i)));
  }
  void Add(std::string_view s) {
    Add(static_cast<uint64_t>(s.size()));
    for (char c : s) Byte(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return h_; }

 private:
  void Byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void AddRelation(const PredictedRelation& r, Fnv* h) {
  h->Add(r.predicate);
  h->Add(std::bit_cast<uint64_t>(r.score));
  h->Add(static_cast<uint64_t>(static_cast<int64_t>(r.subject)));
  h->Add(static_cast<uint64_t>(static_cast<int64_t>(r.object)));
}

const std::vector<Scene>& GoldenScenes() {
  static const std::vector<Scene> scenes = [] {
    data::WorldOptions opts;
    opts.num_scenes = 400;
    opts.seed = 2024;
    return data::WorldGenerator(opts).Generate().scenes;
  }();
  return scenes;
}

/// Hash of GenerateAll over the golden world with the default (noisy)
/// detector, so misdetections, misclassified labels and named-entity
/// labels (unseen label pairs) all reach the scorer.
uint64_t SggHash(RelationModel::Kind kind, InferenceMode mode, bool fit) {
  const auto& scenes = GoldenScenes();
  auto model = std::make_shared<RelationModel>(
      kind, data::Vocabulary::Default().scene_predicates,
      RelationModel::DefaultOptionsFor(kind));
  if (fit) model->FitBias(scenes);
  SceneGraphGenerator gen(SimulatedDetector(), model, mode);
  SimClock clock;
  const auto results = gen.GenerateAll(scenes, &clock);
  Fnv h;
  for (const SceneGraphResult& r : results) {
    h.Add(static_cast<uint64_t>(r.scene_id));
    h.Add(static_cast<uint64_t>(r.graph.num_vertices()));
    h.Add(static_cast<uint64_t>(r.graph.num_edges()));
    h.Add(static_cast<uint64_t>(r.relations.size()));
    for (const PredictedRelation& rel : r.relations) AddRelation(rel, &h);
    h.Add(static_cast<uint64_t>(r.candidates.size()));
    for (const PredictedRelation& rel : r.candidates) AddRelation(rel, &h);
  }
  h.Add(std::bit_cast<uint64_t>(clock.ElapsedMicros()));
  return h.value();
}

using Kind = RelationModel::Kind;

TEST(SggGoldenTest, NeuralMotifsTde) {
  EXPECT_EQ(SggHash(Kind::kNeuralMotifs, InferenceMode::kTde, true),
            0x77c1054351edf62aULL);
}

TEST(SggGoldenTest, NeuralMotifsOriginal) {
  EXPECT_EQ(SggHash(Kind::kNeuralMotifs, InferenceMode::kOriginal, true),
            0xc52be9bcc58051e9ULL);
}

TEST(SggGoldenTest, VcTreeTde) {
  EXPECT_EQ(SggHash(Kind::kVCTree, InferenceMode::kTde, true),
            0x52f18b188504ca3fULL);
}

TEST(SggGoldenTest, VTransEOriginal) {
  EXPECT_EQ(SggHash(Kind::kVTransE, InferenceMode::kOriginal, true),
            0x3a46af57a3db114bULL);
}

TEST(SggGoldenTest, UnfittedModelTde) {
  EXPECT_EQ(SggHash(Kind::kNeuralMotifs, InferenceMode::kTde, false),
            0xea9ab21a415e450cULL);
}

}  // namespace
}  // namespace svqa::vision
