// Property-based sweeps (TEST_P over seeds/configurations): invariants
// that must hold for every sampled world, not just the default one.

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "core/engine.h"
#include "core/evaluation.h"
#include "data/kg_builder.h"
#include "data/mvqa_generator.h"
#include "graph/serialization.h"
#include "text/lexicon.h"
#include "vision/relation_model.h"
#include "vision/sgg_metrics.h"

namespace svqa {
namespace {

// ---------------------------------------------------------------------------
// World invariants across seeds
// ---------------------------------------------------------------------------

class WorldPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  data::World MakeWorld(int scenes = 150) {
    data::WorldOptions opts;
    opts.num_scenes = scenes;
    opts.seed = GetParam();
    return data::WorldGenerator(opts).Generate();
  }
};

TEST_P(WorldPropertyTest, RelationsWellFormed) {
  const data::World world = MakeWorld();
  for (const auto& scene : world.scenes) {
    for (const auto& rel : scene.relations) {
      ASSERT_GE(rel.subject, 0);
      ASSERT_LT(rel.subject, static_cast<int>(scene.objects.size()));
      ASSERT_GE(rel.object, 0);
      ASSERT_LT(rel.object, static_cast<int>(scene.objects.size()));
      EXPECT_NE(rel.subject, rel.object);
      EXPECT_FALSE(rel.predicate.empty());
    }
  }
}

TEST_P(WorldPropertyTest, GeometrySupportsPredicates) {
  const data::World world = MakeWorld();
  for (const auto& scene : world.scenes) {
    for (const auto& rel : scene.relations) {
      const auto& sb = scene.objects[rel.subject].box;
      const auto& ob = scene.objects[rel.object].box;
      if (vision::IsContactPredicate(rel.predicate)) {
        EXPECT_TRUE(vision::BoxesOverlap(sb, ob))
            << rel.predicate << " seed=" << GetParam();
      }
      EXPECT_LT(vision::BoxCenterDistance(sb, ob), 0.45)
          << rel.predicate << " seed=" << GetParam();
    }
  }
}

TEST_P(WorldPropertyTest, PerfectSceneGraphsAreConsistent) {
  const data::World world = MakeWorld();
  for (const auto& scene : world.scenes) {
    const graph::Graph g = data::PerfectSceneGraph(scene);
    ASSERT_TRUE(g.CheckConsistency().ok()) << "scene " << scene.id;
    std::size_t attributes = 0;
    for (const auto& obj : scene.objects) {
      attributes += obj.attributes.size();
    }
    EXPECT_EQ(g.num_vertices(), scene.objects.size() + attributes);
  }
}

TEST_P(WorldPropertyTest, KnowledgeGraphIsConnectedEnough) {
  const data::World world = MakeWorld(30);
  const graph::Graph kg =
      data::BuildKnowledgeGraph(world, text::SynonymLexicon::Default());
  ASSERT_TRUE(kg.CheckConsistency().ok());
  // Characters reach the concept taxonomy: every character vertex has a
  // path to some concept vertex.
  for (graph::VertexId v = 0; v < kg.num_vertices(); ++v) {
    if (kg.vertex(v).category != "wizard" &&
        kg.vertex(v).category != "person") {
      continue;
    }
    // Breadth-first walk over out-edges until a concept vertex appears.
    bool reaches_concept = false;
    std::vector<bool> seen(kg.num_vertices(), false);
    std::deque<graph::VertexId> frontier{v};
    seen[v] = true;
    while (!frontier.empty() && !reaches_concept) {
      const graph::VertexId u = frontier.front();
      frontier.pop_front();
      reaches_concept = kg.vertex(u).category == "concept";
      for (const auto& he : kg.OutEdges(u)) {
        if (!seen[he.neighbor]) {
          seen[he.neighbor] = true;
          frontier.push_back(he.neighbor);
        }
      }
    }
    EXPECT_TRUE(reaches_concept) << kg.vertex(v).label;
  }
}

TEST_P(WorldPropertyTest, MergedGraphRoundTripsThroughText) {
  const data::World world = MakeWorld(40);
  const graph::Graph kg =
      data::BuildKnowledgeGraph(world, text::SynonymLexicon::Default());
  const auto merged = data::BuildPerfectMergedGraph(world, kg);
  auto parsed = graph::FromText(graph::ToText(merged.graph));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->num_vertices(), merged.graph.num_vertices());
  EXPECT_EQ(parsed->num_edges(), merged.graph.num_edges());
  EXPECT_TRUE(parsed->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorldPropertyTest,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// ---------------------------------------------------------------------------
// Dataset invariants across seeds
// ---------------------------------------------------------------------------

class DatasetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DatasetPropertyTest, GoldAnswersReproducibleAndQuotasMet) {
  data::MvqaOptions opts;
  opts.world.num_scenes = 600;
  opts.world.seed = GetParam();
  opts.seed = GetParam() ^ 0xf00d;
  const data::MvqaDataset ds = data::MvqaGenerator(opts).Generate();
  // Small worlds realize fewer facts, so some template instantiations
  // are rejected; the exact-100 guarantee (tested in mvqa_test) holds at
  // the paper's 4,233-scene scale.
  EXPECT_GE(ds.questions.size(), 85u);
  EXPECT_LE(ds.questions.size(), 100u);

  text::EmbeddingModel embeddings(text::SynonymLexicon::Default());
  exec::QueryGraphExecutor executor(&ds.perfect_merged, &embeddings);
  for (const auto& q : ds.questions) {
    auto ans = executor.Execute(q.gold_graph);
    ASSERT_TRUE(ans.ok()) << q.text;
    EXPECT_EQ(ans->text, q.gold_answer) << q.text;
    EXPECT_TRUE(q.gold_graph.TopologicalOrder().ok()) << q.text;
  }
}

TEST_P(DatasetPropertyTest, NonAdversarialQuestionsAllParse) {
  data::MvqaOptions opts;
  opts.world.num_scenes = 500;
  opts.world.seed = GetParam();
  const data::MvqaDataset ds = data::MvqaGenerator(opts).Generate();

  const text::SynonymLexicon lexicon = text::SynonymLexicon::Default();
  query::QueryGraphBuilder builder(&lexicon);
  std::vector<std::string> labels;
  for (graph::VertexId v = 0; v < ds.knowledge_graph.num_vertices(); ++v) {
    labels.push_back(ds.knowledge_graph.vertex(v).label);
  }
  builder.RegisterEntityNames(labels);

  for (const auto& q : ds.questions) {
    if (q.adversarial) continue;
    auto parsed = builder.Build(q.text);
    ASSERT_TRUE(parsed.ok()) << q.text << ": " << parsed.status();
    EXPECT_EQ(parsed->type(), q.type) << q.text;
    EXPECT_EQ(parsed->size(), q.gold_graph.size()) << q.text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatasetPropertyTest,
                         ::testing::Values(3u, 11u, 77u));

// ---------------------------------------------------------------------------
// Pipeline invariants across seeds
// ---------------------------------------------------------------------------

class PipelinePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinePropertyTest, CacheIsAnswerTransparent) {
  data::MvqaOptions opts;
  opts.world.num_scenes = 400;
  opts.world.seed = GetParam();
  const data::MvqaDataset ds = data::MvqaGenerator(opts).Generate();

  text::EmbeddingModel embeddings(text::SynonymLexicon::Default());
  exec::KeyCentricCache cache(exec::KeyCentricCacheOptions{});
  exec::QueryGraphExecutor cached(&ds.perfect_merged, &embeddings, &cache);
  exec::QueryGraphExecutor plain(&ds.perfect_merged, &embeddings);
  for (const auto& q : ds.questions) {
    auto a = cached.Execute(q.gold_graph);
    auto b = plain.Execute(q.gold_graph);
    ASSERT_EQ(a.ok(), b.ok()) << q.text;
    if (a.ok()) {
      EXPECT_EQ(a->text, b->text) << q.text;
    }
  }
  // Second (warm) pass still transparent.
  for (const auto& q : ds.questions) {
    auto a = cached.Execute(q.gold_graph);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->text, q.gold_answer) << q.text;
  }
}

TEST_P(PipelinePropertyTest, TdeNeverLosesToOriginalOnMeanRecall) {
  data::WorldOptions wopts;
  wopts.num_scenes = 250;
  wopts.seed = GetParam();
  const data::World world = data::WorldGenerator(wopts).Generate();
  auto model = std::make_shared<vision::RelationModel>(
      vision::RelationModel::Kind::kNeuralMotifs,
      data::Vocabulary::Default().scene_predicates,
      vision::RelationModel::DefaultOptionsFor(
          vision::RelationModel::Kind::kNeuralMotifs));
  model->FitBias(world.scenes);

  auto evaluate = [&](vision::InferenceMode mode) {
    vision::SceneGraphGenerator gen(vision::SimulatedDetector(), model,
                                    mode);
    vision::SggEvaluator eval(data::Vocabulary::Default().scene_predicates);
    for (const auto& scene : world.scenes) {
      eval.AddScene(scene, gen.Generate(scene));
    }
    return eval.Evaluate().mr_at_100;
  };
  EXPECT_GE(evaluate(vision::InferenceMode::kTde),
            evaluate(vision::InferenceMode::kOriginal));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinePropertyTest,
                         ::testing::Values(5u, 21u, 1001u));

}  // namespace
}  // namespace svqa
