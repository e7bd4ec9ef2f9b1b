#include "exec/executor.h"

#include <gtest/gtest.h>

#include "data/kg_builder.h"
#include "data/mvqa_generator.h"
#include "data/world.h"
#include "exec/relation_pairs.h"
#include "exec/vertex_matcher.h"
#include "text/lexicon.h"

namespace svqa::exec {
namespace {

using query::DependencyKind;
using query::QueryEdge;
using query::QueryGraph;

nlp::SpocElement El(std::string head, bool variable = false,
                    bool want_kind = false, std::string owner = "") {
  nlp::SpocElement e;
  e.text = head;
  e.head = std::move(head);
  e.is_variable = variable;
  e.want_kind = want_kind;
  e.owner = std::move(owner);
  return e;
}

nlp::Spoc MakeSpoc(nlp::SpocElement s, std::string p, nlp::SpocElement o,
                   std::string c = "") {
  nlp::Spoc spoc;
  spoc.subject = std::move(s);
  spoc.predicate = std::move(p);
  spoc.object = std::move(o);
  spoc.constraint = std::move(c);
  return spoc;
}

/// Shared fixture: a small world with a *perfect* merged graph, so
/// executor answers are exactly determined by the world.
class ExecutorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::WorldOptions opts;
    opts.num_scenes = 400;
    opts.seed = 21;
    world_ = new data::World(data::WorldGenerator(opts).Generate());
    kg_ = new graph::Graph(data::BuildKnowledgeGraph(
        *world_, text::SynonymLexicon::Default()));
    merged_ = new aggregator::MergedGraph(
        data::BuildPerfectMergedGraph(*world_, *kg_));
    embeddings_ = new text::EmbeddingModel(text::SynonymLexicon::Default());
    frozen_ = merged_->graph.Freeze();
  }

  static void TearDownTestSuite() {
    frozen_.reset();
    delete merged_;
    delete kg_;
    delete world_;
    delete embeddings_;
    merged_ = nullptr;
    kg_ = nullptr;
    world_ = nullptr;
    embeddings_ = nullptr;
  }

  static data::World* world_;
  static graph::Graph* kg_;
  static aggregator::MergedGraph* merged_;
  static text::EmbeddingModel* embeddings_;
  static std::shared_ptr<const graph::FrozenGraph> frozen_;
};

data::World* ExecutorFixture::world_ = nullptr;
graph::Graph* ExecutorFixture::kg_ = nullptr;
aggregator::MergedGraph* ExecutorFixture::merged_ = nullptr;
text::EmbeddingModel* ExecutorFixture::embeddings_ = nullptr;
std::shared_ptr<const graph::FrozenGraph> ExecutorFixture::frozen_;

// ---------------------------------------------------------------------------
// VertexMatcher
// ---------------------------------------------------------------------------

TEST_F(ExecutorFixture, MatcherFindsCategoryInstances) {
  VertexMatcher matcher(*frozen_, embeddings_);
  const auto dogs = matcher.Match(El("dog"));
  ASSERT_FALSE(dogs.empty());
  int scene_instances = 0;
  for (graph::VertexId v : dogs) {
    const auto& vx = merged_->graph.vertex(v);
    if (vx.source_image != graph::kKnowledgeGraphSource) {
      EXPECT_EQ(vx.category, "dog");
      ++scene_instances;
    }
  }
  EXPECT_GT(scene_instances, 0);
}

TEST_F(ExecutorFixture, MatcherExpandsTaxonomy) {
  VertexMatcher matcher(*frozen_, embeddings_);
  // "animal" reaches dog/cat/bird scene objects through the KG taxonomy.
  const auto animals = matcher.Match(El("animal"));
  bool found_dog = false, found_cat = false;
  for (graph::VertexId v : animals) {
    const auto& vx = merged_->graph.vertex(v);
    if (vx.category == "dog") found_dog = true;
    if (vx.category == "cat") found_cat = true;
  }
  EXPECT_TRUE(found_dog);
  EXPECT_TRUE(found_cat);
}

TEST_F(ExecutorFixture, MatcherSynonymsResolve) {
  VertexMatcher matcher(*frozen_, embeddings_);
  // "puppy" is a synonym of dog: the canonical index must resolve it.
  EXPECT_FALSE(matcher.Match(El("puppy")).empty());
}

TEST_F(ExecutorFixture, MatcherResolvesNamedEntity) {
  VertexMatcher matcher(*frozen_, embeddings_);
  const auto harrys = matcher.Match(El("harry-potter"));
  ASSERT_FALSE(harrys.empty());
  bool kg_vertex = false, scene_vertex = false;
  for (graph::VertexId v : harrys) {
    const auto& vx = merged_->graph.vertex(v);
    EXPECT_EQ(vx.label, "harry-potter");
    if (vx.source_image == graph::kKnowledgeGraphSource) {
      kg_vertex = true;
    } else {
      scene_vertex = true;
    }
  }
  EXPECT_TRUE(kg_vertex);
  EXPECT_TRUE(scene_vertex);  // via same-as expansion
}

TEST_F(ExecutorFixture, MatcherResolvesPossessive) {
  VertexMatcher matcher(*frozen_, embeddings_);
  // Harry's girlfriends are ginny and cho by world construction.
  const auto gfs =
      matcher.Match(El("girlfriend", false, false, "harry potter"));
  ASSERT_FALSE(gfs.empty());
  bool ginny = false, cho = false;
  for (graph::VertexId v : gfs) {
    const auto& label = merged_->graph.vertex(v).label;
    if (label == "ginny-weasley") ginny = true;
    if (label == "cho-chang") cho = true;
  }
  EXPECT_TRUE(ginny);
  EXPECT_TRUE(cho);
}

TEST_F(ExecutorFixture, MatcherEmptyElementYieldsNothing) {
  VertexMatcher matcher(*frozen_, embeddings_);
  EXPECT_TRUE(matcher.Match(El("")).empty());
}

TEST_F(ExecutorFixture, MatcherUnknownHeadYieldsNothing) {
  VertexMatcher matcher(*frozen_, embeddings_);
  EXPECT_TRUE(matcher.Match(El("unobtainium")).empty());
}

TEST_F(ExecutorFixture, MatcherChargesScanCostsWithoutIndex) {
  VertexMatcherOptions opts;
  opts.use_label_index = false;
  VertexMatcher matcher(*frozen_, embeddings_, opts);
  SimClock clock;
  matcher.Match(El("dog"), &clock);
  // The pre-index model charges a full scan regardless of the physical
  // fast path.
  EXPECT_GE(clock.OpCount(CostKind::kVertexCompare),
            static_cast<double>(merged_->graph.num_vertices()));
  EXPECT_GE(clock.OpCount(CostKind::kLevenshtein),
            static_cast<double>(merged_->graph.num_vertices()));
}

TEST_F(ExecutorFixture, MatcherIndexChargesBucketProbe) {
  VertexMatcher matcher(*frozen_, embeddings_);  // index on by default
  SimClock clock;
  const auto matches = matcher.Match(El("dog"), &clock);
  ASSERT_FALSE(matches.empty());
  // An exact-key hit charges the probe plus one compare per bucket
  // entry — far below the full scan — and no Levenshtein at all.
  EXPECT_GT(clock.OpCount(CostKind::kCacheProbe), 0);
  EXPECT_LT(clock.OpCount(CostKind::kVertexCompare),
            static_cast<double>(merged_->graph.num_vertices()));
  EXPECT_DOUBLE_EQ(clock.OpCount(CostKind::kLevenshtein), 0);
}

TEST_F(ExecutorFixture, MatcherIndexNearMissFallsBackToFullScan) {
  VertexMatcher matcher(*frozen_, embeddings_);
  SimClock clock;
  // "dogg" is a near-miss key: no exact bucket, so the Levenshtein scan
  // runs (and is charged) exactly as in the unindexed model.
  const auto indexed = matcher.Match(El("dogg"), &clock);
  EXPECT_GE(clock.OpCount(CostKind::kLevenshtein),
            static_cast<double>(merged_->graph.num_vertices()));

  VertexMatcherOptions opts;
  opts.use_label_index = false;
  VertexMatcher scan_matcher(*frozen_, embeddings_, opts);
  EXPECT_EQ(indexed, scan_matcher.Match(El("dogg")));
}

TEST(ScopeKeyTest, EncodesHeadAndOwner) {
  EXPECT_EQ(VertexMatcher::ScopeKey(El("dog")), "scope:dog");
  EXPECT_EQ(VertexMatcher::ScopeKey(El("girlfriend", false, false,
                                       "harry potter")),
            "scope:girlfriend|owner=harry potter");
}

// ---------------------------------------------------------------------------
// Relation pairs
// ---------------------------------------------------------------------------

TEST(RelationPairsTest, FindsForwardAndBackwardEdges) {
  graph::Graph g;
  const auto a = g.AddVertex("a", "t");
  const auto b = g.AddVertex("b", "t");
  const auto c = g.AddVertex("c", "t");
  ASSERT_TRUE(g.AddEdge(a, b, "r").ok());
  ASSERT_TRUE(g.AddEdge(c, a, "s").ok());
  const auto frozen = g.Freeze();
  const std::vector<graph::VertexId> subs = {a};
  const std::vector<graph::VertexId> objs = {b, c};
  const auto pairs = FindRelationPairs(*frozen, subs, objs);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].subject, a);
  EXPECT_EQ(pairs[0].object, b);
  EXPECT_EQ(frozen->EdgeLabelName(pairs[0].label), "r");
  EXPECT_TRUE(pairs[0].forward);
  EXPECT_EQ(pairs[1].subject, a);
  EXPECT_EQ(pairs[1].object, c);
  EXPECT_EQ(frozen->EdgeLabelName(pairs[1].label), "s");
  EXPECT_FALSE(pairs[1].forward);

  // Scanning the object side (fewer objects than subjects) yields the
  // same roles and directions.
  const std::vector<graph::VertexId> many_subs = {b, c};
  const std::vector<graph::VertexId> one_obj = {a};
  const auto flipped = FindRelationPairs(*frozen, many_subs, one_obj);
  ASSERT_EQ(flipped.size(), 2u);
  EXPECT_EQ(flipped[0].subject, b);
  EXPECT_EQ(frozen->EdgeLabelName(flipped[0].label), "r");
  EXPECT_FALSE(flipped[0].forward);
  EXPECT_EQ(flipped[1].subject, c);
  EXPECT_EQ(frozen->EdgeLabelName(flipped[1].label), "s");
  EXPECT_TRUE(flipped[1].forward);
}

TEST(RelationPairsTest, EmptyInputsYieldNothing) {
  graph::Graph g;
  g.AddVertex("a", "t");
  const auto frozen = g.Freeze();
  const std::vector<graph::VertexId> none;
  const std::vector<graph::VertexId> zero = {0};
  EXPECT_TRUE(FindRelationPairs(*frozen, none, zero).empty());
  EXPECT_TRUE(FindRelationPairs(*frozen, zero, none).empty());
}

TEST(RelationPairsTest, ChargesTraversalCosts) {
  graph::Graph g;
  const auto a = g.AddVertex("a", "t");
  const auto b = g.AddVertex("b", "t");
  ASSERT_TRUE(g.AddEdge(a, b, "r").ok());
  const auto frozen = g.Freeze();
  SimClock clock;
  const std::vector<graph::VertexId> subs = {a};
  const std::vector<graph::VertexId> objs = {b};
  FindRelationPairs(*frozen, subs, objs, &clock);
  EXPECT_GT(clock.OpCount(CostKind::kEdgeTraverse), 0);
}

// ---------------------------------------------------------------------------
// Executor end-to-end over the perfect merged graph
// ---------------------------------------------------------------------------

TEST_F(ExecutorFixture, JudgmentYes) {
  QueryGraphExecutor executor(merged_, embeddings_);
  // dog-on-grass exists by pattern construction in any decent sample.
  QueryGraph g("", nlp::QuestionType::kJudgment,
               {MakeSpoc(El("dog"), "on", El("grass"))}, {});
  auto ans = executor.Execute(g);
  ASSERT_TRUE(ans.ok()) << ans.status();
  EXPECT_TRUE(ans->yes);
  EXPECT_EQ(ans->text, "yes");
}

TEST_F(ExecutorFixture, JudgmentNo) {
  QueryGraphExecutor executor(merged_, embeddings_);
  QueryGraph g("", nlp::QuestionType::kJudgment,
               {MakeSpoc(El("horse"), "under", El("laptop"))}, {});
  auto ans = executor.Execute(g);
  ASSERT_TRUE(ans.ok());
  EXPECT_FALSE(ans->yes);
  EXPECT_EQ(ans->text, "no");
}

TEST_F(ExecutorFixture, ReasoningKindAnswer) {
  QueryGraphExecutor executor(merged_, embeddings_);
  // What kind of animals is carried by dogs? -> bird (only carry pattern).
  QueryGraph g("", nlp::QuestionType::kReasoning,
               {MakeSpoc(El("dog"), "carry", El("animal", true, true))},
               {});
  auto ans = executor.Execute(g);
  ASSERT_TRUE(ans.ok());
  EXPECT_EQ(ans->text, "bird");
}

TEST_F(ExecutorFixture, CountingDistinctIdentities) {
  QueryGraphExecutor executor(merged_, embeddings_);
  QueryGraph g("", nlp::QuestionType::kCounting,
               {MakeSpoc(El("wizard", true), "hang-out",
                         El("ginny-weasley"))},
               {});
  auto ans = executor.Execute(g);
  ASSERT_TRUE(ans.ok());
  EXPECT_GT(ans->count, 0);
  // Re-running yields the same count (deterministic).
  EXPECT_EQ(executor.Execute(g)->count, ans->count);
}

TEST_F(ExecutorFixture, TwoVertexChainBindsSubject) {
  QueryGraphExecutor executor(merged_, embeddings_);
  // Unconstrained: what do wizards wear? (multiple kinds). Constrained
  // via a chain to a specific companion: a single wizard's clothing.
  QueryGraph chained(
      "", nlp::QuestionType::kReasoning,
      {MakeSpoc(El("wizard"), "wear", El("clothes", true, true)),
       MakeSpoc(El("wizard"), "hang-out", El("ginny-weasley"))},
      {QueryEdge{1, 0, DependencyKind::kS2S}});
  auto ans = executor.Execute(chained);
  ASSERT_TRUE(ans.ok());
  EXPECT_FALSE(ans->entities.empty());
  // The answer must be one of the clothing categories.
  const auto& vocab = world_->vocab;
  EXPECT_TRUE(std::find(vocab.clothing_categories.begin(),
                        vocab.clothing_categories.end(),
                        ans->text) != vocab.clothing_categories.end())
      << ans->text;
}

TEST_F(ExecutorFixture, MostFrequentlyConstraintSelectsArgmax) {
  QueryGraphExecutor executor(merged_, embeddings_);
  QueryGraph g(
      "", nlp::QuestionType::kReasoning,
      {MakeSpoc(El("wizard"), "wear", El("clothes", true, true)),
       MakeSpoc(El("wizard"), "hang-out",
                El("girlfriend", false, false, "harry potter"),
                "most frequently")},
      {QueryEdge{1, 0, DependencyKind::kS2S}});
  auto ans = executor.Execute(g);
  ASSERT_TRUE(ans.ok());
  EXPECT_FALSE(ans->entities.empty());
}

TEST_F(ExecutorFixture, EmptyQueryGraphRejected) {
  QueryGraphExecutor executor(merged_, embeddings_);
  EXPECT_TRUE(
      executor.Execute(QueryGraph()).status().IsInvalidArgument());
}

TEST_F(ExecutorFixture, CacheSpeedsUpRepeatedQueries) {
  KeyCentricCacheOptions copts;
  copts.capacity = 100;
  KeyCentricCache cache(copts);
  QueryGraphExecutor executor(merged_, embeddings_, &cache);
  QueryGraph g("", nlp::QuestionType::kJudgment,
               {MakeSpoc(El("dog"), "on", El("grass"))}, {});
  SimClock cold, warm;
  auto first = executor.Execute(g, &cold);
  auto second = executor.Execute(g, &warm);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->text, second->text);
  EXPECT_LT(warm.ElapsedMicros(), cold.ElapsedMicros() * 0.5);
}

TEST_F(ExecutorFixture, CacheDoesNotChangeAnswers) {
  KeyCentricCache cache(KeyCentricCacheOptions{});
  QueryGraphExecutor with_cache(merged_, embeddings_, &cache);
  QueryGraphExecutor without_cache(merged_, embeddings_);
  const QueryGraph graphs[] = {
      QueryGraph("", nlp::QuestionType::kJudgment,
                 {MakeSpoc(El("cat"), "on", El("bed"))}, {}),
      QueryGraph("", nlp::QuestionType::kReasoning,
                 {MakeSpoc(El("dog"), "chase", El("animal", true, true))},
                 {}),
      QueryGraph("", nlp::QuestionType::kCounting,
                 {MakeSpoc(El("wizard", true), "hang-out",
                           El("cho-chang"))},
                 {}),
  };
  for (const auto& g : graphs) {
    auto a = with_cache.Execute(g);
    auto b = without_cache.Execute(g);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->text, b->text);
    // Warm second pass, still identical.
    EXPECT_EQ(with_cache.Execute(g)->text, b->text);
  }
}

// ---------------------------------------------------------------------------
// KeyCentricCache unit behaviour
// ---------------------------------------------------------------------------

ScopeValue Scope(std::vector<graph::VertexId> ids) {
  return std::make_shared<const std::vector<graph::VertexId>>(std::move(ids));
}

PathValue Path(std::vector<RelationPair> pairs) {
  return std::make_shared<const std::vector<RelationPair>>(std::move(pairs));
}

TEST(KeyCentricCacheTest, ScopeRoundTrip) {
  KeyCentricCache cache(KeyCentricCacheOptions{});
  EXPECT_FALSE(cache.GetScope("k").has_value());
  const ScopeValue stored = Scope({1, 2, 3});
  cache.PutScope("k", stored);
  auto hit = cache.GetScope("k");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(**hit, (std::vector<graph::VertexId>{1, 2, 3}));
  // A hit shares the stored entry instead of copying it out.
  EXPECT_EQ(hit->get(), stored.get());
}

TEST(KeyCentricCacheTest, PathRoundTrip) {
  KeyCentricCache cache(KeyCentricCacheOptions{});
  cache.PutPath("p", Path({RelationPair{1, 2, 7, true}}));
  auto hit = cache.GetPath("p");
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ((*hit)->size(), 1u);
  EXPECT_EQ((**hit)[0].subject, 1u);
  EXPECT_EQ((**hit)[0].object, 2u);
  EXPECT_EQ((**hit)[0].label, 7u);
  EXPECT_TRUE((**hit)[0].forward);
}

TEST(KeyCentricCacheTest, DisabledGranularityMisses) {
  KeyCentricCacheOptions opts;
  opts.enable_scope = false;
  KeyCentricCache cache(opts);
  cache.PutScope("k", Scope({1}));
  EXPECT_FALSE(cache.GetScope("k").has_value());
  cache.PutPath("p", Path({}));
  EXPECT_TRUE(cache.GetPath("p").has_value());
}

TEST(KeyCentricCacheTest, ZeroCapacityDisablesBoth) {
  KeyCentricCacheOptions opts;
  opts.capacity = 0;
  KeyCentricCache cache(opts);
  cache.PutScope("k", Scope({1}));
  cache.PutPath("p", Path({}));
  EXPECT_FALSE(cache.GetScope("k").has_value());
  EXPECT_FALSE(cache.GetPath("p").has_value());
}

TEST(KeyCentricCacheTest, LruPolicySelectable) {
  KeyCentricCacheOptions opts;
  opts.policy = CachePolicy::kLru;
  opts.capacity = 1;
  KeyCentricCache cache(opts);
  cache.PutScope("a", Scope({1}));
  cache.PutScope("b", Scope({2}));
  EXPECT_FALSE(cache.GetScope("a").has_value());
  EXPECT_TRUE(cache.GetScope("b").has_value());
}

TEST(KeyCentricCacheTest, StatsTrackHitsAndMisses) {
  KeyCentricCache cache(KeyCentricCacheOptions{});
  SimClock clock;
  const ExecContext ctx = ExecContext::WithClock(&clock);
  EXPECT_FALSE(cache.GetScope("x", ctx).has_value());
  cache.PutScope("x", Scope({}), ctx);
  EXPECT_TRUE(cache.GetScope("x", ctx).has_value());
  EXPECT_EQ(cache.ScopeStats().hits, 1u);
  EXPECT_EQ(cache.ScopeStats().misses, 1u);
  // Each Get charges one probe; a Put charges nothing.
  EXPECT_DOUBLE_EQ(clock.OpCount(CostKind::kCacheProbe), 2);
}

TEST(KeyCentricCacheTest, PolicyNames) {
  EXPECT_STREQ(CachePolicyName(CachePolicy::kLfu), "LFU");
  EXPECT_STREQ(CachePolicyName(CachePolicy::kLru), "LRU");
}

}  // namespace
}  // namespace svqa::exec
