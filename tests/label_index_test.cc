// Property test for the inverted label/category index: on randomized
// merged graphs, the indexed matcher must return exactly the vertex set
// the paper's full-scan matcher returns — for exact labels, hyponym
// (taxonomy) expansion, near-miss tokens that force the Levenshtein
// fallback, attribute-constrained elements, and possessive paths —
// while charging strictly fewer vertex comparisons on index hits.

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "data/kg_builder.h"
#include "data/mvqa_generator.h"
#include "data/vocabulary.h"
#include "data/world.h"
#include "exec/vertex_matcher.h"
#include "text/lexicon.h"

namespace svqa::exec {
namespace {

nlp::SpocElement El(std::string head) {
  nlp::SpocElement e;
  e.text = head;
  e.head = std::move(head);
  return e;
}

/// Mutates one character of `word` so the index key misses but the
/// normalized Levenshtein distance stays under the match threshold.
std::string NearMiss(std::string word, std::mt19937& rng) {
  if (word.size() < 4) return word + "x";
  std::uniform_int_distribution<std::size_t> pos(0, word.size() - 1);
  word[pos(rng)] = 'q';
  return word;
}

class LabelIndexFixture : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    data::WorldOptions opts;
    opts.num_scenes = 80;
    opts.seed = GetParam();
    world_ = data::WorldGenerator(opts).Generate();
    kg_ = data::BuildKnowledgeGraph(world_, text::SynonymLexicon::Default());
    merged_ = data::BuildPerfectMergedGraph(world_, kg_);
    frozen_ = merged_.graph.Freeze();
    embeddings_ = text::EmbeddingModel(text::SynonymLexicon::Default());
  }

  /// Elements spanning every match path: category labels (bucket hits),
  /// taxonomy roots (hyponym expansion), misspellings (Levenshtein
  /// fallback), attribute constraints, possessives, and garbage.
  std::vector<nlp::SpocElement> ProbeElements() {
    std::mt19937 rng(GetParam() * 7919 + 17);
    const auto vocab = data::Vocabulary::Default();
    std::vector<nlp::SpocElement> elements;
    for (const auto& c : vocab.object_categories) elements.push_back(El(c));
    for (const std::string root : {"animal", "clothes", "vehicle"}) {
      elements.push_back(El(root));
    }
    std::uniform_int_distribution<std::size_t> pick(
        0, vocab.object_categories.size() - 1);
    for (int i = 0; i < 12; ++i) {
      elements.push_back(El(NearMiss(vocab.object_categories[pick(rng)], rng)));
    }
    for (const auto& [name, category] : vocab.characters) {
      elements.push_back(El(name));
      nlp::SpocElement poss = El("girlfriend");
      poss.owner = name;
      poss.text = name + "'s girlfriend";
      elements.push_back(poss);
      nlp::SpocElement team = El("team");
      team.owner = name;
      elements.push_back(team);
    }
    if (!vocab.attributes.empty()) {
      nlp::SpocElement attr = El(vocab.object_categories[0]);
      attr.attribute = vocab.attributes[0];
      elements.push_back(attr);
    }
    elements.push_back(El("zzzznotaword"));
    return elements;
  }

  data::World world_;
  graph::Graph kg_;
  aggregator::MergedGraph merged_;
  std::shared_ptr<const graph::FrozenGraph> frozen_;
  text::EmbeddingModel embeddings_{text::SynonymLexicon::Default()};
};

TEST_P(LabelIndexFixture, IndexedMatchEqualsFullScan) {
  VertexMatcherOptions indexed_opts;  // defaults: index + memo on
  VertexMatcherOptions scan_opts;
  scan_opts.use_label_index = false;
  scan_opts.memoize_similarity = false;
  const VertexMatcher indexed(*frozen_, &embeddings_, indexed_opts);
  const VertexMatcher scan(*frozen_, &embeddings_, scan_opts);

  for (const auto& element : ProbeElements()) {
    SimClock indexed_clock;
    SimClock scan_clock;
    const auto via_index = indexed.Match(element, &indexed_clock);
    const auto via_scan = scan.Match(element, &scan_clock);
    // Match() documents a sorted, deduplicated result; equality is exact.
    EXPECT_EQ(via_index, via_scan)
        << "head='" << element.head << "' owner='" << element.owner << "'";
    EXPECT_LE(indexed_clock.OpCount(CostKind::kVertexCompare),
              scan_clock.OpCount(CostKind::kVertexCompare))
        << "head='" << element.head << "'";
  }
}

TEST_P(LabelIndexFixture, ExactLabelsSkipTheLevenshteinScan) {
  const VertexMatcher indexed(*frozen_, &embeddings_);
  const auto vocab = data::Vocabulary::Default();
  for (const auto& category : vocab.object_categories) {
    SimClock clock;
    const auto result = indexed.Match(El(category), &clock);
    if (result.empty()) continue;  // category absent from this world
    EXPECT_DOUBLE_EQ(clock.OpCount(CostKind::kLevenshtein), 0)
        << category;
    EXPECT_LT(clock.OpCount(CostKind::kVertexCompare),
              static_cast<double>(merged_.graph.num_vertices()))
        << category;
  }
}

TEST_P(LabelIndexFixture, RepeatedPossessivesHitTheSimilarityMemo) {
  const VertexMatcher matcher(*frozen_, &embeddings_);
  nlp::SpocElement poss = El("girlfriend");
  poss.owner = "harry potter";
  SimClock first;
  const auto a = matcher.Match(poss, &first);
  SimClock second;
  const auto b = matcher.Match(poss, &second);
  EXPECT_EQ(a, b);
  const MemoStats stats = matcher.similarity_memo_stats();
  EXPECT_GE(stats.hits, 1u);
  // The memoized repeat charges fewer embedding sweeps.
  EXPECT_LE(second.OpCount(CostKind::kEmbeddingSim),
            first.OpCount(CostKind::kEmbeddingSim));
}

INSTANTIATE_TEST_SUITE_P(RandomWorlds, LabelIndexFixture,
                         ::testing::Values(3u, 41u, 271u, 6563u));

}  // namespace
}  // namespace svqa::exec
