// Grammar coverage grid: every surface construction the MVQA / VQAv2
// templates rely on must parse into the expected query-graph shape.
// This is the contract between the dataset generators and the NL
// pipeline; a parser regression shows up here before it degrades
// accuracy.

#include <gtest/gtest.h>

#include <ostream>

#include "query/query_graph_builder.h"
#include "text/lexicon.h"

namespace svqa::query {
namespace {

struct GrammarCase {
  /// Short case name for the ctest listing; kept unique and short enough
  /// that every full test name fits in 100 characters, the width at which
  /// test reports commonly cut names (question text alone collides there).
  const char* name;
  const char* question;
  nlp::QuestionType type;
  int clauses;
  int edges;
};

/// The discovered ctest names carry the case name in place of the
/// parameter index.
void PrintTo(const GrammarCase& c, std::ostream* os) { *os << c.name; }

class GrammarCoverageTest : public ::testing::TestWithParam<GrammarCase> {
 protected:
  GrammarCoverageTest() : builder_(&lexicon_) {
    builder_.RegisterEntityNames({"harry-potter", "ginny-weasley",
                                  "cho-chang", "dean-thomas",
                                  "fred-weasley", "padma-patil",
                                  "lavender-jones", "oliver-wood"});
  }

  text::SynonymLexicon lexicon_ = text::SynonymLexicon::Default();
  QueryGraphBuilder builder_;
};

TEST_P(GrammarCoverageTest, ParsesIntoExpectedShape) {
  const GrammarCase& c = GetParam();
  auto parsed = builder_.Build(c.question);
  ASSERT_TRUE(parsed.ok()) << c.question << ": " << parsed.status();
  EXPECT_EQ(parsed->type(), c.type) << c.question;
  EXPECT_EQ(parsed->size(), static_cast<std::size_t>(c.clauses))
      << c.question << "\n"
      << parsed->ToString();
  EXPECT_EQ(parsed->edges().size(), static_cast<std::size_t>(c.edges))
      << c.question << "\n"
      << parsed->ToString();
  EXPECT_TRUE(parsed->TopologicalOrder().ok()) << c.question;
}

using nlp::QuestionType;

INSTANTIATE_TEST_SUITE_P(
    Judgment, GrammarCoverageTest,
    ::testing::Values(
        GrammarCase{"dog_near_car",
                    "Does a dog appear near a car?",
                    QuestionType::kJudgment, 1, 0},
        GrammarCase{"bear_on_tv",
                    "Does a bear appear on a tv?",
                    QuestionType::kJudgment, 1, 0},
        GrammarCase{"dog_in_front_of_person",
                    "Does a dog appear in front of the person?",
                    QuestionType::kJudgment, 1, 0},
        GrammarCase{"cat_on_bed_near_car",
                    "Does the cat that is sitting on the bed appear near "
                    "the car?",
                    QuestionType::kJudgment, 2, 1},
        GrammarCase{"wizard_with_cho_chang_wears_robe",
                    "Does the wizard that is hanging out with cho chang "
                    "wear a robe?",
                    QuestionType::kJudgment, 2, 1},
        GrammarCase{"wizard_with_person_holding_phone_wears_scarf",
                    "Does the wizard that is hanging out with the person "
                    "that is holding the phone wear a scarf?",
                    QuestionType::kJudgment, 3, 2},
        GrammarCase{"harry_potter_wears_red_robe",
                    "Does harry potter wear a red robe?",
                    QuestionType::kJudgment, 1, 0},
        GrammarCase{"dog_in_car_on_tree",
                    "Does the dog that is sitting in the car appear on "
                    "the tree?",
                    QuestionType::kJudgment, 2, 1}));

INSTANTIATE_TEST_SUITE_P(
    Counting, GrammarCoverageTest,
    ::testing::Values(
        GrammarCase{"wizards_with_dean_thomas",
                    "How many wizards are hanging out with dean thomas?",
                    QuestionType::kCounting, 1, 0},
        GrammarCase{"persons_with_fred_weasley",
                    "How many persons are hanging out with fred weasley?",
                    QuestionType::kCounting, 1, 0},
        GrammarCase{"wizards_with_person_wearing_scarf",
                    "How many wizards are hanging out with the person "
                    "that is wearing a scarf?",
                    QuestionType::kCounting, 2, 1},
        GrammarCase{"animals_chased_by_dogs_on_grass",
                    "How many kinds of animals are chased by the dogs "
                    "that are sitting on the grass?",
                    QuestionType::kCounting, 2, 1},
        GrammarCase{"clothes_of_wizards_with_person_holding_book",
                    "How many kinds of clothes are worn by the wizards "
                    "that are hanging out with the person that is "
                    "holding the book?",
                    QuestionType::kCounting, 3, 2}));

INSTANTIATE_TEST_SUITE_P(
    Reasoning, GrammarCoverageTest,
    ::testing::Values(
        GrammarCase{"clothes_of_harry_potter",
                    "What kind of clothes is worn by harry potter?",
                    QuestionType::kReasoning, 1, 0},
        GrammarCase{"clothes_of_wizard_with_padma_patil",
                    "What kind of clothes are worn by the wizard who is "
                    "hanging out with padma patil?",
                    QuestionType::kReasoning, 2, 1},
        GrammarCase{"clothes_of_wizard_most_with_harrys_girlfriend",
                    "What kind of clothes are worn by the wizard who is "
                    "most frequently hanging out with harry potter's "
                    "girlfriend?",
                    QuestionType::kReasoning, 2, 1},
        GrammarCase{"clothes_of_wizard_most_with_lavender_jones",
                    "What kind of clothes is worn by the wizard who is "
                    "most frequently hanging out with lavender jones?",
                    QuestionType::kReasoning, 2, 1},
        GrammarCase{"animals_carried_by_pets_in_car",
                    "What kind of animals is carried by the pets that "
                    "were situated in the car?",
                    QuestionType::kReasoning, 2, 1},
        GrammarCase{"animals_chased_by_dogs_on_grass",
                    "What kind of animals is chased by the dogs that are "
                    "sitting on the grass?",
                    QuestionType::kReasoning, 2, 1},
        GrammarCase{"clothes_of_wizard_with_person_holding_umbrella",
                    "What kind of clothes are worn by the wizard who is "
                    "hanging out with the person who is holding the "
                    "umbrella?",
                    QuestionType::kReasoning, 3, 2},
        GrammarCase{"color_of_robe_worn_by_harry_potter",
                    "What is the color of the robe that is worn by "
                    "harry potter?",
                    QuestionType::kReasoning, 2, 1},
        GrammarCase{"color_of_clothes_worn_by_ginny_weasley",
                    "What is the color of the clothes that are worn by "
                    "ginny weasley?",
                    QuestionType::kReasoning, 2, 1},
        GrammarCase{"wizard_most_with_ginny_weasley",
                    "Which wizard is most frequently hanging out with "
                    "ginny weasley?",
                    QuestionType::kReasoning, 1, 0},
        GrammarCase{"wizard_with_person_holding_phone",
                    "Which wizard is hanging out with the person that is "
                    "holding the phone?",
                    QuestionType::kReasoning, 2, 1}));

// The adversarial FW constructions must *fail to resolve the noun*, not
// crash — pinned here so the Figure 8(a) behaviour stays reproducible.
class AdversarialGrammarTest : public ::testing::Test {
 protected:
  AdversarialGrammarTest() : builder_(&lexicon_) {}
  text::SynonymLexicon lexicon_ = text::SynonymLexicon::Default();
  QueryGraphBuilder builder_;
};

TEST_F(AdversarialGrammarTest, ForeignWordsDegradeButDontCrash) {
  for (const char* q :
       {"Does the canis that is sitting on the grass appear near the "
        "person?",
        "What kind of clothes are worn by the magus who is hanging out "
        "with dean thomas?",
        "What kind of animals is carried by the canis that is sitting on "
        "the grass?"}) {
    auto parsed = builder_.Build(q);
    if (!parsed.ok()) continue;  // outright parse failure is acceptable
    for (const auto& spoc : parsed->vertices()) {
      EXPECT_NE(spoc.subject.head, "canis") << q;
      EXPECT_NE(spoc.subject.head, "magus") << q;
    }
  }
}

}  // namespace
}  // namespace svqa::query
