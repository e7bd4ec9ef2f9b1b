#include "text/inflection.h"

#include <gtest/gtest.h>

#include <ostream>

namespace svqa::text {
namespace {

struct LemmaCase {
  const char* input;
  const char* expected;
};

/// Readable parameter text (`worn_to_wear`); the discovered ctest names
/// carry it in place of the parameter index.
void PrintTo(const LemmaCase& c, std::ostream* os) {
  *os << c.input << "_to_" << c.expected;
}

class VerbLemmaTest : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(VerbLemmaTest, Lemmatizes) {
  EXPECT_EQ(VerbLemma(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Irregular, VerbLemmaTest,
    ::testing::Values(LemmaCase{"worn", "wear"}, LemmaCase{"wore", "wear"},
                      LemmaCase{"held", "hold"}, LemmaCase{"sat", "sit"},
                      LemmaCase{"ridden", "ride"}, LemmaCase{"ate", "eat"},
                      LemmaCase{"is", "be"}, LemmaCase{"are", "be"},
                      LemmaCase{"was", "be"}, LemmaCase{"been", "be"},
                      LemmaCase{"situated", "sit"},
                      LemmaCase{"caught", "catch"}));

INSTANTIATE_TEST_SUITE_P(
    Progressive, VerbLemmaTest,
    ::testing::Values(LemmaCase{"sitting", "sit"},
                      LemmaCase{"running", "run"},
                      LemmaCase{"riding", "ride"},
                      LemmaCase{"chasing", "chase"},
                      LemmaCase{"hanging", "hang"},
                      LemmaCase{"watching", "watch"},
                      LemmaCase{"holding", "hold"},
                      LemmaCase{"wearing", "wear"}));

INSTANTIATE_TEST_SUITE_P(
    PastAndThirdPerson, VerbLemmaTest,
    ::testing::Values(LemmaCase{"walked", "walk"},
                      LemmaCase{"carried", "carry"},
                      LemmaCase{"jumped", "jump"},
                      LemmaCase{"wears", "wear"},
                      LemmaCase{"watches", "watch"},
                      LemmaCase{"carries", "carry"},
                      LemmaCase{"holds", "hold"}));

TEST(VerbLemmaTest, UnknownWordPassesThrough) {
  EXPECT_EQ(VerbLemma("zork"), "zork");
}

struct NounCase {
  const char* input;
  const char* expected;
};

void PrintTo(const NounCase& c, std::ostream* os) {
  *os << c.input << "_to_" << c.expected;
}

class SingularNounTest : public ::testing::TestWithParam<NounCase> {};

TEST_P(SingularNounTest, Singularizes) {
  EXPECT_EQ(SingularNoun(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SingularNounTest,
    ::testing::Values(NounCase{"dogs", "dog"}, NounCase{"wizards", "wizard"},
                      NounCase{"people", "person"},
                      NounCase{"children", "child"},
                      NounCase{"clothes", "clothes"},
                      NounCase{"buses", "bus"}, NounCase{"movies", "movie"},
                      NounCase{"watches", "watch"},
                      NounCase{"kinds", "kind"}, NounCase{"cat", "cat"},
                      NounCase{"grass", "grass"}, NounCase{"men", "man"}));

TEST(BeVerbTest, RecognizesCopulaForms) {
  for (const char* w : {"is", "are", "was", "were", "be", "been", "being"}) {
    EXPECT_TRUE(IsBeVerb(w)) << w;
  }
  EXPECT_FALSE(IsBeVerb("wear"));
  EXPECT_FALSE(IsBeVerb("does"));
}

TEST(AuxiliaryTest, IncludesDoAndHaveFamilies) {
  for (const char* w : {"does", "do", "did", "has", "have", "had", "will",
                        "is", "are"}) {
    EXPECT_TRUE(IsAuxiliary(w)) << w;
  }
  EXPECT_FALSE(IsAuxiliary("run"));
}

TEST(PastParticipleTest, IrregularsAndHeuristics) {
  EXPECT_TRUE(IsPastParticiple("worn"));
  EXPECT_TRUE(IsPastParticiple("ridden"));
  EXPECT_TRUE(IsPastParticiple("carried"));
  EXPECT_TRUE(IsPastParticiple("situated"));
  EXPECT_FALSE(IsPastParticiple("wear"));
  EXPECT_FALSE(IsPastParticiple("dog"));
}

}  // namespace
}  // namespace svqa::text
