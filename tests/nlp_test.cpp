// Tests for the NLP substrate: tokenizer, lexicon morphology, POS tagging,
// the structured-English grammar parser, and typed-dependency extraction.
#include <gtest/gtest.h>

#include <string>

#include "nlp/dependency.hpp"
#include "nlp/lexicon.hpp"
#include "nlp/syntax.hpp"
#include "nlp/tokenizer.hpp"
#include "util/diagnostics.hpp"

namespace nlp = speccc::nlp;
using nlp::Pos;

namespace {

const nlp::Lexicon& lex() {
  static nlp::Lexicon lexicon = nlp::Lexicon::builtin();
  return lexicon;
}

TEST(Tokenizer, SplitsWordsAndPunctuation) {
  const auto words = nlp::tokenize("When auto-control mode is entered, eventually!");
  EXPECT_EQ(words, (std::vector<std::string>{"When", "auto", "control", "mode",
                                             "is", "entered", ",", "eventually"}));
}

TEST(Tokenizer, KeepsNumbersWhole) {
  const auto words = nlp::tokenize("in 180 seconds.");
  EXPECT_EQ(words, (std::vector<std::string>{"in", "180", "seconds", "."}));
}

TEST(Morphology, RegularInflections) {
  const auto terminated = lex().analyze_verb("terminated");
  ASSERT_TRUE(terminated.has_value());
  EXPECT_EQ(terminated->lemma, "terminate");
  EXPECT_EQ(terminated->form, nlp::VerbForm::kPastParticiple);

  const auto pressed = lex().analyze_verb("pressed");
  ASSERT_TRUE(pressed.has_value());
  EXPECT_EQ(pressed->lemma, "press");

  const auto plugged = lex().analyze_verb("plugged");
  ASSERT_TRUE(plugged.has_value());
  EXPECT_EQ(plugged->lemma, "plug");  // undoubling

  const auto carried = lex().analyze_verb("carried");
  ASSERT_TRUE(carried.has_value());
  EXPECT_EQ(carried->lemma, "carry");  // -ied -> y

  const auto remains = lex().analyze_verb("remains");
  ASSERT_TRUE(remains.has_value());
  EXPECT_EQ(remains->lemma, "remain");
  EXPECT_EQ(remains->form, nlp::VerbForm::kThirdPerson);
}

TEST(Morphology, IrregularInflections) {
  const auto lost = lex().analyze_verb("lost");
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->lemma, "lose");
  const auto running = lex().analyze_verb("running");
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->lemma, "run");
  EXPECT_EQ(running->form, nlp::VerbForm::kGerund);
}

TEST(Morphology, NonVerbsRejected) {
  EXPECT_FALSE(lex().analyze_verb("cuff").has_value());
  EXPECT_FALSE(lex().analyze_verb("available").has_value());
}

TEST(Lexicon, TimeUnits) {
  EXPECT_EQ(lex().time_unit_seconds("seconds"), 1u);
  EXPECT_EQ(lex().time_unit_seconds("minute"), 60u);
  EXPECT_FALSE(lex().time_unit_seconds("cuff").has_value());
}

TEST(Lexicon, UnknownWordsFallBackBySuffix) {
  EXPECT_EQ(*lex().lookup("frobnicable").begin(), Pos::kAdjective);
  EXPECT_EQ(*lex().lookup("xyzzy").begin(), Pos::kNoun);
  EXPECT_EQ(*lex().lookup("rapidly").begin(), Pos::kAdverb);
}

TEST(Tagger, ContextDisambiguation) {
  const auto tokens = nlp::analyze("the control mode is running", lex());
  // "control" after determiner reads as a noun; "running" after be is the
  // progressive verb.
  EXPECT_EQ(tokens[1].pos, Pos::kNoun);
  EXPECT_EQ(tokens[3].pos, Pos::kBe);
  EXPECT_EQ(tokens[4].pos, Pos::kVerb);
  EXPECT_EQ(tokens[4].lemma, "run");
}

TEST(Tagger, CapitalizationMidSentenceIsRecorded) {
  const auto tokens = nlp::analyze("If Air Ok signal remains low", lex());
  EXPECT_TRUE(tokens[1].capitalized);   // Air
  EXPECT_TRUE(tokens[2].capitalized);   // Ok
  EXPECT_FALSE(tokens[3].capitalized);  // signal
  // Sentence-initial capitalization does not count.
  const auto first = nlp::analyze("Air is low", lex());
  EXPECT_FALSE(first[0].capitalized);
}

TEST(Tagger, BeFormsAlwaysWin) {
  const auto tokens = nlp::analyze("the pump is off", lex());
  EXPECT_EQ(tokens[2].pos, Pos::kBe);
}

// ---- Grammar parser ---------------------------------------------------------

TEST(Syntax, SimpleConditional) {
  const auto s = nlp::parse_sentence(
      "If an occlusion is detected, the alarm is issued.", lex());
  ASSERT_EQ(s.conditions.size(), 1u);
  EXPECT_EQ(s.conditions[0].subordinator, "if");
  ASSERT_EQ(s.conditions[0].clauses.size(), 1u);
  const auto& cond = s.conditions[0].clauses[0].second;
  EXPECT_EQ(cond.subjects[0].joined(), "occlusion");
  EXPECT_EQ(cond.predicate.kind, nlp::PredicateKind::kPassive);
  EXPECT_EQ(cond.predicate.verb_lemma, "detect");
  ASSERT_EQ(s.main.clauses.size(), 1u);
  EXPECT_EQ(s.main.clauses[0].second.predicate.verb_lemma, "issue");
}

TEST(Syntax, Figure2SentenceStructure) {
  // The paper's Fig. 2 example.
  const auto s = nlp::parse_sentence(
      "When auto-control mode is entered, eventually the cuff will be "
      "inflated.",
      lex());
  ASSERT_EQ(s.conditions.size(), 1u);
  EXPECT_EQ(s.conditions[0].subordinator, "when");
  EXPECT_EQ(s.conditions[0].clauses[0].second.subjects[0].joined(),
            "auto_control_mode");
  const auto& main = s.main.clauses[0].second;
  EXPECT_EQ(main.modifier, "eventually");
  EXPECT_EQ(main.subjects[0].joined(), "cuff");
  EXPECT_TRUE(main.predicate.future);
  EXPECT_EQ(main.predicate.verb_lemma, "inflate");
  // The rendered tree mentions the ingredients of Fig. 2.
  const std::string tree = nlp::syntax_tree(s);
  EXPECT_NE(tree.find("subordinator: when"), std::string::npos);
  EXPECT_NE(tree.find("modifier: eventually"), std::string::npos);
  EXPECT_NE(tree.find("auto_control_mode"), std::string::npos);
}

TEST(Syntax, SubjectCoordinationBeforePredicate) {
  const auto s = nlp::parse_sentence(
      "If arterial line and pulse wave are corroborated, the cuff is "
      "selected.",
      lex());
  const auto& cond = s.conditions[0].clauses[0].second;
  ASSERT_EQ(cond.subjects.size(), 2u);
  EXPECT_EQ(cond.subjects[0].joined(), "arterial_line");
  EXPECT_EQ(cond.subjects[1].joined(), "pulse_wave");
  EXPECT_EQ(cond.subject_conjunction, "and");
}

TEST(Syntax, ClauseCoordinationAfterPredicate) {
  const auto s = nlp::parse_sentence(
      "If the pump is detected, an alarm is issued and override selection is "
      "provided.",
      lex());
  ASSERT_EQ(s.main.clauses.size(), 2u);
  EXPECT_EQ(s.main.clauses[1].first, "and");
  EXPECT_EQ(s.main.clauses[1].second.predicate.verb_lemma, "provide");
}

TEST(Syntax, PredicatelessConjunctionSegmentMergesForward) {
  // The Req-42 shape: "..., and the arterial line, or pulse wave or cuff is
  // lost, ...".
  const auto s = nlp::parse_sentence(
      "When auto control mode is running, and the arterial line, or pulse "
      "wave or cuff is lost, an alarm should sound in 60 seconds.",
      lex());
  ASSERT_EQ(s.conditions.size(), 1u);
  ASSERT_EQ(s.conditions[0].clauses.size(), 2u);
  const auto& lost = s.conditions[0].clauses[1].second;
  ASSERT_EQ(lost.subjects.size(), 3u);
  EXPECT_EQ(lost.subject_conjunction, "or");
  const auto& main = s.main.clauses[0].second;
  EXPECT_EQ(main.predicate.kind, nlp::PredicateKind::kActive);
  EXPECT_EQ(main.predicate.verb_lemma, "sound");
  ASSERT_TRUE(main.constraint.has_value());
  EXPECT_EQ(main.constraint->value, 60u);
}

TEST(Syntax, TrailingUntilSubclause) {
  const auto s = nlp::parse_sentence(
      "When a start auto control button is enabled, the start auto control "
      "button is enabled until it is pressed.",
      lex());
  ASSERT_TRUE(s.until.has_value());
  EXPECT_EQ(s.until->subordinator, "until");
  EXPECT_TRUE(s.until->clauses[0].second.subjects[0].pronoun);
}

TEST(Syntax, TrailingConditionWithoutComma) {
  const auto s = nlp::parse_sentence(
      "The CARA will be operational whenever the LSTAT is powered on.", lex());
  ASSERT_EQ(s.conditions.size(), 1u);
  EXPECT_EQ(s.conditions[0].subordinator, "whenever");
  // The phrasal particle "on" is swallowed.
  EXPECT_EQ(s.conditions[0].clauses[0].second.predicate.verb_lemma, "power");
}

TEST(Syntax, TimeConstraintInAntecedent) {
  const auto s = nlp::parse_sentence(
      "If a valid blood pressure is unavailable in 180 seconds, manual mode "
      "should be triggered.",
      lex());
  const auto& cond = s.conditions[0].clauses[0].second;
  ASSERT_TRUE(cond.constraint.has_value());
  EXPECT_EQ(cond.constraint->value, 180u);
  EXPECT_FALSE(s.main.clauses[0].second.constraint.has_value());
}

TEST(Syntax, DurationsBeyond32BitsAreParseErrors) {
  const auto sentence = [](const std::string& duration) {
    return "If the button is pressed, the door is closed in " + duration + ".";
  };
  // Too many digits, a value of exactly 2^32, and a product that would
  // wrap to 1904 seconds: each is rejected, never truncated.
  for (const char* duration : {"99999999999999999999999 seconds",
                               "4294967296 seconds", "1193047 hours"}) {
    EXPECT_THROW((void)nlp::parse_sentence(sentence(duration), lex()),
                 speccc::util::ParseError)
        << duration;
  }
  // The largest durations that fit still parse.
  const auto max_seconds =
      nlp::parse_sentence(sentence("4294967295 seconds"), lex());
  EXPECT_EQ(max_seconds.main.clauses[0].second.constraint->total_seconds(),
            4294967295u);
  const auto max_hours = nlp::parse_sentence(sentence("1193046 hours"), lex());
  EXPECT_EQ(max_hours.main.clauses[0].second.constraint->total_seconds(),
            1193046u * 3600u);
}

TEST(Syntax, PrepositionalPredicateWithCoordination) {
  const auto s = nlp::parse_sentence(
      "If the robot is in room 1, next the robot is in room 1 or room 2.",
      lex());
  const auto& main = s.main.clauses[0].second;
  EXPECT_TRUE(main.next_marked);
  EXPECT_EQ(main.predicate.kind, nlp::PredicateKind::kPreposition);
  ASSERT_EQ(main.predicate.objects.size(), 2u);
  EXPECT_EQ(main.predicate.objects[0].joined(), "room_1");
  EXPECT_EQ(main.predicate.objects[1].joined(), "room_2");
  EXPECT_EQ(main.predicate.object_conjunction, "or");
}

TEST(Syntax, NestedConditionGroups) {
  const auto s = nlp::parse_sentence(
      "If override selection is provided, if override yes is pressed, next "
      "arterial line is selected.",
      lex());
  ASSERT_EQ(s.conditions.size(), 2u);
  EXPECT_EQ(s.conditions[0].subordinator, "if");
  EXPECT_EQ(s.conditions[1].subordinator, "if");
}

TEST(Syntax, ModalAndNegation) {
  const auto s = nlp::parse_sentence(
      "If the button is pressed, the door must not be closed.", lex());
  const auto& main = s.main.clauses[0].second;
  EXPECT_TRUE(main.predicate.negated);
  EXPECT_EQ(main.predicate.modals,
            (std::vector<std::string>{"must"}));
}

TEST(Syntax, RejectsUngrammaticalSentences) {
  EXPECT_THROW((void)nlp::parse_sentence("", lex()), speccc::util::ParseError);
  EXPECT_THROW((void)nlp::parse_sentence("the cuff.", lex()),
               speccc::util::ParseError);
  EXPECT_THROW((void)nlp::parse_sentence("is pressed quickly.", lex()),
               speccc::util::ParseError);
  EXPECT_THROW(
      (void)nlp::parse_sentence("If the cuff is pressed the alarm.", lex()),
      speccc::util::ParseError);
}

// ---- Dependencies -----------------------------------------------------------

TEST(Dependency, SubjectAndComplementRelations) {
  const auto s =
      nlp::parse_sentence("The pulse wave is unavailable.", lex());
  const auto deps = nlp::dependencies(s);
  EXPECT_NE(std::find(deps.begin(), deps.end(),
                      nlp::Dependency{"nsubj", "be", "pulse_wave"}),
            deps.end());
  EXPECT_NE(std::find(deps.begin(), deps.end(),
                      nlp::Dependency{"acomp", "be", "unavailable"}),
            deps.end());
}

TEST(Dependency, PassiveSubject) {
  const auto s = nlp::parse_sentence("The cuff is selected.", lex());
  const auto deps = nlp::dependencies(s);
  EXPECT_NE(std::find(deps.begin(), deps.end(),
                      nlp::Dependency{"nsubjpass", "select", "cuff"}),
            deps.end());
}

TEST(Dependency, SubjectDependentsGroupAntonymCandidates) {
  // The paper's Section IV-D example: pulse wave depends on available and
  // unavailable across two requirements.
  const auto s1 = nlp::parse_sentence(
      "If pulse wave or arterial line is available, corroboration is "
      "triggered.",
      lex());
  const auto s2 = nlp::parse_sentence(
      "If pulse wave and arterial line are unavailable, manual mode is "
      "started.",
      lex());
  auto groups1 = nlp::subject_dependents(s1);
  auto groups2 = nlp::subject_dependents(s2);
  EXPECT_TRUE(groups1["pulse_wave"].count("available") > 0);
  EXPECT_TRUE(groups2["pulse_wave"].count("unavailable") > 0);
}

TEST(Dependency, CapitalizedNameComponentsAreNotCandidates) {
  const auto s = nlp::parse_sentence("If Air Ok signal remains low, the alarm "
                                     "is issued.",
                                     lex());
  const auto groups = nlp::subject_dependents(s);
  ASSERT_TRUE(groups.count("air_ok_signal") > 0);
  EXPECT_TRUE(groups.at("air_ok_signal").count("low") > 0);
  EXPECT_FALSE(groups.at("air_ok_signal").count("ok") > 0);
}

TEST(Dependency, LowercaseAttributiveAdjectiveIsCandidate) {
  const auto s = nlp::parse_sentence(
      "If a valid blood pressure is unavailable, manual mode is started.",
      lex());
  const auto groups = nlp::subject_dependents(s);
  ASSERT_TRUE(groups.count("blood_pressure") > 0);
  EXPECT_TRUE(groups.at("blood_pressure").count("valid") > 0);
  EXPECT_TRUE(groups.at("blood_pressure").count("unavailable") > 0);
}

}  // namespace
