// Recursive-descent parser for the paper's structured-English grammar
// (Section IV-B):
//
//   sentence   ::= (subclause,)* clauses (,subclause)*
//   subclause  ::= subordinator clauses
//   clauses    ::= clause [, conjunction clause]*
//   clause     ::= [modifier] subject predicate [constraint]
//   ...
//
// The parser produces the syntax tree of Fig. 2. Conventions extracted from
// the paper's appendix:
//   * comma segments led by a conjunction continue the current clause group
//     ("If a, and b, and c, d" groups a,b,c as the antecedent);
//   * a conjunction segment without a predicate coordinates subjects across
//     the comma ("the arterial line, or pulse wave or cuff is lost");
//   * a subordinator may occur mid-segment ("... is enabled until it is
//     pressed", "... will be operational whenever ...");
//   * "next" marks the clause it precedes rather than opening a group;
//   * capitalized mid-sentence words are proper names and stay part of the
//     subject ("Air Ok signal"), while lower-case attributive adjectives are
//     modifiers subject to semantic reasoning ("a valid blood pressure").
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "nlp/lexicon.hpp"
#include "nlp/tokenizer.hpp"

namespace speccc::nlp {

/// A word inside a noun phrase, with enough detail for semantic reasoning.
struct NpWord {
  std::string text;
  Pos pos = Pos::kNoun;
  bool capitalized = false;  // proper-name evidence (mid-sentence uppercase)
};

struct NounPhrase {
  std::vector<NpWord> words;
  bool pronoun = false;  // "it": resolved against the main-clause subject

  [[nodiscard]] std::string joined() const;  // "auto_control_mode"
};

struct TimeConstraint {
  unsigned value = 0;          // as written ("in 3 seconds" -> 3)
  unsigned unit_seconds = 1;   // seconds per unit
  /// Fits: the parser rejects a value x unit beyond 32 bits.
  [[nodiscard]] unsigned total_seconds() const { return value * unit_seconds; }
};

enum class PredicateKind {
  kCopula,       // be/remain + adjective complement(s)
  kPassive,      // be + past participle
  kProgressive,  // be + gerund (active reading: "is running")
  kActive,       // lexical verb, possibly with an object
  kPreposition,  // be + preposition + noun phrase ("is in room 1")
};

struct Predicate {
  PredicateKind kind = PredicateKind::kCopula;
  std::string verb_lemma;                  // "" for pure copula
  std::vector<std::string> complements;    // adjectives/adverbs (kCopula)
  std::string preposition;                 // kPreposition
  /// kPreposition / kActive objects; prepositional objects may coordinate
  /// ("is in room 1 or room 2"), joined by object_conjunction.
  std::vector<NounPhrase> objects;
  std::string object_conjunction;  // "and"/"or" when objects.size() > 1
  std::vector<std::string> modals;
  bool negated = false;
  bool future = false;  // "will"/"would": the paper maps future tense to F
};

struct Clause {
  std::string modifier;  // "eventually", "always", ... or ""
  std::vector<NounPhrase> subjects;
  std::string subject_conjunction;  // "and"/"or" when subjects.size() > 1
  Predicate predicate;
  std::optional<TimeConstraint> constraint;
  bool next_marked = false;  // clause prefixed by "next"
};

/// A subordinate or main clause group; clauses carry the connective linking
/// them to the previous clause in the group ("" for the first).
struct ClauseGroup {
  std::string subordinator;  // "" for the main group
  std::vector<std::pair<std::string, Clause>> clauses;
};

struct Sentence {
  std::string text;
  std::vector<ClauseGroup> conditions;  // if/when/whenever/once/while/after
  ClauseGroup main;
  std::optional<ClauseGroup> until;  // trailing until-subclause
};

/// Parse one requirement sentence. Throws util::ParseError when the sentence
/// falls outside the structured grammar (no predicate, empty subject, ...).
[[nodiscard]] Sentence parse_sentence(const std::string& text, const Lexicon& lexicon);

/// Render the Fig. 2-style syntax tree of a parsed sentence (for the
/// examples and the Fig. 2 reproduction).
[[nodiscard]] std::string syntax_tree(const Sentence& sentence);

}  // namespace speccc::nlp
