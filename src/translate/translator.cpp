#include "translate/translator.hpp"

#include <algorithm>

#include "cache/store.hpp"
#include "ltl/patterns.hpp"
#include "util/diagnostics.hpp"
#include "util/strings.hpp"

namespace speccc::translate {

namespace {

using ltl::Formula;
using nlp::Clause;
using nlp::ClauseGroup;
using nlp::NounPhrase;
using nlp::Predicate;
using nlp::PredicateKind;
using semantics::PropositionReducer;
using semantics::Reduction;

/// Tick count of a timing constraint before any abstraction.
unsigned constraint_ticks(const nlp::TimeConstraint& constraint,
                          const Options& options) {
  return constraint.total_seconds() / options.seconds_per_tick;
}

class ClauseTranslator {
 public:
  ClauseTranslator(const Options& options, const PropositionReducer* reducer,
                   const TickMapper& tick_mapper, const std::string& pronoun_referent)
      : options_(options),
        reducer_(reducer),
        tick_mapper_(tick_mapper),
        pronoun_referent_(pronoun_referent) {}

  Formula run(const Clause& clause) const {
    // One literal per subject, combined with the subject conjunction.
    std::vector<Formula> parts;
    for (const NounPhrase& np : clause.subjects) {
      parts.push_back(subject_literal(clause, np));
    }
    Formula body = clause.subject_conjunction == "or" ? ltl::lor(parts)
                                                       : ltl::land(parts);

    // Future tense / "eventually" modifier: F. A timing constraint
    // overrides the open-ended future with a concrete deadline.
    const bool timed = clause.constraint.has_value();
    if (!timed &&
        (clause.predicate.future || clause.modifier == "eventually" ||
         clause.modifier == "sometimes")) {
      body = ltl::eventually(body);
    }
    if (timed) {
      unsigned ticks = constraint_ticks(*clause.constraint, options_);
      if (tick_mapper_ != nullptr) ticks = tick_mapper_(ticks);
      body = ltl::next_n(body, ticks);
    }
    if (clause.next_marked && options_.next_mode == NextMode::kStrict) {
      body = ltl::next(body);
    }
    return body;
  }

 private:
  /// Proposition naming: predicate_subject for verbal predicates,
  /// complement_subject for unreduced copular complements, subject alone for
  /// reduced ones, subject_prep_object for prepositional predicates.
  Formula subject_literal(const Clause& clause, const NounPhrase& np) const {
    const Predicate& pred = clause.predicate;
    bool negated = pred.negated;

    // Resolve the subject name, folding reduced noun-phrase adjectives.
    std::vector<std::string> name_words;
    if (np.pronoun) {
      speccc_check(!pronoun_referent_.empty(),
                   "pronoun subject with no referent in scope");
      name_words.push_back(pronoun_referent_);
    } else {
      for (const nlp::NpWord& w : np.words) {
        if (w.pos == nlp::Pos::kAdjective && !w.capitalized &&
            reducer_ != nullptr) {
          const Reduction r = reducer_->decide("", w.text);
          if (r.fold) {
            if (r.negate) negated = !negated;
            continue;
          }
        }
        name_words.push_back(w.text);
      }
    }
    speccc_check(!name_words.empty(), "empty subject after reduction");
    const std::string subject = util::join(name_words, "_");

    Formula prop;
    switch (pred.kind) {
      case PredicateKind::kCopula: {
        // Complements: reduced ones fold into the sign; unreduced ones name
        // the proposition complement_subject (low_air_ok_signal).
        std::vector<Formula> conj;
        bool folded_only = true;
        for (const std::string& c : pred.complements) {
          if (reducer_ != nullptr) {
            const Reduction r = reducer_->decide(subject, c);
            if (r.fold) {
              if (r.negate) negated = !negated;
              continue;
            }
          }
          folded_only = false;
          conj.push_back(ltl::ap(c + "_" + subject));
        }
        if (folded_only) {
          prop = ltl::ap(subject);
        } else {
          prop = ltl::land(conj);
        }
        break;
      }
      case PredicateKind::kPassive:
      case PredicateKind::kProgressive:
        prop = ltl::ap(pred.verb_lemma + "_" + subject);
        break;
      case PredicateKind::kActive:
        if (!pred.objects.empty()) {
          prop = ltl::ap(pred.verb_lemma + "_" + pred.objects.front().joined());
        } else {
          prop = ltl::ap(pred.verb_lemma + "_" + subject);
        }
        break;
      case PredicateKind::kPreposition: {
        // Coordinated objects fold into a disjunction/conjunction of
        // subject_prep_object propositions ("is in room 1 or room 2").
        std::vector<Formula> props;
        for (const NounPhrase& object : pred.objects) {
          props.push_back(ltl::ap(subject + "_" + pred.preposition + "_" +
                                  object.joined()));
        }
        prop = pred.object_conjunction == "and" ? ltl::land(props)
                                                : ltl::lor(props);
        break;
      }
    }
    return negated ? ltl::lnot(prop) : prop;
  }

  const Options& options_;
  const PropositionReducer* reducer_;
  const TickMapper& tick_mapper_;
  const std::string& pronoun_referent_;
};

}  // namespace

Translator::Translator(const nlp::Lexicon& lexicon,
                       const semantics::AntonymDictionary& dictionary,
                       Options options, cache::Store* cache)
    : lexicon_(lexicon),
      dictionary_(dictionary),
      options_(options),
      cache_(cache) {
  if (cache_ != nullptr) lexicon_fingerprint_ = lexicon_.fingerprint();
}

nlp::Sentence Translator::parse_cached(const std::string& text) const {
  nlp::Sentence sentence = cache::memoize<cache::Kind::kSentence>(
      cache_,
      [&] {
        return cache::sentence_key(cache::normalize_sentence(text),
                                   lexicon_fingerprint_);
      },
      [&] { return nlp::parse_sentence(text, lexicon_); });
  // A cached parse may originate from a whitespace variant of this
  // sentence; restore the verbatim text so diagnostics print it as written
  // here.
  sentence.text = text;
  return sentence;
}

namespace {

/// Fold a clause group into one formula using the inter-clause connectives.
Formula group_formula(const ClauseGroup& group, const ClauseTranslator& ct) {
  speccc_check(!group.clauses.empty(), "empty clause group");
  Formula acc = ct.run(group.clauses.front().second);
  for (std::size_t i = 1; i < group.clauses.size(); ++i) {
    const auto& [conn, clause] = group.clauses[i];
    const Formula f = ct.run(clause);
    acc = conn == "or" ? ltl::lor(acc, f) : ltl::land(acc, f);
  }
  return acc;
}

/// The name of the first subject of the main clause (after reduction), used
/// as the referent of "it" in trailing subclauses.
std::string main_referent(const nlp::Sentence& sentence,
                          const PropositionReducer* reducer) {
  if (sentence.main.clauses.empty()) return "";
  const Clause& clause = sentence.main.clauses.front().second;
  if (clause.subjects.empty() || clause.subjects.front().pronoun) return "";
  std::vector<std::string> words;
  for (const nlp::NpWord& w : clause.subjects.front().words) {
    if (w.pos == nlp::Pos::kAdjective && !w.capitalized && reducer != nullptr &&
        reducer->decide("", w.text).fold) {
      continue;
    }
    words.push_back(w.text);
  }
  return util::join(words, "_");
}

/// The positive tick counts of a sentence's timing constraints, read off
/// the parse tree in the order translate_sentence meets them: main group,
/// until group, then the conditions innermost first.
std::vector<unsigned> harvest_delays(const nlp::Sentence& sentence,
                                     const Options& options) {
  std::vector<unsigned> delays;
  const auto harvest = [&](const ClauseGroup& group) {
    for (const auto& [conn, clause] : group.clauses) {
      if (!clause.constraint.has_value()) continue;
      const unsigned ticks = constraint_ticks(*clause.constraint, options);
      if (ticks > 0) delays.push_back(ticks);
    }
  };
  harvest(sentence.main);
  if (sentence.until.has_value()) harvest(*sentence.until);
  for (auto it = sentence.conditions.rbegin(); it != sentence.conditions.rend();
       ++it) {
    harvest(*it);
  }
  return delays;
}

}  // namespace

ltl::Formula Translator::translate_sentence(const nlp::Sentence& sentence,
                                            const PropositionReducer* reducer,
                                            const TickMapper& tick_mapper) const {
  const std::string referent = main_referent(sentence, reducer);
  const ClauseTranslator ct(options_, reducer, tick_mapper, referent);

  Formula main = group_formula(sentence.main, ct);

  // Trailing until-subclause: the paper's template (Req-49),
  //   main until q  ==>  (!q -> (main W q)).
  if (sentence.until.has_value()) {
    const Formula q = group_formula(*sentence.until, ct);
    main = ltl::implies(ltl::lnot(q), ltl::weak_until(main, q));
  }

  // Conditional subclauses nest right-to-left: the first group is the
  // outermost antecedent (Req-17.4).
  Formula body = main;
  for (auto it = sentence.conditions.rbegin(); it != sentence.conditions.rend();
       ++it) {
    body = ltl::implies(group_formula(*it, ct), body);
  }

  // Universality wrapper; a bare existential main clause stays F-only
  // (the Existence pattern).
  if (sentence.conditions.empty() && !sentence.until.has_value() &&
      body.op() == ltl::Op::kEventually) {
    return body;
  }
  return ltl::always(body);
}

TranslationResult Translator::translate(
    const std::vector<RequirementText>& requirements,
    const AbstractionHook& abstraction) const {
  TranslationResult result;

  // Phase 1: parse everything (Algorithm 1 needs the whole specification).
  // With a cache, revisions of a specification skip re-parsing unchanged
  // sentences.
  std::vector<nlp::Sentence> sentences;
  sentences.reserve(requirements.size());
  for (const RequirementText& req : requirements) {
    sentences.push_back(parse_cached(req.text));
  }

  // Phase 2: semantic reasoning over the whole specification.
  std::optional<PropositionReducer> reducer;
  if (options_.semantic_reasoning) {
    result.reasoning = semantics::reason(sentences, dictionary_);
    reducer.emplace(result.reasoning, dictionary_);
  }

  // Phase 3: harvest Theta from the parse trees; the tick counts are fixed
  // before any formula exists.
  result.requirements.reserve(requirements.size());
  for (std::size_t i = 0; i < requirements.size(); ++i) {
    TranslatedRequirement tr;
    tr.id = requirements[i].id;
    tr.text = requirements[i].text;
    tr.delays = harvest_delays(sentences[i], options_);
    tr.sentence = std::move(sentences[i]);
    result.requirements.push_back(std::move(tr));
  }

  // Phase 4: the abstraction hook turns Theta into the tick mapper.
  const TickMapper tick_mapper =
      abstraction != nullptr ? abstraction(result.thetas()) : nullptr;

  // Phase 5: build every formula once. The realizability engine decides
  // conjunctions of pattern instances and nothing else, so a sentence whose
  // formula falls outside that fragment is rejected here, by name.
  for (TranslatedRequirement& tr : result.requirements) {
    tr.formula =
        translate_sentence(tr.sentence, reducer ? &*reducer : nullptr, tick_mapper);
    if (!ltl::decompose_patterns(tr.formula).has_value()) {
      throw util::ParseError("unsupported requirement: \"" + tr.text +
                             "\" translates to `" + ltl::to_string(tr.formula) +
                             "`, outside the pattern fragment the "
                             "realizability engine decides");
    }
    const auto atoms = tr.formula.atoms();
    result.propositions.insert(atoms.begin(), atoms.end());
  }
  return result;
}

TranslationResult Translator::translate(
    const std::vector<RequirementText>& requirements,
    const TickMapper& tick_mapper) const {
  return translate(requirements,
                   [&tick_mapper](const std::vector<std::uint32_t>&) {
                     return tick_mapper;
                   });
}

std::vector<ltl::Formula> TranslationResult::formulas() const {
  std::vector<ltl::Formula> out;
  out.reserve(requirements.size());
  for (const auto& r : requirements) out.push_back(r.formula);
  return out;
}

std::vector<std::uint32_t> TranslationResult::thetas() const {
  std::set<std::uint32_t> set;
  for (const auto& r : requirements) {
    for (unsigned d : r.delays) {
      if (d > 0) set.insert(d);
    }
  }
  return {set.begin(), set.end()};
}

}  // namespace speccc::translate
