#include "difftest/oracle.hpp"

#include <algorithm>
#include <numeric>

#include "automata/emptiness.hpp"
#include "automata/gpvw.hpp"
#include "diag/diag.hpp"
#include "partition/partition.hpp"
#include "ltl/patterns.hpp"
#include "synth/synthesizer.hpp"
#include "synth/verify.hpp"
#include "timeabs/abstraction.hpp"
#include "util/diagnostics.hpp"

namespace speccc::difftest {

namespace {

using ltl::Formula;
using synth::Realizability;

const char* verdict_name(Realizability v) {
  switch (v) {
    case Realizability::kRealizable: return "realizable";
    case Realizability::kUnrealizable: return "unrealizable";
    case Realizability::kUnknown: return "unknown";
  }
  return "?";
}

bool definite(Realizability v) { return v != Realizability::kUnknown; }

Evaluator resolve(const OracleOptions& options) {
  if (options.evaluate) return options.evaluate;
  return [](Formula f, const ltl::Lasso& lasso) {
    return ltl::evaluate(f, lasso);
  };
}

std::string show(Formula f) { return ltl::to_string(f); }

}  // namespace

std::optional<std::string> check_formula(Formula f, util::Rng& rng,
                                         const OracleOptions& options,
                                         bool* skipped) {
  if (skipped != nullptr) *skipped = false;
  const Evaluator eval = resolve(options);
  const Formula nf = ltl::lnot(f);

  // Tableau construction, bounded: a pathological draw (GPVW is
  // exponential) skips the case instead of stalling the run.
  const auto nbw_f = automata::ltl_to_nbw_bounded(f, options.max_tableau_nodes);
  const auto nbw_nf =
      automata::ltl_to_nbw_bounded(nf, options.max_tableau_nodes);
  if (!nbw_f || !nbw_nf) {
    if (skipped != nullptr) *skipped = true;
    return std::nullopt;
  }

  // Tableau witnesses must satisfy their formula under trace semantics.
  const auto wf = automata::find_accepting_lasso(*nbw_f);
  if (wf && !eval(f, wf->lasso)) {
    return "tableau witness for `" + show(f) +
           "` is rejected by trace evaluation";
  }
  const auto wn = automata::find_accepting_lasso(*nbw_nf);
  if (wn && !eval(nf, wn->lasso)) {
    return "tableau witness for `" + show(nf) +
           "` is rejected by trace evaluation";
  }
  // At least one of f, !f is satisfiable in any sane logic.
  if (!wf && !wn) {
    return "tableau reports both `" + show(f) + "` and its negation "
           "unsatisfiable";
  }

  // Random lassos: trace semantics must respect negation, and a concrete
  // (non-)model refutes the tableau's (un)satisfiability verdicts.
  for (int i = 0; i < options.lassos_per_formula; ++i) {
    const ltl::Lasso lasso = random_lasso(rng, options.lasso);
    const bool sat_f = eval(f, lasso);
    const bool sat_nf = eval(nf, lasso);
    if (sat_f == sat_nf) {
      return "trace evaluation assigns `" + show(f) +
             "` and its negation the same value on a random lasso";
    }
    if (sat_f && !wf) {
      return "random lasso satisfies `" + show(f) +
             "` but the tableau reports it unsatisfiable";
    }
    if (!sat_f && !wn) {
      return "random lasso falsifies `" + show(f) +
             "` but the tableau reports it valid";
    }
  }
  return std::nullopt;
}

SpecCase build_spec_case(
    const std::vector<translate::RequirementText>& texts) {
  const auto lexicon = nlp::Lexicon::builtin();
  const auto dictionary = semantics::AntonymDictionary::builtin();
  const translate::Translator translator(lexicon, dictionary);

  // Both the GPVW tableau and the counter game are exponential in the
  // Next-chain length, so deadlines are additionally clamped to a few
  // ticks after abstraction. The clamp is part of case *generation* --
  // every engine sees the same clamped formulas -- so the cross-check
  // stays meaningful while the worst case stays time-bounded.
  const auto translation = translator.translate(
      texts, [](const std::vector<std::uint32_t>& thetas) -> translate::TickMapper {
        if (thetas.empty()) return nullptr;
        timeabs::Request request;
        request.thetas = thetas;
        request.error_budget = 5;
        static constexpr unsigned kMaxChain = 4;
        return [abstracted = timeabs::tick_mapper(thetas, timeabs::optimize(request))](
                   unsigned ticks) { return std::min(abstracted(ticks), kMaxChain); };
      });

  SpecCase result;
  result.requirements = translation.formulas();
  result.signature = partition::unify(result.requirements).signature();
  return result;
}

namespace {

/// Model-check and replay one extracted controller against the spec.
std::optional<std::string> check_controller(
    const synth::MealyMachine& machine, const char* engine,
    const SpecCase& spec, Formula conjunction, util::Rng& rng,
    const OracleOptions& options, const Evaluator& eval) {
  if (machine.num_states() <= options.max_verify_states) {
    const auto verification = synth::verify(machine, conjunction);
    if (!verification.holds) {
      // Name the violated requirement for the report.
      for (const Formula req : spec.requirements) {
        if (!synth::verify(machine, req).holds) {
          return std::string(engine) + " controller violates `" + show(req) +
                 "` under model checking";
        }
      }
      return std::string(engine) +
             " controller violates the conjoined specification under model "
             "checking";
    }
  }
  const std::size_t input_bits = spec.signature.inputs.size();
  speccc_check(input_bits < 31, "input signature too wide for replay");
  for (int i = 0; i < options.replays_per_controller; ++i) {
    std::vector<synth::Word> prefix;
    std::vector<synth::Word> loop;
    const std::size_t np = rng.below(3);
    const std::size_t nl = 1 + rng.below(3);
    for (std::size_t j = 0; j < np; ++j) {
      prefix.push_back(static_cast<synth::Word>(rng.below(1u << input_bits)));
    }
    for (std::size_t j = 0; j < nl; ++j) {
      loop.push_back(static_cast<synth::Word>(rng.below(1u << input_bits)));
    }
    const ltl::Lasso trace = machine.lasso(prefix, loop);
    for (const Formula req : spec.requirements) {
      if (!eval(req, trace)) {
        return std::string(engine) + " controller trace violates `" +
               show(req) + "` on a random input replay";
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> check_spec(const SpecCase& spec, util::Rng& rng,
                                      const OracleOptions& options,
                                      BoundedCoverage* coverage) {
  if (coverage != nullptr) *coverage = BoundedCoverage::kAbstained;
  if (spec.requirements.empty()) return std::nullopt;
  const Evaluator eval = resolve(options);
  const Formula conjunction = ltl::land(spec.requirements);

  // The bounded engine and controller checking enumerate the alphabet:
  // past the bounded cap (most Table I rows) bounded abstains and no
  // controller is extracted, so only the symbolic verdict remains.
  const bool enumerable =
      spec.signature.inputs.size() + spec.signature.outputs.size() <=
      options.bounded.max_alphabet_bits;

  // The shrinker's candidates may leave the pattern fragment; only the
  // reference engines read those.
  const bool in_fragment = std::all_of(
      spec.requirements.begin(), spec.requirements.end(),
      [](Formula f) { return ltl::decompose_patterns(f).has_value(); });
  std::optional<synth::SynthesisResult> symbolic;
  if (in_fragment) {
    synth::SynthesisOptions symbolic_options;
    symbolic_options.extract = enumerable;
    symbolic = synth::synthesize(spec.requirements, spec.signature,
                                 symbolic_options);
  }

  // Compositional decide: the conjunction of the output-connected
  // components' verdicts (diag::RealizabilityOracle, stage 3's oracle)
  // must be the monolithic verdict.
  if (symbolic) {
    diag::RealizabilityOracle components(spec.requirements);
    std::vector<std::size_t> all(spec.requirements.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const Realizability split = components.core(all, spec.signature)
                                    ? Realizability::kUnrealizable
                                    : Realizability::kRealizable;
    if (split != symbolic->verdict) {
      return std::string("component split disagrees: monolithic says ") +
             verdict_name(symbolic->verdict) + ", components say " +
             verdict_name(split);
    }
  }

  synth::BoundedOptions bounded_options = options.bounded;
  bounded_options.extract = true;
  synth::BoundedOutcome bounded;
  if (enumerable) {
    bounded = synth::bounded_synthesize(conjunction, spec.signature,
                                        bounded_options);
    if (coverage != nullptr) {
      *coverage = definite(bounded.verdict) ? BoundedCoverage::kDefinite
                                            : BoundedCoverage::kUnknown;
    }
  }

  // Engine agreement: opposite definite verdicts are an engine bug.
  if (symbolic && definite(symbolic->verdict) && definite(bounded.verdict) &&
      symbolic->verdict != bounded.verdict) {
    return std::string("engine disagreement: symbolic says ") +
           verdict_name(symbolic->verdict) + ", bounded says " +
           verdict_name(bounded.verdict);
  }

  // Controller compliance: every extracted controller must implement the
  // specification, proven by model checking and sampled by replay.
  if (bounded.controller) {
    if (auto failure = check_controller(*bounded.controller, "bounded", spec,
                                        conjunction, rng, options, eval)) {
      return failure;
    }
  }
  if (symbolic && symbolic->controller) {
    if (auto failure = check_controller(*symbolic->controller, "symbolic",
                                        spec, conjunction, rng, options,
                                        eval)) {
      return failure;
    }
  }
  return std::nullopt;
}

}  // namespace speccc::difftest
