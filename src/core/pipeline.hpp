// The SpecCC pipeline (paper Fig. 1): the paper's primary contribution,
// wiring the three stages into the requirement-consistency maintenance loop.
//
//   stage 1: structured English -> LTL (translation + semantic reasoning +
//            time abstraction + input/output partition);
//   stage 2: realizability checking via synthesis;
//   stage 3: on failure, heuristic refinement (inconsistency localization
//            and partition adjustment), feeding back into stage 2, then the
//            per-requirement satisfiability screen.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/store.hpp"
#include "partition/partition.hpp"
#include "refine/refine.hpp"
#include "semantics/antonyms.hpp"
#include "synth/synthesizer.hpp"
#include "timeabs/abstraction.hpp"
#include "translate/translator.hpp"

namespace speccc::core {

/// Cooperative cancellation predicate: polled at stage boundaries and
/// inside the symbolic engine's fixpoint rounds. Returning true makes the
/// run throw util::CancelledError at its next poll point. A null functor
/// is never cancelled.
using CancelFn = std::function<bool()>;

/// Per-run limits, polled cooperatively at pipeline stage boundaries (and,
/// through CancelFn plumbing, inside the synthesis engine). Shared by batch
/// workers and the serve layer (batch::RunLimits is an alias).
struct RunLimits {
  /// Wall-clock budget in seconds for this run; 0 means unlimited. The
  /// serve layer derives it from the request deadline.
  double budget_seconds = 0.0;
  /// External cancellation (batch-wide cancel, serve shutdown); null
  /// means never cancelled.
  const std::atomic<bool>* cancel = nullptr;
};

struct PipelineOptions {
  translate::Options translation;
  /// Section IV-E: rewrite Next chains with the optimal divisor abstraction.
  bool time_abstraction = true;
  std::uint32_t error_budget = 5;  // the paper's B
  /// Options of every realizability question of the run -- stage 2, the
  /// satisfiability screen and each stage-3 probe (synth::synthesize).
  /// The pipeline installs `cancelled` as synthesis.cancelled.
  synth::SynthesisOptions synthesis;
  partition::Overrides partition_overrides;
  /// Stage 3: run localization + partition adjustment when unrealizable.
  bool refine_on_failure = true;
  /// Stage-3 localization knob: how many minimal correction sets to
  /// enumerate for genuinely inconsistent specifications.
  refine::LocalizeOptions localization;
  /// Not settable: the satisfiability screen always runs when stage 2 is
  /// not realizable, through synth::synthesize, on every requirement that
  /// no realizable stage-3 component already proved satisfiable. These two
  /// constants exist only for the end-to-end benchmark's replica of the old
  /// tableau screen (perfbench/driver.cpp) and its stratum draw, which
  /// must keep drawing the same pools.
  static constexpr bool satisfiability_check = true;
  static constexpr std::size_t satisfiability_chain_cap = 12;
  /// Not settable either: timeabs::optimize is the one solver. The same
  /// replica still names the retired back-end choice.
  static constexpr timeabs::Backend timeabs_backend =
      timeabs::Backend::kEnumeration;
  static constexpr timeabs::SmtEncoder smt_encoder =
      timeabs::SmtEncoder::kCutMap;
  /// Custom vocabulary; defaults to the builtins (see corpus/loaders.hpp for
  /// file-based extension).
  std::optional<nlp::Lexicon> lexicon;
  std::optional<semantics::AntonymDictionary> dictionary;
  /// Cooperative cancellation: polled at stage boundaries (before
  /// translation, synthesis, and refinement), before each stage-3
  /// component decision and inside the symbolic engine of every
  /// realizability question -- stage 2, each stage-3 probe and each
  /// satisfiability-screen question. When it
  /// returns true the run throws util::CancelledError. Stage 1 runs to
  /// completion once started. Null means never cancelled.
  CancelFn cancelled;
  /// Cross-spec memoization (cache/store.hpp); null disables caching.
  /// The store is thread-safe and content-addressed: share ONE store
  /// across pipelines and batch workers (batch does this automatically
  /// when this option is set). Every cached computation is a pure
  /// function of its key, so results are identical with the cache on or
  /// off — only wall-clock changes.
  std::shared_ptr<cache::Store> cache;
};

struct PipelineResult {
  std::string name;
  translate::TranslationResult translation;
  std::optional<timeabs::Abstraction> abstraction;
  partition::Partition partition;       // final partition (post-refinement)
  synth::SynthesisResult synthesis;     // the initial stage-2 verdict
  std::optional<refine::RefinementOutcome> refinement;
  /// Requirements that are unsatisfiable on their own (no implementation of
  /// the whole specification can exist). Screened only when stage 2 is not
  /// realizable; a realizable conjunction has none.
  std::vector<std::string> unsatisfiable_requirements;
  /// Realizable, possibly after refinement (the paper's "consistent").
  bool consistent = false;
  double translation_seconds = 0.0;  // stage 1 wall clock
  double synthesis_seconds = 0.0;    // stage 2 wall clock (Table I column)
  double refinement_seconds = 0.0;   // stage 3 wall clock (screen included)

  /// Consistent through a stage-3 partition flip (report and batch read this).
  [[nodiscard]] bool refined() const {
    return refinement.has_value() && refinement->consistent;
  }
  [[nodiscard]] std::size_t num_formulas() const {
    return translation.requirements.size();
  }
  [[nodiscard]] std::size_t num_inputs() const { return partition.inputs.size(); }
  [[nodiscard]] std::size_t num_outputs() const { return partition.outputs.size(); }
};

class Pipeline {
 public:
  Pipeline() : Pipeline(PipelineOptions{}) {}
  explicit Pipeline(PipelineOptions options);

  // Not copyable/movable: the translator member refers to the pipeline's
  // own lexicon/dictionary (prvalue returns still work via elision).
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Run the full loop on a named specification.
  [[nodiscard]] PipelineResult run(
      const std::string& name,
      const std::vector<translate::RequirementText>& requirements) const;

  /// Stage 1 up to the formulas: one translation pass whose Theta goes
  /// through the time abstraction. Sets `abstraction` when one
  /// ran (abstraction on, Theta non-empty). run() starts with this.
  [[nodiscard]] translate::TranslationResult translate(
      const std::vector<translate::RequirementText>& requirements,
      std::optional<timeabs::Abstraction>& abstraction) const;

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

 private:
  PipelineOptions options_;
  nlp::Lexicon lexicon_;
  semantics::AntonymDictionary dictionary_;
  // Built once: with a cache attached, construction also fingerprints the
  // lexicon (the level-1 key component), which must not recur per run.
  translate::Translator translator_;
};

}  // namespace speccc::core
