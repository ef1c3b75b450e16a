// The decision substrate: the one way every realizability question of a
// run is routed (ROADMAP aim 2).
//
// A run picks one Substrate, the --substrate flag of every CLI and the
// serve protocol's per-request "substrate" field:
//   "auto"      symbolic when the spec is in its pattern fragment, else
//               bounded (synth::synthesize)
//   "bounded"   bounded synthesis alone (full LTL on small signatures,
//               k-escalation)
//   "symbolic"  the symbolic generalized-Buechi game alone (exact within
//               the pattern fragment, inapplicable outside it)
// core::decide answers stage 2, every satisfiability-screen question and
// every stage-3 probe with it. The difftest oracle proves the engines
// agree: opposite *definite* verdicts are an engine bug, kUnknown never
// disagrees. So when bounded abstains (caps hit), auto completes the
// abstention, and canonical output is byte-identical under every
// substrate.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "synth/synthesizer.hpp"

namespace speccc::core {

/// Cooperative cancellation predicate: polled inside the synthesis engines
/// (bounded-game frontier and k-escalation, symbolic fixpoint rounds).
/// Returning true makes the engine throw util::CancelledError at its next
/// poll point. A null functor is never cancelled.
using CancelFn = std::function<bool()>;

/// Which engine decides a run's realizability questions.
enum class Substrate { kAuto, kBounded, kSymbolic };

/// Parse "auto", "bounded" or "symbolic". Throws util::InvalidInputError
/// naming the three choices on anything else.
[[nodiscard]] Substrate parse_substrate(std::string_view text);

/// Round trip of parse_substrate(); also the substrate component of
/// cache::synthesis_key.
[[nodiscard]] std::string_view substrate_name(Substrate substrate);

/// Per-run limits, polled cooperatively at pipeline stage boundaries (and,
/// through CancelFn plumbing, inside the synthesis engines). Shared by batch
/// workers and the serve layer (batch::RunLimits is an alias).
struct RunLimits {
  /// Wall-clock budget in seconds for this run; 0 means unlimited. The
  /// serve layer derives it from the request deadline.
  double budget_seconds = 0.0;
  /// External cancellation (batch-wide cancel, serve shutdown); null
  /// means never cancelled.
  const std::atomic<bool>* cancel = nullptr;
  /// Per-run substrate override (serve's per-request "substrate" field);
  /// empty means the pipeline's configured substrate.
  std::optional<Substrate> substrate;
};

/// Every realizability question of a run (stage 2, the satisfiability
/// screen and each stage-3 probe): the verdict on the conjunction of
/// `formulas` under `signature`, decided by `substrate` with `cancelled`
/// polled inside the engine. When bounded or symbolic abstains (kUnknown),
/// auto decides instead, so every substrate reaches auto's verdict; the
/// result names the engine that decided. Throws util::CancelledError when
/// `cancelled` fires, and util::InvalidInputError on an empty
/// specification or when symbolic is asked outside its pattern fragment.
[[nodiscard]] synth::SynthesisResult decide(
    Substrate substrate, const std::vector<ltl::Formula>& formulas,
    const synth::IoSignature& signature, const synth::SynthesisOptions& options,
    const CancelFn& cancelled);

}  // namespace speccc::core
