#include "core/substrate.hpp"

#include <algorithm>

#include "automata/emptiness.hpp"
#include "automata/gpvw.hpp"
#include "util/diagnostics.hpp"

namespace speccc::core {

namespace {

/// Node cap of the tableau substrate's NBW construction: generous for the
/// translator's pattern fragment (Table I conjunctions stay in the
/// hundreds), small enough that a pathological Next-chain blowup abstains
/// in bounded time instead of stalling a race.
constexpr std::size_t kTableauMaxNodes = 20'000;

[[nodiscard]] std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ',';
    out += parts[i];
  }
  return out;
}

/// Satisfiability screening as a substrate: an unsatisfiable conjunction
/// has no implementation under ANY partition, so emptiness of its NBW is a
/// sound kUnrealizable; a satisfiable (or over-cap) conjunction proves
/// nothing about realizability, so the tableau abstains with kUnknown. It
/// never answers kRealizable -- in a race it can only win inconsistent
/// specs, which is exactly where it is fast.
class TableauSubstrate final : public Substrate {
 public:
  [[nodiscard]] std::string_view name() const override { return "tableau"; }

  [[nodiscard]] synth::SynthesisResult check(
      const std::vector<ltl::Formula>& formulas,
      const synth::IoSignature& /*signature*/,
      const synth::SynthesisOptions& /*options*/,
      const CancelFn& cancelled) const override {
    if (formulas.empty()) {
      throw util::InvalidInputError(
          "cannot synthesize from an empty specification");
    }
    synth::SynthesisResult result;
    result.substrate_used = "tableau";
    const auto nbw = automata::ltl_to_nbw_bounded(ltl::land(formulas),
                                                  kTableauMaxNodes, cancelled);
    if (nbw.has_value()) {
      result.ucw_states = nbw->num_states();
      result.verdict = automata::find_accepting_lasso(*nbw).has_value()
                           ? synth::Realizability::kUnknown
                           : synth::Realizability::kUnrealizable;
    }
    return result;
  }
};

/// A synthesis engine lane behind the Substrate interface, with the cancel
/// predicate wired into both lanes' options: the bounded engine polls it in
/// the UCW construction, the arena frontier, and the k-escalation loop; the
/// symbolic engine once per fixpoint round.
class EngineSubstrate final : public Substrate {
 public:
  using Lane = synth::SynthesisResult (*)(const std::vector<ltl::Formula>&,
                                          const synth::IoSignature&,
                                          const synth::SynthesisOptions&);

  EngineSubstrate(std::string_view name, Lane lane)
      : name_(name), lane_(lane) {}

  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] synth::SynthesisResult check(
      const std::vector<ltl::Formula>& formulas,
      const synth::IoSignature& signature,
      const synth::SynthesisOptions& options,
      const CancelFn& cancelled) const override {
    synth::SynthesisOptions polled = options;
    polled.bounded.cancelled = cancelled;
    polled.symbolic.cancelled = cancelled;
    return lane_(formulas, signature, polled);
  }

 private:
  std::string_view name_;
  Lane lane_;
};

synth::SynthesisResult decide_bounded(const std::vector<ltl::Formula>& formulas,
                                      const synth::IoSignature& signature,
                                      const synth::SynthesisOptions& options) {
  return synth::synthesize_bounded(formulas, signature, options.bounded);
}

/// Exact within its pattern fragment; outside it the symbolic substrate is
/// inapplicable and throws (a race treats that as one racer erroring, not
/// a verdict).
synth::SynthesisResult decide_symbolic(const std::vector<ltl::Formula>& formulas,
                                       const synth::IoSignature& signature,
                                       const synth::SynthesisOptions& options) {
  auto result =
      synth::synthesize_symbolic(formulas, signature, options.symbolic);
  if (!result.has_value()) {
    throw util::InvalidInputError(
        "specification is outside the symbolic engine's pattern fragment "
        "or mentions propositions missing from the signature");
  }
  return *std::move(result);
}

/// The auto router: symbolic when applicable, else bounded. Its results
/// name the engine that decided, never "auto".
const EngineSubstrate& auto_substrate() {
  static const EngineSubstrate router("auto", synth::synthesize);
  return router;
}

}  // namespace

const std::vector<std::string>& builtin_substrate_names() {
  static const std::vector<std::string> names = {"tableau", "bounded",
                                                 "symbolic"};
  return names;
}

SubstrateSpec SubstrateSpec::parse(std::string_view text) {
  const auto known = [](std::string_view name) {
    const auto& builtins = builtin_substrate_names();
    return std::find(builtins.begin(), builtins.end(), name) != builtins.end();
  };

  SubstrateSpec spec;
  if (text == "auto") return spec;

  constexpr std::string_view kRacePrefix = "race:";
  if (text.substr(0, kRacePrefix.size()) == kRacePrefix) {
    spec.mode = Mode::kRace;
    std::string_view rest = text.substr(kRacePrefix.size());
    while (true) {
      const std::size_t comma = rest.find(',');
      const std::string_view token = rest.substr(0, comma);
      if (token.empty()) {
        throw util::InvalidInputError(
            "substrate spec \"" + std::string(text) +
            "\": empty racer name (expected race:a,b,...)");
      }
      if (!known(token)) {
        throw util::InvalidInputError(
            "substrate spec \"" + std::string(text) + "\": unknown substrate \"" +
            std::string(token) + "\" (known: " +
            join(builtin_substrate_names()) + ")");
      }
      if (std::find(spec.substrates.begin(), spec.substrates.end(), token) !=
          spec.substrates.end()) {
        throw util::InvalidInputError("substrate spec \"" + std::string(text) +
                                      "\": duplicate racer \"" +
                                      std::string(token) + "\"");
      }
      spec.substrates.emplace_back(token);
      if (comma == std::string_view::npos) break;
      rest = rest.substr(comma + 1);
    }
    if (spec.substrates.size() < 2) {
      throw util::InvalidInputError(
          "substrate spec \"" + std::string(text) +
          "\": a race needs at least two substrates (use the name alone "
          "for a solo run)");
    }
    return spec;
  }

  if (!known(text)) {
    throw util::InvalidInputError(
        "substrate spec \"" + std::string(text) +
        "\": expected auto, a substrate name (" +
        join(builtin_substrate_names()) + "), or race:a,b,...");
  }
  spec.mode = Mode::kSolo;
  spec.substrates.emplace_back(text);
  return spec;
}

std::string SubstrateSpec::to_string() const {
  switch (mode) {
    case Mode::kAuto:
      return "auto";
    case Mode::kSolo:
      speccc_check(substrates.size() == 1, "solo spec has one substrate");
      return substrates.front();
    case Mode::kRace:
      return "race:" + join(substrates);
  }
  return "auto";
}

void SubstrateRegistry::add(std::unique_ptr<Substrate> substrate) {
  speccc_check(substrate != nullptr, "cannot register a null substrate");
  if (find(substrate->name()) != nullptr) {
    throw util::InvalidInputError("substrate \"" +
                                  std::string(substrate->name()) +
                                  "\" is already registered");
  }
  substrates_.push_back(std::move(substrate));
}

const Substrate* SubstrateRegistry::find(std::string_view name) const {
  for (const auto& substrate : substrates_) {
    if (substrate->name() == name) return substrate.get();
  }
  return nullptr;
}

std::vector<const Substrate*> SubstrateRegistry::resolve(
    const SubstrateSpec& spec) const {
  if (spec.is_auto()) return {&auto_substrate()};
  std::vector<const Substrate*> out;
  out.reserve(spec.substrates.size());
  for (const std::string& name : spec.substrates) {
    const Substrate* substrate = find(name);
    if (substrate == nullptr) {
      throw util::InvalidInputError("substrate \"" + name +
                                    "\" is not registered");
    }
    out.push_back(substrate);
  }
  return out;
}

std::vector<std::string> SubstrateRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(substrates_.size());
  for (const auto& substrate : substrates_) {
    out.emplace_back(substrate->name());
  }
  return out;
}

const SubstrateRegistry& SubstrateRegistry::global() {
  static const SubstrateRegistry* registry = [] {
    auto* r = new SubstrateRegistry();
    r->add(std::make_unique<TableauSubstrate>());
    r->add(std::make_unique<EngineSubstrate>("bounded", decide_bounded));
    r->add(std::make_unique<EngineSubstrate>("symbolic", decide_symbolic));
    return r;
  }();
  return *registry;
}

}  // namespace speccc::core
