#include "difftest/random.hpp"

#include <algorithm>
#include <iterator>

namespace speccc::difftest {

std::vector<std::string> proposition_pool(std::size_t n) {
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back("p" + std::to_string(i));
  return out;
}

namespace {

ltl::Formula random_leaf(util::Rng& rng, const FormulaConfig& config) {
  if (rng.chance(config.constant_percent, 100)) {
    return rng.chance(1, 2) ? ltl::tru() : ltl::fls();
  }
  return ltl::ap(config.props[rng.below(config.props.size())]);
}

ltl::Formula random_at(util::Rng& rng, const FormulaConfig& config,
                       std::size_t depth) {
  if (depth >= config.max_depth ||
      rng.chance(config.early_leaf_percent, 100)) {
    return random_leaf(rng, config);
  }
  const auto sub = [&] { return random_at(rng, config, depth + 1); };
  if (rng.chance(config.temporal_percent, 100)) {
    switch (rng.below(6)) {
      case 0: return ltl::next(sub());
      case 1: return ltl::eventually(sub());
      case 2: return ltl::always(sub());
      case 3: return ltl::until(sub(), sub());
      case 4: return ltl::weak_until(sub(), sub());
      default: return ltl::release(sub(), sub());
    }
  }
  switch (rng.below(5)) {
    case 0: return ltl::lnot(sub());
    case 1: {
      // Binary or ternary conjunction/disjunction, exercising flattening.
      const bool ternary = rng.chance(1, 4);
      std::vector<ltl::Formula> fs = {sub(), sub()};
      if (ternary) fs.push_back(sub());
      return ltl::land(std::move(fs));
    }
    case 2: {
      const bool ternary = rng.chance(1, 4);
      std::vector<ltl::Formula> fs = {sub(), sub()};
      if (ternary) fs.push_back(sub());
      return ltl::lor(std::move(fs));
    }
    case 3: return ltl::implies(sub(), sub());
    default: return ltl::iff(sub(), sub());
  }
}

}  // namespace

ltl::Formula random_formula(util::Rng& rng, const FormulaConfig& config) {
  speccc_check(!config.props.empty(), "formula config needs propositions");
  return random_at(rng, config, 0);
}

ltl::Lasso random_lasso(util::Rng& rng, const LassoConfig& config) {
  speccc_check(config.max_loop >= 1, "lasso loop must allow length >= 1");
  const std::size_t prefix = rng.below(config.max_prefix + 1);
  const std::size_t loop = 1 + rng.below(config.max_loop);
  std::vector<ltl::Valuation> steps;
  steps.reserve(prefix + loop);
  for (std::size_t i = 0; i < prefix + loop; ++i) {
    ltl::Valuation v;
    for (const auto& p : config.props) {
      if (rng.chance(1, 2)) v.insert(p);
    }
    steps.push_back(std::move(v));
  }
  return ltl::Lasso(std::move(steps), prefix);
}

PlantedSpec plant_faults(util::Rng& rng, const FaultConfig& config,
                         std::string name, std::uint64_t base_seed) {
  speccc_check(config.min_faults >= 1 &&
                   config.max_faults >= config.min_faults,
               "fault config needs a sane fault range");
  PlantedSpec out;
  out.name = std::move(name);

  const corpus::SpecScale scale =
      random_scale(rng, config.base, out.name, base_seed);
  const corpus::Theme theme = rng.chance(1, 2) ? corpus::device_theme()
                                               : corpus::application_theme();
  std::vector<translate::RequirementText> requirements =
      corpus::generate_spec(scale, theme);

  // Each fault speaks its own fresh dialect: a per-fault modifier word on
  // nouns neither theme uses, so fault propositions are disjoint from the
  // base spec and from every other fault. The partition heuristics keep
  // the "<modifier> relay" an input (antecedents only) and the beacon and
  // siren outputs (consequents; the chain's beacon antecedent is covered
  // by the conflict-resolution rule).
  static const char* const kModifiers[] = {
      "alpha", "beta",  "gamma", "delta", "epsilon", "zeta",
      "theta", "kappa", "lambda", "sigma", "omega",  "nova"};
  const int pool = static_cast<int>(std::size(kModifiers));
  const int fault_count =
      std::min(rng.range(config.min_faults, config.max_faults), pool);

  // Parallel fault tags: -1 for base sentences, else the fault index.
  std::vector<int> tags(requirements.size(), -1);
  for (int f = 0; f < fault_count; ++f) {
    const std::string m = kModifiers[f];
    const bool triple = rng.chance(config.triple_percent, 100);
    std::vector<std::string> texts;
    if (triple) {
      // Pairwise consistent, jointly inconsistent implication chain.
      texts = {"If the " + m + " relay is detected, the " + m +
                   " beacon is triggered.",
               "If the " + m + " beacon is triggered, the " + m +
                   " siren is issued.",
               "If the " + m + " relay is detected, the " + m +
                   " siren is not issued."};
    } else {
      texts = {"If the " + m + " relay is detected, the " + m +
                   " beacon is triggered.",
               "If the " + m + " relay is detected, the " + m +
                   " beacon is not triggered."};
    }
    static const char* const kLetters = "abc";
    for (std::size_t s = 0; s < texts.size(); ++s) {
      // Weave the fault sentence into a random position so localization
      // cannot lean on sentence order.
      const std::size_t at = rng.below(requirements.size() + 1);
      requirements.insert(
          requirements.begin() + static_cast<std::ptrdiff_t>(at),
          {out.name + "-f" + std::to_string(f + 1) + kLetters[s],
           std::move(texts[s])});
      tags.insert(tags.begin() + static_cast<std::ptrdiff_t>(at), f);
    }
  }

  out.requirements = std::move(requirements);
  out.faults.assign(static_cast<std::size_t>(fault_count), {});
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (tags[i] >= 0) {
      out.faults[static_cast<std::size_t>(tags[i])].push_back(i);
    }
  }
  return out;
}

corpus::SpecScale random_scale(util::Rng& rng, const SpecConfig& config,
                               std::string name, std::uint64_t seed) {
  corpus::SpecScale scale;
  scale.name = std::move(name);
  scale.formulas = rng.range(config.min_formulas, config.max_formulas);
  scale.inputs = rng.range(config.min_inputs, config.max_inputs);
  scale.outputs = rng.range(config.min_outputs, config.max_outputs);
  // Keep the scale inside the generator's per-requirement budget
  // (at most 3 fresh inputs and 2 fresh outputs per sentence).
  scale.inputs = std::min(scale.inputs, 3 * scale.formulas);
  scale.outputs = std::min(scale.outputs, 2 * scale.formulas);
  scale.seed = seed;
  scale.response_percent = config.response_percent;
  scale.timed_percent = config.timed_percent;
  return scale;
}

namespace {

// splitmix64 finalizer: decorrelates (seed, kind, index) triples.
constexpr auto mix = util::Rng::mix;

}  // namespace

std::uint64_t case_seed(std::uint64_t master_seed, CaseKind kind, int index) {
  std::uint64_t kind_salt = 0;
  switch (kind) {
    case CaseKind::kFormula: kind_salt = 0x666f726d756c6130ULL; break;
    case CaseKind::kSpec: kind_salt = 0x7370656343617365ULL; break;
    case CaseKind::kPlanted: kind_salt = 0x706c616e74656421ULL; break;
    case CaseKind::kFixed: kind_salt = 0x6669786564436173ULL; break;
  }
  return mix(master_seed + 0x9e3779b97f4a7c15ULL *
                               (static_cast<std::uint64_t>(index) + 1) +
             kind_salt);
}

GeneratedSpec generated_spec(std::uint64_t master_seed, int index,
                             const SpecConfig& config) {
  const std::uint64_t cs = case_seed(master_seed, CaseKind::kSpec, index);
  util::Rng generation(cs);
  const corpus::SpecScale scale = random_scale(
      generation, config, "fuzz" + std::to_string(index), mix(cs + 1));
  const corpus::Theme theme = generation.chance(1, 2)
                                  ? corpus::device_theme()
                                  : corpus::application_theme();
  return {scale.name, corpus::generate_spec(scale, theme)};
}

PlantedSpec generated_planted_spec(std::uint64_t master_seed, int index,
                                   const FaultConfig& config) {
  const std::uint64_t cs = case_seed(master_seed, CaseKind::kPlanted, index);
  util::Rng generation(cs);
  return plant_faults(generation, config,
                      "planted" + std::to_string(index), mix(cs + 1));
}

}  // namespace speccc::difftest
