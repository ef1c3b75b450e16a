// Substrate micro-benchmarks: the BDD package, the safety-game fixpoint, and
// the GPVW tableau -- the infrastructure every consistency check rides on.
#include <benchmark/benchmark.h>

#include "automata/gpvw.hpp"
#include "bdd/bdd.hpp"
#include "game/symbolic.hpp"
#include "ltl/parser.hpp"
#include "synth/monitors.hpp"
#include "util/diagnostics.hpp"

namespace {

// BDD: the n-bit adder equivalence x + y == y + x.
void BM_BddAdderEquivalence(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    speccc::bdd::Manager mgr;
    std::vector<int> xs;
    std::vector<int> ys;
    for (int i = 0; i < bits; ++i) {
      xs.push_back(mgr.new_var());
      ys.push_back(mgr.new_var());
    }
    const auto sum = [&mgr](const std::vector<int>& a, const std::vector<int>& b) {
      std::vector<speccc::bdd::Bdd> out;
      speccc::bdd::Bdd carry = mgr.bdd_false();
      for (std::size_t i = 0; i < a.size(); ++i) {
        const auto av = mgr.var(a[i]);
        const auto bv = mgr.var(b[i]);
        out.push_back(mgr.bdd_xor(mgr.bdd_xor(av, bv), carry));
        carry = mgr.bdd_or(mgr.bdd_and(av, bv),
                           mgr.bdd_and(carry, mgr.bdd_xor(av, bv)));
      }
      return out;
    };
    const auto lhs = sum(xs, ys);
    const auto rhs = sum(ys, xs);
    bool equal = true;
    for (std::size_t i = 0; i < lhs.size(); ++i) equal = equal && lhs[i] == rhs[i];
    speccc_check(equal, "adders must be equivalent");
    benchmark::DoNotOptimize(mgr.node_count());
  }
}
BENCHMARK(BM_BddAdderEquivalence)->DenseRange(8, 32, 8)->Unit(benchmark::kMillisecond);

// Safety-game fixpoint: the uncontrollable-predecessor step computed the
// fused way (one preimage/and_exists pass per CPre, what game::cpre does
// since the complement-edge rewrite) against the staged three-pass
// formulation (compose, conjoin, quantify) on the same engine. The spec is
// n request/grant monitors -- n Buechi sets, so every nu-iteration runs n
// mu-fixpoints of CPre calls.
void BM_GameFixpoint(benchmark::State& state) {
  const int reqs = static_cast<int>(state.range(0));
  const bool fused = state.range(1) != 0;

  std::vector<speccc::ltl::Formula> spec;
  speccc::synth::IoSignature signature;
  for (int i = 0; i < reqs; ++i) {
    const std::string req = "req" + std::to_string(i);
    const std::string grant = "grant" + std::to_string(i);
    spec.push_back(speccc::ltl::parse("G (" + req + " -> F " + grant + ")"));
    spec.push_back(speccc::ltl::parse("G (" + grant + " -> X !" + req + ")"));
    signature.inputs.push_back(req);
    signature.outputs.push_back(grant);
  }

  const auto cpre_staged = [](const speccc::game::SymbolicGame& game,
                              speccc::bdd::Bdd target) {
    speccc::bdd::Manager& mgr = *game.manager;
    std::vector<speccc::bdd::Bdd> map(static_cast<std::size_t>(mgr.num_vars()));
    for (std::size_t b = 0; b < game.state_vars.size(); ++b) {
      map[static_cast<std::size_t>(game.state_vars[b])] = game.next_state[b];
    }
    const auto step = mgr.bdd_and(game.safe, mgr.vector_compose(target, map));
    return mgr.forall(mgr.exists(step, game.output_vars), game.input_vars);
  };

  for (auto _ : state) {
    speccc::bdd::Manager mgr;
    const auto compiled = speccc::synth::compile_monitors(mgr, spec, signature);
    const speccc::game::SymbolicGame& game = compiled.game;

    // nu Z. AND_j mu Y. CPre((F_j and CPre(Z)) or Y), no extraction.
    const auto cpre = [&](speccc::bdd::Bdd target) {
      return fused ? speccc::game::cpre(game, target)
                   : cpre_staged(game, target);
    };
    speccc::bdd::Bdd z = mgr.bdd_true();
    int iterations = 0;
    for (;;) {
      ++iterations;
      speccc::bdd::Bdd conj = mgr.bdd_true();
      const speccc::bdd::Bdd cpre_z = cpre(z);
      for (const speccc::bdd::Bdd& f : game.buchi) {
        const speccc::bdd::Bdd target = mgr.bdd_and(f, cpre_z);
        speccc::bdd::Bdd y = mgr.bdd_false();
        for (;;) {
          const speccc::bdd::Bdd next = mgr.bdd_or(target, cpre(y));
          if (next == y) break;
          y = next;
        }
        conj = mgr.bdd_and(conj, y);
      }
      if (conj == z) break;
      z = conj;
    }
    benchmark::DoNotOptimize(iterations);
    benchmark::DoNotOptimize(mgr.node_count());
  }
}
// MinTime pinned: one fixpoint solve is tens of microseconds, below the
// noise floor of the shared runners bench_compare tolerates.
BENCHMARK(BM_GameFixpoint)
    ->ArgNames({"reqs", "fused"})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({12, 0})
    ->Args({12, 1})
    ->MinTime(0.25)
    ->Unit(benchmark::kMillisecond);

// GPVW tableau on formulas of growing temporal depth.
void BM_GpvwNestedUntil(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  speccc::ltl::Formula f = speccc::ltl::ap("p0");
  for (int i = 1; i <= depth; ++i) {
    f = speccc::ltl::until(speccc::ltl::ap("p" + std::to_string(i)), f);
  }
  for (auto _ : state) {
    auto nbw = speccc::automata::ltl_to_nbw(f);
    benchmark::DoNotOptimize(nbw.num_states());
  }
  state.SetComplexityN(depth);
}
BENCHMARK(BM_GpvwNestedUntil)->DenseRange(1, 6)->Unit(benchmark::kMicrosecond)->Complexity();

}  // namespace

BENCHMARK_MAIN();
