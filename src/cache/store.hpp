// Cross-spec memoization: a thread-safe, two-level, content-addressed
// store for the artifacts the Fig. 1 pipeline recomputes across repeated
// and revised specifications.
//
//   Level 1 (per sentence): the structured-English parse
//     (nlp::parse_sentence output), keyed by the whitespace-normalized
//     sentence text plus the lexicon fingerprint. Requirements documents
//     under revision share most of their sentences across revisions, and
//     repeated specs share all of them. A single run parses each sentence
//     once (stage 1 is one translation pass, time abstraction included), so
//     this level hits only across runs or on a sentence repeated within
//     one spec.
//
//   Level 2 (per spec): decision artifacts keyed by ltl::canonical_digest
//     of the formulas plus the I/O signature and every option the artifact
//     depends on -- one artifact per later stage of the pipeline:
//       stage 2, the whole-spec synthesis verdict;
//       stage 3, refinement and the per-requirement satisfiability screen
//         together (refine::StageThree: the refinement outcome when
//         refinement ran, and the unsatisfiable requirement indices).
//     A repeated spec skips synthesis entirely, and a repeated
//     inconsistent spec asks stage 3 no realizability question: on a miss
//     the stage builds its oracle, refines and screens, and the screen
//     alone costs one synthesize call per requirement it asks.
//     Time abstraction is not memoized: its exact solver takes a few
//     microseconds per spec.
//
// One kind table (Kind + KindInfo below) gives every artifact its value
// type, counter level and snapshot tag; Store's find<K>/put<K>/for_each<K>,
// size(), merge() and the snapshot sections all iterate it, and memoize()
// is the one find-compute-put path every caller takes.
//
// Key derivation rule: a key must cover EVERYTHING the cached value is a
// function of -- the cache is authoritative on a hit and never validates.
// The *_key helpers below are the single source of truth; extend them
// (never reuse a domain string) when adding a cached artifact.
//
// Concurrency: each level is sharded over mutex-protected maps (shard =
// key bits), so batch workers (batch/batch.hpp) and serve workers
// (serve/service.hpp) share one store without serializing on a global
// lock -- this is the sanctioned exception to the per-worker-isolation
// threading rule, in the same class as the formula intern arena. Values
// are returned by copy; entries are immutable once inserted. Two workers
// may race to compute the same missing entry; both compute, both insert
// the identical value, and the counters record two misses -- which is why
// hit/miss statistics are diagnostics (like timings), excluded from
// canonical batch reports.
//
// Determinism: every cached computation is a pure function of its key, so
// a run with a store (fresh or warm) is byte-identical in all canonical
// outputs to a run without one; only wall-clock changes. batch_test and
// the CI cache smoke enforce this.
//
// Eviction: least-recently-used per shard -- a lookup hit refreshes its
// entry, so the hot specifications a long-lived serve process sees recur
// survive a full shard, and batch sweeps (no lookup between inserts)
// evict in insertion order.
// StoreOptions::max_entries is a GLOBAL cap per artifact kind, enforced
// exactly: per-shard caps differ by at most one and sum to max_entries
// (shards low in index take the remainder). When max_entries is positive
// but smaller than the shard count, the shards whose cap works out to
// zero decline inserts -- lookups there always miss, which only costs
// recomputation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "ltl/formula.hpp"
#include "nlp/syntax.hpp"
#include "refine/refine.hpp"
#include "synth/synthesizer.hpp"
#include "util/digest.hpp"

namespace speccc::cache {

struct StoreOptions {
  /// Mutex shards per artifact kind; more shards = less contention.
  std::size_t shards = 16;
  /// Global entry cap per artifact kind (sentences, synthesis, stage 3
  /// each get their own cap), enforced exactly across shards (per-shard
  /// caps differ by at most one and sum to this). 0 means unlimited.
  std::size_t max_entries = 1 << 16;
};

/// Point-in-time counters. "l1" is the sentence level, "l2" aggregates the
/// formula/spec-level artifact kinds. Snapshots are monotone; subtract two
/// to scope statistics to one batch (BatchReport does this).
struct StatsSnapshot {
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] std::uint64_t hits() const { return l1_hits + l2_hits; }
  [[nodiscard]] std::uint64_t misses() const { return l1_misses + l2_misses; }
  /// this - earlier, fieldwise (for per-batch deltas).
  [[nodiscard]] StatsSnapshot since(const StatsSnapshot& earlier) const;
};

/// The one-line human rendering ("cache: L1 H hits / M misses, L2 ..."),
/// shared by the batch summary and speccc_batch --cache-stats so the two
/// cannot drift.
void print_stats(std::ostream& os, const StatsSnapshot& stats);

namespace detail {

/// One sharded LRU map. Value types must be copyable; get() copies out
/// under the shard lock and refreshes the entry's recency while it holds
/// it.
template <typename Value>
class ShardedMap {
 public:
  explicit ShardedMap(const StoreOptions& options);
  ~ShardedMap();
  ShardedMap(const ShardedMap&) = delete;
  ShardedMap& operator=(const ShardedMap&) = delete;

  [[nodiscard]] std::optional<Value> get(const util::Digest& key) const;
  /// Inserts unless the key is already present; evicts the least recently
  /// used entry when the shard is at capacity (shards capped at zero
  /// decline the insert). Returns evictions made.
  std::size_t put(const util::Digest& key, const Value& value);
  [[nodiscard]] std::size_t size() const;
  /// Visit every live entry (shard by shard, least recently used first
  /// within a shard; callers needing a deterministic order sort by key).
  /// The callback runs under the shard lock: keep it cheap and never call
  /// back into the same map.
  void for_each(
      const std::function<void(const util::Digest&, const Value&)>& visit) const;

 private:
  struct Shard;
  std::vector<Shard> shards_;
  std::vector<std::size_t> shard_caps_;  // empty = unlimited
};

}  // namespace detail

// ---- The kind table ---------------------------------------------------------

/// Every memoized artifact kind, in snapshot section order.
enum class Kind : std::uint8_t {
  kSentence,
  kSynthesis,
  kStageThree,
};
inline constexpr std::size_t kKindCount = 3;

/// Which StatsSnapshot counters a kind's lookups count against.
enum class Level { kL1, kL2 };

/// One row per kind: value type, counter level, snapshot section tag (the
/// tags are part of the on-disk format, cache/snapshot.hpp; tags 2, 4 and
/// 5 held the retired satisfiability, refinement and abstraction sections
/// and stay retired).
template <typename V, Level L, std::uint8_t Tag>
struct KindRow {
  using Value = V;
  static constexpr Level kLevel = L;
  static constexpr std::uint8_t kTag = Tag;
};
template <Kind K>
struct KindInfo;
template <>
struct KindInfo<Kind::kSentence> : KindRow<nlp::Sentence, Level::kL1, 1> {};
template <>
struct KindInfo<Kind::kSynthesis> : KindRow<synth::SynthesisResult, Level::kL2, 3> {};
template <>
struct KindInfo<Kind::kStageThree> : KindRow<refine::StageThree, Level::kL2, 6> {};

template <Kind K>
using ValueOf = typename KindInfo<K>::Value;

/// Call `fn.template operator()<K>()` for every kind, in table order.
template <typename Fn>
void for_each_kind(Fn&& fn) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (fn.template operator()<static_cast<Kind>(I)>(), ...);
  }(std::make_index_sequence<kKindCount>{});
}

class Store {
 public:
  explicit Store(StoreOptions options = {});

  /// Lookup, counted as a hit or miss against the kind's level.
  template <Kind K>
  [[nodiscard]] std::optional<ValueOf<K>> find(const util::Digest& key) const {
    auto result = map<K>().get(key);
    count(KindInfo<K>::kLevel, result.has_value());
    return result;  // non-const local: moves
  }

  /// Insert unless present (first writer wins, like racing workers).
  template <Kind K>
  void put(const util::Digest& key, const ValueOf<K>& value) {
    record_eviction(map<K>().put(key, value));
  }

  /// Visit every live entry of one kind (the snapshot surface,
  /// cache/snapshot.hpp). Iteration order is unspecified (the snapshot
  /// writer sorts by key); callbacks run under shard locks and do not
  /// touch the hit/miss counters.
  template <Kind K>
  void for_each(
      const std::function<void(const util::Digest&, const ValueOf<K>&)>& visit)
      const {
    map<K>().for_each(visit);
  }

  [[nodiscard]] StatsSnapshot stats() const;
  /// Total live entries across every artifact kind.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const StoreOptions& options() const { return options_; }

  /// Copy every entry of `other` absent from this store (first writer
  /// wins, like racing put()s; this store's caps apply). The shard
  /// coordinator merges per-shard snapshot stores with this. Returns
  /// entries added.
  std::size_t merge(const Store& other);

  /// Per-thread counters: every hit/miss/eviction any Store records on the
  /// calling thread also accumulates into a thread-local snapshot. A serve
  /// worker runs one request start-to-finish on one thread, so the delta
  /// of two thread_stats() calls is that request's exact cache accounting
  /// -- no cross-worker races, unlike the shared stats() counters.
  [[nodiscard]] static StatsSnapshot thread_stats();

 private:
  template <std::size_t... I>
  static auto maps_for(std::index_sequence<I...>)
      -> std::tuple<detail::ShardedMap<ValueOf<static_cast<Kind>(I)>>...>;
  using Maps = decltype(maps_for(std::make_index_sequence<kKindCount>{}));

  template <std::size_t... I>
  Store(const StoreOptions& options, std::index_sequence<I...>);

  template <Kind K>
  [[nodiscard]] auto& map() {
    return std::get<static_cast<std::size_t>(K)>(maps_);
  }
  template <Kind K>
  [[nodiscard]] const auto& map() const {
    return std::get<static_cast<std::size_t>(K)>(maps_);
  }

  void count(Level level, bool hit) const;
  void record_eviction(std::size_t evicted);

  StoreOptions options_;
  Maps maps_;

  mutable std::atomic<std::uint64_t> l1_hits_{0};
  mutable std::atomic<std::uint64_t> l1_misses_{0};
  mutable std::atomic<std::uint64_t> l2_hits_{0};
  mutable std::atomic<std::uint64_t> l2_misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// The one find-compute-put path. With a null store this is just
/// `compute()`; otherwise a hit returns the stored value and a miss computes,
/// stores and returns it. `key` is a callable returning the digest, so a
/// run without a store never hashes.
template <Kind K, typename KeyFn, typename ComputeFn>
[[nodiscard]] ValueOf<K> memoize(Store* store, KeyFn&& key, ComputeFn&& compute) {
  if (store == nullptr) return compute();
  const util::Digest digest = key();
  if (auto hit = store->find<K>(digest)) return *std::move(hit);
  ValueOf<K> value = compute();
  store->put<K>(digest, value);
  return value;
}

// ---- Key derivation ---------------------------------------------------------
// Each helper folds in everything its artifact depends on, under a unique
// domain string. Collisions across kinds are impossible (separate maps);
// collisions within a kind are 2^-128 events.

/// Level 1: (whitespace-normalized sentence, lexicon fingerprint).
[[nodiscard]] util::Digest sentence_key(std::string_view normalized_text,
                                        const util::Digest& lexicon_fingerprint);

/// Whitespace normalization for sentence_key: trim plus collapse runs of
/// blanks to single spaces. Case is preserved -- mid-sentence
/// capitalization is grammatically meaningful (proper names).
[[nodiscard]] std::string normalize_sentence(std::string_view text);

/// Level 2: whole-spec synthesis (formulas in order, signature, options).
[[nodiscard]] util::Digest synthesis_key(const std::vector<ltl::Formula>& formulas,
                                         const synth::IoSignature& signature,
                                         const synth::SynthesisOptions& options);

/// Level 2: stage 3 (formulas, initial partition via the signature it
/// induces, synthesis options, localization options -- the cached outcome
/// embeds the correction sets, which depend on the enumeration cap -- and
/// whether refinement runs before the screen).
[[nodiscard]] util::Digest stage_three_key(
    const std::vector<ltl::Formula>& formulas,
    const synth::IoSignature& signature,
    const synth::SynthesisOptions& options,
    const refine::LocalizeOptions& localize_options, bool refine_first);

}  // namespace speccc::cache
