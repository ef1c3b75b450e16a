#include "cache/store.hpp"

#include <list>
#include <mutex>
#include <ostream>
#include <unordered_map>

namespace speccc::cache {

StatsSnapshot StatsSnapshot::since(const StatsSnapshot& earlier) const {
  StatsSnapshot delta;
  delta.l1_hits = l1_hits - earlier.l1_hits;
  delta.l1_misses = l1_misses - earlier.l1_misses;
  delta.l2_hits = l2_hits - earlier.l2_hits;
  delta.l2_misses = l2_misses - earlier.l2_misses;
  delta.evictions = evictions - earlier.evictions;
  return delta;
}

void print_stats(std::ostream& os, const StatsSnapshot& stats) {
  os << "cache: L1 " << stats.l1_hits << " hits / " << stats.l1_misses
     << " misses, L2 " << stats.l2_hits << " hits / " << stats.l2_misses
     << " misses, " << stats.evictions << " evictions\n";
}

namespace {

/// The per-thread accumulator behind Store::thread_stats(). Plain fields:
/// only the owning thread ever touches its copy.
thread_local StatsSnapshot tls_stats;

}  // namespace

namespace detail {

template <typename Value>
struct ShardedMap<Value>::Shard {
  mutable std::mutex mutex;
  /// Eviction order: front is next to evict. Inserts append, and every
  /// get() hit splices its entry to the back.
  mutable std::list<std::pair<util::Digest, Value>> entries;
  mutable std::unordered_map<util::Digest,
                             typename std::list<std::pair<util::Digest, Value>>::iterator>
      index;
};

template <typename Value>
ShardedMap<Value>::ShardedMap(const StoreOptions& options)
    : shards_(options.shards == 0 ? 1 : options.shards) {
  const std::size_t n = shards_.size();
  const std::size_t max_entries = options.max_entries;
  if (max_entries != 0) {
    // Exact global cap: per-shard caps differ by at most one and sum to
    // max_entries. Shards whose cap is zero (cap < shard count) decline
    // inserts rather than stretching the documented total.
    shard_caps_.resize(n);
    const std::size_t base = max_entries / n;
    const std::size_t remainder = max_entries % n;
    for (std::size_t i = 0; i < n; ++i) {
      shard_caps_[i] = base + (i < remainder ? 1 : 0);
    }
  }
}

template <typename Value>
ShardedMap<Value>::~ShardedMap() = default;

template <typename Value>
std::optional<Value> ShardedMap<Value>::get(const util::Digest& key) const {
  const Shard& shard = shards_[key.hi % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return std::nullopt;
  shard.entries.splice(shard.entries.end(), shard.entries, it->second);
  return it->second->second;
}

template <typename Value>
std::size_t ShardedMap<Value>::put(const util::Digest& key, const Value& value) {
  const std::size_t which = key.hi % shards_.size();
  Shard& shard = shards_[which];
  const std::size_t cap =
      shard_caps_.empty() ? 0 : shard_caps_[which];  // 0 in a capped map: declined
  if (!shard_caps_.empty() && cap == 0) return 0;
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.index.count(key) != 0) return 0;  // racing writer got here first
  std::size_t evicted = 0;
  while (cap != 0 && shard.index.size() >= cap) {
    shard.index.erase(shard.entries.front().first);
    shard.entries.pop_front();
    ++evicted;
  }
  shard.entries.emplace_back(key, value);
  shard.index.emplace(key, std::prev(shard.entries.end()));
  return evicted;
}

template <typename Value>
void ShardedMap<Value>::for_each(
    const std::function<void(const util::Digest&, const Value&)>& visit) const {
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& entry : shard.entries) visit(entry.first, entry.second);
  }
}

template <typename Value>
std::size_t ShardedMap<Value>::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.index.size();
  }
  return total;
}

// One instantiation per row of the kind table.
template class ShardedMap<ValueOf<Kind::kSentence>>;
template class ShardedMap<ValueOf<Kind::kSynthesis>>;
template class ShardedMap<ValueOf<Kind::kStageThree>>;

}  // namespace detail

template <std::size_t... I>
Store::Store(const StoreOptions& options, std::index_sequence<I...>)
    : options_(options), maps_(((void)I, options)...) {}

Store::Store(StoreOptions options)
    : Store(options, std::make_index_sequence<kKindCount>{}) {}

void Store::count(Level level, bool hit) const {
  const bool l1 = level == Level::kL1;
  if (hit) {
    (l1 ? l1_hits_ : l2_hits_).fetch_add(1, std::memory_order_relaxed);
    ++(l1 ? tls_stats.l1_hits : tls_stats.l2_hits);
  } else {
    (l1 ? l1_misses_ : l2_misses_).fetch_add(1, std::memory_order_relaxed);
    ++(l1 ? tls_stats.l1_misses : tls_stats.l2_misses);
  }
}

void Store::record_eviction(std::size_t evicted) {
  if (evicted == 0) return;
  evictions_.fetch_add(evicted, std::memory_order_relaxed);
  tls_stats.evictions += evicted;
}

StatsSnapshot Store::thread_stats() { return tls_stats; }

StatsSnapshot Store::stats() const {
  StatsSnapshot snapshot;
  snapshot.l1_hits = l1_hits_.load(std::memory_order_relaxed);
  snapshot.l1_misses = l1_misses_.load(std::memory_order_relaxed);
  snapshot.l2_hits = l2_hits_.load(std::memory_order_relaxed);
  snapshot.l2_misses = l2_misses_.load(std::memory_order_relaxed);
  snapshot.evictions = evictions_.load(std::memory_order_relaxed);
  return snapshot;
}

std::size_t Store::size() const {
  std::size_t total = 0;
  for_each_kind([&]<Kind K>() { total += map<K>().size(); });
  return total;
}

std::size_t Store::merge(const Store& other) {
  // put() is first-writer-wins, so merging never overwrites an existing
  // entry; the eviction counters still record any overflow the merge
  // causes under a capped store.
  const std::size_t before = size();
  for_each_kind([&]<Kind K>() {
    other.for_each<K>(
        [this](const util::Digest& key, const ValueOf<K>& value) {
          put<K>(key, value);
        });
  });
  return size() - before;
}

// ---- Key derivation ---------------------------------------------------------

std::string normalize_sentence(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  for (char c : text) {
    const bool blank = c == ' ' || c == '\t' || c == '\r' || c == '\n';
    if (blank) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  return out;
}

util::Digest sentence_key(std::string_view normalized_text,
                          const util::Digest& lexicon_fingerprint) {
  return util::DigestBuilder("sentence")
      .str(normalized_text)
      .digest(lexicon_fingerprint)
      .finalize();
}

namespace {

void fold_signature(util::DigestBuilder& builder,
                    const synth::IoSignature& signature) {
  builder.u64(signature.inputs.size());
  for (const std::string& in : signature.inputs) builder.str(in);
  builder.u64(signature.outputs.size());
  for (const std::string& out : signature.outputs) builder.str(out);
}

void fold_options(util::DigestBuilder& builder,
                  const synth::SynthesisOptions& options) {
  builder.u64(options.extract ? 1 : 0);
  builder.u64(options.max_extract_inputs);
}

void fold_formulas(util::DigestBuilder& builder,
                   const std::vector<ltl::Formula>& formulas) {
  builder.u64(formulas.size());
  for (ltl::Formula f : formulas) builder.digest(ltl::canonical_digest(f));
}

}  // namespace

util::Digest synthesis_key(const std::vector<ltl::Formula>& formulas,
                           const synth::IoSignature& signature,
                           const synth::SynthesisOptions& options) {
  util::DigestBuilder builder("synthesis");
  fold_formulas(builder, formulas);
  fold_signature(builder, signature);
  fold_options(builder, options);
  return builder.finalize();
}

util::Digest stage_three_key(const std::vector<ltl::Formula>& formulas,
                             const synth::IoSignature& signature,
                             const synth::SynthesisOptions& options,
                             const refine::LocalizeOptions& localize_options,
                             bool refine_first) {
  util::DigestBuilder builder("stage-three");
  fold_formulas(builder, formulas);
  fold_signature(builder, signature);
  fold_options(builder, options);
  builder.u64(localize_options.max_correction_sets);
  builder.u64(refine_first ? 1 : 0);
  return builder.finalize();
}

}  // namespace speccc::cache
