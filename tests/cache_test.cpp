// Tests for the cross-spec memoization layer (cache/store.hpp): canonical
// digest stability, lexicon fingerprint invalidation, store semantics
// (hit/miss counters, LRU eviction under the exact global max_entries
// cap, per-thread accounting), the cached-equals-uncached
// contract at the translator and pipeline levels, and the persistent
// snapshot format (cache/snapshot.hpp): round trips, pinned golden
// bytes, structured rejection of damaged files, and Store::merge.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/snapshot.hpp"
#include "cache/store.hpp"
#include "core/pipeline.hpp"
#include "ltl/formula.hpp"
#include "ltl/parser.hpp"
#include "nlp/lexicon.hpp"
#include "refine/refine.hpp"
#include "semantics/antonyms.hpp"
#include "synth/synthesizer.hpp"
#include "translate/translator.hpp"
#include "util/digest.hpp"

namespace cache = speccc::cache;
namespace ltl = speccc::ltl;
namespace nlp = speccc::nlp;
using speccc::util::Digest;
using speccc::util::DigestBuilder;

namespace {

// The store and snapshot tests below use the synthesis kind (level 2): a
// bare state-bit count tells two values apart.
constexpr cache::Kind kSyn = cache::Kind::kSynthesis;

speccc::synth::SynthesisResult bits(std::size_t n) {
  speccc::synth::SynthesisResult r;
  r.state_bits = n;
  return r;
}

std::vector<speccc::translate::RequirementText> door_lock_spec() {
  return {
      {"R1", "If the door button is pressed, the lock signal is updated."},
      {"R2", "When the door sensor is detected, eventually the alarm is raised."},
      {"R3",
       "If the battery status is measured, the monitor light is activated in "
       "10 seconds."},
  };
}

/// Mirrors examples/specs/faults/reservation.txt: fault A is the chain
/// R1+R2+R3, fault B the contradiction R4 vs R5.
std::vector<speccc::translate::RequirementText> reservation_spec() {
  return {
      {"R1", "If the booking request is received, the ticket is issued."},
      {"R2", "If the ticket is issued, the confirmation message is sent."},
      {"R3",
       "If the booking request is received, the confirmation message is not "
       "sent."},
      {"R4", "If the cancel button is pressed, the refund notice is displayed."},
      {"R5",
       "If the cancel button is pressed, the refund notice is not displayed."},
      {"R6", "If the payment card is detected, the receipt record is stored."},
  };
}

}  // namespace

// ---- util::Digest -----------------------------------------------------------

TEST(DigestBuilder, AppendersAreDomainSeparatedAndOrderSensitive) {
  const Digest a = DigestBuilder().str("ab").str("c").finalize();
  const Digest b = DigestBuilder().str("a").str("bc").finalize();
  EXPECT_NE(a, b);  // length prefixes prevent concatenation aliasing

  const Digest c = DigestBuilder().u64(0).finalize();
  const Digest d = DigestBuilder().str("").finalize();
  EXPECT_NE(c, d);  // tag bytes separate the appender kinds

  EXPECT_EQ(DigestBuilder("x").u64(7).finalize(),
            DigestBuilder("x").u64(7).finalize());
  EXPECT_NE(DigestBuilder("x").u64(7).finalize(),
            DigestBuilder("y").u64(7).finalize());
}

TEST(DigestBuilder, HexRendersBothLanes) {
  const Digest d{0x0123456789abcdefULL, 0xfedcba9876543210ULL};
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
}

// ---- ltl::canonical_digest --------------------------------------------------

// The digest is a persistent cache-key format: these pinned values detect
// any accidental change to the algorithm (which would silently invalidate
// — or worse, mis-match — every key derived from formulas).
TEST(CanonicalDigest, PinnedValuesAreStable) {
  EXPECT_EQ(ltl::canonical_digest(ltl::parse("G (a -> b)")).hex(),
            "8e66b93de56689d491d35e4e908126d3");
  EXPECT_EQ(ltl::canonical_digest(ltl::parse("a U b")).hex(),
            "00910f8019924b33dd8cb0a04dd9c5a7");
  EXPECT_EQ(ltl::canonical_digest(ltl::tru()).hex(),
            "47c7742b0513c67ae146072891946d32");
}

TEST(CanonicalDigest, StructurallyEqualFormulasAgreeHoweverBuilt) {
  const ltl::Formula parsed = ltl::parse("G (a -> b)");
  const ltl::Formula built =
      ltl::always(ltl::implies(ltl::ap("a"), ltl::ap("b")));
  EXPECT_EQ(ltl::canonical_digest(parsed), ltl::canonical_digest(built));

  // Print/parse round trip preserves the digest.
  EXPECT_EQ(ltl::canonical_digest(ltl::parse(ltl::to_string(parsed))),
            ltl::canonical_digest(parsed));
}

TEST(CanonicalDigest, DistinguishesStructureOperatorsAndNames) {
  const auto d = [](const char* text) {
    return ltl::canonical_digest(ltl::parse(text));
  };
  EXPECT_NE(d("a U b"), d("b U a"));      // child order
  EXPECT_NE(d("a U b"), d("a W b"));      // operator
  EXPECT_NE(d("a && b"), d("a || b"));    // n-ary operator
  EXPECT_NE(d("F alpha"), d("F alphb"));  // proposition name
  EXPECT_NE(d("X a"), d("X X a"));        // depth
}

TEST(CanonicalDigest, DeepNextChainsDoNotRecurse) {
  // Timed requirements produce X-chains hundreds deep; the walk must be
  // iterative (this would overflow a naive recursion at -O0 sanitizer
  // stack sizes long before 50k).
  const ltl::Formula deep = ltl::next_n(ltl::ap("p"), 50'000);
  const ltl::Formula deep2 = ltl::next_n(ltl::ap("p"), 50'000);
  EXPECT_EQ(ltl::canonical_digest(deep), ltl::canonical_digest(deep2));
}

// ---- nlp::Lexicon::fingerprint ----------------------------------------------

TEST(LexiconFingerprint, ContentDeterminesFingerprintNotInsertionOrder) {
  nlp::Lexicon a;
  a.add("door", nlp::Pos::kNoun);
  a.add_verb("press");
  a.add("red", nlp::Pos::kAdjective);

  nlp::Lexicon b;
  b.add("red", nlp::Pos::kAdjective);
  b.add_verb("press");
  b.add("door", nlp::Pos::kNoun);

  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Pinned on a fixed hand-composed lexicon (NOT on builtin(), whose
  // vocabulary may legitimately grow): detects accidental changes to the
  // fingerprint algorithm, a persistent cache-key format.
  EXPECT_EQ(a.fingerprint().hex(), "98f0377d91e0468e578e70bcd5e318f6");
}

TEST(LexiconFingerprint, AnyVocabularyEditChangesTheFingerprint) {
  nlp::Lexicon base = nlp::Lexicon::builtin();
  const Digest before = base.fingerprint();

  nlp::Lexicon with_word = base;
  with_word.add("flux", nlp::Pos::kNoun);
  EXPECT_NE(with_word.fingerprint(), before);

  nlp::Lexicon with_verb = base;
  with_verb.add_verb("flux");
  EXPECT_NE(with_verb.fingerprint(), before);
  EXPECT_NE(with_verb.fingerprint(), with_word.fingerprint());

  nlp::Lexicon with_irregular = base;
  with_irregular.add_irregular_verb("floxen", "flux", nlp::VerbForm::kPast);
  EXPECT_NE(with_irregular.fingerprint(), before);
}

// ---- key derivation ---------------------------------------------------------

TEST(CacheKeys, SentenceKeyNormalizesWhitespaceButPreservesCase) {
  EXPECT_EQ(cache::normalize_sentence("  the  Air Ok\tsignal \n"),
            "the Air Ok signal");

  const Digest lex = nlp::Lexicon::builtin().fingerprint();
  EXPECT_EQ(cache::sentence_key(cache::normalize_sentence("a   b"), lex),
            cache::sentence_key(cache::normalize_sentence(" a b "), lex));
  // Case is meaningful (proper names): never folded by normalization.
  EXPECT_NE(cache::sentence_key("the Air Ok signal", lex),
            cache::sentence_key("the air ok signal", lex));
  // The lexicon fingerprint is part of the key: vocabulary edits
  // invalidate by changing the key, not by purging entries.
  nlp::Lexicon extended = nlp::Lexicon::builtin();
  extended.add("flux", nlp::Pos::kNoun);
  EXPECT_NE(cache::sentence_key("a b", lex),
            cache::sentence_key("a b", extended.fingerprint()));
}

TEST(CacheKeys, SynthesisKeyCoversFormulasSignatureAndOptions) {
  const std::vector<ltl::Formula> formulas{ltl::parse("G (a -> b)")};
  speccc::synth::IoSignature signature{{"a"}, {"b"}};
  speccc::synth::SynthesisOptions options;

  const Digest base = cache::synthesis_key(formulas, signature, options);
  EXPECT_EQ(base, cache::synthesis_key(formulas, signature, options));

  speccc::synth::IoSignature flipped{{"b"}, {"a"}};
  EXPECT_NE(base, cache::synthesis_key(formulas, flipped, options));

  // Extraction changes the cached value (a controller rides along).
  speccc::synth::SynthesisOptions extracting = options;
  extracting.extract = true;
  EXPECT_NE(base, cache::synthesis_key(formulas, signature, extracting));
  speccc::synth::SynthesisOptions capped = options;
  capped.max_extract_inputs = options.max_extract_inputs + 1;
  EXPECT_NE(base, cache::synthesis_key(formulas, signature, capped));

  // The cancel predicate is not part of the key: it never changes a
  // cached value, only whether one is produced.
  speccc::synth::SynthesisOptions polled = options;
  polled.cancelled = [] { return false; };
  EXPECT_EQ(base, cache::synthesis_key(formulas, signature, polled));

  // Stage-3 and synthesis artifacts never share keys even for equal
  // inputs (separate domains).
  EXPECT_NE(base, cache::stage_three_key(formulas, signature, options, {}, true));
}

TEST(CacheKeys, StageThreeKeyCoversLocalizationAndTheRefinementSwitch) {
  const std::vector<ltl::Formula> formulas{ltl::parse("G (a -> b)")};
  const speccc::synth::IoSignature signature{{"a"}, {"b"}};
  const speccc::synth::SynthesisOptions options;
  speccc::refine::LocalizeOptions localize;
  const Digest base =
      cache::stage_three_key(formulas, signature, options, localize, true);
  EXPECT_EQ(base,
            cache::stage_three_key(formulas, signature, options, localize, true));
  // A screen-only stage 3 stores no refinement outcome.
  EXPECT_NE(base,
            cache::stage_three_key(formulas, signature, options, localize, false));
  // The cached outcome embeds the correction sets, capped by this knob.
  localize.max_correction_sets = 4;
  EXPECT_NE(base,
            cache::stage_three_key(formulas, signature, options, localize, true));
}

// ---- cache::Store -----------------------------------------------------------

TEST(Store, CountsHitsAndMissesPerLevel) {
  cache::Store store;
  const Digest key = cache::synthesis_key({ltl::parse("G (a -> b)")},
                                          {{"a"}, {"b"}}, {});

  EXPECT_FALSE(store.find<kSyn>(key).has_value());
  store.put<kSyn>(key, bits(10));
  const auto hit = store.find<kSyn>(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->state_bits, 10u);

  const cache::StatsSnapshot stats = store.stats();
  EXPECT_EQ(stats.l2_misses, 1u);
  EXPECT_EQ(stats.l2_hits, 1u);
  EXPECT_EQ(stats.l1_hits + stats.l1_misses, 0u);
  EXPECT_EQ(stats.hits(), 1u);
  EXPECT_EQ(stats.misses(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(Store, EvictsOldestFirstUnderMaxEntries) {
  cache::StoreOptions options;
  options.shards = 1;  // single shard, no lookup between inserts: the
                       // least recently used entry is the oldest
  options.max_entries = 4;
  cache::Store store(options);

  std::vector<Digest> keys;
  for (int i = 0; i < 6; ++i) {
    keys.push_back(DigestBuilder("test").u64(i).finalize());
    store.put<kSyn>(keys.back(), bits(i + 1));
  }

  EXPECT_EQ(store.size(), 4u);
  EXPECT_EQ(store.stats().evictions, 2u);
  EXPECT_FALSE(store.find<kSyn>(keys[0]).has_value());  // evicted
  EXPECT_FALSE(store.find<kSyn>(keys[1]).has_value());  // evicted
  for (int i = 2; i < 6; ++i) {
    EXPECT_TRUE(store.find<kSyn>(keys[i]).has_value()) << i;
  }
}

TEST(Store, GlobalCapIsExactEvenWhenShardsDoNotDivideIt) {
  // Regression pin: the cap used to be ceiling-split per shard, so
  // shards=4 with max_entries=10 could hold up to 12 entries. The cap is
  // documented GLOBAL and enforced exactly: per-shard caps differ by at
  // most one and sum to max_entries.
  cache::StoreOptions options;
  options.shards = 4;
  options.max_entries = 10;  // not divisible by 4
  cache::Store store(options);

  for (int i = 0; i < 200; ++i) {
    store.put<kSyn>(DigestBuilder("cap").u64(i).finalize(), bits(1));
  }
  EXPECT_LE(store.size(), 10u);
  // Keys spread over 4 shards; 200 inserts certainly filled every shard,
  // so the store sits exactly at the global cap.
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.stats().evictions, 200u - 10u);
}

TEST(Store, CapBelowShardCountStillAdmitsSomewhereAndNeverExceeds) {
  // The documented corner: max_entries < shards leaves some shards with a
  // zero cap; they decline inserts (a miss there only costs
  // recomputation), while the store still never exceeds the global cap.
  cache::StoreOptions options;
  options.shards = 8;
  options.max_entries = 3;
  cache::Store store(options);
  for (int i = 0; i < 100; ++i) {
    store.put<kSyn>(DigestBuilder("tiny").u64(i).finalize(), bits(1));
  }
  EXPECT_LE(store.size(), 3u);
  EXPECT_GT(store.size(), 0u);
}

TEST(Store, EvictsTheLeastRecentlyUsedEntry) {
  // Insert A then B (cap 2), touch A, insert C: B is evicted (least
  // recently used) because the touch refreshed A.
  const Digest a = DigestBuilder("ev").u64(1).finalize();
  const Digest b = DigestBuilder("ev").u64(2).finalize();
  const Digest c = DigestBuilder("ev").u64(3).finalize();

  cache::StoreOptions options;
  options.shards = 1;
  options.max_entries = 2;
  cache::Store store(options);

  store.put<kSyn>(a, bits(1));
  store.put<kSyn>(b, bits(1));
  EXPECT_TRUE(store.find<kSyn>(a).has_value());  // touch A
  store.put<kSyn>(c, bits(1));

  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.find<kSyn>(c).has_value());
  EXPECT_TRUE(store.find<kSyn>(a).has_value());
  EXPECT_FALSE(store.find<kSyn>(b).has_value());
}

TEST(Store, ThreadStatsAttributeWorkToTheCallingThread) {
  // Per-request accounting for the serve layer: the thread-local snapshot
  // delta scopes hits/misses to exactly what THIS thread did, regardless
  // of what other threads do to the same (or any) store.
  cache::Store store;
  const Digest here = DigestBuilder("tls").u64(1).finalize();
  const Digest there = DigestBuilder("tls").u64(2).finalize();

  std::thread other([&] {
    for (int i = 0; i < 5; ++i) {
      (void)store.find<kSyn>(there);  // 5 misses on the other thread
    }
  });
  other.join();

  const cache::StatsSnapshot before = cache::Store::thread_stats();
  (void)store.find<kSyn>(here);  // miss
  store.put<kSyn>(here, bits(1));
  (void)store.find<kSyn>(here);  // hit
  const cache::StatsSnapshot delta =
      cache::Store::thread_stats().since(before);
  EXPECT_EQ(delta.l2_misses, 1u);
  EXPECT_EQ(delta.l2_hits, 1u);
  EXPECT_EQ(delta.evictions, 0u);
  // The shared counters saw everything, including the other thread.
  EXPECT_EQ(store.stats().l2_misses, 6u);
}

TEST(Store, PutIsFirstWriterWinsAndIdempotent) {
  cache::Store store;
  const Digest key = DigestBuilder("test").u64(1).finalize();
  store.put<kSyn>(key, bits(2));
  store.put<kSyn>(key, bits(3));  // racing duplicate: ignored
  EXPECT_EQ(store.find<kSyn>(key)->state_bits, 2u);
  EXPECT_EQ(store.size(), 1u);
}

// ---- translator + pipeline integration --------------------------------------

TEST(TranslatorCache, CachedTranslationIsIdenticalAndHitsOnReuse) {
  const nlp::Lexicon lexicon = nlp::Lexicon::builtin();
  const auto dictionary = speccc::semantics::AntonymDictionary::builtin();
  const auto spec = door_lock_spec();

  const speccc::translate::Translator plain(lexicon, dictionary);
  const auto expected = plain.translate(spec);

  cache::Store store;
  const speccc::translate::Translator cached(lexicon, dictionary, {}, &store);
  const auto first = cached.translate(spec);
  const auto second = cached.translate(spec);

  ASSERT_EQ(first.requirements.size(), expected.requirements.size());
  for (std::size_t i = 0; i < expected.requirements.size(); ++i) {
    EXPECT_EQ(first.requirements[i].formula, expected.requirements[i].formula);
    EXPECT_EQ(second.requirements[i].formula, expected.requirements[i].formula);
    EXPECT_EQ(first.requirements[i].text, expected.requirements[i].text);
  }
  const cache::StatsSnapshot stats = store.stats();
  EXPECT_EQ(stats.l1_misses, spec.size());  // first pass parsed
  EXPECT_EQ(stats.l1_hits, spec.size());    // second pass fully cached
}

TEST(PipelineCache, TimedRunParsesEachSentenceOnce) {
  // Stage 1 is one translation pass even with a deadline to abstract, so
  // a fresh store sees one level-1 miss per sentence and no hit.
  const auto spec = door_lock_spec();
  speccc::core::PipelineOptions options;
  options.cache = std::make_shared<cache::Store>();
  const speccc::core::Pipeline pipeline(options);
  const auto result = pipeline.run("door_lock", spec);
  ASSERT_TRUE(result.abstraction.has_value());
  const cache::StatsSnapshot stats = options.cache->stats();
  EXPECT_EQ(stats.l1_hits, 0u);
  EXPECT_EQ(stats.l1_misses, spec.size());
}

TEST(PipelineCache, CachedRunMatchesUncachedAndSkipsRecomputation) {
  const auto spec = door_lock_spec();

  const speccc::core::Pipeline uncached;
  const auto expected = uncached.run("door_lock", spec);

  speccc::core::PipelineOptions options;
  options.cache = std::make_shared<cache::Store>();
  const speccc::core::Pipeline pipeline(options);
  const auto first = pipeline.run("door_lock", spec);
  const cache::StatsSnapshot after_first = options.cache->stats();
  const auto second = pipeline.run("door_lock", spec);
  const cache::StatsSnapshot after_second = options.cache->stats();

  for (const auto* run : {&first, &second}) {
    EXPECT_EQ(run->consistent, expected.consistent);
    EXPECT_EQ(run->num_formulas(), expected.num_formulas());
    EXPECT_EQ(run->partition.inputs, expected.partition.inputs);
    EXPECT_EQ(run->partition.outputs, expected.partition.outputs);
    EXPECT_EQ(run->unsatisfiable_requirements,
              expected.unsatisfiable_requirements);
    EXPECT_EQ(run->synthesis.verdict, expected.synthesis.verdict);
  }
  // The repeated run decides nothing anew: every level-2 lookup hits.
  EXPECT_GT(after_second.l2_hits, after_first.l2_hits);
  EXPECT_EQ(after_second.l2_misses, after_first.l2_misses);
  EXPECT_EQ(after_second.l1_misses, after_first.l1_misses);
}

// ---- persistent snapshots (cache/snapshot.hpp) ------------------------------

namespace {

namespace fs = std::filesystem;

std::string snapshot_path(const char* name) {
  const std::string dir = ::testing::TempDir() + "speccc_cache_snapshots";
  fs::create_directories(dir);
  return dir + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string to_hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0xf]);
  }
  return out;
}

// A hand-built two-entry store + fixed fingerprint: the snapshot of this
// store is a pure function of the FORMAT, not of any parser or pipeline
// behavior, so the golden-bytes pin below only breaks when the format
// itself changes (which must come with a version bump).
constexpr Digest kStampA{0x1111111111111111ULL, 0x2222222222222222ULL};

void fill_golden(cache::Store& store) {
  store.put<kSyn>(Digest{1, 2}, bits(2));
  speccc::refine::StageThree screened;  // screen only: no refinement ran
  screened.unsatisfiable = {1};
  store.put<cache::Kind::kStageThree>(
      Digest{0x0123456789abcdefULL, 0xfedcba9876543210ULL}, screened);
}

}  // namespace

TEST(Snapshot, PipelineRoundTripRerunsWithZeroMisses) {
  // door_lock is consistent; reservation (examples/specs/faults/) is
  // genuinely inconsistent, so under the --diagnose options its run stores
  // a stage-3 entry carrying the MUS and the correction sets.
  const std::string path = snapshot_path("roundtrip.snap");
  const Digest stamp = nlp::Lexicon::builtin().fingerprint();

  speccc::core::PipelineOptions options;
  options.localization.max_correction_sets = 4;
  options.cache = std::make_shared<cache::Store>();
  const speccc::core::Pipeline cold(options);
  const auto expected_lock = cold.run("door_lock", door_lock_spec());
  const auto expected_fault = cold.run("reservation", reservation_spec());
  ASSERT_TRUE(expected_fault.refinement.has_value());
  ASSERT_FALSE(expected_fault.refinement->localization.core.empty());
  ASSERT_FALSE(
      expected_fault.refinement->localization.correction_sets.empty());
  cache::save_snapshot(*options.cache, path, stamp);

  speccc::core::PipelineOptions warm_options = options;
  warm_options.cache = std::make_shared<cache::Store>();
  const cache::SnapshotMeta meta =
      cache::load_snapshot(*warm_options.cache, path, stamp);
  EXPECT_EQ(meta.version, cache::kSnapshotVersion);
  EXPECT_EQ(meta.lexicon_fingerprint, stamp);
  EXPECT_EQ(meta.entries, options.cache->size());
  EXPECT_EQ(warm_options.cache->size(), options.cache->size());

  // The warm store serves both reruns entirely: zero misses on both
  // levels, the same verdicts, and the same refinement outcome.
  const speccc::core::Pipeline warm(warm_options);
  const auto warm_lock = warm.run("door_lock", door_lock_spec());
  const auto warm_fault = warm.run("reservation", reservation_spec());
  for (const auto& [run, expected] :
       {std::pair{&warm_lock, &expected_lock},
        std::pair{&warm_fault, &expected_fault}}) {
    EXPECT_EQ(run->consistent, expected->consistent) << expected->name;
    EXPECT_EQ(run->num_formulas(), expected->num_formulas());
    EXPECT_EQ(run->synthesis.verdict, expected->synthesis.verdict);
    EXPECT_EQ(run->unsatisfiable_requirements,
              expected->unsatisfiable_requirements);
  }
  ASSERT_TRUE(warm_fault.refinement.has_value());
  const auto& got = *warm_fault.refinement;
  const auto& want = *expected_fault.refinement;
  EXPECT_EQ(got.consistent, want.consistent);
  EXPECT_EQ(got.adjustment.has_value(), want.adjustment.has_value());
  EXPECT_EQ(got.partition.inputs, want.partition.inputs);
  EXPECT_EQ(got.partition.outputs, want.partition.outputs);
  EXPECT_EQ(got.localization.core, want.localization.core);
  EXPECT_EQ(got.localization.correction_sets,
            want.localization.correction_sets);
  EXPECT_EQ(got.localization.related, want.localization.related);
  EXPECT_EQ(got.localization.checks, want.localization.checks);
  EXPECT_EQ(got.checks, want.checks);
  const cache::StatsSnapshot stats = warm_options.cache->stats();
  EXPECT_EQ(stats.l1_misses, 0u);
  EXPECT_EQ(stats.l2_misses, 0u);
  EXPECT_GT(stats.l1_hits, 0u);
  EXPECT_GT(stats.l2_hits, 0u);
}

TEST(Snapshot, GoldenBytesArePinned) {
  // Format guard: the exact bytes of a tiny snapshot. If this pin breaks,
  // the on-disk format changed -- bump kSnapshotVersion and repin; do NOT
  // silently repin under the same version (old snapshots would be
  // misread, not rejected).
  const std::string path = snapshot_path("golden.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  EXPECT_EQ(
      to_hex(read_file(path)),
      // header: magic "SPCCSNP1", version 6, fingerprint, body length 137
      "53504343534e5031"  // SPCCSNP1
      "06000000"          // version 6
      "1111111111111111" "2222222222222222"  // lexicon fingerprint hi, lo
      "8900000000000000"  // body: 137 bytes
      // body: 3 sections in kind order, entries sorted by key
      "01" "0000000000000000"  // sentences: none
      "03" "0100000000000000"  // synthesis: 1 entry
      // {1,2} -> verdict kUnknown, 2 state bits; five BDD counters,
      // iterations 0, no controller
      "0100000000000000" "0200000000000000" "02000000" "0200000000000000"
      "0000000000000000" "0000000000000000" "0000000000000000"
      "0000000000000000" "0000000000000000"
      "0000000000000000" "00"
      "06" "0100000000000000"  // stage 3: 1 entry
      // {0123...,fedc...} -> no refinement; unsatisfiable {1}
      "efcdab8967452301" "1032547698badcfe" "00"
      "0100000000000000" "0100000000000000"
      // footer: DigestBuilder("snapshot-body") checksum of the body
      "8813b3ebfc00afcea455e3becd7a6d9b");
}

TEST(Snapshot, SaveIsAtomicAndOverwritesInPlace) {
  const std::string path = snapshot_path("atomic.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  const std::string first = read_file(path);
  cache::save_snapshot(store, path, kStampA);  // overwrite via rename
  EXPECT_EQ(read_file(path), first);
  // No temporary siblings survive a successful save.
  for (const auto& entry : fs::directory_iterator(fs::path(path).parent_path())) {
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << entry.path();
  }
}

TEST(Snapshot, RejectsTruncatedFiles) {
  const std::string path = snapshot_path("truncated.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  const std::string bytes = read_file(path);

  // Cut mid-checksum and mid-header: both are kTruncated, and the target
  // store stays untouched either way.
  for (const std::size_t keep : {bytes.size() - 10, std::size_t{20}}) {
    write_file(path, bytes.substr(0, keep));
    cache::Store target;
    try {
      cache::load_snapshot(target, path, kStampA);
      FAIL() << "truncated snapshot (" << keep << " bytes) was accepted";
    } catch (const cache::SnapshotError& e) {
      EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kTruncated);
      EXPECT_EQ(e.path(), path);
    }
    EXPECT_EQ(target.size(), 0u);
  }
}

TEST(Snapshot, RejectsCorruptedBody) {
  const std::string path = snapshot_path("corrupted.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  std::string bytes = read_file(path);
  bytes[40] = static_cast<char>(bytes[40] ^ 0x40);  // flip one body bit
  write_file(path, bytes);

  cache::Store target;
  target.put<kSyn>(Digest{9, 9}, bits(1));  // pre-existing entry
  try {
    cache::load_snapshot(target, path, kStampA);
    FAIL() << "corrupted snapshot was accepted";
  } catch (const cache::SnapshotError& e) {
    EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kCorrupted);
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  EXPECT_EQ(target.size(), 1u);  // rejection left the store untouched
}

TEST(Snapshot, RejectsWrongFormatVersion) {
  const std::string path = snapshot_path("version.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  const std::string bytes = read_file(path);
  // A future version and the retired versions 1 to 5 (whose synthesis
  // records differ; a version-2 entry can hold a solo tableau's kUnknown;
  // version 3 has a satisfiability section; version 4 records carry an
  // engine name and bounded counters, under keys that fold the substrate;
  // version 5 has refinement and abstraction sections) are all rejected,
  // never misread.
  for (const char version :
       {char{99}, char{1}, char{2}, char{3}, char{4}, char{5}}) {
    std::string patched = bytes;
    patched[8] = version;  // version field follows the 8-byte magic
    write_file(path, patched);
    cache::Store target;
    try {
      cache::load_snapshot(target, path, kStampA);
      FAIL() << "version-" << int{version} << " snapshot was accepted";
    } catch (const cache::SnapshotError& e) {
      EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kBadVersion);
      EXPECT_NE(std::string(e.what()).find(
                    "format version " + std::to_string(int{version})),
                std::string::npos);
    }
  }
}

TEST(Snapshot, RejectsForeignMagicAndMissingFiles) {
  const std::string path = snapshot_path("magic.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);

  cache::Store target;
  EXPECT_THROW(
      try { cache::load_snapshot(target, path, kStampA); } catch
          (const cache::SnapshotError& e) {
        EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kBadMagic);
        throw;
      },
      cache::SnapshotError);
  EXPECT_THROW(
      try {
        cache::load_snapshot(target, snapshot_path("does-not-exist.snap"),
                             kStampA);
      } catch (const cache::SnapshotError& e) {
        EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kIo);
        throw;
      },
      cache::SnapshotError);
}

TEST(Snapshot, RejectsForeignLexiconFingerprint) {
  // A vocabulary edit changes the fingerprint; loading the stale snapshot
  // must fail loudly (level-1 keys embed the fingerprint, so the entries
  // would be unreachable at best).
  const std::string path = snapshot_path("fingerprint.snap");
  cache::Store store;
  fill_golden(store);
  cache::save_snapshot(store, path, kStampA);

  nlp::Lexicon edited = nlp::Lexicon::builtin();
  edited.add("flux", nlp::Pos::kNoun);
  cache::Store target;
  try {
    cache::load_snapshot(target, path, edited.fingerprint());
    FAIL() << "foreign-lexicon snapshot was accepted";
  } catch (const cache::SnapshotError& e) {
    EXPECT_EQ(e.kind(), cache::SnapshotErrorKind::kBadFingerprint);
    // The diagnostic names both fingerprints, for the operator.
    EXPECT_NE(std::string(e.what()).find(kStampA.hex()), std::string::npos);
    EXPECT_NE(std::string(e.what()).find(edited.fingerprint().hex()),
              std::string::npos);
  }
  EXPECT_EQ(target.size(), 0u);
}

// ---- Store::merge -----------------------------------------------------------

TEST(StoreMerge, FirstWriterWinsAndOnlyNewEntriesCount) {
  cache::Store a;
  a.put<kSyn>(Digest{1, 1}, bits(2));
  cache::Store b;
  b.put<kSyn>(Digest{1, 1}, bits(3));  // conflicting duplicate
  b.put<kSyn>(Digest{2, 2}, bits(2));
  b.put<cache::Kind::kSentence>(
      cache::sentence_key("the door opens", kStampA), nlp::Sentence{});

  EXPECT_EQ(a.merge(b), 2u);  // the duplicate is not an insert
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.find<kSyn>(Digest{1, 1})->state_bits, 2u);  // a's value survived
  EXPECT_EQ(a.find<kSyn>(Digest{2, 2})->state_bits, 2u);
  EXPECT_EQ(a.merge(b), 0u);  // idempotent
}

TEST(StoreMerge, ShardSnapshotsMergeIntoTheUnion) {
  // The coordinator's merge path in miniature: two per-shard stores with
  // one overlapping entry, snapshotted, loaded into one store.
  const std::string path_a = snapshot_path("shard-a.snap");
  const std::string path_b = snapshot_path("shard-b.snap");
  cache::Store shard_a, shard_b;
  shard_a.put<kSyn>(Digest{1, 1}, bits(2));
  shard_a.put<kSyn>(Digest{2, 2}, bits(3));
  shard_b.put<kSyn>(Digest{2, 2}, bits(3));  // shared work
  shard_b.put<kSyn>(Digest{3, 3}, bits(2));
  cache::save_snapshot(shard_a, path_a, kStampA);
  cache::save_snapshot(shard_b, path_b, kStampA);

  cache::Store merged;
  cache::load_snapshot(merged, path_a, kStampA);
  cache::load_snapshot(merged, path_b, kStampA);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.find<kSyn>(Digest{1, 1})->state_bits, 2u);
  EXPECT_EQ(merged.find<kSyn>(Digest{2, 2})->state_bits, 3u);
  EXPECT_EQ(merged.find<kSyn>(Digest{3, 3})->state_bits, 2u);
}
