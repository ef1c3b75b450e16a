#include "cache/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

#include <unistd.h>

namespace speccc::cache {

const char* snapshot_error_kind_name(SnapshotErrorKind kind) {
  switch (kind) {
    case SnapshotErrorKind::kIo: return "io";
    case SnapshotErrorKind::kBadMagic: return "bad-magic";
    case SnapshotErrorKind::kBadVersion: return "bad-version";
    case SnapshotErrorKind::kBadFingerprint: return "bad-fingerprint";
    case SnapshotErrorKind::kTruncated: return "truncated";
    case SnapshotErrorKind::kCorrupted: return "corrupted";
  }
  return "?";
}

SnapshotError::SnapshotError(SnapshotErrorKind kind, std::string path,
                             const std::string& message)
    : util::SpecError(path + ": " + message + " [" +
                      snapshot_error_kind_name(kind) + "]"),
      kind_(kind),
      path_(std::move(path)) {}

namespace {

constexpr char kMagic[8] = {'S', 'P', 'C', 'C', 'S', 'N', 'P', '1'};

// ---- Little-endian writer ---------------------------------------------------

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  void digest(const util::Digest& d) {
    u64(d.hi);
    u64(d.lo);
  }

  [[nodiscard]] const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

// ---- Bounds-checked little-endian reader ------------------------------------
//
// Throws SnapshotError(kTruncated) on overrun: the checksum normally
// catches corruption first, but the reader must stay memory-safe against
// any byte stream regardless.

class Reader {
 public:
  Reader(std::string_view data, const std::string& path)
      : data_(data), path_(path) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint32_t u32() {
    std::string_view b = take(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
  }
  std::uint64_t u64() {
    std::string_view b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i])) << (8 * i);
    }
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint64_t n = u64();
    return std::string(take(n));
  }
  util::Digest digest() {
    util::Digest d;
    d.hi = u64();
    d.lo = u64();
    return d;
  }

  [[nodiscard]] bool done() const { return offset_ == data_.size(); }

 private:
  std::string_view take(std::uint64_t n) {
    if (n > data_.size() - offset_) {
      throw SnapshotError(SnapshotErrorKind::kTruncated, path_,
                          "snapshot body ends mid-record");
    }
    std::string_view out = data_.substr(offset_, n);
    offset_ += n;
    return out;
  }

  std::string_view data_;
  std::size_t offset_ = 0;
  const std::string& path_;
};

// ---- Value codecs -----------------------------------------------------------
//
// One write_value/read_value overload pair per value type of the kind
// table (cache/store.hpp); the rest of the file dispatches on ValueOf<K>.

template <typename T, typename Fn>
void write_vec(Writer& w, const std::vector<T>& v, Fn item) {
  w.u64(v.size());
  for (const T& x : v) item(x);
}

void write_np(Writer& w, const nlp::NounPhrase& np) {
  write_vec(w, np.words, [&](const nlp::NpWord& word) {
    w.str(word.text);
    w.u32(static_cast<std::uint32_t>(word.pos));
    w.boolean(word.capitalized);
  });
  w.boolean(np.pronoun);
}

nlp::NounPhrase read_np(Reader& r) {
  nlp::NounPhrase np;
  np.words.resize(r.u64());
  for (nlp::NpWord& word : np.words) {
    word.text = r.str();
    word.pos = static_cast<nlp::Pos>(r.u32());
    word.capitalized = r.boolean();
  }
  np.pronoun = r.boolean();
  return np;
}

void write_clause(Writer& w, const nlp::Clause& c) {
  w.str(c.modifier);
  write_vec(w, c.subjects, [&](const nlp::NounPhrase& np) { write_np(w, np); });
  w.str(c.subject_conjunction);
  w.u32(static_cast<std::uint32_t>(c.predicate.kind));
  w.str(c.predicate.verb_lemma);
  write_vec(w, c.predicate.complements, [&](const std::string& s) { w.str(s); });
  w.str(c.predicate.preposition);
  write_vec(w, c.predicate.objects,
            [&](const nlp::NounPhrase& np) { write_np(w, np); });
  w.str(c.predicate.object_conjunction);
  write_vec(w, c.predicate.modals, [&](const std::string& s) { w.str(s); });
  w.boolean(c.predicate.negated);
  w.boolean(c.predicate.future);
  w.boolean(c.constraint.has_value());
  if (c.constraint) {
    w.u32(c.constraint->value);
    w.u32(c.constraint->unit_seconds);
  }
  w.boolean(c.next_marked);
}

nlp::Clause read_clause(Reader& r) {
  nlp::Clause c;
  c.modifier = r.str();
  c.subjects.resize(r.u64());
  for (nlp::NounPhrase& np : c.subjects) np = read_np(r);
  c.subject_conjunction = r.str();
  c.predicate.kind = static_cast<nlp::PredicateKind>(r.u32());
  c.predicate.verb_lemma = r.str();
  c.predicate.complements.resize(r.u64());
  for (std::string& s : c.predicate.complements) s = r.str();
  c.predicate.preposition = r.str();
  c.predicate.objects.resize(r.u64());
  for (nlp::NounPhrase& np : c.predicate.objects) np = read_np(r);
  c.predicate.object_conjunction = r.str();
  c.predicate.modals.resize(r.u64());
  for (std::string& s : c.predicate.modals) s = r.str();
  c.predicate.negated = r.boolean();
  c.predicate.future = r.boolean();
  if (r.boolean()) {
    nlp::TimeConstraint tc;
    tc.value = r.u32();
    tc.unit_seconds = r.u32();
    c.constraint = tc;
  }
  c.next_marked = r.boolean();
  return c;
}

void write_group(Writer& w, const nlp::ClauseGroup& g) {
  w.str(g.subordinator);
  write_vec(w, g.clauses, [&](const std::pair<std::string, nlp::Clause>& entry) {
    w.str(entry.first);
    write_clause(w, entry.second);
  });
}

nlp::ClauseGroup read_group(Reader& r) {
  nlp::ClauseGroup g;
  g.subordinator = r.str();
  g.clauses.resize(r.u64());
  for (auto& entry : g.clauses) {
    entry.first = r.str();
    entry.second = read_clause(r);
  }
  return g;
}

void write_value(Writer& w, const nlp::Sentence& s) {
  w.str(s.text);
  write_vec(w, s.conditions,
            [&](const nlp::ClauseGroup& g) { write_group(w, g); });
  write_group(w, s.main);
  w.boolean(s.until.has_value());
  if (s.until) write_group(w, *s.until);
}

void read_value(Reader& r, nlp::Sentence& s) {
  s.text = r.str();
  s.conditions.resize(r.u64());
  for (nlp::ClauseGroup& g : s.conditions) g = read_group(r);
  s.main = read_group(r);
  if (r.boolean()) s.until = read_group(r);
}

void write_mealy(Writer& w, const synth::MealyMachine& m) {
  write_vec(w, m.signature().inputs, [&](const std::string& s) { w.str(s); });
  write_vec(w, m.signature().outputs, [&](const std::string& s) { w.str(s); });
  w.u64(m.num_states());
  for (std::size_t state = 0; state < m.num_states(); ++state) {
    const auto& row = m.transitions(static_cast<int>(state));
    w.u64(row.size());
    for (const auto& [input, edge] : row) {  // std::map: deterministic order
      w.u32(input);
      w.u32(edge.first);
      w.u64(static_cast<std::uint64_t>(edge.second));
    }
  }
}

synth::MealyMachine read_mealy(Reader& r) {
  synth::IoSignature signature;
  signature.inputs.resize(r.u64());
  for (std::string& s : signature.inputs) s = r.str();
  signature.outputs.resize(r.u64());
  for (std::string& s : signature.outputs) s = r.str();
  synth::MealyMachine m(std::move(signature));
  const std::uint64_t states = r.u64();
  for (std::uint64_t state = 0; state < states; ++state) m.add_state();
  for (std::uint64_t state = 0; state < states; ++state) {
    const std::uint64_t edges = r.u64();
    for (std::uint64_t e = 0; e < edges; ++e) {
      const synth::Word input = r.u32();
      const synth::Word output = r.u32();
      const auto next = static_cast<int>(r.u64());
      m.set_transition(static_cast<int>(state), input, output, next);
    }
  }
  return m;
}

void write_value(Writer& w, const synth::SynthesisResult& v) {
  w.u32(static_cast<std::uint32_t>(v.verdict));
  w.u64(v.state_bits);
  w.u64(v.bdd_stats.peak_nodes);
  w.u64(v.bdd_stats.unique_hits);
  w.u64(v.bdd_stats.cache_hits);
  w.u64(v.bdd_stats.cache_misses);
  w.u64(v.bdd_stats.cache_evictions);
  w.i64(v.iterations);
  w.boolean(v.controller.has_value());
  if (v.controller) write_mealy(w, *v.controller);
}

void read_value(Reader& r, synth::SynthesisResult& v) {
  v.verdict = static_cast<synth::Realizability>(r.u32());
  v.state_bits = r.u64();
  v.bdd_stats.peak_nodes = r.u64();
  v.bdd_stats.unique_hits = r.u64();
  v.bdd_stats.cache_hits = r.u64();
  v.bdd_stats.cache_misses = r.u64();
  v.bdd_stats.cache_evictions = r.u64();
  v.iterations = static_cast<int>(r.i64());
  if (r.boolean()) v.controller = read_mealy(r);
}

void write_index_set(Writer& w, const std::vector<std::size_t>& v) {
  w.u64(v.size());
  for (std::size_t x : v) w.u64(x);
}

std::vector<std::size_t> read_index_set(Reader& r) {
  std::vector<std::size_t> v(r.u64());
  for (std::size_t& x : v) x = r.u64();
  return v;
}

void write_refinement(Writer& w, const refine::RefinementOutcome& v) {
  w.boolean(v.consistent);
  w.boolean(v.adjustment.has_value());
  if (v.adjustment) {
    w.str(v.adjustment->variable);
    w.boolean(v.adjustment->now_input);
  }
  // std::set iterates in order: deterministic bytes.
  w.u64(v.partition.inputs.size());
  for (const std::string& s : v.partition.inputs) w.str(s);
  w.u64(v.partition.outputs.size());
  for (const std::string& s : v.partition.outputs) w.str(s);
  write_index_set(w, v.localization.core);
  w.u64(v.localization.correction_sets.size());
  for (const std::vector<std::size_t>& set : v.localization.correction_sets) {
    write_index_set(w, set);
  }
  write_index_set(w, v.localization.related);
  w.u64(v.localization.checks);
  w.u64(v.checks);
}

void read_refinement(Reader& r, refine::RefinementOutcome& v) {
  v.consistent = r.boolean();
  if (r.boolean()) {
    refine::Adjustment adj;
    adj.variable = r.str();
    adj.now_input = r.boolean();
    v.adjustment = adj;
  }
  const std::uint64_t inputs = r.u64();
  for (std::uint64_t i = 0; i < inputs; ++i) v.partition.inputs.insert(r.str());
  const std::uint64_t outputs = r.u64();
  for (std::uint64_t i = 0; i < outputs; ++i) v.partition.outputs.insert(r.str());
  v.localization.core = read_index_set(r);
  v.localization.correction_sets.resize(r.u64());
  for (std::vector<std::size_t>& set : v.localization.correction_sets) {
    set = read_index_set(r);
  }
  v.localization.related = read_index_set(r);
  v.localization.checks = r.u64();
  v.checks = r.u64();
}

void write_value(Writer& w, const refine::StageThree& v) {
  w.boolean(v.refinement.has_value());
  if (v.refinement) write_refinement(w, *v.refinement);
  write_index_set(w, v.unsatisfiable);
}

void read_value(Reader& r, refine::StageThree& v) {
  if (r.boolean()) read_refinement(r, v.refinement.emplace());
  v.unsatisfiable = read_index_set(r);
}

util::Digest body_checksum(const std::string& body) {
  return util::DigestBuilder("snapshot-body").str(body).finalize();
}

}  // namespace

void save_snapshot(const Store& store, const std::string& path,
                   const util::Digest& lexicon_fingerprint) {
  // One section per kind, in table order: tag, count, entries sorted by key.
  Writer body;
  for_each_kind([&]<Kind K>() {
    std::vector<std::pair<util::Digest, ValueOf<K>>> entries;
    store.for_each<K>([&](const util::Digest& key, const ValueOf<K>& value) {
      entries.emplace_back(key, value);
    });
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return a.first.hi != b.first.hi ? a.first.hi < b.first.hi
                                                : a.first.lo < b.first.lo;
              });
    body.u8(KindInfo<K>::kTag);
    body.u64(entries.size());
    for (const auto& [key, value] : entries) {
      body.digest(key);
      write_value(body, value);
    }
  });

  Writer file;
  for (char c : kMagic) file.u8(static_cast<std::uint8_t>(c));
  file.u32(kSnapshotVersion);
  file.digest(lexicon_fingerprint);
  file.u64(body.bytes().size());

  // Atomic publish: write a process-unique sibling, then rename. rename(2)
  // within one directory is atomic, so concurrent readers see either the
  // old complete file or the new one, never a prefix.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw SnapshotError(SnapshotErrorKind::kIo, path,
                          "cannot open temporary file " + tmp);
    }
    const util::Digest checksum = body_checksum(body.bytes());
    Writer footer;
    footer.digest(checksum);
    out.write(file.bytes().data(),
              static_cast<std::streamsize>(file.bytes().size()));
    out.write(body.bytes().data(),
              static_cast<std::streamsize>(body.bytes().size()));
    out.write(footer.bytes().data(),
              static_cast<std::streamsize>(footer.bytes().size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw SnapshotError(SnapshotErrorKind::kIo, path, "short write to " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError(SnapshotErrorKind::kIo, path,
                        "cannot rename " + tmp + " into place");
  }
}

SnapshotMeta load_snapshot(Store& store, const std::string& path,
                           const util::Digest& expected_fingerprint) {
  std::string data;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      throw SnapshotError(SnapshotErrorKind::kIo, path, "cannot open snapshot");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof()) {
      throw SnapshotError(SnapshotErrorKind::kIo, path, "read failure");
    }
    data = std::move(buffer).str();
  }

  // Header: magic, version, fingerprint, body length.
  constexpr std::size_t kHeaderSize = 8 + 4 + 16 + 8;
  if (data.size() < kHeaderSize) {
    throw SnapshotError(SnapshotErrorKind::kTruncated, path,
                        "file shorter than the snapshot header");
  }
  Reader header(std::string_view(data).substr(0, kHeaderSize), path);
  for (char expected : kMagic) {
    if (static_cast<char>(header.u8()) != expected) {
      throw SnapshotError(SnapshotErrorKind::kBadMagic, path,
                          "not a speccc cache snapshot");
    }
  }
  SnapshotMeta meta;
  meta.version = header.u32();
  if (meta.version != kSnapshotVersion) {
    throw SnapshotError(SnapshotErrorKind::kBadVersion, path,
                        "format version " + std::to_string(meta.version) +
                            " (this build reads version " +
                            std::to_string(kSnapshotVersion) + ")");
  }
  meta.lexicon_fingerprint = header.digest();
  if (meta.lexicon_fingerprint != expected_fingerprint) {
    throw SnapshotError(
        SnapshotErrorKind::kBadFingerprint, path,
        "lexicon fingerprint " + meta.lexicon_fingerprint.hex() +
            " does not match this process's " + expected_fingerprint.hex() +
            " (snapshot from a different vocabulary; regenerate it)");
  }
  const std::uint64_t body_size = header.u64();
  if (data.size() < kHeaderSize + body_size + 16) {
    throw SnapshotError(SnapshotErrorKind::kTruncated, path,
                        "file shorter than its declared body + checksum");
  }
  const std::string body = data.substr(kHeaderSize, body_size);
  Reader footer(std::string_view(data).substr(kHeaderSize + body_size, 16),
                path);
  if (body_checksum(body) != footer.digest()) {
    throw SnapshotError(SnapshotErrorKind::kCorrupted, path,
                        "body checksum mismatch");
  }

  // Decode the whole body into an unbounded scratch store before touching
  // the target, so a decoding failure (possible despite the checksum only
  // if the writer was buggy) leaves the target untouched. The scratch store
  // shards like the target, so the merge inserts into each target shard in
  // file order -- the same evictions a direct load would make.
  Store decoded(StoreOptions{.shards = store.options().shards, .max_entries = 0});
  Reader r(body, path);
  for_each_kind([&]<Kind K>() {
    if (r.u8() != KindInfo<K>::kTag) {
      throw SnapshotError(SnapshotErrorKind::kCorrupted, path,
                          "artifact sections out of order");
    }
    const std::uint64_t count = r.u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      const util::Digest key = r.digest();
      ValueOf<K> value;
      read_value(r, value);
      decoded.put<K>(key, value);
    }
    meta.entries += count;
  });
  if (!r.done()) {
    throw SnapshotError(SnapshotErrorKind::kCorrupted, path,
                        "trailing bytes after the last section");
  }
  store.merge(decoded);
  return meta;
}

}  // namespace speccc::cache
