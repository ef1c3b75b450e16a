// Persistent cache snapshots: serialize a cache::Store to disk so batch
// shards, CI jobs, and the serve daemon start warm instead of recomputing
// every artifact from scratch (ROADMAP item 4's "make cache::Store
// serializable to disk" half).
//
// Format (version 6): a fixed-width little-endian binary layout,
//
//   magic "SPCCSNP1" (8 bytes)
//   u32   format version
//   u64   lexicon fingerprint hi, u64 lo   (nlp::Lexicon::fingerprint())
//   u64   body length in bytes
//   body: per artifact kind, in the kind table's order (cache/store.hpp:
//         sentences tag 1, synthesis tag 3, stage 3 tag 6):
//           u8 kind tag, u64 entry count,
//           entries sorted by key (hi, then lo): key hi, key lo, value
//   u64   body checksum hi, u64 lo         (util::DigestBuilder over body)
//
// Determinism: entries are sorted by key before writing and every integer
// is fixed-width little-endian -- the same store contents produce the same
// bytes on every platform (cache_test pins a
// golden snapshot to guard the format).
//
// Validation is all-or-nothing and structured: save() writes to a
// temporary sibling and rename()s it into place (readers never observe a
// half-written file), and load() rejects bad magic, unknown versions,
// foreign lexicon fingerprints, truncation, and checksum mismatches with
// a SnapshotError carrying the failure kind -- never a crash and never a
// silent cold start. A snapshot is only valid against the exact lexicon
// that produced it: level-1 keys embed the fingerprint, so loading a
// stale snapshot would waste memory on unreachable entries at best and
// resurrect wrong parses at worst.
//
// Stats are not persisted: counters describe a process's lifetime, not
// the store's contents, so a loaded store starts at zero like a fresh
// one. Loading uses the target store's own options (shards, caps) --
// loading a big snapshot into a small store simply evicts.
#pragma once

#include <cstdint>
#include <string>

#include "cache/store.hpp"
#include "util/diagnostics.hpp"
#include "util/digest.hpp"

namespace speccc::cache {

/// Current snapshot format version; load() rejects everything else.
/// Version 6 replaced the refinement section (tag 4) by the stage-3
/// section (tag 6: refinement and screen), dropped the abstraction section
/// (tag 5), and dropped the synthesis record's duplicate peak node count;
/// version 5 dropped the synthesis record's engine name and bounded-engine
/// counters, and the substrate and bounded options left the synthesis and
/// refinement keys; version 4 dropped the per-requirement satisfiability
/// section (the screen went unmemoized until version 6); version 3 dropped the
/// synthesis record's seconds; a version-2 file can hold a solo tableau's
/// kUnknown.
inline constexpr std::uint32_t kSnapshotVersion = 6;

/// Why a snapshot was rejected (load) or could not be written (save).
enum class SnapshotErrorKind {
  kIo,               ///< open/read/write/rename failure
  kBadMagic,         ///< not a snapshot file
  kBadVersion,       ///< written by an incompatible format version
  kBadFingerprint,   ///< produced under a different lexicon
  kTruncated,        ///< file shorter than its declared layout
  kCorrupted,        ///< checksum mismatch or inconsistent body
};

[[nodiscard]] const char* snapshot_error_kind_name(SnapshotErrorKind kind);

/// Structured snapshot failure: kind + path + human message. Tools print
/// what() and exit non-zero; tests dispatch on kind().
class SnapshotError : public util::SpecError {
 public:
  SnapshotError(SnapshotErrorKind kind, std::string path,
                const std::string& message);

  [[nodiscard]] SnapshotErrorKind kind() const { return kind_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  SnapshotErrorKind kind_;
  std::string path_;
};

/// What load() verified and restored (for logs and tests).
struct SnapshotMeta {
  std::uint32_t version = 0;
  util::Digest lexicon_fingerprint;
  std::uint64_t entries = 0;  ///< entries in the file (not net inserts)
};

/// Serialize every live entry of `store` to `path`, stamped with
/// `lexicon_fingerprint`. Atomic: the bytes land in a temporary file in
/// the same directory which is then renamed over `path`. Throws
/// SnapshotError(kIo) on filesystem failure.
void save_snapshot(const Store& store, const std::string& path,
                   const util::Digest& lexicon_fingerprint);

/// Validate the snapshot at `path` against `expected_fingerprint` and
/// insert its entries into `store` (first writer wins; the store's caps
/// apply). Throws SnapshotError on any rejection --
/// the store is left untouched unless the whole file validated.
SnapshotMeta load_snapshot(Store& store, const std::string& path,
                           const util::Digest& expected_fingerprint);

}  // namespace speccc::cache
