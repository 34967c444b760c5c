//===----------------------------------------------------------------------===//
///
/// \file
/// Persistence for DYNSUM summary caches: warm starts across processes.
///
/// The paper positions DYNSUM for JIT compilers and IDEs; both restart.
/// SummaryIO lets a session serialize its dynamic summaries on shutdown
/// and a later session on the *same program* load them back, skipping
/// every PPTA recomputation for previously queried code.
///
/// Summaries are keyed by PAG nodes and field-stack ids.  On disk
/// (since format v2) node references are CANONICAL: a variable node is
/// its VarId, an object node is numVars + AllocId.  In-memory numbering
/// depends on build history — a graph evolved through delta builds
/// interleaves late-created variables after object nodes — so raw node
/// ids would silently mean different nodes in the saving and loading
/// process even for byte-identical programs.  The canonical form
/// depends only on the program, whose analysis-relevant shape is
/// fingerprinted into the byte stream: loads onto a different program
/// are rejected, never silently wrong.  (Field stacks are spelled out
/// and re-interned on load for the same reason.)
///
/// Format (little-endian): magic "DSUM", u32 version, u64 fingerprint,
/// u64 entry count, u64 header checksum, then per entry a length- and
/// checksum-framed record holding the key triple with the field stack
/// spelled out element by element, the object list, and the boundary
/// tuples (again with explicit stacks).  The framing (new in v3) makes
/// loads corruption-tolerant: a record whose checksum fails is skipped
/// and reported, a truncated tail stops the scan — everything before
/// the damage still loads.  Since every summary is an independent
/// cache entry, a partial load is sound; it just warms less.  The
/// byte-exact layout — and the versioning rules, including why the
/// engine's in-memory store generation is deliberately *not* a field —
/// is specified in docs/SUMMARY_FORMAT.md; any layout change must bump
/// kSummaryFileVersion in lockstep with that document.
///
/// saveSummariesFile is crash-safe: the bytes go to a temp file that is
/// fsync'd and atomically renamed over the target, so a crash (or
/// kill -9) at any instant leaves either the old file or the new one,
/// never a torn mix.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_ANALYSIS_SUMMARYIO_H
#define DYNSUM_ANALYSIS_SUMMARYIO_H

#include "analysis/DynSum.h"
#include "support/Hashing.h"
#include "support/MappedFile.h"

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dynsum {
namespace analysis {

/// On-disk format tag ("DSUM" little-endian) and version.  Bump the
/// version for any layout change and record it in
/// docs/SUMMARY_FORMAT.md.
constexpr uint32_t kSummaryFileMagic = 0x4d555344;
/// v2: node references are canonical (VarId | numVars + AllocId)
/// instead of raw in-memory node ids, which stopped being a pure
/// function of the program when delta builds arrived.
/// v3: header checksum plus per-entry length/checksum framing so loads
/// degrade per record instead of all-or-nothing.  Only v3 loads; other
/// versions are refused as unsupported.
constexpr uint32_t kSummaryFileVersion = 3;
/// Tag of the optional digest-index section appended after the last v3
/// record ("DIDX" little-endian).  The index is NOT a format bump: the
/// v3 streaming loader reads exactly the header's record count and
/// ignores trailing bytes, so indexed files load everywhere v3 files
/// do.  The index only accelerates MappedSummaryFile; when it is
/// missing or damaged the reader rebuilds it by scanning the record
/// frames.  Layout in docs/SUMMARY_FORMAT.md (digest-index appendix).
constexpr uint32_t kSummaryIndexMagic = 0x58444944;

/// What a load actually did.  Header-level damage (bad magic, unknown
/// version, wrong fingerprint, corrupt header) fails the whole load:
/// Ok is false, Error says why, nothing was merged.  Record-level
/// damage degrades instead: Ok stays true, the intact prefix/suffix of
/// records is merged, and RecordsSkipped / Truncated / SkippedRecords
/// describe what was lost.
struct SummaryLoadReport {
  bool Ok = false;
  /// Summary entries merged into the analysis.
  uint64_t EntriesLoaded = 0;
  /// v3 records dropped for a checksum or payload-parse failure.
  uint64_t RecordsSkipped = 0;
  /// The file ended mid-record; everything before the tear loaded.
  bool Truncated = false;
  /// Why Ok is false, or a note about partial damage.
  std::string Error;
  /// Human-readable description of each skipped record (best-effort
  /// method attribution from the damaged payload), capped to the first
  /// few for bounded reports.
  std::vector<std::string> SkippedRecords;
};

/// A stable fingerprint of everything about \p P the analyses can
/// observe: the class hierarchy, methods, variables, allocation/call
/// sites and every statement.  Two programs with equal fingerprints
/// build identical PAGs.
uint64_t programFingerprint(const ir::Program &P);

/// Serializes \p A's summary cache (tagged with its program's
/// fingerprint) into a byte buffer.
std::string serializeSummaries(const DynSumAnalysis &A);

/// Loads summaries serialized by serializeSummaries into \p A, merging
/// over its current cache, and reports exactly what happened.  Header
/// damage merges nothing (Ok false, Error set); record damage is
/// skipped per record (Ok true, counters set).
SummaryLoadReport deserializeSummariesReport(DynSumAnalysis &A,
                                             std::string_view Data);

/// Boolean convenience over deserializeSummariesReport: true iff the
/// header was accepted (a degraded-but-partial v3 load still counts).
bool deserializeSummaries(DynSumAnalysis &A, std::string_view Data);

/// Convenience file wrappers over the buffer API.  saveSummariesFile
/// writes atomically (temp file + fsync + rename) and returns false on
/// I/O failure with the previous file intact; loadSummariesFile
/// returns false on I/O failure or a header rejection.
bool saveSummariesFile(const DynSumAnalysis &A, const std::string &Path);
bool loadSummariesFile(DynSumAnalysis &A, const std::string &Path);

/// File wrapper that surfaces the full per-record load report; an
/// unreadable file reports Ok false with Error set.
SummaryLoadReport loadSummariesFileReport(DynSumAnalysis &A,
                                          const std::string &Path);

//===----------------------------------------------------------------------===//
// Memory-mapped random access (the summary disk tier)
//===----------------------------------------------------------------------===//

/// Digest of one canonical summary key — the hash the on-disk digest
/// index is sorted by and the disk-tier probe recomputes.  Canonical
/// node references only (VarId | numVars + AllocId): the digest must be
/// a pure function of the program-level key, independent of any
/// process's node numbering.
inline uint64_t summaryRecordDigest(uint32_t CanonicalNode, RsmState S,
                                    const std::vector<uint32_t> &Fields) {
  uint64_t H = hashMix(packPair(CanonicalNode, uint32_t(S)));
  for (uint32_t F : Fields)
    H = hashCombine(H, F);
  return H;
}

/// One summary record decoded straight from the mapped file, still in
/// canonical node references.  The caller (the store's disk tier) owns
/// the canonical-to-node translation, because only it knows which
/// graph the summary is being promoted into.
struct DecodedSummaryRecord {
  uint32_t CanonicalNode = 0;
  RsmState State = RsmState::S1;
  std::vector<uint32_t> Fields;
  std::vector<ir::AllocId> Objects;
  struct Tuple {
    uint32_t CanonicalNode = 0;
    RsmState State = RsmState::S1;
    uint32_t FieldsLen = 0;
  };
  std::vector<Tuple> Tuples;
  /// Tuple field stacks, concatenated in tuple order (PortableSummary
  /// layout).
  std::vector<uint32_t> FieldData;
};

/// Read-only random access into one v3 .dsum file through an mmap
/// (support::MappedFile), keyed by the digest index.
///
/// open() validates the header exactly like the streaming loader (magic,
/// version, fingerprint, header checksum — any failure rejects the
/// file), then locates the digest index from the trailing footer.  A
/// missing or damaged index is NOT a rejection: the reader falls back
/// to scanning the record frames and indexing them itself, which is
/// how pre-index v3 files (and files with a torn-off tail) stay
/// servable.
///
/// find() is the probe: one O(1) digest-table chain walk, decoding
/// candidate records until one's exact key matches.  Record payloads are
/// checksummed lazily — on the first probe that touches them, not at
/// open — and a record that fails its CRC (or parses out of bounds) is
/// remembered as dead and reported as a miss forever after: corruption
/// degrades to cold recomputation, never to a crash or a damaged
/// summary.
///
/// Thread safety: find() may be called from any number of threads
/// concurrently (the lazy validation verdicts are atomics; the mapping
/// is immutable).  open() must complete before the first find().
class MappedSummaryFile {
public:
  /// Opens and validates \p Path.  Null on rejection with \p Error set:
  /// unreadable file, bad magic/version (only v3 has the per-record
  /// framing random access needs), header checksum mismatch, or a
  /// fingerprint differing from \p ExpectedFingerprint.  \p NumVars /
  /// \p NumAllocs bound the canonical references a valid record may
  /// contain (the opening program's shape).
  static std::unique_ptr<MappedSummaryFile>
  open(const std::string &Path, uint64_t ExpectedFingerprint, size_t NumVars,
       size_t NumAllocs, std::string *Error = nullptr);

  /// Probes for the exact canonical key; true with \p Out filled on a
  /// hit.  A damaged record is a miss (counted in corruptRecords()).
  /// \p Out doubles as decode scratch — candidates are decoded into it
  /// and its capacity is reused across probes, so after a miss its
  /// contents are unspecified.
  bool find(uint32_t CanonicalNode, RsmState S,
            const std::vector<uint32_t> &Fields,
            DecodedSummaryRecord &Out) const;

  /// The serving-path variant of find(): decodes the matching record's
  /// BODY straight into a portable summary, materializing nothing else.
  /// \p Digest must be summaryRecordDigest of the key — the caller
  /// computes it up front (so it can prefetch() while other work is in
  /// flight) and this probe reuses it.  The key fields are compared
  /// element-by-element against \p Fields during the parse (no key
  /// vector is built), and tuple nodes are left CANONICAL for the
  /// caller to translate in place — objects and field runs are
  /// process-independent already.  Damage semantics match find(): a
  /// corrupt record is remembered dead and reported as a miss; \p Out
  /// doubles as scratch, contents unspecified on a miss.
  bool findBody(uint64_t Digest, uint32_t CanonicalNode, RsmState S,
                const std::vector<uint32_t> &Fields,
                PortableSummary &Out) const;

  /// Starts pulling the digest-table line for \p Digest toward the
  /// cache.  The serving path calls this before its hot-tier lookup:
  /// by the time that lookup misses, the table entry — the first of
  /// the probe's dependent memory loads — is already on its way.
  void prefetch(uint64_t Digest) const {
#if defined(__GNUC__)
    if (!HashTable.empty())
      __builtin_prefetch(&HashTable[size_t(Digest) & HashMask]);
#else
    (void)Digest;
#endif
  }

  /// Settles every record's lazy verdict up front: streams each
  /// payload's checksum once and marks the record valid or dead, so
  /// subsequent probes never pay a CRC.  Laziness is the right default
  /// for a file opened ad hoc — most records are never probed — but a
  /// long-lived serving tier probes most of the file anyway, and paying
  /// the checksums during (untimed, once-per-restart) attach instead of
  /// on the first batch's critical path is a pure win there.  Returns
  /// the number of records marked dead.  Call before the first
  /// concurrent find(); safe to skip entirely (probes then validate
  /// lazily as documented above).
  uint64_t validateAll();

  /// Records reachable through the index (intact prefix for a torn
  /// file).
  size_t records() const { return Index.size(); }

  /// True when the on-disk digest index was present and valid; false
  /// means the open fell back to a frame scan.
  bool indexedOnOpen() const { return IndexFromFooter; }

  /// Records rejected so far by the lazy CRC/parse validation.
  uint64_t corruptRecords() const {
    return Corrupt.load(std::memory_order_relaxed);
  }

private:
  MappedSummaryFile() = default;

  struct IndexEntry {
    uint64_t Digest = 0;
    uint64_t Offset = 0; ///< record frame (length field) from file start
  };

  /// Decodes and validates the record at \p Slot; false on damage.
  bool decodeSlot(size_t Slot, DecodedSummaryRecord &Out) const;

  support::MappedFile Map;
  std::vector<IndexEntry> Index; ///< sorted by Digest
  /// Open-addressing acceleration over Index: digest low bits pick the
  /// home slot, linear probing, an all-ones Offset marks empties.  The
  /// digest, record offset, and slot number live IN the table entry, so
  /// the common probe (chain length 1) resolves a record from a single
  /// cache-line load — separate slot->index->offset indirections cost a
  /// dependent miss each at serving rates.  Sized to twice the record
  /// count (load factor <= 1/2) so chains stay O(1).
  struct HashEntry {
    uint64_t Digest = 0;
    uint64_t Offset = kNoEntry; ///< record frame, or kNoEntry if empty
    uint32_t Slot = 0;          ///< position in Index / Verdict
  };
  static constexpr uint64_t kNoEntry = ~0ull;
  std::vector<HashEntry> HashTable;
  size_t HashMask = 0;
  /// Set by validateAll() when every record checked out: probes then
  /// skip the per-record verdict load entirely.
  bool AllValid = false;
  /// Lazy per-record verdicts: 0 = unchecked, 1 = valid, 2 = dead.
  std::unique_ptr<std::atomic<uint8_t>[]> Verdict;
  mutable std::atomic<uint64_t> Corrupt{0};
  size_t NumVars = 0;
  size_t NumAllocs = 0;
  bool IndexFromFooter = false;
};

} // namespace analysis
} // namespace dynsum

#endif // DYNSUM_ANALYSIS_SUMMARYIO_H
