//===----------------------------------------------------------------------===//
///
/// \file
/// The DSUM snapshot format: DYNSUM summaries across processes.
///
/// The paper positions DYNSUM for JIT compilers and IDEs; both restart.
/// A session writes its dynamic summaries to a snapshot on shutdown and
/// a later session on the *same program* attaches it, skipping every
/// PPTA recomputation for previously queried code.  This file holds
/// the format's two halves: SummaryFileWriter, the one writer, and
/// MappedSummaryFile, the one reader.  engine::TieredSummaryStore is
/// their only user — its save() streams the store through the writer,
/// and every load is its attachDiskTier() over the reader.
///
/// On disk (since format v2) node references are CANONICAL: a variable
/// node is its VarId, an object node is numVars + AllocId.  In-memory
/// numbering depends on build history — a graph evolved through delta
/// builds interleaves late-created variables after object nodes — so
/// raw node ids would silently mean different nodes in the saving and
/// loading process even for byte-identical programs.  The canonical
/// form depends only on the program, whose analysis-relevant shape is
/// fingerprinted into the byte stream: a snapshot of a different
/// program is refused, never silently wrong.  (Field stacks are spelled
/// out for the same reason.)
///
/// Format (little-endian): magic "DSUM", u32 version, u64 fingerprint,
/// u64 entry count, u64 header checksum, then per entry a length- and
/// checksum-framed record holding the key triple with the field stack
/// spelled out element by element, the object list, and the boundary
/// tuples (again with explicit stacks), then the digest index.  The
/// framing (new in v3) makes loads corruption-tolerant: a record whose
/// checksum fails is a miss, a truncated tail loses only the tail.
/// Since every summary is an independent cache entry, a partial
/// snapshot is sound; it just warms less.  The byte-exact layout — and
/// the versioning rules, including why the engine's in-memory store
/// generation is deliberately *not* a field — is specified in
/// docs/SUMMARY_FORMAT.md; any layout change must bump
/// kSummaryFileVersion in lockstep with that document.
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
/// record ("DIDX" little-endian).  The index is NOT a format bump: a
/// reader that stops after the header's record count ignores trailing
/// bytes, so indexed files load wherever v3 files do.  The index only
/// accelerates MappedSummaryFile; when it is missing or damaged the
/// reader rebuilds it by scanning the record frames.  Layout in
/// docs/SUMMARY_FORMAT.md (digest-index appendix).
constexpr uint32_t kSummaryIndexMagic = 0x58444944;

/// A stable fingerprint of everything about \p P the analyses can
/// observe: the class hierarchy, methods, variables, allocation/call
/// sites and every statement.  Two programs with equal fingerprints
/// build identical PAGs.
uint64_t programFingerprint(const ir::Program &P);

/// The DSUM v3 writer.  Summaries are added one at a time in the
/// writing graph's node ids (tuple nodes included) and canonicalized
/// against that graph as they are encoded, so whoever holds them — the
/// summary store's hot tier or a record decoded from its disk tier —
/// writes through this one path.  write() patches in the header (its
/// record count and checksum cover every record), appends the digest
/// index, and publishes the file crash-safely: the bytes go to a
/// sibling temp file that is fsync'd and atomically renamed over the
/// target, so a crash (or kill -9) at any instant leaves either the old
/// file or the new one, never a torn mix.
class SummaryFileWriter {
public:
  /// The file is fingerprinted against \p G's program and node
  /// references are canonicalized against \p G.
  explicit SummaryFileWriter(const pag::PAG &G);

  /// Appends one record: the key (\p Node, \p Fields bottom-to-top,
  /// \p S) and its summary.
  void add(pag::NodeId Node, const std::vector<uint32_t> &Fields, RsmState S,
           const PortableSummary &Summary);

  /// Records added so far.
  uint64_t records() const { return Digests.size(); }

  /// Finishes the file and writes it to \p Path; call once.  False on
  /// I/O failure, with the previous file at \p Path intact.
  bool write(const std::string &Path);

private:
  const pag::PAG &Graph;
  /// The file so far: a 32-byte header placeholder, then the framed
  /// records.
  std::string Buf;
  std::string Payload; ///< per-record scratch
  std::vector<std::pair<uint64_t, uint64_t>> Digests; ///< (digest, offset)
};

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

/// Read-only random access into one v3 .dsum file through an mmap
/// (support::MappedFile), keyed by the digest index.  This is the only
/// reader: every load of a snapshot is an attach of this file as the
/// summary store's disk tier.
///
/// open() validates the header (magic, version, fingerprint, header
/// checksum — any failure rejects the file), then locates the digest
/// index from the trailing footer.  A missing or damaged index is NOT a
/// rejection: the reader falls back to scanning the record frames and
/// indexing them itself, which is how pre-index v3 files (and files
/// with a torn-off tail) stay servable.
///
/// findBody() is the probe: one O(1) digest-table chain walk, parsing
/// candidate records until one's exact key matches.  Record payloads
/// are checksummed lazily — on the first probe that touches them, or
/// all at once by validateAll() — and a record that fails its CRC (or
/// parses out of bounds) is remembered as dead and reported as a miss
/// forever after: corruption degrades to cold recomputation, never to
/// a crash or a damaged summary.
///
/// Thread safety: findBody() and record() may be called from any
/// number of threads concurrently (the lazy validation verdicts are
/// atomics; the mapping is immutable).  open() and validateAll() must
/// complete before the first probe.
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

  /// Probes for the exact canonical key: decodes the matching record's
  /// BODY straight into a portable summary, materializing nothing else.
  /// \p Digest must be summaryRecordDigest of the key — the caller
  /// computes it up front (so it can prefetch() while other work is in
  /// flight) and this probe reuses it.  The key fields are compared
  /// element-by-element against \p Fields during the parse (no key
  /// vector is built), and tuple nodes are left CANONICAL for the
  /// caller to translate in place — objects and field runs are
  /// process-independent already.  A damaged record (CRC or parse
  /// failure) is remembered dead and reported as a miss, counted in
  /// corruptRecords(); \p Out doubles as scratch — its capacity is
  /// reused across probes — so its contents are unspecified on a miss.
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
  /// concurrent probe; safe to skip entirely (probes then validate
  /// lazily as documented above).
  uint64_t validateAll();

  /// Records reachable through the index (intact prefix for a torn
  /// file), dead ones included.
  size_t records() const { return Index.size(); }

  /// Decodes record \p Slot (below records()) for a caller that walks
  /// the file rather than probing a key (the store's save): its key,
  /// and its body too when \p Body is non-null (tuple nodes left
  /// canonical).  False for a record no probe would serve: one already
  /// dead, or one whose checksum or parse fails now (it is remembered
  /// dead, as a probe would).
  bool record(size_t Slot, uint32_t &CanonicalNode, RsmState &S,
              std::vector<uint32_t> &Fields, PortableSummary *Body) const;

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

  /// Views slot \p Slot's payload (its frame at \p Offset) in
  /// \p Payload, streaming the checksum unless the slot's verdict
  /// \p State already vouches for it.  False, with the slot marked
  /// dead, on a torn frame or a checksum mismatch.
  bool framePayload(size_t Slot, uint64_t Offset, uint8_t State,
                    std::string_view &Payload) const;
  /// Marks \p Slot dead unless another thread moved it off \p State
  /// first; counts it in corruptRecords() once.
  void markDead(size_t Slot, uint8_t State) const;

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
