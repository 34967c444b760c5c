//===----------------------------------------------------------------------===//
///
/// \file
/// Summary-cache serialization implementation.
///
//===----------------------------------------------------------------------===//

#include "analysis/SummaryIO.h"

#include "support/FaultInjection.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace dynsum;
using namespace dynsum::analysis;

static constexpr uint32_t kMagic = kSummaryFileMagic;
static constexpr uint32_t kVersion = kSummaryFileVersion;

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

uint64_t dynsum::analysis::programFingerprint(const ir::Program &P) {
  uint64_t H = 0xd59b8cf1a2b3c4d5ull;
  H = hashCombine(H, P.classes().size());
  for (const ir::ClassType &C : P.classes()) {
    H = hashCombine(H, C.Name.Id);
    H = hashCombine(H, C.Super);
  }
  H = hashCombine(H, P.fields().size());
  for (const ir::Field &F : P.fields())
    H = hashCombine(H, F.Name.Id);
  H = hashCombine(H, P.variables().size());
  for (const ir::Variable &V : P.variables()) {
    H = hashCombine(H, V.Name.Id);
    H = hashCombine(H, packPair(V.Owner, uint32_t(V.IsGlobal)));
  }
  H = hashCombine(H, P.allocs().size());
  for (const ir::AllocSite &A : P.allocs())
    H = hashCombine(H, packPair(A.Type, A.Owner));
  H = hashCombine(H, P.methods().size());
  for (const ir::Method &M : P.methods()) {
    H = hashCombine(H, M.Name.Id);
    H = hashCombine(H, packPair(M.Owner, uint32_t(M.Params.size())));
    for (ir::VarId V : M.Params)
      H = hashCombine(H, V);
    H = hashCombine(H, M.Stmts.size());
    for (const ir::Statement &S : M.Stmts) {
      H = hashCombine(H, packPair(uint32_t(S.Kind), S.Dst));
      H = hashCombine(H, packPair(S.Src, S.Base));
      H = hashCombine(H, packPair(S.FieldLabel, S.Type));
      H = hashCombine(H, packPair(S.Alloc, S.Call));
      H = hashCombine(H, packPair(S.Callee, S.VirtualName.Id));
      H = hashCombine(H, uint64_t(S.IsVirtual));
      for (ir::VarId V : S.Args)
        H = hashCombine(H, V);
    }
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Little-endian buffer primitives
//===----------------------------------------------------------------------===//

namespace {

void put32(std::string &Buf, uint32_t V) {
  char Bytes[4] = {char(V), char(V >> 8), char(V >> 16), char(V >> 24)};
  Buf.append(Bytes, 4);
}

void put64(std::string &Buf, uint64_t V) {
  put32(Buf, uint32_t(V));
  put32(Buf, uint32_t(V >> 32));
}

/// A length-prefixed run of u32s: the on-disk shape of every field
/// stack and of the object list.
void putRun(std::string &Buf, const uint32_t *Vals, size_t N) {
  put32(Buf, uint32_t(N));
  for (size_t I = 0; I < N; ++I)
    put32(Buf, Vals[I]);
}

/// FNV-1a over a byte range: the per-section checksum.  Not
/// cryptographic — it guards against torn writes and bit rot, not
/// adversaries.
uint64_t fnv64(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : Bytes) {
    H ^= uint8_t(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

uint32_t get32(std::string_view Data, size_t Pos) {
  return uint32_t(uint8_t(Data[Pos])) | uint32_t(uint8_t(Data[Pos + 1])) << 8 |
         uint32_t(uint8_t(Data[Pos + 2])) << 16 |
         uint32_t(uint8_t(Data[Pos + 3])) << 24;
}

uint64_t get64(std::string_view Data, size_t Pos) {
  return uint64_t(get32(Data, Pos)) | uint64_t(get32(Data, Pos + 4)) << 32;
}

/// Bounds-checked little-endian reader over one record payload.
class Reader {
public:
  explicit Reader(std::string_view Data) : Data(Data) {}

  bool read32(uint32_t &V) {
    if (Pos + 4 > Data.size())
      return false;
    V = get32(Data, Pos);
    Pos += 4;
    return true;
  }

  /// Decodes the next \p N u32s into \p Out with a single bounds
  /// check; the serving path reads whole field runs through this
  /// (per-element read32 calls pay a branch per element, and the plain
  /// byte-assembly loop below vectorizes).
  bool read32Run(uint32_t *Out, size_t N) {
    if (N > remaining() / 4)
      return false;
    const char *P = Data.data() + Pos;
    for (size_t I = 0; I < N; ++I, P += 4)
      Out[I] = uint32_t(uint8_t(P[0])) | uint32_t(uint8_t(P[1])) << 8 |
               uint32_t(uint8_t(P[2])) << 16 | uint32_t(uint8_t(P[3])) << 24;
    Pos += N * 4;
    return true;
  }

  /// Consumes the next \p N u32s iff they equal \p Vals element-wise;
  /// on a short buffer or any mismatch nothing is consumed and false
  /// is returned (callers that must distinguish the two check
  /// remaining() first).
  bool match32Run(const uint32_t *Vals, size_t N) {
    if (N > remaining() / 4)
      return false;
    const char *P = Data.data() + Pos;
    for (size_t I = 0; I < N; ++I, P += 4) {
      uint32_t E = uint32_t(uint8_t(P[0])) | uint32_t(uint8_t(P[1])) << 8 |
                   uint32_t(uint8_t(P[2])) << 16 | uint32_t(uint8_t(P[3])) << 24;
      if (E != Vals[I])
        return false;
    }
    Pos += N * 4;
    return true;
  }

  size_t remaining() const { return Data.size() - Pos; }
  bool atEnd() const { return Pos == Data.size(); }

private:
  std::string_view Data;
  size_t Pos = 0;
};

/// On-disk node references are canonical — VarId for variable nodes,
/// numVars + AllocId for object nodes — because in-memory numbering
/// depends on the graph's delta-build history while the canonical form
/// depends only on the (fingerprinted) program.
uint32_t canonicalNode(const pag::PAG &G, pag::NodeId Node) {
  const pag::Node &N = G.node(Node);
  if (N.Kind == pag::NodeKind::Object)
    return uint32_t(G.program().variables().size()) + N.IrId;
  return N.IrId;
}

} // namespace

//===----------------------------------------------------------------------===//
// SummaryFileWriter
//===----------------------------------------------------------------------===//

SummaryFileWriter::SummaryFileWriter(const pag::PAG &G)
    : Graph(G), Buf(32, '\0') {}

void SummaryFileWriter::add(pag::NodeId Node,
                            const std::vector<uint32_t> &Fields, RsmState S,
                            const PortableSummary &Summary) {
  uint32_t Canonical = canonicalNode(Graph, Node);
  Payload.clear();
  put32(Payload, Canonical);
  put32(Payload, uint32_t(S));
  putRun(Payload, Fields.data(), Fields.size());
  putRun(Payload, Summary.Objects.data(), Summary.Objects.size());
  put32(Payload, uint32_t(Summary.Tuples.size()));
  const uint32_t *Run = Summary.FieldData.data();
  for (const PortableSummary::Tuple &T : Summary.Tuples) {
    put32(Payload, canonicalNode(Graph, T.Node));
    put32(Payload, uint32_t(T.State));
    putRun(Payload, Run, T.FieldsLen);
    Run += T.FieldsLen;
  }
  Digests.emplace_back(summaryRecordDigest(Canonical, S, Fields),
                       uint64_t(Buf.size()));
  put32(Buf, uint32_t(Payload.size()));
  put64(Buf, fnv64(Payload));
  Buf += Payload;
}

bool SummaryFileWriter::write(const std::string &Path) {
  // The header's checksum covers magic, version, fingerprint and record
  // count — the 24 bytes before it.
  std::string Header;
  put32(Header, kMagic);
  put32(Header, kVersion);
  put64(Header, programFingerprint(Graph.program()));
  put64(Header, Digests.size());
  put64(Header, fnv64(Header));
  Buf.replace(0, Header.size(), Header);

  // Digest-index section (see kSummaryIndexMagic): sorted by digest so
  // MappedSummaryFile can index a probe instead of scanning every frame
  // on open; the final u64 locates the section from the file's end.
  std::sort(Digests.begin(), Digests.end());
  size_t IndexStart = Buf.size();
  put32(Buf, kSummaryIndexMagic);
  put64(Buf, Digests.size());
  for (const auto &[Digest, Offset] : Digests) {
    put64(Buf, Digest);
    put64(Buf, Offset);
  }
  put64(Buf, fnv64(std::string_view(Buf).substr(IndexStart)));
  put64(Buf, IndexStart);

  // Crash-safe sequence: write a sibling temp file, flush it all the
  // way to disk, then atomically rename over the target.  A crash (or
  // kill -9) at any instant leaves either the complete old file or the
  // complete new one — the torn temp file is garbage with a different
  // name.  A reader mapping the old file keeps its bytes: the rename
  // unlinks the name, not the mapped inode.
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F)
    return false;
  // Fault point: a torn write truncates the stream at byte N and skips
  // the publish rename, modeling power loss mid-save.
  size_t Limit = support::tornWriteLimit("save.write");
  size_t Want = std::min(Buf.size(), Limit);
  bool Ok = std::fwrite(Buf.data(), 1, Want, F) == Want && Want == Buf.size();
  if (Ok && std::fflush(F) != 0)
    Ok = false;
#ifndef _WIN32
  if (Ok && fsync(fileno(F)) != 0)
    Ok = false;
#endif
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok) {
    std::remove(Tmp.c_str());
    return false;
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// MappedSummaryFile
//===----------------------------------------------------------------------===//

namespace {

/// Match-gated body parse for the serving path: compares the record's
/// key against (\p Canonical, \p S, \p Fields) element-by-element as it
/// reads, and only on a full key match parses the body straight into
/// \p Out (tuple nodes left canonical).  Returns false on key mismatch
/// OR damage; \p Malformed distinguishes the two so the caller can
/// remember damaged records as dead without penalizing mere digest
/// collisions.
bool parseRecordBodyIfMatch(std::string_view Payload, size_t NumVars,
                            size_t NumAllocs, uint32_t Canonical, RsmState S,
                            const std::vector<uint32_t> &Fields,
                            PortableSummary &Out, bool &Malformed) {
  Reader R(Payload);
  Malformed = false;
  size_t NumCanonical = NumVars + NumAllocs;
  uint32_t Node = 0, StateRaw = 0, StackLen = 0;
  if (!R.read32(Node) || !R.read32(StateRaw) || !R.read32(StackLen)) {
    Malformed = true;
    return false;
  }
  if (Node >= NumCanonical || StateRaw > 1 || StackLen > (1u << 20)) {
    Malformed = true;
    return false;
  }
  RsmState RecState = StateRaw == 0 ? RsmState::S1 : RsmState::S2;
  if (Node != Canonical || RecState != S || StackLen != Fields.size())
    return false; // valid record, different key
  if (StackLen > R.remaining() / 4) {
    Malformed = true;
    return false;
  }
  if (!R.match32Run(Fields.data(), StackLen))
    return false; // valid record, different key

  // Key matched: decode the body.  \p Out may be reused scratch; every
  // list is resized over and FieldData (append-only) starts empty.
  Out.FieldData.clear();
  uint32_t NumObjects = 0;
  if (!R.read32(NumObjects) || NumObjects > NumAllocs) {
    Malformed = true;
    return false;
  }
  Out.Objects.resize(NumObjects);
  for (uint32_t O = 0; O < NumObjects; ++O)
    if (!R.read32(Out.Objects[O]) || Out.Objects[O] >= NumAllocs) {
      Malformed = true;
      return false;
    }
  uint32_t NumTuples = 0;
  if (!R.read32(NumTuples) || NumTuples > (1u << 22)) {
    Malformed = true;
    return false;
  }
  Out.Tuples.resize(NumTuples);
  for (uint32_t T = 0; T < NumTuples; ++T) {
    PortableSummary::Tuple &Tuple = Out.Tuples[T];
    uint32_t TState = 0, TLen = 0;
    if (!R.read32(Tuple.Node) || !R.read32(TState) || !R.read32(TLen)) {
      Malformed = true;
      return false;
    }
    if (Tuple.Node >= NumCanonical || TState > 1 || TLen > (1u << 20)) {
      Malformed = true;
      return false;
    }
    Tuple.State = TState == 0 ? RsmState::S1 : RsmState::S2;
    Tuple.FieldsLen = TLen;
    size_t Base = Out.FieldData.size();
    Out.FieldData.resize(Base + TLen);
    if (!R.read32Run(Out.FieldData.data() + Base, TLen)) {
      Malformed = true;
      return false;
    }
  }
  if (!R.atEnd()) {
    Malformed = true;
    return false;
  }
  return true;
}

/// Decodes a record payload's key triple and, when \p Body is non-null,
/// its body too (tuple nodes left canonical).  Bounds match the probe
/// parse above: states binary, stacks capped, every canonical node
/// inside [0, NumVars + NumAllocs), every object a valid AllocId, and
/// no trailing bytes after a body.  The frame scan reads keys only, to
/// index records without validating them; the store's save reads whole
/// records.
bool decodeRecord(std::string_view Payload, size_t NumVars, size_t NumAllocs,
                  uint32_t &Canonical, RsmState &S,
                  std::vector<uint32_t> &Fields, PortableSummary *Body) {
  Reader R(Payload);
  size_t NumCanonical = NumVars + NumAllocs;
  uint32_t StateRaw = 0, StackLen = 0;
  if (!R.read32(Canonical) || !R.read32(StateRaw) || !R.read32(StackLen) ||
      Canonical >= NumCanonical || StateRaw > 1 || StackLen > (1u << 20))
    return false;
  S = StateRaw == 0 ? RsmState::S1 : RsmState::S2;
  Fields.resize(StackLen);
  if (!R.read32Run(Fields.data(), StackLen))
    return false;
  if (!Body)
    return true;

  uint32_t NumObjects = 0;
  if (!R.read32(NumObjects) || NumObjects > NumAllocs)
    return false;
  Body->Objects.resize(NumObjects);
  if (!R.read32Run(Body->Objects.data(), NumObjects))
    return false;
  for (ir::AllocId O : Body->Objects)
    if (O >= NumAllocs)
      return false;
  uint32_t NumTuples = 0;
  if (!R.read32(NumTuples) || NumTuples > (1u << 22))
    return false;
  Body->Tuples.resize(NumTuples);
  Body->FieldData.clear();
  for (PortableSummary::Tuple &T : Body->Tuples) {
    uint32_t TState = 0;
    if (!R.read32(T.Node) || !R.read32(TState) || !R.read32(T.FieldsLen) ||
        T.Node >= NumCanonical || TState > 1 || T.FieldsLen > (1u << 20))
      return false;
    T.State = TState == 0 ? RsmState::S1 : RsmState::S2;
    size_t Base = Body->FieldData.size();
    Body->FieldData.resize(Base + T.FieldsLen);
    if (!R.read32Run(Body->FieldData.data() + Base, T.FieldsLen))
      return false;
  }
  return R.atEnd();
}

} // namespace

std::unique_ptr<MappedSummaryFile>
MappedSummaryFile::open(const std::string &Path, uint64_t ExpectedFingerprint,
                        size_t NumVars, size_t NumAllocs,
                        std::string *Error) {
  auto Fail = [&](const std::string &Why) -> std::unique_ptr<MappedSummaryFile> {
    if (Error)
      *Error = Why;
    return nullptr;
  };

  std::unique_ptr<MappedSummaryFile> F(new MappedSummaryFile());
  std::string MapError;
  if (!F->Map.map(Path, &MapError))
    return Fail(MapError);
  std::string_view Data = F->Map.bytes();

  // Header validation: any failure refuses the whole file.
  if (Data.size() < 8 || get32(Data, 0) != kMagic)
    return Fail("not a DSUM summary file (bad magic)");
  uint32_t Version = get32(Data, 4);
  if (Version != kVersion)
    return Fail("unsupported DSUM version " + std::to_string(Version) +
                " (this build reads v3)");
  if (Data.size() < 32)
    return Fail("truncated v3 header");
  if (fnv64(Data.substr(0, 24)) != get64(Data, 24))
    return Fail("v3 header checksum mismatch");
  if (get64(Data, 8) != ExpectedFingerprint)
    return Fail("program fingerprint mismatch");

  F->NumVars = NumVars;
  F->NumAllocs = NumAllocs;
  uint64_t NumEntries = get64(Data, 16);

  // Locate the digest index from the trailing footer.  Every check
  // failing soft-falls to the frame scan: pre-index v3 files have no
  // footer at all, torn files lost theirs, and a damaged index must
  // never be trusted (the CRC decides).
  bool HaveFooter = false;
  if (Data.size() >= 32 + 28) {
    uint64_t IndexStart = get64(Data, Data.size() - 8);
    if (IndexStart >= 32 && IndexStart + 28 <= Data.size() &&
        get32(Data, size_t(IndexStart)) == kSummaryIndexMagic) {
      uint64_t Count = get64(Data, size_t(IndexStart) + 4);
      if (Count <= (Data.size() - 28) / 16 &&
          IndexStart + 28 + Count * 16 == Data.size() &&
          Count == NumEntries &&
          fnv64(Data.substr(size_t(IndexStart), size_t(12 + Count * 16))) ==
              get64(Data, Data.size() - 16)) {
        F->Index.reserve(size_t(Count));
        size_t Pos = size_t(IndexStart) + 12;
        bool Sane = true;
        uint64_t PrevDigest = 0;
        for (uint64_t I = 0; I < Count && Sane; ++I, Pos += 16) {
          IndexEntry E;
          E.Digest = get64(Data, Pos);
          E.Offset = get64(Data, Pos + 8);
          // Offsets point at record frames strictly inside the record
          // region; digests ascend (binary-search precondition).
          Sane = E.Offset >= 32 && E.Offset + 12 <= IndexStart &&
                 (I == 0 || E.Digest >= PrevDigest);
          PrevDigest = E.Digest;
          F->Index.push_back(E);
        }
        if (Sane) {
          HaveFooter = true;
        } else {
          F->Index.clear();
        }
      }
    }
  }
  F->IndexFromFooter = HaveFooter;

  if (!HaveFooter) {
    // Frame scan: walk the length-framed records in file order, keying
    // each by the digest of its (unvalidated)
    // key bytes.  A record whose key bytes are damaged lands under a
    // wrong digest — or is dropped here when they are unparseable — so
    // probes for its true key miss; full validation still happens
    // lazily on first touch.  A tear ends the scan: the intact prefix
    // is served, the tail is gone.
    size_t Pos = 32;
    std::vector<uint32_t> Fields;
    for (uint64_t I = 0; I < NumEntries; ++I) {
      if (Pos + 12 > Data.size())
        break; // torn frame header
      uint32_t Len = get32(Data, Pos);
      if (Pos + 12 + Len > Data.size())
        break; // torn payload
      uint32_t Canonical = 0;
      RsmState S = RsmState::S1;
      if (decodeRecord(Data.substr(Pos + 12, Len), NumVars, NumAllocs,
                       Canonical, S, Fields, nullptr)) {
        F->Index.push_back(
            IndexEntry{summaryRecordDigest(Canonical, S, Fields), Pos});
      } else {
        F->Corrupt.fetch_add(1, std::memory_order_relaxed);
      }
      Pos += 12 + Len;
    }
    std::sort(F->Index.begin(), F->Index.end(),
              [](const IndexEntry &A, const IndexEntry &B) {
                return A.Digest < B.Digest ||
                       (A.Digest == B.Digest && A.Offset < B.Offset);
              });
  }

  if (!F->Index.empty()) {
    F->Verdict =
        std::make_unique<std::atomic<uint8_t>[]>(F->Index.size());
    for (size_t I = 0; I < F->Index.size(); ++I)
      F->Verdict[I].store(0, std::memory_order_relaxed);
  }

  // Open-addressing digest table over the index slots, built once per
  // open.  A probe walks one short chain (load factor <= 1/2) instead
  // of binary-searching the sorted index — log2(records) dependent
  // cache misses per probe was the disk tier's single largest serving
  // cost.  Each entry carries digest, offset, and slot together so the
  // common chain-length-1 probe is one cache-line load.  Low digest
  // bits select the home slot; the stripe selector uses the top bits,
  // so the two stay uncorrelated.
  size_t Cap = 1;
  while (Cap < F->Index.size() * 2)
    Cap <<= 1;
  F->HashTable.assign(Cap, HashEntry{});
  F->HashMask = Cap - 1;
  for (size_t I = 0; I < F->Index.size(); ++I) {
    size_t H = size_t(F->Index[I].Digest) & F->HashMask;
    while (F->HashTable[H].Offset != kNoEntry)
      H = (H + 1) & F->HashMask;
    F->HashTable[H] =
        HashEntry{F->Index[I].Digest, F->Index[I].Offset, uint32_t(I)};
  }
  return F;
}

void MappedSummaryFile::markDead(size_t Slot, uint8_t State) const {
  uint8_t Expected = State;
  if (Verdict[Slot].compare_exchange_strong(Expected, 2,
                                            std::memory_order_acq_rel))
    Corrupt.fetch_add(1, std::memory_order_relaxed);
}

bool MappedSummaryFile::framePayload(size_t Slot, uint64_t Offset,
                                     uint8_t State,
                                     std::string_view &Payload) const {
  std::string_view Data = Map.bytes();
  bool Ok = Offset + 12 <= Data.size();
  uint32_t Len = Ok ? get32(Data, size_t(Offset)) : 0;
  Ok = Ok && Offset + 12 + Len <= Data.size();
  if (Ok)
    Payload = Data.substr(size_t(Offset) + 12, Len);
  // CRC on first touch only: a record that validated once is immutable
  // under the mapping, so later probes skip straight to the parse.
  if (Ok && State == 0 && fnv64(Payload) != get64(Data, size_t(Offset) + 4))
    Ok = false;
  if (!Ok)
    markDead(Slot, State);
  return Ok;
}

bool MappedSummaryFile::findBody(uint64_t Digest, uint32_t CanonicalNode,
                                 RsmState S,
                                 const std::vector<uint32_t> &Fields,
                                 PortableSummary &Out) const {
  uint64_t D = Digest;
  if (Index.empty())
    return false;
  // Linear probing visits every slot whose digest hashes to this chain
  // before the first empty slot, so all candidates sharing D (including
  // genuine digest collisions) are reached.
  for (size_t H = size_t(D) & HashMask; HashTable[H].Offset != kNoEntry;
       H = (H + 1) & HashMask) {
    if (HashTable[H].Digest != D)
      continue;
    uint32_t Slot = HashTable[H].Slot;
    // After validateAll() settled every verdict as valid, the load (a
    // near-guaranteed cache miss into a side array) is pure overhead.
    uint8_t State = 1;
    if (!AllValid) {
      State = Verdict[Slot].load(std::memory_order_acquire);
      if (State == 2)
        continue; // already known dead
    }
    // Once validateAll has settled every verdict, State is 1 or 2 here
    // and the serving path never streams a checksum.  A verdict of 1
    // promises a valid checksum; body validity is (re)established by
    // the parse below whenever the key matches.
    std::string_view Payload;
    if (!framePayload(Slot, HashTable[H].Offset, State, Payload))
      continue;
    bool Malformed = false;
    bool Match = parseRecordBodyIfMatch(Payload, NumVars, NumAllocs,
                                        CanonicalNode, S, Fields, Out,
                                        Malformed);
    if (Malformed) {
      markDead(Slot, State);
      continue;
    }
    if (State == 0)
      Verdict[Slot].store(1, std::memory_order_release);
    if (Match)
      return true;
  }
  return false;
}

bool MappedSummaryFile::record(size_t Slot, uint32_t &CanonicalNode,
                               RsmState &S, std::vector<uint32_t> &Fields,
                               PortableSummary *Body) const {
  uint8_t State = Verdict[Slot].load(std::memory_order_acquire);
  std::string_view Payload;
  if (State == 2 || !framePayload(Slot, Index[Slot].Offset, State, Payload))
    return false;
  if (!decodeRecord(Payload, NumVars, NumAllocs, CanonicalNode, S, Fields,
                    Body)) {
    markDead(Slot, State);
    return false;
  }
  // Only a whole-record decode vouches for the body.
  if (State == 0 && Body)
    Verdict[Slot].store(1, std::memory_order_release);
  return true;
}

uint64_t MappedSummaryFile::validateAll() {
  uint64_t Dead = 0;
  for (size_t Slot = 0; Slot < Index.size(); ++Slot) {
    uint8_t State = Verdict[Slot].load(std::memory_order_relaxed);
    std::string_view Payload;
    if (State == 2 || !framePayload(Slot, Index[Slot].Offset, State, Payload))
      ++Dead;
    else
      Verdict[Slot].store(1, std::memory_order_release);
  }
  // A fully clean file lets probes skip the verdict load altogether.
  // (Monotone: verdicts only move 0 -> {1,2}, and we just visited all.)
  AllValid = Dead == 0;
  return Dead;
}
