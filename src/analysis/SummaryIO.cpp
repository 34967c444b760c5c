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

/// Bounds-checked little-endian reader over the input buffer.
class Reader {
public:
  explicit Reader(std::string_view Data) : Data(Data) {}

  bool read32(uint32_t &V) {
    if (Pos + 4 > Data.size())
      return false;
    V = uint32_t(uint8_t(Data[Pos])) | uint32_t(uint8_t(Data[Pos + 1])) << 8 |
        uint32_t(uint8_t(Data[Pos + 2])) << 16 |
        uint32_t(uint8_t(Data[Pos + 3])) << 24;
    Pos += 4;
    return true;
  }

  bool read64(uint64_t &V) {
    uint32_t Lo = 0, Hi = 0;
    if (!read32(Lo) || !read32(Hi))
      return false;
    V = uint64_t(Hi) << 32 | Lo;
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

  /// Takes the next \p Len bytes as a sub-view; false when fewer
  /// remain.
  bool readBytes(size_t Len, std::string_view &Out) {
    if (Pos + Len > Data.size())
      return false;
    Out = Data.substr(Pos, Len);
    Pos += Len;
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

/// Resolves a canonical reference against \p G; false when out of
/// range.
bool resolveCanonicalNode(const pag::PAG &G, uint32_t Canonical,
                          pag::NodeId &Node) {
  size_t NumVars = G.program().variables().size();
  size_t NumAllocs = G.program().allocs().size();
  if (Canonical < NumVars) {
    Node = G.nodeOfVar(Canonical);
    return true;
  }
  if (Canonical - NumVars < NumAllocs) {
    Node = G.nodeOfAlloc(uint32_t(Canonical - NumVars));
    return true;
  }
  return false;
}

/// Serializes one (node, stack, state) triple with the stack expanded
/// and the node canonicalized.
void putTriple(std::string &Buf, const pag::PAG &G, const StackPool &Stacks,
               pag::NodeId Node, StackId Fields, RsmState S) {
  put32(Buf, canonicalNode(G, Node));
  put32(Buf, uint32_t(S));
  std::vector<uint32_t> Elems = Stacks.elements(Fields);
  put32(Buf, uint32_t(Elems.size()));
  for (uint32_t E : Elems)
    put32(Buf, E);
}

/// Reads a triple back, re-interning the stack in \p Stacks and
/// resolving the canonical node against \p G.  Bounds checks guard
/// against corrupt input.
bool readTriple(Reader &R, const pag::PAG &G, StackPool &Stacks,
                pag::NodeId &Node, StackId &Fields, RsmState &S) {
  uint32_t Canonical = 0, StateRaw = 0, Len = 0;
  if (!R.read32(Canonical) || !R.read32(StateRaw) || !R.read32(Len))
    return false;
  if (StateRaw > 1 || Len > (1u << 20))
    return false;
  if (!resolveCanonicalNode(G, Canonical, Node))
    return false;
  StackId Stack = StackPool::empty();
  for (uint32_t I = 0; I < Len; ++I) {
    uint32_t E = 0;
    if (!R.read32(E))
      return false;
    Stack = Stacks.push(Stack, E);
  }
  Fields = Stack;
  S = StateRaw == 0 ? RsmState::S1 : RsmState::S2;
  return true;
}

/// One decoded summary entry, staged before merging so a failed load
/// never leaves a half-merged cache.
struct Entry {
  pag::NodeId Node;
  StackId Fields;
  RsmState S;
  PptaSummary Summary;
};

/// Parses one entry body (key triple, objects, tuples) from \p R.
bool parseEntry(Reader &R, const pag::PAG &G, StackPool &Stacks,
                size_t NumAllocs, Entry &E) {
  if (!readTriple(R, G, Stacks, E.Node, E.Fields, E.S))
    return false;
  uint32_t NumObjects = 0;
  if (!R.read32(NumObjects) || NumObjects > NumAllocs)
    return false;
  E.Summary.Objects.resize(NumObjects);
  for (uint32_t O = 0; O < NumObjects; ++O) {
    if (!R.read32(E.Summary.Objects[O]) || E.Summary.Objects[O] >= NumAllocs)
      return false;
  }
  uint32_t NumTuples = 0;
  if (!R.read32(NumTuples) || NumTuples > (1u << 22))
    return false;
  E.Summary.Tuples.resize(NumTuples);
  for (uint32_t T = 0; T < NumTuples; ++T) {
    PptaTuple &Tuple = E.Summary.Tuples[T];
    if (!readTriple(R, G, Stacks, Tuple.Node, Tuple.Fields, Tuple.State))
      return false;
  }
  return true;
}

/// Best-effort method attribution for a damaged record: the payload
/// leads with the entry's canonical node, whose owner usually survives
/// single-bit damage elsewhere in the record.
std::string describeRecord(const ir::Program &P, std::string_view Payload) {
  if (Payload.size() < 4)
    return "unattributable (payload too short)";
  Reader R(Payload);
  uint32_t Canonical = 0;
  R.read32(Canonical);
  size_t NumVars = P.variables().size();
  if (Canonical < NumVars)
    return "method " + P.describeMethod(P.variable(Canonical).Owner);
  if (Canonical - NumVars < P.allocs().size())
    return "method " + P.describeMethod(P.alloc(Canonical - NumVars).Owner);
  return "unattributable (key node out of range)";
}

/// The corruption-tolerant v3 body parse: checksummed header, then
/// length/checksum-framed records skipped independently on damage.
void deserializeV3(DynSumAnalysis &A, Reader &R, std::string_view Data,
                   SummaryLoadReport &Report) {
  uint64_t Fingerprint = 0, NumEntries = 0, HeaderCrc = 0;
  if (!R.read64(Fingerprint) || !R.read64(NumEntries) ||
      !R.read64(HeaderCrc)) {
    Report.Error = "truncated v3 header";
    return;
  }
  // The checksum covers everything before it: magic, version,
  // fingerprint, entry count.
  if (fnv64(Data.substr(0, 24)) != HeaderCrc) {
    Report.Error = "v3 header checksum mismatch";
    return;
  }
  if (Fingerprint != programFingerprint(A.graph().program())) {
    Report.Error = "program fingerprint mismatch";
    return;
  }

  const pag::PAG &G = A.graph();
  const ir::Program &P = G.program();
  size_t NumAllocs = P.allocs().size();
  StackPool &Stacks = A.fieldStacks();
  constexpr size_t kMaxReportedSkips = 16;

  std::vector<Entry> Staged;
  Staged.reserve(size_t(NumEntries));
  for (uint64_t I = 0; I < NumEntries; ++I) {
    uint32_t Len = 0;
    uint64_t Crc = 0;
    std::string_view Payload;
    if (!R.read32(Len) || !R.read64(Crc) || !R.readBytes(Len, Payload)) {
      // A tear (crash mid-write, truncated copy): everything before it
      // is intact and loads; the tail is gone.
      Report.Truncated = true;
      Report.Error = "truncated at record " + std::to_string(I) + " of " +
                     std::to_string(NumEntries);
      break;
    }
    const char *Damage = nullptr;
    Entry E;
    if (fnv64(Payload) != Crc) {
      Damage = "checksum mismatch";
    } else {
      Reader Body(Payload);
      if (!parseEntry(Body, G, Stacks, NumAllocs, E) || !Body.atEnd())
        Damage = "malformed payload";
    }
    if (Damage) {
      ++Report.RecordsSkipped;
      if (Report.SkippedRecords.size() < kMaxReportedSkips)
        Report.SkippedRecords.push_back("record " + std::to_string(I) + " (" +
                                        describeRecord(P, Payload) + "): " +
                                        Damage);
      continue;
    }
    Staged.push_back(std::move(E));
  }

  // Summaries are independent cache entries, so the intact subset is
  // sound on its own — merge it even when records were lost.
  for (Entry &E : Staged)
    A.insertSummary(E.Node, E.Fields, E.S, std::move(E.Summary));
  Report.Ok = true;
  Report.EntriesLoaded = Staged.size();
  if (Report.RecordsSkipped && Report.Error.empty())
    Report.Error = std::to_string(Report.RecordsSkipped) +
                   " damaged record(s) skipped";
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialize / deserialize
//===----------------------------------------------------------------------===//

std::string dynsum::analysis::serializeSummaries(const DynSumAnalysis &A) {
  std::string Buf;
  put32(Buf, kMagic);
  put32(Buf, kVersion);
  put64(Buf, programFingerprint(A.graph().program()));
  put64(Buf, A.summaryCache().size());
  put64(Buf, fnv64(Buf)); // header checksum over the 24 bytes above

  const pag::PAG &G = A.graph();
  const StackPool &Stacks = A.fieldStacks();
  std::string Payload;
  std::vector<std::pair<uint64_t, uint64_t>> Digests; // (digest, offset)
  Digests.reserve(A.summaryCache().size());
  for (const auto &[Key, Summary] : A.summaryCache()) {
    pag::NodeId Node = pag::NodeId((Key >> 1) & 0xffffffffu);
    RsmState S = (Key & 1) == 0 ? RsmState::S1 : RsmState::S2;
    StackId Fields{uint32_t(Key >> 33)};
    Payload.clear();
    putTriple(Payload, G, Stacks, Node, Fields, S);
    put32(Payload, uint32_t(Summary.Objects.size()));
    for (ir::AllocId O : Summary.Objects)
      put32(Payload, O);
    put32(Payload, uint32_t(Summary.Tuples.size()));
    for (const PptaTuple &T : Summary.Tuples)
      putTriple(Payload, G, Stacks, T.Node, T.Fields, T.State);
    Digests.emplace_back(summaryRecordDigest(canonicalNode(G, Node), S,
                                             Stacks.elements(Fields)),
                         uint64_t(Buf.size()));
    put32(Buf, uint32_t(Payload.size()));
    put64(Buf, fnv64(Payload));
    Buf += Payload;
  }

  // Digest-index section (see kSummaryIndexMagic): trailing bytes the
  // streaming loader never reads — it stops after the header's record
  // count — but which let MappedSummaryFile binary-search a probe
  // instead of scanning every frame on open.  Sorted by digest; the
  // final u64 locates the section from the file's end.
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
  return Buf;
}

SummaryLoadReport
dynsum::analysis::deserializeSummariesReport(DynSumAnalysis &A,
                                             std::string_view Data) {
  SummaryLoadReport Report;
  Reader R(Data);
  uint32_t Magic = 0, Version = 0;
  if (!R.read32(Magic) || Magic != kMagic) {
    Report.Error = "not a DSUM summary file (bad magic)";
    return Report;
  }
  if (!R.read32(Version)) {
    Report.Error = "truncated before the version field";
    return Report;
  }
  if (Version == 3)
    deserializeV3(A, R, Data, Report);
  else
    Report.Error = "unsupported DSUM version " + std::to_string(Version) +
                   " (this build reads v3)";
  return Report;
}

bool dynsum::analysis::deserializeSummaries(DynSumAnalysis &A,
                                            std::string_view Data) {
  return deserializeSummariesReport(A, Data).Ok;
}

//===----------------------------------------------------------------------===//
// File wrappers
//===----------------------------------------------------------------------===//

bool dynsum::analysis::saveSummariesFile(const DynSumAnalysis &A,
                                         const std::string &Path) {
  std::string Buf = serializeSummaries(A);

  // Crash-safe sequence: write a sibling temp file, flush it all the
  // way to disk, then atomically rename over the target.  A crash (or
  // kill -9) at any instant leaves either the complete old file or the
  // complete new one — the torn temp file is garbage with a different
  // name, and the v3 loader would reject or degrade on it anyway.
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

SummaryLoadReport
dynsum::analysis::loadSummariesFileReport(DynSumAnalysis &A,
                                          const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    SummaryLoadReport Report;
    Report.Error = "cannot open " + Path;
    return Report;
  }
  std::string Buf;
  char Chunk[65536];
  size_t N = 0;
  while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Buf.append(Chunk, N);
  std::fclose(F);
  return deserializeSummariesReport(A, Buf);
}

bool dynsum::analysis::loadSummariesFile(DynSumAnalysis &A,
                                         const std::string &Path) {
  return loadSummariesFileReport(A, Path).Ok;
}

//===----------------------------------------------------------------------===//
// MappedSummaryFile
//===----------------------------------------------------------------------===//

namespace {

uint32_t get32(std::string_view Data, size_t Pos) {
  return uint32_t(uint8_t(Data[Pos])) | uint32_t(uint8_t(Data[Pos + 1])) << 8 |
         uint32_t(uint8_t(Data[Pos + 2])) << 16 |
         uint32_t(uint8_t(Data[Pos + 3])) << 24;
}

uint64_t get64(std::string_view Data, size_t Pos) {
  return uint64_t(get32(Data, Pos)) | uint64_t(get32(Data, Pos + 4)) << 32;
}

/// Parses one record payload into canonical references (no PAG, no
/// StackPool — resolution happens in the promoting store).  Bounds
/// mirror parseEntry's: states binary, stacks capped, every canonical
/// node inside [0, NumVars + NumAllocs), every object a valid AllocId.
bool parseCanonicalRecord(std::string_view Payload, size_t NumVars,
                          size_t NumAllocs, DecodedSummaryRecord &Out) {
  Reader R(Payload);
  size_t NumCanonical = NumVars + NumAllocs;
  // \p Out may be a reused scratch record: every list is resized over,
  // and FieldData (append-only below) starts from empty.  Capacity is
  // deliberately kept — the probe path decodes hundreds of thousands
  // of records and must not allocate per record.
  Out.FieldData.clear();
  uint32_t StateRaw = 0, StackLen = 0;
  if (!R.read32(Out.CanonicalNode) || !R.read32(StateRaw) ||
      !R.read32(StackLen))
    return false;
  if (Out.CanonicalNode >= NumCanonical || StateRaw > 1 ||
      StackLen > (1u << 20))
    return false;
  Out.State = StateRaw == 0 ? RsmState::S1 : RsmState::S2;
  Out.Fields.resize(StackLen);
  for (uint32_t I = 0; I < StackLen; ++I)
    if (!R.read32(Out.Fields[I]))
      return false;
  uint32_t NumObjects = 0;
  if (!R.read32(NumObjects) || NumObjects > NumAllocs)
    return false;
  Out.Objects.resize(NumObjects);
  for (uint32_t O = 0; O < NumObjects; ++O)
    if (!R.read32(Out.Objects[O]) || Out.Objects[O] >= NumAllocs)
      return false;
  uint32_t NumTuples = 0;
  if (!R.read32(NumTuples) || NumTuples > (1u << 22))
    return false;
  Out.Tuples.resize(NumTuples);
  for (uint32_t T = 0; T < NumTuples; ++T) {
    DecodedSummaryRecord::Tuple &Tuple = Out.Tuples[T];
    uint32_t TState = 0;
    if (!R.read32(Tuple.CanonicalNode) || !R.read32(TState) ||
        !R.read32(Tuple.FieldsLen))
      return false;
    if (Tuple.CanonicalNode >= NumCanonical || TState > 1 ||
        Tuple.FieldsLen > (1u << 20))
      return false;
    Tuple.State = TState == 0 ? RsmState::S1 : RsmState::S2;
    for (uint32_t I = 0; I < Tuple.FieldsLen; ++I) {
      uint32_t E = 0;
      if (!R.read32(E))
        return false;
      Out.FieldData.push_back(E);
    }
  }
  return R.atEnd();
}

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

/// Extracts just the key triple from a record payload — what the frame
/// scan needs to index a record without validating its whole body.
bool parseRecordKey(std::string_view Payload, size_t NumVars,
                    size_t NumAllocs, uint32_t &Canonical, RsmState &S,
                    std::vector<uint32_t> &Fields) {
  Reader R(Payload);
  uint32_t StateRaw = 0, StackLen = 0;
  if (!R.read32(Canonical) || !R.read32(StateRaw) || !R.read32(StackLen))
    return false;
  if (Canonical >= NumVars + NumAllocs || StateRaw > 1 ||
      StackLen > (1u << 20))
    return false;
  Fields.resize(StackLen);
  for (uint32_t I = 0; I < StackLen; ++I)
    if (!R.read32(Fields[I]))
      return false;
  S = StateRaw == 0 ? RsmState::S1 : RsmState::S2;
  return true;
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

  // Header validation — the exact gate the streaming loader applies.
  if (Data.size() < 32)
    return Fail("not a DSUM summary file (too short)");
  if (get32(Data, 0) != kMagic)
    return Fail("not a DSUM summary file (bad magic)");
  uint32_t Version = get32(Data, 4);
  if (Version != 3)
    return Fail("DSUM version " + std::to_string(Version) +
                " has no per-record framing; only v3 supports mapped access");
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
    // Frame scan: walk the length-framed records exactly like the
    // streaming loader, keying each by the digest of its (unvalidated)
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
      if (parseRecordKey(Data.substr(Pos + 12, Len), NumVars, NumAllocs,
                         Canonical, S, Fields)) {
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
  // cache misses per find() was the disk tier's single largest serving
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

bool MappedSummaryFile::decodeSlot(size_t Slot,
                                   DecodedSummaryRecord &Out) const {
  std::string_view Data = Map.bytes();
  uint64_t Offset = Index[Slot].Offset;
  uint8_t State = Verdict[Slot].load(std::memory_order_acquire);
  if (State == 2)
    return false; // already known dead

  auto MarkDead = [&] {
    uint8_t Expected = State;
    if (Verdict[Slot].compare_exchange_strong(Expected, 2,
                                              std::memory_order_acq_rel))
      Corrupt.fetch_add(1, std::memory_order_relaxed);
    return false;
  };

  if (Offset + 12 > Data.size())
    return MarkDead();
  uint32_t Len = get32(Data, size_t(Offset));
  if (Offset + 12 + Len > Data.size())
    return MarkDead();
  std::string_view Payload = Data.substr(size_t(Offset) + 12, Len);
  // CRC on first touch only: a record that validated once is immutable
  // under the mapping, so later probes skip straight to the parse.
  if (State == 0 && fnv64(Payload) != get64(Data, size_t(Offset) + 4))
    return MarkDead();
  if (!parseCanonicalRecord(Payload, NumVars, NumAllocs, Out))
    return MarkDead();
  if (State == 0)
    Verdict[Slot].store(1, std::memory_order_release);
  return true;
}

bool MappedSummaryFile::find(uint32_t CanonicalNode, RsmState S,
                             const std::vector<uint32_t> &Fields,
                             DecodedSummaryRecord &Out) const {
  uint64_t D = summaryRecordDigest(CanonicalNode, S, Fields);
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
    // Decode straight into the caller's record: it doubles as scratch
    // (capacity reused across probes), so on a miss or a digest
    // collision its contents are unspecified.
    if (!decodeSlot(Slot, Out))
      continue;
    if (Out.CanonicalNode == CanonicalNode && Out.State == S &&
        Out.Fields == Fields)
      return true;
  }
  return false;
}

bool MappedSummaryFile::findBody(uint64_t Digest, uint32_t CanonicalNode,
                                 RsmState S,
                                 const std::vector<uint32_t> &Fields,
                                 PortableSummary &Out) const {
  uint64_t D = Digest;
  if (Index.empty())
    return false;
  std::string_view Data = Map.bytes();
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
    auto MarkDead = [&] {
      uint8_t Expected = State;
      if (Verdict[Slot].compare_exchange_strong(Expected, 2,
                                                std::memory_order_acq_rel))
        Corrupt.fetch_add(1, std::memory_order_relaxed);
    };
    uint64_t Offset = HashTable[H].Offset;
    if (Offset + 12 > Data.size()) {
      MarkDead();
      continue;
    }
    uint32_t Len = get32(Data, size_t(Offset));
    if (Offset + 12 + Len > Data.size()) {
      MarkDead();
      continue;
    }
    std::string_view Payload = Data.substr(size_t(Offset) + 12, Len);
    // CRC on first touch, exactly like decodeSlot — unless validateAll
    // already settled every verdict at attach time, in which case State
    // is 1 or 2 here and the serving path never streams a checksum.  A
    // verdict of 1 promises a valid checksum; body validity is
    // (re)established by the parse below whenever the key matches.
    if (State == 0 && fnv64(Payload) != get64(Data, size_t(Offset) + 4)) {
      MarkDead();
      continue;
    }
    bool Malformed = false;
    bool Match = parseRecordBodyIfMatch(Payload, NumVars, NumAllocs,
                                        CanonicalNode, S, Fields, Out,
                                        Malformed);
    if (Malformed) {
      MarkDead();
      continue;
    }
    if (State == 0)
      Verdict[Slot].store(1, std::memory_order_release);
    if (Match)
      return true;
  }
  return false;
}

uint64_t MappedSummaryFile::validateAll() {
  std::string_view Data = Map.bytes();
  uint64_t Dead = 0;
  for (size_t Slot = 0; Slot < Index.size(); ++Slot) {
    uint8_t State = Verdict[Slot].load(std::memory_order_relaxed);
    if (State == 2) {
      ++Dead;
      continue;
    }
    if (State == 1)
      continue;
    uint64_t Offset = Index[Slot].Offset;
    bool Valid = Offset + 12 <= Data.size();
    uint32_t Len = Valid ? get32(Data, size_t(Offset)) : 0;
    Valid = Valid && Offset + 12 + Len <= Data.size() &&
            fnv64(Data.substr(size_t(Offset) + 12, Len)) ==
                get64(Data, size_t(Offset) + 4);
    if (Valid) {
      Verdict[Slot].store(1, std::memory_order_release);
    } else {
      Verdict[Slot].store(2, std::memory_order_release);
      Corrupt.fetch_add(1, std::memory_order_relaxed);
      ++Dead;
    }
  }
  // A fully clean file lets probes skip the verdict load altogether.
  // (Monotone: verdicts only move 0 -> {1,2}, and we just visited all.)
  AllValid = Dead == 0;
  return Dead;
}
