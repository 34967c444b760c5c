//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the DSUM snapshot format: the one writer
/// (SummaryFileWriter, driven by TieredSummaryStore::save) and the one
/// reader (MappedSummaryFile, behind TieredSummaryStore::attachDiskTier)
/// — round trips, warm-start step savings, and refusal or per-record
/// degradation on mismatched or damaged files, including the checked-in
/// golden corpus.
///
//===----------------------------------------------------------------------===//

#include "analysis/SummaryIO.h"

#include "clients/Client.h"
#include "ir/Parser.h"
#include "pag/PAGBuilder.h"
#include "support/FaultInjection.h"
#include "workload/Generator.h"

#include "RecordingStore.h"
#include "TestPrograms.h"

#include <algorithm>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>

using namespace dynsum;
using namespace dynsum::analysis;
using engine::TieredSummaryStore;

namespace {

/// A program with its PAG and a DYNSUM instance exchanging summaries
/// with a recording store — the shape every saving or attaching
/// process has.
struct Instance {
  explicit Instance(const char *Source) {
    ir::ParseResult R = ir::parseProgram(Source);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Built = pag::buildPAG(*Prog);
    DynSum = std::make_unique<DynSumAnalysis>(*Built.Graph, AnalysisOptions());
    DynSum->setSummaryExchange(&Rec);
  }

  const pag::PAG &graph() const { return *Built.Graph; }
  TieredSummaryStore &store() { return Rec.Store; }

  /// Queries every variable of Main.main (\p AllVars: every variable).
  void warm(bool AllVars = false) {
    ir::TypeId MainCls = Prog->findClass(Prog->names().lookup("Main"));
    ir::MethodId Main = Prog->findMethod(MainCls, Prog->names().lookup("main"));
    for (const ir::Variable &V : Prog->variables())
      if (!V.IsGlobal && (AllVars || V.Owner == Main))
        DynSum->query(Built.Graph->nodeOfVar(V.Id));
  }

  TieredSummaryStore::DiskTierStatus attach(const std::string &Path) {
    return store().attachDiskTier(Path, graph());
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  dynsum::testing::RecordingStore Rec;
  std::unique_ptr<DynSumAnalysis> DynSum;
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), std::streamsize(Bytes.size()));
}

uint64_t le64(const std::string &Buf, size_t Pos) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = V << 8 | uint8_t(Buf[Pos + I]);
  return V;
}

/// The complete record frames (length, checksum, payload) of a DSUM
/// file in file order, stopping at a tear; sorted, two files compare
/// record-for-record whatever order their writers chose.
std::vector<std::string> recordFrames(const std::string &Buf) {
  std::vector<std::string> Frames;
  if (Buf.size() < 32)
    return Frames;
  size_t Pos = 32;
  for (uint64_t I = 0, N = le64(Buf, 16); I < N && Pos + 12 <= Buf.size();
       ++I) {
    size_t Len = size_t(le64(Buf, Pos) & 0xffffffffu);
    if (Pos + 12 + Len > Buf.size())
      break;
    Frames.push_back(Buf.substr(Pos, 12 + Len));
    Pos += 12 + Len;
  }
  return Frames;
}

std::string corpusDir() {
  return std::string(DYNSUM_TESTS_DIR) + "/golden/dsum_corpus/";
}

std::string corpusProgram() {
  std::ifstream In(corpusDir() + "figure2.ir");
  EXPECT_TRUE(In.good()) << "missing corpus program";
  std::stringstream Src;
  Src << In.rdbuf();
  return Src.str();
}

/// The oracle for the golden corpus: the corpus README's own command
/// (`dynsum figure2.ir --analysis=dynsum --client=all
/// --save-summaries=…`) run cold — every client's queries through one
/// sequential DYNSUM instance over the CHA graph.
void runAllClients(Instance &I) {
  for (const auto &C : clients::makeAllClients())
    clients::runClient(*C, *I.DynSum, C->makeQueries(I.graph(), 0));
}

TEST(ProgramFingerprintTest, DeterministicAcrossRebuilds) {
  Instance A(dynsum::testing::kFigure2Source);
  Instance B(dynsum::testing::kFigure2Source);
  EXPECT_EQ(programFingerprint(*A.Prog), programFingerprint(*B.Prog));
}

TEST(ProgramFingerprintTest, SensitiveToStatementEdits) {
  Instance A(dynsum::testing::kFigure2Source);
  Instance B(dynsum::testing::kFigure2Source);
  uint64_t Before = programFingerprint(*B.Prog);
  // Append one assignment to Main.main.
  ir::Program &P = *B.Prog;
  ir::TypeId Main = P.findClass(P.names().lookup("Main"));
  ir::MethodId M = P.findMethod(Main, P.names().lookup("main"));
  ir::Statement S;
  S.Kind = ir::StmtKind::Assign;
  S.Dst = P.method(M).Stmts.front().Dst;
  S.Src = P.method(M).Stmts.front().Dst;
  P.addStatement(M, std::move(S));
  EXPECT_NE(programFingerprint(*B.Prog), Before);
  EXPECT_EQ(programFingerprint(*A.Prog), Before);
}

TEST(SummaryIOTest, EmptyStoreRoundTrips) {
  Instance A(dynsum::testing::kFigure2Source);
  std::string Path = ::testing::TempDir() + "/dynsum_empty.dsum";
  uint64_t Saved = 1;
  ASSERT_TRUE(A.store().save(Path, A.graph(), &Saved));
  EXPECT_EQ(Saved, 0u);
  Instance B(dynsum::testing::kFigure2Source);
  TieredSummaryStore::DiskTierStatus St = B.attach(Path);
  EXPECT_TRUE(St.Attached) << St.Error;
  EXPECT_TRUE(St.Indexed);
  EXPECT_EQ(St.Records, 0u);
  std::remove(Path.c_str());
}

/// The central warm-start property: a fresh process that attaches
/// another's snapshot answers the same queries with the same results,
/// strictly fewer traversal steps and no summary computed.
TEST(SummaryIOTest, WarmStartMatchesResultsWithFewerSteps) {
  Instance Cold(dynsum::testing::kFigure2Source);
  ir::TypeId MainCls = Cold.Prog->findClass(Cold.Prog->names().lookup("Main"));
  ir::MethodId Main =
      Cold.Prog->findMethod(MainCls, Cold.Prog->names().lookup("main"));
  std::vector<pag::NodeId> Queries;
  for (const ir::Variable &V : Cold.Prog->variables())
    if (!V.IsGlobal && V.Owner == Main)
      Queries.push_back(Cold.Built.Graph->nodeOfVar(V.Id));
  ASSERT_GT(Queries.size(), 3u);

  uint64_t ColdSteps = 0;
  std::vector<std::vector<ir::AllocId>> ColdResults;
  for (pag::NodeId N : Queries) {
    QueryResult R = Cold.DynSum->query(N);
    ColdSteps += R.Steps;
    ColdResults.push_back(R.allocSites());
  }
  ASSERT_GT(Cold.DynSum->cacheSize(), 0u);

  std::string Path = ::testing::TempDir() + "/dynsum_warm.dsum";
  uint64_t Saved = 0;
  ASSERT_TRUE(Cold.store().save(Path, Cold.graph(), &Saved));
  EXPECT_EQ(Saved, Cold.DynSum->cacheSize());

  Instance Warm(dynsum::testing::kFigure2Source);
  TieredSummaryStore::DiskTierStatus St = Warm.attach(Path);
  ASSERT_TRUE(St.Attached) << St.Error;
  EXPECT_EQ(St.Records, Saved);

  uint64_t WarmSteps = 0;
  for (size_t I = 0; I < Queries.size(); ++I) {
    QueryResult R = Warm.DynSum->query(Queries[I]);
    WarmSteps += R.Steps;
    EXPECT_EQ(R.allocSites(), ColdResults[I]);
  }
  EXPECT_EQ(Warm.DynSum->summariesComputed(), 0u);
  EXPECT_LT(WarmSteps, ColdSteps)
      << "attached summaries must replace PPTA traversals";
  std::remove(Path.c_str());
}

TEST(SummaryIOTest, FingerprintMismatchRefused) {
  Instance Fig2(dynsum::testing::kFigure2Source);
  Fig2.warm();
  std::string Path = ::testing::TempDir() + "/dynsum_fp.dsum";
  ASSERT_TRUE(Fig2.store().save(Path, Fig2.graph()));

  Instance Other(dynsum::testing::kStraightLineSource);
  TieredSummaryStore::DiskTierStatus St = Other.attach(Path);
  EXPECT_FALSE(St.Attached);
  EXPECT_NE(St.Error.find("fingerprint"), std::string::npos) << St.Error;
  EXPECT_FALSE(Other.store().hasDiskTier());
  EXPECT_FALSE(Other.attach("/nonexistent/dynsum.dsum").Attached);
  std::remove(Path.c_str());
}

/// v3 framing under truncation: a cut inside the header refuses the
/// file; a cut inside the record stream serves the intact prefix; a cut
/// inside the trailing index loses only the index.
TEST(SummaryIOTest, TruncationServesIntactPrefixOnly) {
  Instance A(dynsum::testing::kFigure2Source);
  A.warm();
  std::string Path = ::testing::TempDir() + "/dynsum_trunc.dsum";
  uint64_t Full = 0;
  ASSERT_TRUE(A.store().save(Path, A.graph(), &Full));
  std::string Buf = readFile(Path);
  ASSERT_GT(Full, 1u);

  // The record stream ends where the index starts (the trailing u64
  // locates it).
  size_t RecordsEnd = size_t(le64(Buf, Buf.size() - 8));
  ASSERT_GT(RecordsEnd, 32u);
  ASSERT_LT(RecordsEnd, Buf.size());

  std::string Cut = ::testing::TempDir() + "/dynsum_trunc_cut.dsum";
  for (size_t At : {size_t(3), size_t(9), size_t(24)}) {
    writeFile(Cut, Buf.substr(0, At));
    Instance B(dynsum::testing::kFigure2Source);
    TieredSummaryStore::DiskTierStatus St = B.attach(Cut);
    EXPECT_FALSE(St.Attached) << "cut at " << At;
    EXPECT_FALSE(St.Error.empty());
  }
  for (size_t At : {RecordsEnd - 1, RecordsEnd / 2, size_t(40)}) {
    writeFile(Cut, Buf.substr(0, At));
    Instance B(dynsum::testing::kFigure2Source);
    TieredSummaryStore::DiskTierStatus St = B.attach(Cut);
    EXPECT_TRUE(St.Attached) << "cut at " << At << ": " << St.Error;
    EXPECT_FALSE(St.Indexed) << "cut at " << At;
    EXPECT_LT(St.Records, Full) << "cut at " << At;
    EXPECT_EQ(St.Records, recordFrames(Buf.substr(0, At)).size());
  }
  for (size_t At : {Buf.size() - 1, RecordsEnd + 1, RecordsEnd}) {
    writeFile(Cut, Buf.substr(0, At));
    Instance B(dynsum::testing::kFigure2Source);
    TieredSummaryStore::DiskTierStatus St = B.attach(Cut);
    EXPECT_TRUE(St.Attached) << "cut at " << At << ": " << St.Error;
    EXPECT_FALSE(St.Indexed) << "cut at " << At;
    EXPECT_EQ(St.Records, Full) << "cut at " << At;
  }
  std::remove(Cut.c_str());
  std::remove(Path.c_str());
}

/// Flipping a byte inside one record's payload kills exactly that
/// record (checksum mismatch, found at attach) and serves every other.
TEST(SummaryIOTest, CorruptRecordIsDeadAndCounted) {
  Instance A(dynsum::testing::kFigure2Source);
  A.warm();
  std::string Path = ::testing::TempDir() + "/dynsum_corrupt.dsum";
  uint64_t Full = 0;
  ASSERT_TRUE(A.store().save(Path, A.graph(), &Full));
  ASSERT_GT(Full, 1u);

  // Byte 44 sits inside the first record's payload (32-byte header +
  // 12-byte frame).
  std::string Buf = readFile(Path);
  Buf[44] = char(Buf[44] ^ 0x5a);
  writeFile(Path, Buf);
  Instance B(dynsum::testing::kFigure2Source);
  TieredSummaryStore::DiskTierStatus St = B.attach(Path);
  ASSERT_TRUE(St.Attached) << St.Error;
  EXPECT_TRUE(St.Indexed);
  EXPECT_EQ(St.Records, Full - 1);
  EXPECT_EQ(B.store().counters().DiskCorrupt, 1u);

  // A save drops the dead record: the next snapshot is clean.
  uint64_t Resaved = 0;
  ASSERT_TRUE(B.store().save(Path, B.graph(), &Resaved));
  EXPECT_EQ(Resaved, Full - 1);
  Instance C(dynsum::testing::kFigure2Source);
  EXPECT_EQ(C.attach(Path).Records, Full - 1);
  EXPECT_EQ(C.store().counters().DiskCorrupt, 0u);
  std::remove(Path.c_str());
}

TEST(SummaryIOTest, CorruptMagicVersionAndHeaderRefused) {
  Instance A(dynsum::testing::kFigure2Source);
  A.warm();
  std::string Path = ::testing::TempDir() + "/dynsum_header.dsum";
  ASSERT_TRUE(A.store().save(Path, A.graph()));
  std::string Buf = readFile(Path);

  struct Damage {
    size_t Byte;
    char Value;
    const char *Error;
  };
  // A damaged entry count is caught by the header checksum, not by a
  // garbage record walk.
  for (const Damage &D : {Damage{0, 'X', "bad magic"},
                          Damage{4, char(0x7f), "unsupported DSUM version"},
                          Damage{16, char(Buf[16] ^ 0xff), "checksum"}}) {
    std::string Bad = Buf;
    Bad[D.Byte] = D.Value;
    writeFile(Path, Bad);
    Instance B(dynsum::testing::kFigure2Source);
    TieredSummaryStore::DiskTierStatus St = B.attach(Path);
    EXPECT_FALSE(St.Attached) << "byte " << D.Byte;
    EXPECT_NE(St.Error.find(D.Error), std::string::npos) << St.Error;
  }
  std::remove(Path.c_str());
}

/// v2 files (unframed records, no header checksum) are not read: even
/// a well-formed v2 file for the right program is refused at the
/// version field.
TEST(SummaryIOTest, Version2FileRefusedAsUnsupported) {
  Instance A(dynsum::testing::kFigure2Source);
  std::string V2;
  auto Put = [&V2](uint64_t V, int Bytes) {
    for (int I = 0; I < Bytes; ++I)
      V2.push_back(char((V >> (8 * I)) & 0xff));
  };
  Put(kSummaryFileMagic, 4);
  Put(2, 4);
  Put(programFingerprint(*A.Prog), 8);
  Put(0, 8); // entry count

  std::string Path = ::testing::TempDir() + "/dynsum_v2.dsum";
  writeFile(Path, V2);
  TieredSummaryStore::DiskTierStatus St = A.attach(Path);
  EXPECT_FALSE(St.Attached);
  EXPECT_NE(St.Error.find("unsupported DSUM version 2"), std::string::npos)
      << St.Error;
  EXPECT_FALSE(A.store().hasDiskTier());
  std::remove(Path.c_str());
}

/// An interrupted save must never clobber the previous snapshot: the
/// torn temp file is discarded and the target keeps its old bytes.
TEST(SummaryIOTest, FailedSaveLeavesPreviousFileIntact) {
  Instance A(dynsum::testing::kFigure2Source);
  A.warm();
  std::string Path = ::testing::TempDir() + "/dynsum_atomic_save.dsum";
  uint64_t Full = 0;
  ASSERT_TRUE(A.store().save(Path, A.graph(), &Full));

  // Arm a torn write at byte 100: the next save truncates mid-stream,
  // fails, and must not touch the published file.
  support::FaultSpec Torn;
  Torn.Kind = support::FaultKind::TornWrite;
  Torn.Param = 100;
  support::armFault("save.write", Torn);
  EXPECT_FALSE(A.store().save(Path, A.graph()));
  support::clearFaults();

  Instance B(dynsum::testing::kFigure2Source);
  TieredSummaryStore::DiskTierStatus St = B.attach(Path);
  ASSERT_TRUE(St.Attached) << St.Error;
  EXPECT_TRUE(St.Indexed);
  EXPECT_EQ(St.Records, Full);
  EXPECT_EQ(B.store().counters().DiskCorrupt, 0u);
  std::remove(Path.c_str());
}

/// Regression corpus: checked-in corrupted/truncated .dsum files (made
/// from tests/golden/dsum_corpus/pristine.dsum by flipping or cutting
/// bytes — see the corpus README) must keep attaching, or being
/// refused, exactly as the v3 format promises.
TEST(SummaryIOTest, GoldenCorruptionCorpusDegradesGracefully) {
  std::string Dir = corpusDir();
  std::string Source = corpusProgram();
  Instance Pristine(Source.c_str());
  TieredSummaryStore::DiskTierStatus Base =
      Pristine.attach(Dir + "pristine.dsum");
  ASSERT_TRUE(Base.Attached) << Base.Error;
  ASSERT_GT(Base.Records, 1u);
  EXPECT_EQ(Pristine.store().counters().DiskCorrupt, 0u);

  // Header-level damage: refused, nothing attaches.
  for (const char *Name : {"truncated_header.dsum", "bad_magic.dsum",
                           "bad_version.dsum", "bad_header_crc.dsum",
                           "empty.dsum"}) {
    Instance B(Source.c_str());
    TieredSummaryStore::DiskTierStatus St = B.attach(Dir + Name);
    EXPECT_FALSE(St.Attached) << Name;
    EXPECT_FALSE(St.Error.empty()) << Name;
    EXPECT_FALSE(B.store().hasDiskTier()) << Name;
  }

  // One corrupted record: dead, everything else served.
  {
    Instance B(Source.c_str());
    TieredSummaryStore::DiskTierStatus St =
        B.attach(Dir + "corrupt_record.dsum");
    ASSERT_TRUE(St.Attached) << St.Error;
    EXPECT_EQ(St.Records, Base.Records - 1);
    EXPECT_EQ(B.store().counters().DiskCorrupt, 1u);
  }

  // Torn tail: the intact prefix is served.
  {
    Instance B(Source.c_str());
    TieredSummaryStore::DiskTierStatus St =
        B.attach(Dir + "truncated_records.dsum");
    ASSERT_TRUE(St.Attached) << St.Error;
    EXPECT_LT(St.Records, Base.Records);
    EXPECT_EQ(St.Records,
              recordFrames(readFile(Dir + "truncated_records.dsum")).size());
  }
}

/// The corpus README's command, run cold, writes exactly the records of
/// pristine.dsum and pristine_indexed.dsum — the same frames, byte for
/// byte, in whatever order the store lists them — with a valid index.
TEST(SummaryIOTest, ColdRunSaveReproducesGoldenRecords) {
  std::string Source = corpusProgram();
  Instance Cold(Source.c_str());
  runAllClients(Cold);
  std::string Path = ::testing::TempDir() + "/dynsum_golden_rerun.dsum";
  uint64_t Saved = 0;
  ASSERT_TRUE(Cold.store().save(Path, Cold.graph(), &Saved));
  EXPECT_EQ(Saved, Cold.Rec.Published.size());

  std::vector<std::string> Fresh = recordFrames(readFile(Path));
  std::sort(Fresh.begin(), Fresh.end());
  ASSERT_EQ(Fresh.size(), Saved);
  for (const char *Name : {"pristine.dsum", "pristine_indexed.dsum"}) {
    std::vector<std::string> Golden =
        recordFrames(readFile(corpusDir() + Name));
    std::sort(Golden.begin(), Golden.end());
    EXPECT_EQ(Fresh, Golden) << Name;
  }

  std::unique_ptr<MappedSummaryFile> File = MappedSummaryFile::open(
      Path, programFingerprint(*Cold.Prog), Cold.Prog->variables().size(),
      Cold.Prog->allocs().size());
  ASSERT_NE(File, nullptr);
  EXPECT_TRUE(File->indexedOnOpen());
  EXPECT_EQ(File->records(), Saved);
  std::remove(Path.c_str());
}

/// Round trip over a generated program: every saved summary comes back
/// (queries on the attaching instance give identical results and
/// compute nothing).
TEST(SummaryIOTest, GeneratedProgramRoundTripIsExact) {
  workload::GenOptions Gen;
  Gen.Scale = 1.0 / 256;
  auto P1 = generateProgram(workload::paperSuite()[0], Gen);
  auto P2 = generateProgram(workload::paperSuite()[0], Gen);
  ASSERT_EQ(programFingerprint(*P1), programFingerprint(*P2))
      << "generator must be deterministic for persistence to apply";

  pag::BuiltPAG G1 = pag::buildPAG(*P1);
  pag::BuiltPAG G2 = pag::buildPAG(*P2);
  TieredSummaryStore S1, S2;
  DynSumAnalysis A1(*G1.Graph, AnalysisOptions());
  DynSumAnalysis A2(*G2.Graph, AnalysisOptions());
  A1.setSummaryExchange(&S1);
  A2.setSummaryExchange(&S2);

  std::vector<ir::VarId> Queries;
  for (const ir::Variable &V : P1->variables())
    if (!V.IsGlobal && V.Id % 83 == 0)
      Queries.push_back(V.Id);
  for (ir::VarId V : Queries)
    A1.query(G1.Graph->nodeOfVar(V));

  std::string Path = ::testing::TempDir() + "/dynsum_generated.dsum";
  uint64_t Saved = 0;
  ASSERT_TRUE(S1.save(Path, *G1.Graph, &Saved));
  EXPECT_EQ(Saved, A1.cacheSize());
  ASSERT_EQ(S2.attachDiskTier(Path, *G2.Graph).Records, Saved);

  for (ir::VarId V : Queries) {
    QueryResult R1 = A1.query(G1.Graph->nodeOfVar(V));
    QueryResult R2 = A2.query(G2.Graph->nodeOfVar(V));
    EXPECT_EQ(R1.allocSites(), R2.allocSites());
  }
  EXPECT_EQ(A2.summariesComputed(), 0u)
      << "warm queries must not recompute anything";
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// MappedSummaryFile: the probe behind the disk tier
//===----------------------------------------------------------------------===//

uint32_t canonicalOf(const pag::PAG &G, pag::NodeId N) {
  const pag::Node &Node = G.node(N);
  if (Node.Kind == pag::NodeKind::Object)
    return uint32_t(G.program().variables().size()) + Node.IrId;
  return Node.IrId;
}

/// Probes \p File for \p E's key; on a hit the record must equal the
/// published summary exactly, with tuple nodes compared in canonical
/// form.
bool probeMatches(const MappedSummaryFile &File, const pag::PAG &G,
                  const dynsum::testing::RecordingStore::Entry &E) {
  uint32_t Canonical = canonicalOf(G, E.Node);
  PortableSummary Out;
  if (!File.findBody(summaryRecordDigest(Canonical, E.State, E.Fields),
                     Canonical, E.State, E.Fields, Out))
    return false;
  EXPECT_EQ(Out.Objects, E.Summary.Objects);
  EXPECT_EQ(Out.FieldData, E.Summary.FieldData);
  EXPECT_EQ(Out.Tuples.size(), E.Summary.Tuples.size());
  for (size_t I = 0; I < std::min(Out.Tuples.size(), E.Summary.Tuples.size());
       ++I) {
    EXPECT_EQ(Out.Tuples[I].Node, canonicalOf(G, E.Summary.Tuples[I].Node));
    EXPECT_EQ(int(Out.Tuples[I].State), int(E.Summary.Tuples[I].State));
    EXPECT_EQ(Out.Tuples[I].FieldsLen, E.Summary.Tuples[I].FieldsLen);
  }
  return true;
}

std::unique_ptr<MappedSummaryFile> openFor(const Instance &A,
                                           const std::string &Path,
                                           std::string *Error = nullptr) {
  return MappedSummaryFile::open(Path, programFingerprint(*A.Prog),
                                 A.Prog->variables().size(),
                                 A.Prog->allocs().size(), Error);
}

TEST(MappedSummaryFileTest, FooterIndexRoundTripServesEveryRecord) {
  Instance A(dynsum::testing::kFigure2Source);
  A.warm(/*AllVars=*/true);
  ASSERT_GT(A.Rec.Published.size(), 10u);
  std::string Path = ::testing::TempDir() + "/mapped_roundtrip.dsum";
  ASSERT_TRUE(A.store().save(Path, A.graph()));

  std::string Error;
  std::unique_ptr<MappedSummaryFile> File = openFor(A, Path, &Error);
  ASSERT_NE(File, nullptr) << Error;
  EXPECT_TRUE(File->indexedOnOpen())
      << "the writer appends a digest index; open must use it";
  EXPECT_EQ(File->records(), A.Rec.Published.size());
  for (const auto &E : A.Rec.Published)
    EXPECT_TRUE(probeMatches(*File, A.graph(), E)) << "node " << E.Node;
  EXPECT_EQ(File->corruptRecords(), 0u);

  // A key that was never saved misses cleanly.
  dynsum::testing::RecordingStore::Entry Unsaved = A.Rec.Published[0];
  Unsaved.Fields = {99, 99};
  EXPECT_FALSE(probeMatches(*File, A.graph(), Unsaved));
  std::remove(Path.c_str());
}

TEST(MappedSummaryFileTest, DamagedIndexFallsBackToFrameScan) {
  Instance A(dynsum::testing::kFigure2Source);
  A.warm(/*AllVars=*/true);
  std::string Path = ::testing::TempDir() + "/mapped_badindex.dsum";
  ASSERT_TRUE(A.store().save(Path, A.graph()));
  std::string Buf = readFile(Path);
  size_t RecordsEnd = size_t(le64(Buf, Buf.size() - 8));
  ASSERT_LT(RecordsEnd, Buf.size());

  // Two damage shapes: a flipped byte inside the index (checksum
  // mismatch) and a torn-off footer (a pre-index-sized tail).  Both
  // must open, report the index unusable, and still serve every
  // record through the frame scan.
  std::string Flipped = Buf;
  Flipped[RecordsEnd + 5] = char(Flipped[RecordsEnd + 5] ^ 0x5a);
  std::string Torn = Buf.substr(0, RecordsEnd);
  for (const std::string &Damaged : {Flipped, Torn}) {
    writeFile(Path, Damaged);
    std::string Error;
    std::unique_ptr<MappedSummaryFile> File = openFor(A, Path, &Error);
    ASSERT_NE(File, nullptr) << Error;
    EXPECT_FALSE(File->indexedOnOpen());
    EXPECT_EQ(File->records(), A.Rec.Published.size());
    for (const auto &E : A.Rec.Published)
      EXPECT_TRUE(probeMatches(*File, A.graph(), E));
    EXPECT_EQ(File->corruptRecords(), 0u);
  }
  std::remove(Path.c_str());
}

TEST(MappedSummaryFileTest, RejectsHeaderDamageAndWrongFingerprint) {
  Instance A(dynsum::testing::kFigure2Source);
  A.warm(/*AllVars=*/true);
  std::string Path = ::testing::TempDir() + "/mapped_reject.dsum";
  ASSERT_TRUE(A.store().save(Path, A.graph()));
  uint64_t Fp = programFingerprint(*A.Prog);
  size_t NumVars = A.Prog->variables().size();
  size_t NumAllocs = A.Prog->allocs().size();

  std::string Error;
  EXPECT_EQ(MappedSummaryFile::open(Path, Fp + 1, NumVars, NumAllocs, &Error),
            nullptr);
  EXPECT_NE(Error.find("fingerprint"), std::string::npos) << Error;
  EXPECT_EQ(MappedSummaryFile::open("/nonexistent/x.dsum", Fp, NumVars,
                                    NumAllocs, &Error),
            nullptr);

  std::string Buf = readFile(Path);
  for (size_t Damage : {size_t(0), size_t(4), size_t(16)}) {
    std::string Bad = Buf;
    Bad[Damage] = char(Bad[Damage] ^ 0x7f);
    writeFile(Path, Bad);
    EXPECT_EQ(MappedSummaryFile::open(Path, Fp, NumVars, NumAllocs, &Error),
              nullptr)
        << "header byte " << Damage;
    EXPECT_FALSE(Error.empty());
  }
  std::remove(Path.c_str());
}

/// Every golden file serves exactly what the cold run of the corpus
/// README's command computed, minus what its damage destroyed: each
/// probe either hits with the oracle's exact summary or misses, and
/// misses are exactly the dead or torn-off records.  pristine.dsum and
/// its damaged variants predate the digest index, so this also pins
/// the frame-scan fallback against real pre-index v3 bytes.
TEST(MappedSummaryFileTest, GoldenCorpusServesWhatAColdRunComputes) {
  std::string Source = corpusProgram();
  Instance Oracle(Source.c_str());
  runAllClients(Oracle);
  size_t All = Oracle.Rec.Published.size();
  ASSERT_GT(All, 1u);

  struct Expectation {
    const char *Name;
    bool Indexed;
    size_t Hits;
    uint64_t Corrupt; // records dead to CRC, counted on probe
  };
  size_t TornPrefix =
      recordFrames(readFile(corpusDir() + "truncated_records.dsum")).size();
  for (const Expectation &E :
       {Expectation{"pristine.dsum", false, All, 0},
        Expectation{"corrupt_record.dsum", false, All - 1, 1},
        Expectation{"truncated_records.dsum", false, TornPrefix, 0},
        Expectation{"pristine_indexed.dsum", true, All, 0},
        Expectation{"bad_index.dsum", false, All, 0}}) {
    std::string Error;
    std::unique_ptr<MappedSummaryFile> File =
        openFor(Oracle, corpusDir() + E.Name, &Error);
    ASSERT_NE(File, nullptr) << E.Name << ": " << Error;
    EXPECT_EQ(File->indexedOnOpen(), E.Indexed) << E.Name;
    size_t Hits = 0;
    for (const auto &Entry : Oracle.Rec.Published)
      Hits += probeMatches(*File, Oracle.graph(), Entry);
    EXPECT_EQ(Hits, E.Hits) << E.Name;
    EXPECT_EQ(File->corruptRecords(), E.Corrupt) << E.Name;
  }
}

} // namespace
