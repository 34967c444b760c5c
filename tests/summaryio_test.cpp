//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of summary-cache persistence: round trips, warm-start step
/// savings, and rejection of mismatched or corrupt inputs.
///
//===----------------------------------------------------------------------===//

#include "analysis/SummaryIO.h"

#include "ir/Parser.h"
#include "pag/PAGBuilder.h"
#include "support/FaultInjection.h"
#include "workload/Generator.h"

#include "TestPrograms.h"

#include <fstream>
#include <gtest/gtest.h>
#include <set>
#include <sstream>
#include <tuple>

using namespace dynsum;
using namespace dynsum::analysis;

namespace {

/// Builds the Figure 2 program with its PAG and a DYNSUM instance.
struct Instance {
  explicit Instance(const char *Source) {
    ir::ParseResult R = ir::parseProgram(Source);
    EXPECT_TRUE(R.ok()) << R.Error;
    Prog = std::move(R.Prog);
    Built = pag::buildPAG(*Prog);
    DynSum = std::make_unique<DynSumAnalysis>(*Built.Graph, AnalysisOptions());
  }

  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  std::unique_ptr<DynSumAnalysis> DynSum;
};

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

TEST(SummaryIOTest, EmptyCacheRoundTrips) {
  Instance A(dynsum::testing::kFigure2Source);
  std::string Buf = serializeSummaries(*A.DynSum);
  Instance B(dynsum::testing::kFigure2Source);
  EXPECT_TRUE(deserializeSummaries(*B.DynSum, Buf));
  EXPECT_EQ(B.DynSum->cacheSize(), 0u);
}

/// The central warm-start property: a fresh instance that loads another
/// instance's summaries answers the same queries with the same results
/// and strictly fewer traversal steps.
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

  std::string Buf = serializeSummaries(*Cold.DynSum);
  Instance Warm(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(deserializeSummaries(*Warm.DynSum, Buf));
  EXPECT_EQ(Warm.DynSum->cacheSize(), Cold.DynSum->cacheSize());

  uint64_t WarmSteps = 0;
  for (size_t I = 0; I < Queries.size(); ++I) {
    QueryResult R = Warm.DynSum->query(Queries[I]);
    WarmSteps += R.Steps;
    EXPECT_EQ(R.allocSites(), ColdResults[I]);
  }
  EXPECT_LT(WarmSteps, ColdSteps)
      << "loaded summaries must replace PPTA traversals";
}

TEST(SummaryIOTest, FingerprintMismatchRejected) {
  Instance Fig2(dynsum::testing::kFigure2Source);
  std::string Buf = serializeSummaries(*Fig2.DynSum);

  Instance Other(dynsum::testing::kStraightLineSource);
  EXPECT_FALSE(deserializeSummaries(*Other.DynSum, Buf));
  EXPECT_EQ(Other.DynSum->cacheSize(), 0u);
}

/// v3 framing contract under truncation: a cut inside the header
/// rejects the whole file; a cut inside the record stream loads the
/// intact prefix and reports the tear — never garbage entries.
TEST(SummaryIOTest, TruncationLoadsIntactPrefixOnly) {
  Instance A(dynsum::testing::kFigure2Source);
  ir::TypeId MainCls = A.Prog->findClass(A.Prog->names().lookup("Main"));
  ir::MethodId Main =
      A.Prog->findMethod(MainCls, A.Prog->names().lookup("main"));
  for (const ir::Variable &V : A.Prog->variables())
    if (!V.IsGlobal && V.Owner == Main)
      A.DynSum->query(A.Built.Graph->nodeOfVar(V.Id));
  std::string Buf = serializeSummaries(*A.DynSum);
  ASSERT_GT(Buf.size(), 32u);
  uint64_t Full = A.DynSum->cacheSize();

  // Cuts inside the 32-byte header: hard rejection, nothing loads.
  for (size_t Cut : {size_t(3), size_t(9), size_t(24)}) {
    Instance B(dynsum::testing::kFigure2Source);
    SummaryLoadReport R = deserializeSummariesReport(
        *B.DynSum, std::string_view(Buf).substr(0, Cut));
    EXPECT_FALSE(R.Ok) << "cut at " << Cut;
    EXPECT_FALSE(R.Error.empty());
    EXPECT_EQ(B.DynSum->cacheSize(), 0u);
  }

  // The serialized buffer ends with the digest-index section; the
  // record stream ends where the index starts (the trailing u64
  // locates it).
  size_t RecordsEnd = 0;
  for (int I = 7; I >= 0; --I)
    RecordsEnd = RecordsEnd << 8 | uint8_t(Buf[Buf.size() - 8 + I]);
  ASSERT_GT(RecordsEnd, 32u);
  ASSERT_LT(RecordsEnd, Buf.size());

  // Cuts inside the record stream: the intact prefix loads, the report
  // flags the tear, and no partially decoded entry ever merges.
  for (size_t Cut : {RecordsEnd - 1, RecordsEnd / 2, size_t(40)}) {
    Instance B(dynsum::testing::kFigure2Source);
    SummaryLoadReport R = deserializeSummariesReport(
        *B.DynSum, std::string_view(Buf).substr(0, Cut));
    EXPECT_TRUE(R.Ok) << "cut at " << Cut;
    EXPECT_TRUE(R.Truncated) << "cut at " << Cut;
    EXPECT_LT(R.EntriesLoaded, Full);
    EXPECT_EQ(B.DynSum->cacheSize(), R.EntriesLoaded);
  }

  // Cuts inside the trailing index section lose only the index: the
  // streaming loader reads exactly the header's record count and never
  // sees the damage — every record loads, no tear is reported.
  for (size_t Cut : {Buf.size() - 1, RecordsEnd + 1, RecordsEnd}) {
    Instance B(dynsum::testing::kFigure2Source);
    SummaryLoadReport R = deserializeSummariesReport(
        *B.DynSum, std::string_view(Buf).substr(0, Cut));
    EXPECT_TRUE(R.Ok) << "cut at " << Cut;
    EXPECT_FALSE(R.Truncated) << "cut at " << Cut;
    EXPECT_EQ(R.EntriesLoaded, Full);
  }
}

/// Flipping a byte inside one record's payload drops exactly that
/// record (checksum mismatch) and keeps every other entry.
TEST(SummaryIOTest, CorruptRecordIsSkippedAndReported) {
  Instance A(dynsum::testing::kFigure2Source);
  ir::TypeId MainCls = A.Prog->findClass(A.Prog->names().lookup("Main"));
  ir::MethodId Main =
      A.Prog->findMethod(MainCls, A.Prog->names().lookup("main"));
  for (const ir::Variable &V : A.Prog->variables())
    if (!V.IsGlobal && V.Owner == Main)
      A.DynSum->query(A.Built.Graph->nodeOfVar(V.Id));
  std::string Buf = serializeSummaries(*A.DynSum);
  uint64_t Full = A.DynSum->cacheSize();
  ASSERT_GT(Full, 1u);

  // Byte 44 sits inside the first record's payload (32-byte header +
  // 12-byte frame).
  std::string Corrupt = Buf;
  Corrupt[44] = char(Corrupt[44] ^ 0x5a);
  Instance B(dynsum::testing::kFigure2Source);
  SummaryLoadReport R = deserializeSummariesReport(*B.DynSum, Corrupt);
  EXPECT_TRUE(R.Ok);
  EXPECT_EQ(R.RecordsSkipped, 1u);
  EXPECT_EQ(R.EntriesLoaded, Full - 1);
  EXPECT_FALSE(R.Truncated);
  ASSERT_EQ(R.SkippedRecords.size(), 1u);
  EXPECT_NE(R.SkippedRecords[0].find("checksum mismatch"), std::string::npos);
  EXPECT_EQ(B.DynSum->cacheSize(), Full - 1);
}

TEST(SummaryIOTest, CorruptMagicVersionAndHeaderRejected) {
  Instance A(dynsum::testing::kFigure2Source);
  std::string Buf = serializeSummaries(*A.DynSum);
  Instance B(dynsum::testing::kFigure2Source);

  std::string BadMagic = Buf;
  BadMagic[0] = 'X';
  EXPECT_FALSE(deserializeSummaries(*B.DynSum, BadMagic));

  std::string BadVersion = Buf;
  BadVersion[4] = char(0x7f);
  SummaryLoadReport R = deserializeSummariesReport(*B.DynSum, BadVersion);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unsupported"), std::string::npos);

  // A damaged entry count is caught by the header checksum, not by a
  // garbage record walk.
  std::string BadCount = Buf;
  BadCount[16] = char(BadCount[16] ^ 0xff);
  R = deserializeSummariesReport(*B.DynSum, BadCount);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("checksum"), std::string::npos);
  EXPECT_EQ(B.DynSum->cacheSize(), 0u);
}

/// v2 files (unframed records, no header checksum) are no longer read:
/// even a well-formed v2 buffer for the right program is refused at the
/// version field, with nothing merged.
TEST(SummaryIOTest, Version2BufferRefusedAsUnsupported) {
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

  SummaryLoadReport R = deserializeSummariesReport(*A.DynSum, V2);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unsupported DSUM version 2"), std::string::npos)
      << R.Error;
  EXPECT_EQ(R.EntriesLoaded, 0u);
  EXPECT_EQ(A.DynSum->cacheSize(), 0u);
}

TEST(SummaryIOTest, FileRoundTrip) {
  Instance A(dynsum::testing::kFigure2Source);
  ir::TypeId MainCls = A.Prog->findClass(A.Prog->names().lookup("Main"));
  ir::MethodId Main =
      A.Prog->findMethod(MainCls, A.Prog->names().lookup("main"));
  for (const ir::Variable &V : A.Prog->variables())
    if (!V.IsGlobal && V.Owner == Main)
      A.DynSum->query(A.Built.Graph->nodeOfVar(V.Id));

  std::string Path = ::testing::TempDir() + "/dynsum_summaries.bin";
  ASSERT_TRUE(saveSummariesFile(*A.DynSum, Path));

  Instance B(dynsum::testing::kFigure2Source);
  ASSERT_TRUE(loadSummariesFile(*B.DynSum, Path));
  EXPECT_EQ(B.DynSum->cacheSize(), A.DynSum->cacheSize());
  std::remove(Path.c_str());
}

TEST(SummaryIOTest, MissingFileRejected) {
  Instance A(dynsum::testing::kFigure2Source);
  EXPECT_FALSE(loadSummariesFile(*A.DynSum, "/nonexistent/dynsum.bin"));
}

/// An interrupted save must never clobber the previous snapshot: the
/// torn temp file is discarded and the target keeps its old bytes.
TEST(SummaryIOTest, FailedSaveLeavesPreviousFileIntact) {
  Instance A(dynsum::testing::kFigure2Source);
  ir::TypeId MainCls = A.Prog->findClass(A.Prog->names().lookup("Main"));
  ir::MethodId Main =
      A.Prog->findMethod(MainCls, A.Prog->names().lookup("main"));
  for (const ir::Variable &V : A.Prog->variables())
    if (!V.IsGlobal && V.Owner == Main)
      A.DynSum->query(A.Built.Graph->nodeOfVar(V.Id));

  std::string Path = ::testing::TempDir() + "/dynsum_atomic_save.dsum";
  ASSERT_TRUE(saveSummariesFile(*A.DynSum, Path));

  // Arm a torn write at byte 100: the next save truncates mid-stream,
  // fails, and must not touch the published file.
  support::FaultSpec Torn;
  Torn.Kind = support::FaultKind::TornWrite;
  Torn.Param = 100;
  support::armFault("save.write", Torn);
  EXPECT_FALSE(saveSummariesFile(*A.DynSum, Path));
  support::clearFaults();

  Instance B(dynsum::testing::kFigure2Source);
  SummaryLoadReport R = loadSummariesFileReport(*B.DynSum, Path);
  EXPECT_TRUE(R.Ok);
  EXPECT_FALSE(R.Truncated);
  EXPECT_EQ(R.RecordsSkipped, 0u);
  EXPECT_EQ(B.DynSum->cacheSize(), A.DynSum->cacheSize());
  std::remove(Path.c_str());
}

/// Regression corpus: checked-in corrupted/truncated .dsum files (made
/// from tests/golden/dsum_corpus/pristine.dsum by flipping or cutting
/// bytes — see the corpus README) must keep degrading exactly as the
/// v3 format promises, across format and compiler changes.
TEST(SummaryIOTest, GoldenCorruptionCorpusDegradesGracefully) {
  std::string Dir = std::string(DYNSUM_TESTS_DIR) + "/golden/dsum_corpus/";
  std::ifstream ProgIn(Dir + "figure2.ir");
  ASSERT_TRUE(ProgIn.good()) << "missing corpus program";
  std::stringstream Src;
  Src << ProgIn.rdbuf();
  std::string Source = Src.str();
  Instance Pristine(Source.c_str());
  SummaryLoadReport Base =
      loadSummariesFileReport(*Pristine.DynSum, Dir + "pristine.dsum");
  ASSERT_TRUE(Base.Ok) << Base.Error;
  ASSERT_GT(Base.EntriesLoaded, 1u);
  EXPECT_EQ(Base.RecordsSkipped, 0u);
  EXPECT_FALSE(Base.Truncated);

  // Header-level damage: hard rejection, nothing merges.
  for (const char *Name : {"truncated_header.dsum", "bad_magic.dsum",
                           "bad_version.dsum", "bad_header_crc.dsum",
                           "empty.dsum"}) {
    Instance B(Source.c_str());
    SummaryLoadReport R = loadSummariesFileReport(*B.DynSum, Dir + Name);
    EXPECT_FALSE(R.Ok) << Name;
    EXPECT_FALSE(R.Error.empty()) << Name;
    EXPECT_EQ(B.DynSum->cacheSize(), 0u) << Name;
  }

  // One corrupted record: skipped and attributed, everything else
  // loads.
  {
    Instance B(Source.c_str());
    SummaryLoadReport R =
        loadSummariesFileReport(*B.DynSum, Dir + "corrupt_record.dsum");
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.RecordsSkipped, 1u);
    EXPECT_EQ(R.EntriesLoaded, Base.EntriesLoaded - 1);
    ASSERT_EQ(R.SkippedRecords.size(), 1u);
  }

  // Torn tail: the intact prefix loads and the tear is reported.
  {
    Instance B(Source.c_str());
    SummaryLoadReport R =
        loadSummariesFileReport(*B.DynSum, Dir + "truncated_records.dsum");
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.Truncated);
    EXPECT_LT(R.EntriesLoaded, Base.EntriesLoaded);
    EXPECT_EQ(B.DynSum->cacheSize(), R.EntriesLoaded);
  }
}

/// Round trip over a generated program: every cached summary survives
/// byte-for-byte (queries on the loaded instance produce identical
/// results and the cache never grows past the donor's).
TEST(SummaryIOTest, GeneratedProgramRoundTripIsExact) {
  workload::GenOptions Gen;
  Gen.Scale = 1.0 / 256;
  auto P1 = generateProgram(workload::paperSuite()[0], Gen);
  auto P2 = generateProgram(workload::paperSuite()[0], Gen);
  ASSERT_EQ(programFingerprint(*P1), programFingerprint(*P2))
      << "generator must be deterministic for persistence to apply";

  pag::BuiltPAG G1 = pag::buildPAG(*P1);
  pag::BuiltPAG G2 = pag::buildPAG(*P2);
  DynSumAnalysis A1(*G1.Graph, AnalysisOptions());
  DynSumAnalysis A2(*G2.Graph, AnalysisOptions());

  std::vector<ir::VarId> Queries;
  for (const ir::Variable &V : P1->variables())
    if (!V.IsGlobal && V.Id % 83 == 0)
      Queries.push_back(V.Id);
  for (ir::VarId V : Queries)
    A1.query(G1.Graph->nodeOfVar(V));

  ASSERT_TRUE(deserializeSummaries(A2, serializeSummaries(A1)));
  EXPECT_EQ(A1.cacheSize(), A2.cacheSize());

  for (ir::VarId V : Queries) {
    QueryResult R1 = A1.query(G1.Graph->nodeOfVar(V));
    QueryResult R2 = A2.query(G2.Graph->nodeOfVar(V));
    EXPECT_EQ(R1.allocSites(), R2.allocSites());
  }
  EXPECT_EQ(A1.cacheSize(), A2.cacheSize())
      << "warm queries must not recompute anything";
}

//===----------------------------------------------------------------------===//
// MappedSummaryFile: the disk tier's random-access reader
//===----------------------------------------------------------------------===//

/// One summary cache entry in on-disk key form, for probing the mmap
/// reader: the packed in-memory key decoded (bit 0 = state, bits 1..32
/// = node, bits 33..63 = field-stack id) and the node canonicalized
/// the way the serializer does (VarId, or numVars + AllocId for object
/// nodes).
struct CachedKey {
  uint32_t Canonical = 0;
  RsmState State = RsmState::S1;
  std::vector<uint32_t> Fields;
  PortableSummary Summary;
};

uint32_t canonicalOf(const Instance &A, pag::NodeId N) {
  const pag::Node &Node = A.Built.Graph->node(N);
  if (Node.Kind == pag::NodeKind::Object)
    return uint32_t(A.Prog->variables().size()) + Node.IrId;
  return Node.IrId;
}

std::vector<CachedKey> decodeCache(const Instance &A) {
  std::vector<CachedKey> Out;
  const StackPool &Stacks = A.DynSum->fieldStacks();
  for (const auto &[Packed, S] : A.DynSum->summaryCache()) {
    CachedKey K;
    K.Canonical = canonicalOf(A, pag::NodeId((Packed >> 1) & 0xffffffffu));
    K.State = (Packed & 1) == 0 ? RsmState::S1 : RsmState::S2;
    K.Fields = Stacks.elements(StackId{uint32_t(Packed >> 33)});
    K.Summary = A.DynSum->exportSummary(S);
    Out.push_back(std::move(K));
  }
  return Out;
}

/// The record's bytes must equal the donor cache entry exactly, with
/// tuple nodes compared in canonical form.
void expectRecordMatches(const Instance &A, const CachedKey &K,
                         const DecodedSummaryRecord &R) {
  EXPECT_EQ(R.CanonicalNode, K.Canonical);
  EXPECT_EQ(int(R.State), int(K.State));
  EXPECT_EQ(R.Fields, K.Fields);
  EXPECT_EQ(R.Objects, K.Summary.Objects);
  EXPECT_EQ(R.FieldData, K.Summary.FieldData);
  ASSERT_EQ(R.Tuples.size(), K.Summary.Tuples.size());
  for (size_t I = 0; I < R.Tuples.size(); ++I) {
    EXPECT_EQ(R.Tuples[I].CanonicalNode,
              canonicalOf(A, K.Summary.Tuples[I].Node));
    EXPECT_EQ(int(R.Tuples[I].State), int(K.Summary.Tuples[I].State));
    EXPECT_EQ(R.Tuples[I].FieldsLen, K.Summary.Tuples[I].FieldsLen);
  }
}

Instance warmFigure2Instance() {
  Instance A(dynsum::testing::kFigure2Source);
  for (const ir::Variable &V : A.Prog->variables())
    if (!V.IsGlobal)
      A.DynSum->query(A.Built.Graph->nodeOfVar(V.Id));
  EXPECT_GT(A.DynSum->cacheSize(), 10u);
  return A;
}

TEST(MappedSummaryFileTest, FooterIndexRoundTripServesEveryRecord) {
  Instance A = warmFigure2Instance();
  std::string Path = ::testing::TempDir() + "/mapped_roundtrip.dsum";
  ASSERT_TRUE(saveSummariesFile(*A.DynSum, Path));

  std::string Error;
  std::unique_ptr<MappedSummaryFile> File = MappedSummaryFile::open(
      Path, programFingerprint(*A.Prog), A.Prog->variables().size(),
      A.Prog->allocs().size(), &Error);
  ASSERT_NE(File, nullptr) << Error;
  EXPECT_TRUE(File->indexedOnOpen())
      << "the serializer appends a digest index; open must use it";
  EXPECT_EQ(File->records(), A.DynSum->cacheSize());

  std::vector<CachedKey> Keys = decodeCache(A);
  DecodedSummaryRecord R;
  for (const CachedKey &K : Keys) {
    ASSERT_TRUE(File->find(K.Canonical, K.State, K.Fields, R))
        << "canonical node " << K.Canonical;
    expectRecordMatches(A, K, R);
  }
  EXPECT_EQ(File->corruptRecords(), 0u);

  // A key that was never saved misses cleanly.
  EXPECT_FALSE(File->find(Keys[0].Canonical, RsmState::S1, {99, 99}, R));
  std::remove(Path.c_str());
}

TEST(MappedSummaryFileTest, DamagedIndexFallsBackToFrameScan) {
  Instance A = warmFigure2Instance();
  std::string Path = ::testing::TempDir() + "/mapped_badindex.dsum";
  ASSERT_TRUE(saveSummariesFile(*A.DynSum, Path));

  std::ifstream In(Path, std::ios::binary);
  std::string Buf((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  In.close();
  size_t RecordsEnd = 0;
  for (int I = 7; I >= 0; --I)
    RecordsEnd = RecordsEnd << 8 | uint8_t(Buf[Buf.size() - 8 + I]);
  ASSERT_LT(RecordsEnd, Buf.size());

  std::vector<CachedKey> Keys = decodeCache(A);
  // Two damage shapes: a flipped byte inside the index (checksum
  // mismatch) and a torn-off footer (a pre-index-sized tail).  Both
  // must open, report the index unusable, and still serve every
  // record through the frame scan.
  std::string Flipped = Buf;
  Flipped[RecordsEnd + 5] = char(Flipped[RecordsEnd + 5] ^ 0x5a);
  std::string Torn = Buf.substr(0, RecordsEnd);
  for (const std::string &Damaged : {Flipped, Torn}) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Damaged.data(), std::streamsize(Damaged.size()));
    Out.close();

    std::string Error;
    std::unique_ptr<MappedSummaryFile> File = MappedSummaryFile::open(
        Path, programFingerprint(*A.Prog), A.Prog->variables().size(),
        A.Prog->allocs().size(), &Error);
    ASSERT_NE(File, nullptr) << Error;
    EXPECT_FALSE(File->indexedOnOpen());
    EXPECT_EQ(File->records(), A.DynSum->cacheSize());
    DecodedSummaryRecord R;
    for (const CachedKey &K : Keys) {
      ASSERT_TRUE(File->find(K.Canonical, K.State, K.Fields, R));
      expectRecordMatches(A, K, R);
    }
    EXPECT_EQ(File->corruptRecords(), 0u);
  }
  std::remove(Path.c_str());
}

TEST(MappedSummaryFileTest, RejectsHeaderDamageAndWrongFingerprint) {
  Instance A = warmFigure2Instance();
  std::string Path = ::testing::TempDir() + "/mapped_reject.dsum";
  ASSERT_TRUE(saveSummariesFile(*A.DynSum, Path));
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

  std::ifstream In(Path, std::ios::binary);
  std::string Buf((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  In.close();
  for (size_t Damage : {size_t(0), size_t(4), size_t(16)}) {
    std::string Bad = Buf;
    Bad[Damage] = char(Bad[Damage] ^ 0x7f);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bad.data(), std::streamsize(Bad.size()));
    Out.close();
    EXPECT_EQ(MappedSummaryFile::open(Path, Fp, NumVars, NumAllocs, &Error),
              nullptr)
        << "header byte " << Damage;
    EXPECT_FALSE(Error.empty());
  }
  std::remove(Path.c_str());
}

/// The disk tier's skip semantics must match the streaming loader
/// record-for-record over the golden corruption corpus: every record
/// the loader merges is servable through the mmap reader, every record
/// it skips or loses to a tear is a miss — and never a crash.  The
/// corpus files predate the digest index, so this also pins the
/// frame-scan fallback against real pre-index v3 bytes.
TEST(MappedSummaryFileTest, AgreesWithStreamingLoaderOnGoldenCorpus) {
  std::string Dir = std::string(DYNSUM_TESTS_DIR) + "/golden/dsum_corpus/";
  std::ifstream ProgIn(Dir + "figure2.ir");
  ASSERT_TRUE(ProgIn.good());
  std::stringstream Src;
  Src << ProgIn.rdbuf();
  std::string Source = Src.str();

  // The pristine file defines the full key set.
  Instance Pristine(Source.c_str());
  ASSERT_TRUE(loadSummariesFile(*Pristine.DynSum, Dir + "pristine.dsum"));
  std::vector<CachedKey> AllKeys = decodeCache(Pristine);
  ASSERT_GT(AllKeys.size(), 1u);
  uint64_t Fp = programFingerprint(*Pristine.Prog);
  size_t NumVars = Pristine.Prog->variables().size();
  size_t NumAllocs = Pristine.Prog->allocs().size();

  struct Expectation {
    const char *Name;
    uint64_t ExpectCorrupt; // records dead to CRC, counted on probe
  };
  for (const Expectation &E :
       {Expectation{"pristine.dsum", 0}, Expectation{"corrupt_record.dsum", 1},
        Expectation{"truncated_records.dsum", 0}}) {
    // What does the streaming loader accept from this file?
    Instance Loaded(Source.c_str());
    SummaryLoadReport Rep =
        loadSummariesFileReport(*Loaded.DynSum, Dir + E.Name);
    ASSERT_TRUE(Rep.Ok) << E.Name << ": " << Rep.Error;
    std::set<std::tuple<uint32_t, int, std::vector<uint32_t>>> Accepted;
    for (const CachedKey &K : decodeCache(Loaded))
      Accepted.insert({K.Canonical, int(K.State), K.Fields});

    std::string Error;
    std::unique_ptr<MappedSummaryFile> File =
        MappedSummaryFile::open(Dir + E.Name, Fp, NumVars, NumAllocs, &Error);
    ASSERT_NE(File, nullptr) << E.Name << ": " << Error;
    EXPECT_FALSE(File->indexedOnOpen())
        << E.Name << " predates the digest index";

    DecodedSummaryRecord R;
    size_t Hits = 0;
    for (const CachedKey &K : AllKeys) {
      bool Hit = File->find(K.Canonical, K.State, K.Fields, R);
      bool WasAccepted =
          Accepted.count({K.Canonical, int(K.State), K.Fields}) != 0;
      EXPECT_EQ(Hit, WasAccepted)
          << E.Name << ": mmap reader and streaming loader disagree on "
             "canonical node "
          << K.Canonical;
      if (Hit) {
        expectRecordMatches(Pristine, K, R);
        ++Hits;
      }
    }
    EXPECT_EQ(Hits, Rep.EntriesLoaded) << E.Name;
    EXPECT_EQ(File->corruptRecords(), E.ExpectCorrupt) << E.Name;
  }
}

/// Indexed golden files: a current-writer .dsum with its digest index
/// intact must open indexed; its bad_index sibling (one flipped byte
/// inside the index section) must fall back to the scan and still
/// serve everything.
TEST(MappedSummaryFileTest, GoldenIndexedCorpusServesMmapReader) {
  std::string Dir = std::string(DYNSUM_TESTS_DIR) + "/golden/dsum_corpus/";
  std::ifstream ProgIn(Dir + "figure2.ir");
  ASSERT_TRUE(ProgIn.good());
  std::stringstream Src;
  Src << ProgIn.rdbuf();
  std::string Source = Src.str();

  Instance Pristine(Source.c_str());
  ASSERT_TRUE(
      loadSummariesFile(*Pristine.DynSum, Dir + "pristine_indexed.dsum"));
  std::vector<CachedKey> Keys = decodeCache(Pristine);
  ASSERT_GT(Keys.size(), 1u);
  uint64_t Fp = programFingerprint(*Pristine.Prog);
  size_t NumVars = Pristine.Prog->variables().size();
  size_t NumAllocs = Pristine.Prog->allocs().size();

  struct Expectation {
    const char *Name;
    bool Indexed;
  };
  for (const Expectation &E : {Expectation{"pristine_indexed.dsum", true},
                               Expectation{"bad_index.dsum", false}}) {
    std::string Error;
    std::unique_ptr<MappedSummaryFile> File =
        MappedSummaryFile::open(Dir + E.Name, Fp, NumVars, NumAllocs, &Error);
    ASSERT_NE(File, nullptr) << E.Name << ": " << Error;
    EXPECT_EQ(File->indexedOnOpen(), E.Indexed) << E.Name;
    EXPECT_EQ(File->records(), Keys.size()) << E.Name;
    DecodedSummaryRecord R;
    for (const CachedKey &K : Keys) {
      ASSERT_TRUE(File->find(K.Canonical, K.State, K.Fields, R)) << E.Name;
      expectRecordMatches(Pristine, K, R);
    }
    EXPECT_EQ(File->corruptRecords(), 0u) << E.Name;
  }
}

} // namespace
