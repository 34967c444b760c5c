//===----------------------------------------------------------------------===//
///
/// \file
/// The partitioned-repack corpus: a deterministic program plus edit
/// rounds built to stress the boundaries of the partitioned CSR repack.
///
/// tests/csr_equiv_test.cpp evolves a delta PAG through these rounds at
/// several finalize thread counts and asserts the answers match the
/// golden "repack-r<N>" sections of tests/golden/csr_corpus.txt, which
/// were captured from the serial seed implementation.  The rounds are
/// chosen so that:
///
///   * round 0 dirties every other method — the affected node list is
///     dense and contiguous, so partitioned workers own adjacent dirty
///     buckets and their range boundaries fall inside hot node runs;
///   * round 1 empties a contiguous strip of methods and refills them
///     smaller — dead slots, in-place holes and slot reuse;
///   * round 2 grows the tail methods hard — regions relocate to the
///     flat-array tail across worker ranges;
///   * round 3 touches every method at once — the whole node table is
///     dirty and every worker range is exercised;
///   * rounds 4+ hammer one method's bucket so relocation holes pile up
///     quadratically until the slack policy forces a compacting full
///     pack in the middle of the commit sequence.
///
/// Shared by the test and by the one-off golden generator; must stay
/// gtest-free.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_TESTS_REPACKCORPUS_H
#define DYNSUM_TESTS_REPACKCORPUS_H

#include "ir/Builder.h"
#include "ir/Program.h"

#include <memory>
#include <string>
#include <vector>

namespace dynsum {
namespace testing {

/// Methods in the corpus program; kept modest so golden stays readable
/// while still giving 8 repack workers multi-bucket ranges.
constexpr unsigned kRepackMethods = 48;

/// Edit rounds driven by the test (4 structured + 10 hammer rounds; the
/// hammer tail is what pushes slack over the compaction bar).
constexpr unsigned kRepackRounds = 14;

/// Builds the base program: kRepackMethods free methods in a call ring,
/// four shared fields, one shared global.  Every method's locals sit in
/// adjacent node-id runs, so dirtying a method range dirties an
/// adjacent CSR bucket range.
inline std::unique_ptr<ir::Program> buildRepackCorpusProgram() {
  ir::ProgramBuilder B;
  B.cls("C0");
  B.cls("C1");
  B.cls("C2");
  B.global("g", "C0");

  std::vector<ir::MethodId> Ms;
  Ms.reserve(kRepackMethods);
  for (unsigned I = 0; I < kRepackMethods; ++I)
    Ms.push_back(B.method("m" + std::to_string(I),
                          {{"p" + std::to_string(I), ""}}));

  for (unsigned I = 0; I < kRepackMethods; ++I) {
    std::string S = std::to_string(I);
    ir::MethodId M = Ms[I];
    B.alloc(M, "a" + S, "C" + std::to_string(I % 3), "o" + S);
    B.assign(M, "b" + S, "a" + S);
    B.alloc(M, "h" + S, "C0", "h" + S);
    B.store(M, "h" + S, "f" + std::to_string(I % 4), "a" + S);
    B.load(M, "c" + S, "h" + S, "f" + std::to_string(I % 4));
    if (I % 4 == 0)
      B.assign(M, "g", "a" + S);
    if (I % 5 == 0)
      B.assign(M, "c" + S, "g");
    // Call ring: entry edges into the next method's formal, exit edges
    // back into this method's result.
    B.call(M, "d" + S, Ms[(I + 1) % kRepackMethods], {"a" + S});
    B.ret(M, "b" + S);
  }
  return B.takeProgram();
}

namespace repack_detail {

/// First local of \p M in creation order (the parameter).
inline ir::VarId firstLocalOf(const ir::Program &P, ir::MethodId M) {
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Owner == M)
      return V.Id;
  return ir::kNone;
}

/// Appends an allocation into a fresh local plus an assign of it into
/// \p M's first local, growing that node's in-bucket by one each call.
inline void growOnce(ir::Program &P, ir::MethodId M, unsigned Tag) {
  ir::VarId Base = firstLocalOf(P, M);
  ir::VarId V = P.createLocal(
      P.name("rg" + std::to_string(M) + "_" + std::to_string(Tag)), M,
      ir::kObjectType);
  ir::Statement A;
  A.Kind = ir::StmtKind::Alloc;
  A.Dst = V;
  A.Type = ir::kObjectType;
  A.Alloc = P.createAllocSite(ir::kObjectType, M, Symbol{});
  P.addStatement(M, std::move(A));
  ir::Statement S;
  S.Kind = ir::StmtKind::Assign;
  S.Src = V;
  S.Dst = Base;
  P.addStatement(M, std::move(S));
}

} // namespace repack_detail

/// Applies edit round \p Round (0-based, < kRepackRounds) to \p P.
/// Deterministic; dirty tracking rides on the program's edit clock.
inline void applyRepackRound(ir::Program &P, unsigned Round) {
  using repack_detail::growOnce;
  const unsigned NumMethods = kRepackMethods;
  switch (Round) {
  case 0:
    // Adjacent dirty buckets across worker ranges: every even method
    // grows a little, so half the node table repacks.
    for (unsigned I = 0; I < NumMethods; I += 2)
      growOnce(P, P.methods()[I].Id, Round);
    break;
  case 1: {
    // Shrink a contiguous strip to nothing (dead slots + holes), then
    // refill smaller (slot reuse).
    for (unsigned I = NumMethods / 3; I < NumMethods / 3 + 6; ++I) {
      ir::MethodId M = P.methods()[I].Id;
      P.method(M).Stmts.clear();
      P.touchMethod(M);
      growOnce(P, M, Round);
    }
    break;
  }
  case 2:
    // Tail methods grow hard: their regions relocate to the array tail.
    for (unsigned I = NumMethods - 4; I < NumMethods; ++I)
      for (unsigned G = 0; G < 12; ++G)
        growOnce(P, P.methods()[I].Id, Round * 100 + G);
    break;
  case 3:
    // Everything dirty at once: the full node table partitions across
    // every worker range.
    for (unsigned I = 0; I < NumMethods; ++I)
      growOnce(P, P.methods()[I].Id, Round);
    break;
  default:
    // Hammer one method: its first local's in-bucket relocates every
    // round, abandoning ever-larger copies until slack forces a
    // compacting full pack mid-sequence.
    for (unsigned G = 0; G < 40; ++G)
      growOnce(P, P.methods()[1].Id, Round * 100 + G);
    break;
  }
}

/// The probe set the golden answers are recorded for: every 7th local,
/// in id order (append-only ids keep earlier rounds' probes stable).
inline std::vector<ir::VarId> repackProbeVariables(const ir::Program &P) {
  std::vector<ir::VarId> Out;
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Id % 7 == 0)
      Out.push_back(V.Id);
  return Out;
}

} // namespace testing
} // namespace dynsum

#endif // DYNSUM_TESTS_REPACKCORPUS_H
