//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the support library.
///
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"
#include "support/CommandLine.h"
#include "support/Deadline.h"
#include "support/FlatSet.h"
#include "support/Hashing.h"
#include "support/InternedStack.h"
#include "support/OStream.h"
#include "support/Parallel.h"
#include "support/PrettyTable.h"
#include "support/Random.h"
#include "support/SharedMutex.h"
#include "support/SmallVector.h"
#include "support/StringInterner.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>

using namespace dynsum;

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(StringInternerTest, EmptyStringIsSymbolZero) {
  StringInterner SI;
  EXPECT_EQ(SI.intern("").Id, 0u);
  EXPECT_TRUE(SI.intern("").empty());
}

TEST(StringInternerTest, InternIsIdempotent) {
  StringInterner SI;
  Symbol A = SI.intern("hello");
  Symbol B = SI.intern("hello");
  EXPECT_EQ(A, B);
  EXPECT_EQ(SI.text(A), "hello");
}

TEST(StringInternerTest, DistinctStringsGetDistinctSymbols) {
  StringInterner SI;
  EXPECT_NE(SI.intern("a"), SI.intern("b"));
  EXPECT_EQ(SI.size(), 3u); // "", "a", "b"
}

TEST(StringInternerTest, LookupDoesNotCreate) {
  StringInterner SI;
  EXPECT_TRUE(SI.lookup("missing").empty());
  EXPECT_EQ(SI.size(), 1u);
  SI.intern("present");
  EXPECT_FALSE(SI.lookup("present").empty());
}

TEST(StringInternerTest, TextSurvivesRehash) {
  StringInterner SI;
  Symbol First = SI.intern("first");
  for (int I = 0; I < 1000; ++I)
    SI.intern("k" + std::to_string(I));
  EXPECT_EQ(SI.text(First), "first");
}

//===----------------------------------------------------------------------===//
// StackPool
//===----------------------------------------------------------------------===//

TEST(StackPoolTest, EmptyStackProperties) {
  StackPool P;
  EXPECT_TRUE(StackPool::empty().isEmpty());
  EXPECT_EQ(P.depth(StackPool::empty()), 0u);
}

TEST(StackPoolTest, PushPopPeekRoundTrip) {
  StackPool P;
  StackId S = P.push(StackPool::empty(), 42);
  EXPECT_FALSE(S.isEmpty());
  EXPECT_EQ(P.peek(S), 42u);
  EXPECT_EQ(P.depth(S), 1u);
  EXPECT_TRUE(P.pop(S).isEmpty());
}

TEST(StackPoolTest, HashConsingGivesIdenticalIds) {
  StackPool P;
  StackId A = P.push(P.push(StackPool::empty(), 1), 2);
  StackId B = P.push(P.push(StackPool::empty(), 1), 2);
  EXPECT_EQ(A, B);
  StackId C = P.push(P.push(StackPool::empty(), 2), 1);
  EXPECT_NE(A, C);
}

TEST(StackPoolTest, ElementsBottomToTop) {
  StackPool P;
  StackId S = P.make({10, 20, 30});
  EXPECT_EQ(P.elements(S), (std::vector<uint32_t>{10, 20, 30}));
  EXPECT_EQ(P.peek(S), 30u);
}

TEST(StackPoolTest, SharedTailsAreShared) {
  StackPool P;
  StackId Tail = P.make({1, 2, 3});
  size_t Before = P.size();
  StackId A = P.push(Tail, 4);
  StackId B = P.push(Tail, 5);
  EXPECT_EQ(P.size(), Before + 2); // only two new nodes
  EXPECT_EQ(P.pop(A), Tail);
  EXPECT_EQ(P.pop(B), Tail);
}

//===----------------------------------------------------------------------===//
// BitVector
//===----------------------------------------------------------------------===//

TEST(BitVectorTest, SetTestReset) {
  BitVector BV(130);
  EXPECT_FALSE(BV.test(129));
  EXPECT_TRUE(BV.set(129));
  EXPECT_FALSE(BV.set(129)); // second set reports no change
  EXPECT_TRUE(BV.test(129));
  BV.reset(129);
  EXPECT_FALSE(BV.test(129));
}

TEST(BitVectorTest, CountAcrossWords) {
  BitVector BV(200);
  for (size_t I = 0; I < 200; I += 7)
    BV.set(I);
  EXPECT_EQ(BV.count(), (200 + 6) / 7);
}

TEST(BitVectorTest, OrInPlaceReportsChange) {
  BitVector A(64), B(64);
  B.set(3);
  EXPECT_TRUE(A.orInPlace(B));
  EXPECT_FALSE(A.orInPlace(B)); // already subsumed
  EXPECT_TRUE(A.test(3));
}

TEST(BitVectorTest, ClearKeepsSize) {
  BitVector BV(77);
  BV.set(76);
  BV.clear();
  EXPECT_EQ(BV.size(), 77u);
  EXPECT_EQ(BV.count(), 0u);
}

//===----------------------------------------------------------------------===//
// HybridPtsSet
//===----------------------------------------------------------------------===//

namespace {
std::vector<uint32_t> elementsOf(const HybridPtsSet &S) {
  std::vector<uint32_t> Out;
  S.forEach([&](uint32_t E) { Out.push_back(E); });
  return Out;
}
} // namespace

TEST(HybridPtsSetTest, InlineToSparseToDenseTransitions) {
  HybridPtsSet S(1024); // dense threshold at 1024/8 = 128 elements
  EXPECT_EQ(S.rep(), HybridPtsSet::Rep::Inline);
  for (uint32_t I = 0; I < 8; ++I)
    EXPECT_TRUE(S.set(I * 5));
  EXPECT_EQ(S.rep(), HybridPtsSet::Rep::Inline);
  EXPECT_TRUE(S.set(999));
  EXPECT_EQ(S.rep(), HybridPtsSet::Rep::Sparse);
  for (uint32_t I = 0; I < 200; ++I)
    S.set(I * 3);
  EXPECT_EQ(S.rep(), HybridPtsSet::Rep::Dense);
  // All elements survive both promotions.
  for (uint32_t I = 0; I < 8; ++I)
    EXPECT_TRUE(S.test(I * 5));
  EXPECT_TRUE(S.test(999));
  EXPECT_TRUE(S.test(3 * 199));
}

TEST(HybridPtsSetTest, SmallUniverseSkipsSparse) {
  HybridPtsSet S(40); // 9 elements * 8 >= 40: inline promotes straight to dense
  for (uint32_t I = 0; I < 9; ++I)
    S.set(I);
  EXPECT_EQ(S.rep(), HybridPtsSet::Rep::Dense);
  EXPECT_EQ(S.count(), 9u);
}

TEST(HybridPtsSetTest, SetReportsNewlyInsertedAcrossReps) {
  HybridPtsSet S(4096);
  for (uint32_t I = 0; I < 600; ++I) {
    EXPECT_TRUE(S.set(I * 2));
    EXPECT_FALSE(S.set(I * 2));
  }
  EXPECT_EQ(S.count(), 600u);
}

TEST(HybridPtsSetTest, ForEachAscendingInEveryRep) {
  for (size_t Fill : {5u, 40u, 900u}) {
    HybridPtsSet S(2048);
    std::vector<uint32_t> Expect;
    // Insert in a scrambled order.
    for (size_t I = 0; I < Fill; ++I) {
      uint32_t E = uint32_t((I * 797) % 2048);
      if (S.set(E))
        Expect.push_back(E);
    }
    std::sort(Expect.begin(), Expect.end());
    EXPECT_EQ(elementsOf(S), Expect);
  }
}

TEST(HybridPtsSetTest, RandomizedEquivalenceWithBitVector) {
  Rng R(7);
  for (int Round = 0; Round < 20; ++Round) {
    const size_t Universe = 64 + R.next() % 1500;
    HybridPtsSet A(Universe), B(Universe);
    BitVector RefA(Universe), RefB(Universe);
    const size_t Ops = R.next() % 400;
    for (size_t I = 0; I < Ops; ++I) {
      size_t E = R.next() % Universe;
      if (R.next() % 2) {
        EXPECT_EQ(A.set(E), RefA.set(E));
      } else {
        EXPECT_EQ(B.set(E), RefB.set(E));
      }
    }
    EXPECT_EQ(A.orInPlace(B), RefA.orInPlace(RefB));
    EXPECT_EQ(A.count(), RefA.count());
    for (uint32_t E : elementsOf(A))
      EXPECT_TRUE(RefA.test(E));
    EXPECT_FALSE(A.orInPlace(B)); // already subsumed, like BitVector
  }
}

TEST(HybridPtsSetTest, OrInPlaceReportsNewElements) {
  HybridPtsSet A(512), B(512);
  A.set(1);
  A.set(100);
  for (uint32_t I = 0; I < 200; ++I)
    B.set(I * 2);
  std::vector<uint32_t> New;
  EXPECT_TRUE(A.orInPlace(B, [&](uint32_t E) { New.push_back(E); }));
  std::sort(New.begin(), New.end());
  // Everything in B except 100 (already present); 1 is odd, never in B.
  EXPECT_EQ(New.size(), 199u);
  EXPECT_FALSE(std::binary_search(New.begin(), New.end(), 100u));
  EXPECT_EQ(A.count(), 201u);
}

TEST(HybridPtsSetTest, ClearResetsToInlineKeepingUniverse) {
  HybridPtsSet S(256);
  for (uint32_t I = 0; I < 100; ++I)
    S.set(I);
  EXPECT_EQ(S.rep(), HybridPtsSet::Rep::Dense);
  S.clear();
  EXPECT_EQ(S.size(), 256u);
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.rep(), HybridPtsSet::Rep::Inline);
  EXPECT_TRUE(S.set(7));
  EXPECT_TRUE(S.test(7));
}

//===----------------------------------------------------------------------===//
// Rng / ZipfSampler
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSameSeed) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  bool AnyDifferent = false;
  for (int I = 0; I < 16; ++I)
    AnyDifferent |= A.next() != B.next();
  EXPECT_TRUE(AnyDifferent);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(13), 13u);
}

TEST(RngTest, NextBoolExtremes) {
  Rng R(7);
  EXPECT_FALSE(R.nextBool(0.0));
  EXPECT_TRUE(R.nextBool(1.0));
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(99);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(ZipfTest, SkewsTowardsSmallIndices) {
  Rng R(5);
  ZipfSampler Z(100, 1.0);
  size_t CountFirstTen = 0;
  constexpr size_t kDraws = 10000;
  for (size_t I = 0; I < kDraws; ++I)
    if (Z.sample(R) < 10)
      ++CountFirstTen;
  // Under Zipf(1.0) the first decile carries roughly half the mass; a
  // uniform sampler would give ~10%.
  EXPECT_GT(CountFirstTen, kDraws / 3);
}

TEST(ZipfTest, AllIndicesReachable) {
  Rng R(6);
  ZipfSampler Z(4, 0.5);
  std::set<size_t> Seen;
  for (int I = 0; I < 2000; ++I)
    Seen.insert(Z.sample(R));
  EXPECT_EQ(Seen.size(), 4u);
}

//===----------------------------------------------------------------------===//
// Deadline
//===----------------------------------------------------------------------===//

TEST(DeadlineTest, SpansPastTheClockRangeNeverExpire) {
  // Converting these to clock ticks would overflow; they saturate.
  for (double Seconds : {1e10, 1e300, double(INFINITY)}) {
    support::Deadline D = support::Deadline::in(Seconds);
    EXPECT_TRUE(D.hasLimit());
    EXPECT_FALSE(D.expired()) << Seconds;
    EXPECT_GT(D.remainingSeconds(), 1e9) << Seconds;
  }
}

TEST(DeadlineTest, NonPositiveAndNanSpansExpireAtOnce) {
  for (double Seconds : {0.0, -1.0, -double(INFINITY), double(NAN)})
    EXPECT_TRUE(support::Deadline::in(Seconds).expired()) << Seconds;
  EXPECT_FALSE(support::Deadline::in(3600.0).expired());
}

//===----------------------------------------------------------------------===//
// OStream / PrettyTable / CommandLine / Hashing
//===----------------------------------------------------------------------===//

TEST(OStreamTest, FormatsNumbers) {
  StringOStream OS;
  OS << uint64_t(42) << ' ' << int64_t(-7) << ' ';
  OS.writeFixed(3.14159, 2);
  EXPECT_EQ(OS.str(), "42 -7 3.14");
}

/// Fixed notation of a huge value runs past any small stack buffer; it
/// must come out whole, not truncated or read past the buffer.
TEST(OStreamTest, WriteFixedPrintsHugeValuesWhole) {
  StringOStream OS;
  OS.writeFixed(1e300, 1);
  ASSERT_EQ(OS.str().size(), 303u);
  EXPECT_EQ(OS.str().substr(0, 2), "10");
  EXPECT_EQ(OS.str().substr(OS.str().size() - 2), ".0");
}

TEST(OStreamTest, PaddingAndRepetition) {
  StringOStream OS;
  OS.writePadded("ab", 5, /*LeftAlign=*/true);
  OS << '|';
  OS.writePadded("ab", 5, /*LeftAlign=*/false);
  OS << '|';
  OS.writeRepeated('-', 3);
  EXPECT_EQ(OS.str(), "ab   |   ab|---");
}

TEST(PrettyTableTest, AlignsColumns) {
  PrettyTable T;
  T.row().cell("name").cell("v");
  T.row().cell("x").cell(uint64_t(1000));
  StringOStream OS;
  T.print(OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("name"), std::string::npos);
  EXPECT_NE(Text.find("1000"), std::string::npos);
  EXPECT_NE(Text.find("----"), std::string::npos);
}

TEST(CommandLineTest, ParsesFlagsAndPositionals) {
  const char *Argv[] = {"prog", "--scale=0.5", "--verbose", "input.ir",
                        "--n=42"};
  CommandLine CL(5, Argv);
  bool Bad = false;
  EXPECT_DOUBLE_EQ(CL.getDouble("scale", 1.0, Bad), 0.5);
  EXPECT_TRUE(CL.has("verbose"));
  EXPECT_EQ(CL.getCount("n", 0, 100, Bad), 42u);
  EXPECT_EQ(CL.getCount("missing", 9, 100, Bad), 9u);
  EXPECT_FALSE(Bad);
  ASSERT_EQ(CL.positional().size(), 1u);
  EXPECT_EQ(CL.positional()[0], "input.ir");
}

TEST(CommandLineTest, RepeatedFlagsKeepEveryValueInOrder) {
  const char *Argv[] = {"prog", "--query=a.b.c", "--other=1", "--query=d.e.f"};
  CommandLine CL(4, Argv);
  EXPECT_EQ(CL.getAll("query"),
            (std::vector<std::string>{"a.b.c", "d.e.f"}));
  EXPECT_TRUE(CL.getAll("missing").empty());
  // The map accessor still answers with the first occurrence.
  EXPECT_EQ(CL.getString("query", ""), "a.b.c");
}

/// getCount("n", 5, Max, Bad) over the command line "prog --n=<Value>".
static uint64_t countOf(const std::string &Value, uint64_t Max, bool &Bad) {
  std::string Arg = "--n=" + Value;
  const char *Argv[] = {"prog", Arg.c_str()};
  return CommandLine(2, Argv).getCount("n", 5, Max, Bad);
}

TEST(CommandLineTest, CountsAcceptOnlyDigitsInRange) {
  constexpr uint64_t kU32 = 4294967295u;
  bool Bad = false;
  EXPECT_EQ(countOf("0", kU32, Bad), 0u);
  EXPECT_EQ(countOf("17", kU32, Bad), 17u);
  EXPECT_EQ(countOf("17", 17, Bad), 17u);
  EXPECT_EQ(countOf("4294967295", kU32, Bad), kU32);
  EXPECT_EQ(countOf("", kU32, Bad), 5u) << "an empty value reads the default";
  EXPECT_FALSE(Bad);
  for (const char *Value : {"abc", "4x", "-1", "4294967296", "+3"}) {
    Bad = false;
    countOf(Value, kU32, Bad);
    EXPECT_TRUE(Bad) << "--n=" << Value;
  }
  Bad = false;
  countOf("17", 16, Bad);
  EXPECT_TRUE(Bad) << "17 is past a maximum of 16";
  Bad = false;
  countOf("7", 0, Bad);
  EXPECT_TRUE(Bad) << "7 is past a maximum of 0";
}

/// getDouble("x", 0.25, Bad) over the command line "prog --x=<Value>".
static double doubleOf(const std::string &Value, bool &Bad) {
  std::string Arg = "--x=" + Value;
  const char *Argv[] = {"prog", Arg.c_str()};
  return CommandLine(2, Argv).getDouble("x", 0.25, Bad);
}

TEST(CommandLineTest, NumbersMustParseWhole) {
  bool Bad = false;
  EXPECT_DOUBLE_EQ(doubleOf("0.5", Bad), 0.5);
  EXPECT_DOUBLE_EQ(doubleOf("2", Bad), 2.0);
  EXPECT_DOUBLE_EQ(doubleOf("1e-3", Bad), 0.001);
  EXPECT_DOUBLE_EQ(doubleOf("", Bad), 0.25)
      << "an empty value reads the default";
  EXPECT_FALSE(Bad);
  for (const char *Value : {"abc", "0.5x", "nan", "inf", "1e999"}) {
    Bad = false;
    EXPECT_DOUBLE_EQ(doubleOf(Value, Bad), 0.25) << "--x=" << Value;
    EXPECT_TRUE(Bad) << "--x=" << Value;
  }
}

TEST(HashingTest, PackPairIsInjectiveOnHalves) {
  EXPECT_NE(packPair(1, 2), packPair(2, 1));
  EXPECT_EQ(packPair(7, 9) >> 32, 7u);
  EXPECT_EQ(packPair(7, 9) & 0xffffffffu, 9u);
}

TEST(TimerTest, MeasuresForwardTime) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(B, A);
  EXPECT_GE(A, 0.0);
}

//===----------------------------------------------------------------------===//
// FlatU64Set
//===----------------------------------------------------------------------===//

TEST(FlatSetTest, InsertContainsAndDuplicates) {
  FlatU64Set S;
  EXPECT_TRUE(S.insert(42));
  EXPECT_FALSE(S.insert(42));
  EXPECT_TRUE(S.contains(42));
  EXPECT_FALSE(S.contains(43));
  EXPECT_EQ(S.size(), 1u);
}

TEST(FlatSetTest, ZeroIsAnOrdinaryKey) {
  // packSummaryKey(0, empty, S1) == 0, so key 0 must be storable.
  FlatU64Set S;
  EXPECT_FALSE(S.contains(0));
  EXPECT_TRUE(S.insert(0));
  EXPECT_TRUE(S.contains(0));
  EXPECT_FALSE(S.insert(0));
}

TEST(FlatSetTest, EpochClearForgetsEverythingKeepsCapacity) {
  FlatU64Set S;
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_TRUE(S.insert(I * 977));
  size_t CapBefore = S.capacity();
  S.clear();
  EXPECT_EQ(S.size(), 0u);
  EXPECT_EQ(S.capacity(), CapBefore);
  for (uint64_t I = 0; I < 100; ++I)
    EXPECT_FALSE(S.contains(I * 977));
  // Reinsertion after clear behaves like a fresh set.
  EXPECT_TRUE(S.insert(977));
  EXPECT_TRUE(S.contains(977));
}

TEST(FlatSetTest, GrowthPreservesMembership) {
  FlatU64Set S;
  std::set<uint64_t> Reference;
  Rng R(7);
  for (int I = 0; I < 5000; ++I) {
    uint64_t K = (uint64_t(R.next()) << 32) | R.next();
    EXPECT_EQ(S.insert(K), Reference.insert(K).second);
  }
  EXPECT_EQ(S.size(), Reference.size());
  for (uint64_t K : Reference)
    EXPECT_TRUE(S.contains(K));
  size_t Count = 0;
  S.forEach([&](uint64_t K) {
    EXPECT_EQ(Reference.count(K), 1u);
    ++Count;
  });
  EXPECT_EQ(Count, Reference.size());
}

TEST(FlatSetTest, ManyEpochsStayIndependent) {
  FlatU64Set S;
  for (uint64_t Epoch = 0; Epoch < 300; ++Epoch) {
    EXPECT_TRUE(S.insert(Epoch));
    EXPECT_TRUE(S.insert(1ull << 40));
    EXPECT_EQ(S.size(), 2u);
    S.clear();
    EXPECT_TRUE(S.empty());
  }
}

//===----------------------------------------------------------------------===//
// SmallVector
//===----------------------------------------------------------------------===//

TEST(SmallVectorTest, StaysInlineUpToN) {
  SmallVector<int, 4> V;
  for (int I = 0; I < 4; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 4u);
  EXPECT_EQ(V.capacity(), 4u); // no heap growth yet
  V.push_back(4);
  EXPECT_GT(V.capacity(), 4u);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(V[size_t(I)], I);
}

TEST(SmallVectorTest, CopyAndMoveAcrossInlineAndHeap) {
  for (size_t Len : {2u, 16u}) {
    SmallVector<std::string, 4> V;
    for (size_t I = 0; I < Len; ++I)
      V.push_back("s" + std::to_string(I));

    SmallVector<std::string, 4> Copy(V);
    EXPECT_TRUE(Copy == V);

    SmallVector<std::string, 4> Moved(std::move(Copy));
    EXPECT_TRUE(Moved == V);
    EXPECT_EQ(Copy.size(), 0u); // moved-from is empty and reusable
    Copy.push_back("again");
    EXPECT_EQ(Copy.size(), 1u);

    SmallVector<std::string, 4> Assigned;
    Assigned.push_back("overwritten");
    Assigned = V;
    EXPECT_TRUE(Assigned == V);
    SmallVector<std::string, 4> MoveAssigned;
    MoveAssigned = std::move(Assigned);
    EXPECT_TRUE(MoveAssigned == V);
  }
}

TEST(SmallVectorTest, ResizeGrowsAndShrinks) {
  SmallVector<uint32_t, 4> V;
  V.resize(10);
  EXPECT_EQ(V.size(), 10u);
  for (uint32_t X : V)
    EXPECT_EQ(X, 0u);
  V[9] = 99;
  V.resize(3);
  EXPECT_EQ(V.size(), 3u);
  V.resize(6);
  EXPECT_EQ(V[5], 0u);
}

TEST(SmallVectorTest, ShrinkToFitReleasesSlackAndReturnsInline) {
  SmallVector<int, 4> V;
  for (int I = 0; I < 100; ++I)
    V.push_back(I);
  while (V.size() > 2)
    V.pop_back();
  V.shrinkToFit();
  EXPECT_EQ(V.size(), 2u);
  EXPECT_EQ(V.capacity(), 4u); // two elements fit inline again
  EXPECT_EQ(V[0], 0);
  EXPECT_EQ(V[1], 1);

  // Heap case: shrink to the exact heap size.
  SmallVector<int, 4> W;
  for (int I = 0; I < 9; ++I)
    W.push_back(I);
  W.shrinkToFit();
  EXPECT_EQ(W.capacity(), 9u);
  for (int I = 0; I < 9; ++I)
    EXPECT_EQ(W[size_t(I)], I);
}

TEST(SmallVectorTest, PushBackOfOwnElementSurvivesGrowth) {
  SmallVector<std::string, 4> V;
  for (int I = 0; I < 4; ++I)
    V.push_back("elem" + std::to_string(I));
  V.push_back(V[0]); // triggers growth: the source must be secured first
  EXPECT_EQ(V.size(), 5u);
  EXPECT_EQ(V.back(), "elem0");
  EXPECT_EQ(V[0], "elem0");
}

//===----------------------------------------------------------------------===//
// Parallel (the executor of query shards and commit phases)
//===----------------------------------------------------------------------===//

TEST(ParallelTest, ClampThreadsResolvesZeroAndCapsWraparounds) {
  EXPECT_GE(clampThreads(0), 1u); // 0 = hardware concurrency, at least 1
  EXPECT_EQ(clampThreads(1), 1u);
  EXPECT_EQ(clampThreads(8), 8u);
  // A negative request arrives as a huge unsigned and must be capped.
  EXPECT_EQ(clampThreads(unsigned(-1)), 256u);
}

TEST(ParallelTest, ChunksCoverTheRangeExactlyOnce) {
  for (size_t N : {0u, 1u, 3u, 7u, 64u, 1000u}) {
    for (unsigned Threads : {1u, 2u, 3u, 8u, 64u}) {
      std::vector<std::atomic<unsigned>> Seen(N);
      for (auto &S : Seen)
        S.store(0);
      parallelChunks(N, Threads, [&](size_t Begin, size_t End, unsigned) {
        EXPECT_LE(Begin, End);
        EXPECT_LE(End, N);
        for (size_t I = Begin; I < End; ++I)
          Seen[I].fetch_add(1);
      });
      for (size_t I = 0; I < N; ++I)
        EXPECT_EQ(Seen[I].load(), 1u)
            << "index " << I << " at N=" << N << " threads=" << Threads;
    }
  }
}

TEST(ParallelTest, ChunkBoundariesAreSchedulingIndependent) {
  // Determinism contract: the (Begin, End) set depends only on
  // (N, Threads) — collect it twice and compare.
  auto Boundaries = [](size_t N, unsigned Threads) {
    std::mutex M;
    std::set<std::pair<size_t, size_t>> Out;
    parallelChunks(N, Threads, [&](size_t Begin, size_t End, unsigned) {
      std::lock_guard<std::mutex> Lock(M);
      Out.emplace(Begin, End);
    });
    return Out;
  };
  for (size_t N : {5u, 100u})
    for (unsigned Threads : {2u, 8u})
      EXPECT_EQ(Boundaries(N, Threads), Boundaries(N, Threads));
}

TEST(ParallelTest, JobsEachRunExactlyOnce) {
  for (size_t NumJobs : {0u, 1u, 2u, 23u}) {
    std::vector<std::atomic<unsigned>> Ran(NumJobs);
    for (auto &R : Ran)
      R.store(0);
    parallelJobs(NumJobs, [&](size_t I) { Ran[I].fetch_add(1); });
    for (size_t I = 0; I < NumJobs; ++I)
      EXPECT_EQ(Ran[I].load(), 1u) << "job " << I << " of " << NumJobs;
  }
}

/// One 8-chunk call over [0, N): true when every index ran exactly once.
static bool coversEveryIndexOnce(size_t N) {
  std::vector<std::atomic<unsigned>> Seen(N);
  for (auto &S : Seen)
    S.store(0);
  parallelChunks(N, 8, [&](size_t Begin, size_t End, unsigned) {
    for (size_t I = Begin; I < End; ++I)
      Seen[I].fetch_add(1);
  });
  for (const auto &S : Seen)
    if (S.load() != 1)
      return false;
  return true;
}

TEST(ParallelTest, ConcurrentCallsEachCoverEveryIndex) {
  // Four callers share the executor's helpers; no call may lose or
  // repeat another call's task.
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Callers;
  for (unsigned T = 0; T < 4; ++T)
    Callers.emplace_back([&] {
      for (unsigned Call = 0; Call < 200; ++Call)
        if (!coversEveryIndexOnce(64))
          Failures.fetch_add(1);
    });
  for (std::thread &T : Callers)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
}

TEST(ParallelTest, CallFromInsideATaskCompletes) {
  std::atomic<unsigned> Inner{0};
  parallelChunks(8, 8, [&](size_t, size_t, unsigned) {
    parallelChunks(16, 4, [&](size_t Begin, size_t End, unsigned) {
      Inner.fetch_add(unsigned(End - Begin));
    });
  });
  EXPECT_EQ(Inner.load(), 8u * 16u);
}

TEST(ParallelTest, ThrowReachesOnlyItsOwnCaller) {
  // One caller's calls throw from one chunk while another caller's
  // calls run beside them: only the first sees the exception, and the
  // executor stays usable afterwards.
  std::atomic<unsigned> Thrown{0}, Clean{0};
  std::thread Thrower([&] {
    for (unsigned Call = 0; Call < 100; ++Call) {
      try {
        parallelChunks(8, 8, [](size_t Begin, size_t, unsigned) {
          if (Begin == 3)
            throw std::runtime_error("chunk 3");
        });
      } catch (const std::runtime_error &) {
        Thrown.fetch_add(1);
      }
    }
  });
  std::thread Bystander([&] {
    for (unsigned Call = 0; Call < 100; ++Call) {
      try {
        if (coversEveryIndexOnce(64))
          Clean.fetch_add(1);
      } catch (...) {
        // Leaves Clean short of 100, which the test reports.
      }
    }
  });
  Thrower.join();
  Bystander.join();
  EXPECT_EQ(Thrown.load(), 100u);
  EXPECT_EQ(Clean.load(), 100u);
  EXPECT_TRUE(coversEveryIndexOnce(64)) << "the next call runs every task";
}

TEST(ParallelTest, CallsRunOnAtMostOneThreadPerHardwareThread) {
  // Tasks are not threads: a 64-chunk call runs on the shared helpers
  // and its caller, never on a thread of its own per chunk.
  std::mutex M;
  std::set<std::thread::id> Ran;
  parallelChunks(64, 64, [&](size_t, size_t, unsigned) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> Lock(M);
    Ran.insert(std::this_thread::get_id());
  });
  unsigned Hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(Ran.size(), size_t(Hardware));
}

//===----------------------------------------------------------------------===//
// SharedMutex (the server's program lock)
//===----------------------------------------------------------------------===//

TEST(SharedMutexTest, ReadersShareAndWritersExclude) {
  support::SharedMutex M;
  M.lock_shared();
  std::thread([&] {
    EXPECT_TRUE(M.try_lock_shared()) << "readers share the lock";
    M.unlock_shared();
    EXPECT_FALSE(M.try_lock()) << "a writer waits for the reader";
  }).join();
  M.unlock_shared();

  std::unique_lock<support::SharedMutex> Write(M);
  std::thread([&] {
    EXPECT_FALSE(M.try_lock_shared());
    EXPECT_FALSE(M.try_lock());
  }).join();
  Write.unlock();
  std::shared_lock<support::SharedMutex> Read(M);
  EXPECT_TRUE(Read.owns_lock());
}

TEST(SharedMutexTest, WaitingWriterIsNotOvertaken) {
  // One thread reads, a second blocks in lock(): a third thread's new
  // read must then wait behind the writer instead of joining the
  // reader.  A reader-preferring lock (std::shared_mutex on glibc) lets
  // it in, which is how closed-loop queries starved the editor.
  support::SharedMutex M;
  std::atomic<bool> ReaderIn{false}, ReleaseReader{false}, WriterIn{false};
  std::thread Reader([&] {
    std::shared_lock<support::SharedMutex> Lock(M);
    ReaderIn = true;
    while (!ReleaseReader)
      std::this_thread::yield();
  });
  while (!ReaderIn)
    std::this_thread::yield();
  std::thread Writer([&] {
    std::unique_lock<support::SharedMutex> Lock(M);
    WriterIn = true;
  });

  // The writer takes a moment to queue; until it has, a new read still
  // gets in.  Poll until one is refused, within a bound.
  bool Refused = false;
  auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!Refused && std::chrono::steady_clock::now() < Until) {
    if (M.try_lock_shared()) {
      M.unlock_shared();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } else {
      Refused = true;
    }
  }
  EXPECT_TRUE(Refused) << "new readers kept overtaking the waiting writer";
  EXPECT_FALSE(WriterIn) << "the writer got in while a reader held the lock";

  ReleaseReader = true;
  Reader.join();
  Writer.join();
  EXPECT_TRUE(WriterIn);
}
