//===----------------------------------------------------------------------===//
///
/// \file
/// Production-hardening tests: deadlines and cancellation on the query
/// path, overload shedding, throwing queries, and failure isolation on
/// the commit pipeline (validation gate, worker exceptions, retry,
/// quarantine).
///
/// Fault points are driven through support::FaultInjection — seeded,
/// deterministic, and process-global, so every test clears the
/// registry on both entry and exit.  The TSan CI job runs this binary
/// alongside the service/engine suites.
///
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "ir/Validator.h"
#include "pag/PAGBuilder.h"
#include "service/AnalysisService.h"
#include "support/Deadline.h"
#include "support/FaultInjection.h"

#include "IrEditFuzzer.h"
#include "MiniJavaFuzzer.h"

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <thread>

using namespace dynsum;
using analysis::AnalysisOptions;
using analysis::QueryStatus;
using dynsum::testing::IrEditFuzzer;
using dynsum::testing::sampleVars;
using incremental::CommitOutcome;
using incremental::CommitStats;
using service::AnalysisService;
using service::CommitMode;
using service::ServiceBatchResult;
using service::ServiceOptions;
using support::Deadline;
using support::FaultKind;
using support::FaultSpec;

namespace {

/// Clears the process-global fault registry around every test, pass or
/// fail.
class RobustnessTest : public ::testing::Test {
protected:
  void SetUp() override { support::clearFaults(); }
  void TearDown() override { support::clearFaults(); }
};

std::unique_ptr<ir::Program> fuzzProgram(uint64_t Seed) {
  dynsum::testing::MiniJavaFuzzer Fuzz(Seed);
  frontend::CompileResult R = frontend::compileMiniJava(Fuzz.generate());
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  return std::move(R.Prog);
}

/// Arms a one-site fault.
void arm(const char *Site, FaultKind Kind, uint64_t FireEvery = 1,
         uint64_t MaxFires = UINT64_MAX, uint64_t Param = 0) {
  FaultSpec Spec;
  Spec.Kind = Kind;
  Spec.FireEvery = FireEvery;
  Spec.MaxFires = MaxFires;
  Spec.Param = Param;
  support::armFault(Site, Spec);
}

} // namespace

//===----------------------------------------------------------------------===//
// Deadlines and cancellation
//===----------------------------------------------------------------------===//

/// The acceptance bound: against a fault injecting heavy per-summary
/// latency, a deadline-bound query batch must come back — with partial,
/// sound answers marked Timeout — within 2x its deadline.
TEST_F(RobustnessTest, LatencyPinnedQueriesTimeOutWithinTwiceDeadline) {
  auto Prog = fuzzProgram(7);
  ASSERT_TRUE(Prog);
  std::vector<ir::VarId> Probe = sampleVars(*Prog, 5);
  ASSERT_GT(Probe.size(), 4u);

  ServiceOptions SO;
  SO.Engine.NumThreads = 2;
  AnalysisService S(std::move(Prog), SO);

  // 20ms stall per summary computation: a handful of summaries dwarfs
  // the 100ms deadline many times over — a deadline-blind run would
  // take seconds.
  arm("query.summary", FaultKind::Latency, 1, UINT64_MAX, /*us=*/20000);
  constexpr double kDeadlineSec = 0.100;
  auto Start = std::chrono::steady_clock::now();
  ServiceBatchResult R = S.queryVars(Probe, Deadline::in(kDeadlineSec));
  double Elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  support::clearFaults();

  EXPECT_LT(Elapsed, 2 * kDeadlineSec)
      << "deadline must bound wall clock even when every summary stalls";
  uint64_t TimedOut = 0;
  for (const engine::QueryOutcome &O : R.Outcomes)
    if (O.Status == QueryStatus::Timeout) {
      ++TimedOut;
      EXPECT_TRUE(O.BudgetExceeded)
          << "a timed-out answer is partial and must say so";
    }
  EXPECT_GT(TimedOut, 0u) << "the latency fault must trip the deadline";
  EXPECT_EQ(S.stats().TimedOutQueries, R.Stats.TimedOut);
  EXPECT_GT(R.Stats.TimedOut, 0u);
}

TEST_F(RobustnessTest, CancelTokenAbortsQueries) {
  auto Prog = fuzzProgram(11);
  ASSERT_TRUE(Prog);
  std::vector<ir::VarId> Probe = sampleVars(*Prog, 9);
  AnalysisService S(std::move(Prog), ServiceOptions());

  support::CancelToken Token;
  Token.cancel(); // cancelled before the batch even starts
  ServiceBatchResult R =
      S.queryVars(Probe, Deadline::unlimited().withCancel(Token));
  uint64_t Cancelled = 0;
  for (const engine::QueryOutcome &O : R.Outcomes)
    if (O.Status == QueryStatus::Cancelled)
      ++Cancelled;
  EXPECT_GT(Cancelled, 0u);
  EXPECT_EQ(S.stats().CancelledQueries, R.Stats.Cancelled);
}

/// A generous deadline must not change any answer: same outcomes as
/// the plain overload, bit for bit.
TEST_F(RobustnessTest, GenerousDeadlineIsAnswerNeutral) {
  auto Prog = fuzzProgram(13);
  ASSERT_TRUE(Prog);
  std::vector<ir::VarId> Probe = sampleVars(*Prog, 7);
  ServiceOptions SO;
  SO.Engine.NumThreads = 1;
  AnalysisService S(std::move(Prog), SO);

  ServiceBatchResult Plain = S.queryVars(Probe);
  ServiceBatchResult Bounded = S.queryVars(Probe, Deadline::in(3600.0));
  ASSERT_EQ(Plain.Outcomes.size(), Bounded.Outcomes.size());
  for (size_t I = 0; I < Plain.Outcomes.size(); ++I) {
    EXPECT_EQ(Bounded.Outcomes[I].Status, QueryStatus::Ok);
    if (Plain.Outcomes[I].BudgetExceeded || Bounded.Outcomes[I].BudgetExceeded)
      continue; // partial answers are compared only for completeness
    EXPECT_EQ(Plain.Outcomes[I].AllocSites, Bounded.Outcomes[I].AllocSites)
        << "probe " << I;
  }
}

//===----------------------------------------------------------------------===//
// Overload shedding
//===----------------------------------------------------------------------===//

/// Above the batch watermark the service sheds: Overloaded status,
/// EMPTY alloc sites (never partial garbage), and automatic resume
/// once the backlog drains.
TEST_F(RobustnessTest, ShedQueriesReturnOverloadedAndNeverGarbage) {
  auto Prog = fuzzProgram(17);
  auto TwinProg = fuzzProgram(17);
  ASSERT_TRUE(Prog && TwinProg);
  std::vector<ir::VarId> Probe = sampleVars(*Prog, 6);

  ServiceOptions SO;
  SO.Engine.NumThreads = 1;
  SO.Overload.MaxActiveBatches = 1;
  AnalysisService S(std::move(Prog), SO);

  // Pin one batch in flight with a per-summary stall, then hammer the
  // service from this thread until admission control trips.
  arm("query.summary", FaultKind::Latency, 1, UINT64_MAX, /*us=*/3000);
  std::thread Pinned([&] { S.queryVars(Probe); });
  // Let the pinned batch enter the service before hammering it: if the
  // first hammer batch wins the race instead, the PINNED batch is the
  // one shed, it drains instantly, and nothing else ever overlaps.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  uint64_t Shed = 0;
  for (unsigned Try = 0; Try < 200 && Shed == 0; ++Try) {
    ServiceBatchResult R = S.queryVars(Probe);
    for (const engine::QueryOutcome &O : R.Outcomes) {
      if (O.Status != QueryStatus::Overloaded)
        continue;
      ++Shed;
      EXPECT_TRUE(O.AllocSites.empty())
          << "shed work must not leak partial garbage";
      EXPECT_TRUE(O.BudgetExceeded);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Pinned.join();
  support::clearFaults();
  EXPECT_GT(Shed, 0u) << "a pinned batch above the watermark must shed";
  EXPECT_GT(S.stats().ShedQueries, 0u);
  EXPECT_GT(S.stats().ShedBatches, 0u);

  // Backlog drained: admission reopens and answers match a never-
  // overloaded twin exactly.
  AnalysisService Twin(std::move(TwinProg), ServiceOptions());
  ServiceBatchResult After = S.queryVars(Probe);
  ServiceBatchResult Ref = Twin.queryVars(Probe);
  for (size_t I = 0; I < Probe.size(); ++I) {
    EXPECT_EQ(After.Outcomes[I].Status, QueryStatus::Ok);
    if (After.Outcomes[I].BudgetExceeded || Ref.Outcomes[I].BudgetExceeded)
      continue;
    EXPECT_EQ(After.Outcomes[I].AllocSites, Ref.Outcomes[I].AllocSites)
        << "probe " << I;
  }
  EXPECT_FALSE(S.stats().Shedding);
}

/// A query that throws reaches the caller as an exception at every
/// engine thread count: a worker's throw must not abort the process,
/// and the failed batch must leave admission control open — with a
/// one-batch watermark, the next batch is admitted and answered
/// exactly like a never-faulted twin's.
TEST_F(RobustnessTest, ThrowingQueryReachesCallerAndAdmissionRecovers) {
  for (unsigned Threads : {1u, 2u}) {
    SCOPED_TRACE("engine threads " + std::to_string(Threads));
    auto Prog = fuzzProgram(37);
    auto TwinProg = fuzzProgram(37);
    ASSERT_TRUE(Prog && TwinProg);
    std::vector<ir::VarId> Probe = sampleVars(*Prog, 6);
    ASSERT_GT(Probe.size(), 1u);

    ServiceOptions SO;
    SO.Engine.NumThreads = Threads;
    SO.Overload.MaxActiveBatches = 1;
    AnalysisService S(std::move(Prog), SO);

    arm("query.summary", FaultKind::Throw, 1, /*MaxFires=*/1);
    EXPECT_THROW(S.queryVars(Probe), support::FaultInjectedError);
    EXPECT_EQ(support::faultFires("query.summary"), 1u);
    support::clearFaults();

    ServiceBatchResult After = S.queryVars(Probe);
    AnalysisService Twin(std::move(TwinProg), ServiceOptions());
    ServiceBatchResult Ref = Twin.queryVars(Probe);
    ASSERT_EQ(After.Outcomes.size(), Probe.size());
    for (size_t I = 0; I < Probe.size(); ++I) {
      EXPECT_EQ(After.Outcomes[I].Status, QueryStatus::Ok) << "probe " << I;
      if (After.Outcomes[I].BudgetExceeded || Ref.Outcomes[I].BudgetExceeded)
        continue;
      EXPECT_EQ(After.Outcomes[I].AllocSites, Ref.Outcomes[I].AllocSites)
          << "probe " << I;
    }
    EXPECT_EQ(S.stats().ShedBatches, 0u);
    EXPECT_FALSE(S.stats().Shedding);
  }
}

/// Background commits over the backlog watermark are shed with an
/// explicit outcome; the edits themselves are never lost — the pending
/// commit covers them.
TEST_F(RobustnessTest, CommitBacklogWatermarkShedsRequests) {
  auto Prog = fuzzProgram(19);
  ASSERT_TRUE(Prog);
  ServiceOptions SO;
  SO.Overload.MaxCommitBacklog = 1;
  AnalysisService S(std::move(Prog), SO);

  // Slow every commit so requests pile onto the pending slot.
  arm("commit.snapshot", FaultKind::Latency, 1, UINT64_MAX, /*us=*/20000);
  IrEditFuzzer Edits(23);
  uint64_t ShedSeen = 0;
  std::vector<service::CommitTicket> Tickets;
  for (unsigned I = 0; I < 24; ++I) {
    S.editProgram([&](ir::Program &Q) {
      Edits.apply(Q, 2);
      return std::vector<ir::MethodId>{};
    });
    Tickets.push_back(S.submitCommit({CommitMode::Delta, true}));
  }
  for (service::CommitTicket &T : Tickets)
    if (T.wait().Outcome == CommitOutcome::Shed)
      ++ShedSeen;
  S.waitForCommits();
  support::clearFaults();

  EXPECT_GT(ShedSeen, 0u) << "backlog over watermark must shed requests";
  EXPECT_EQ(S.stats().CommitsShed, ShedSeen);
  EXPECT_FALSE(S.dirty()) << "shedding a REQUEST must never lose EDITS";
}

//===----------------------------------------------------------------------===//
// Commit failure isolation
//===----------------------------------------------------------------------===//

/// A commit whose build pipeline throws leaves the world exactly as it
/// was: same generation, same answers, edits still buffered; once the
/// fault passes the same edits commit cleanly.
TEST_F(RobustnessTest, FailedCommitLeavesGenerationUntouched) {
  auto Prog = fuzzProgram(29);
  auto RefProg = fuzzProgram(29);
  ASSERT_TRUE(Prog && RefProg);
  std::vector<ir::VarId> Probe = sampleVars(*Prog, 8);
  ServiceOptions SO;
  SO.Engine.NumThreads = 1;
  AnalysisService S(std::move(Prog), SO);

  ServiceBatchResult Before = S.queryVars(Probe);
  uint64_t Gen0 = S.generation();

  IrEditFuzzer Edits(31), RefEdits(31);
  S.editProgram([&](ir::Program &Q) {
    Edits.apply(Q, 10);
    return std::vector<ir::MethodId>{};
  });
  RefEdits.apply(*RefProg, 10);

  arm("commit.snapshot", FaultKind::Throw);
  CommitStats Failed = S.submitCommit({CommitMode::Delta, false}).wait();
  EXPECT_EQ(Failed.Outcome, CommitOutcome::BuildFailed);
  EXPECT_NE(Failed.Error.find("injected fault"), std::string::npos)
      << Failed.Error;
  EXPECT_EQ(S.generation(), Gen0) << "a failed commit must not publish";
  EXPECT_TRUE(S.dirty()) << "a failed commit must not eat the edits";
  EXPECT_EQ(S.stats().CommitFailures, 1u);

  // The surviving generation still answers, identically to before.
  ServiceBatchResult During = S.queryVars(Probe);
  for (size_t I = 0; I < Probe.size(); ++I) {
    if (During.Outcomes[I].BudgetExceeded || Before.Outcomes[I].BudgetExceeded)
      continue;
    EXPECT_EQ(During.Outcomes[I].AllocSites, Before.Outcomes[I].AllocSites);
  }

  // Fault gone: the same buffered edits commit and match a cold build
  // of the same edited program.
  support::clearFaults();
  CommitStats Fixed = S.submitCommit({CommitMode::Delta, false}).wait();
  EXPECT_EQ(Fixed.Outcome, CommitOutcome::Committed);
  EXPECT_FALSE(S.dirty());
  pag::BuiltPAG Cold = pag::buildPAG(*RefProg);
  analysis::DynSumAnalysis ColdA(*Cold.Graph, AnalysisOptions());
  ServiceBatchResult After = S.queryVars(Probe);
  for (size_t I = 0; I < Probe.size(); ++I) {
    analysis::QueryResult CR = ColdA.query(Cold.Graph->nodeOfVar(Probe[I]));
    if (After.Outcomes[I].BudgetExceeded || CR.BudgetExceeded)
      continue;
    EXPECT_EQ(After.Outcomes[I].AllocSites, CR.allocSites()) << "probe " << I;
  }
}

/// An exception thrown inside a SHARDED lowering worker surfaces as a
/// BuildFailed outcome on the requesting thread — not std::terminate —
/// at every commit thread count.
TEST_F(RobustnessTest, LoweringWorkerExceptionIsContained) {
  for (unsigned Threads : {1u, 4u}) {
    support::clearFaults();
    auto Prog = fuzzProgram(37);
    ASSERT_TRUE(Prog);
    ServiceOptions SO;
    SO.Commit = Threads;
    AnalysisService S(std::move(Prog), SO);
    uint64_t Gen0 = S.generation();

    IrEditFuzzer Edits(41);
    S.editProgram([&](ir::Program &Q) {
      Edits.apply(Q, 12);
      return std::vector<ir::MethodId>{};
    });
    arm("commit.lower", FaultKind::Throw);
    CommitStats Failed = S.submitCommit({CommitMode::Delta, false}).wait();
    EXPECT_EQ(Failed.Outcome, CommitOutcome::BuildFailed)
        << "threads " << Threads;
    EXPECT_EQ(S.generation(), Gen0);

    support::clearFaults();
    CommitStats Fixed = S.submitCommit({CommitMode::Delta, false}).wait();
    EXPECT_EQ(Fixed.Outcome, CommitOutcome::Committed)
        << "threads " << Threads;
  }
}

/// Simulated allocation failure is just another contained exception.
TEST_F(RobustnessTest, AllocationFailureIsContained) {
  auto Prog = fuzzProgram(43);
  ASSERT_TRUE(Prog);
  AnalysisService S(std::move(Prog), ServiceOptions());
  IrEditFuzzer Edits(47);
  S.editProgram([&](ir::Program &Q) {
    Edits.apply(Q, 6);
    return std::vector<ir::MethodId>{};
  });
  arm("commit.snapshot", FaultKind::BadAlloc);
  CommitStats Failed = S.submitCommit({CommitMode::Delta, false}).wait();
  EXPECT_EQ(Failed.Outcome, CommitOutcome::BuildFailed);
  support::clearFaults();
  EXPECT_EQ(S.submitCommit({CommitMode::Delta, false}).wait().Outcome,
            CommitOutcome::Committed);
}

/// The pre-commit validator gate rejects structurally bad edits before
/// any pipeline work, and the rejection names the problem.
TEST_F(RobustnessTest, ValidationGateRejectsBadEditsBeforeBuilding) {
  auto Prog = fuzzProgram(53);
  ASSERT_TRUE(Prog);
  AnalysisService S(std::move(Prog), ServiceOptions());
  uint64_t Gen0 = S.generation();

  // An assign whose destination variable does not exist.
  ir::MethodId Victim = 0;
  S.editProgram([&](ir::Program &Q) {
    ir::Statement Bad;
    Bad.Kind = ir::StmtKind::Assign;
    Bad.Dst = ir::VarId(Q.variables().size() + 1000);
    Bad.Src = Bad.Dst;
    Q.addStatement(Victim, std::move(Bad));
    return std::vector<ir::MethodId>{};
  });

  CommitStats Rejected = S.submitCommit({CommitMode::Delta, false}).wait();
  EXPECT_EQ(Rejected.Outcome, CommitOutcome::ValidationRejected);
  EXPECT_NE(Rejected.Error.find("out of range"), std::string::npos)
      << Rejected.Error;
  EXPECT_EQ(S.generation(), Gen0);
  EXPECT_EQ(S.stats().CommitValidationRejects, 1u);

  // Repair the edit; the gate reopens.
  size_t NumVars = S.program().variables().size();
  S.removeStatements(Victim, [NumVars](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Assign && St.Dst >= NumVars;
  });
  EXPECT_EQ(S.submitCommit({CommitMode::Delta, false}).wait().Outcome,
            CommitOutcome::Committed);
}

/// A transient fault on the background committer is retried with
/// backoff and succeeds without the caller doing anything.
TEST_F(RobustnessTest, BackgroundCommitterRetriesTransientFaults) {
  auto Prog = fuzzProgram(59);
  ASSERT_TRUE(Prog);
  ServiceOptions SO;
  SO.BackgroundCommitRetries = 3;
  AnalysisService S(std::move(Prog), SO);

  IrEditFuzzer Edits(61);
  S.editProgram([&](ir::Program &Q) {
    Edits.apply(Q, 8);
    return std::vector<ir::MethodId>{};
  });
  arm("commit.snapshot", FaultKind::Throw, 1, /*MaxFires=*/2);
  CommitStats Stats = S.submitCommit({CommitMode::Delta, true}).wait();
  EXPECT_EQ(Stats.Outcome, CommitOutcome::Committed)
      << "two transient faults, three retries: must converge";
  EXPECT_GE(S.stats().CommitRetries, 2u);
  EXPECT_FALSE(S.dirty());
}

/// Edits that keep failing are quarantined: further background
/// requests fail fast (no rebuild attempts) until the edit set
/// changes, at which point commits resume.
TEST_F(RobustnessTest, PoisonEditsQuarantineUntilChanged) {
  auto Prog = fuzzProgram(67);
  ASSERT_TRUE(Prog);
  AnalysisService S(std::move(Prog), ServiceOptions());

  ir::MethodId Victim = 1;
  S.editProgram([&](ir::Program &Q) {
    ir::Statement Bad;
    Bad.Kind = ir::StmtKind::Assign;
    Bad.Dst = ir::VarId(Q.variables().size() + 7);
    Bad.Src = Bad.Dst;
    Q.addStatement(Victim, std::move(Bad));
    return std::vector<ir::MethodId>{};
  });

  // Deterministic failure (validation) arms the quarantine...
  EXPECT_EQ(S.submitCommit({CommitMode::Delta, true}).wait().Outcome,
            CommitOutcome::ValidationRejected);
  EXPECT_TRUE(S.stats().Quarantined);
  // ...and the next request on the SAME edits fails fast.
  EXPECT_EQ(S.submitCommit({CommitMode::Delta, true}).wait().Outcome,
            CommitOutcome::Quarantined);
  EXPECT_GE(S.stats().CommitsQuarantined, 1u);

  // Changing the edit set lifts it.
  size_t NumVars = S.program().variables().size();
  S.removeStatements(Victim, [NumVars](const ir::Statement &St) {
    return St.Kind == ir::StmtKind::Assign && St.Dst >= NumVars;
  });
  EXPECT_EQ(S.submitCommit({CommitMode::Delta, true}).wait().Outcome,
            CommitOutcome::Committed);
  EXPECT_FALSE(S.stats().Quarantined);
  EXPECT_FALSE(S.dirty());
}
