//===----------------------------------------------------------------------===//
///
/// \file
/// cold-start: one client opens a tenant from program text, answers the
/// pool cold, drains to a snapshot, and restarts from it twice.
///
/// Each cycle:
///   1. open from text and answer a first 16-spec line (cold.first_answer);
///   2. answer the whole pool once (cold.qps);
///   3. drain, which saves the snapshot;
///   4. restart, answer the first line again (restart.first_answer), drain;
///   5. restart a second time and answer the pool (restart.qps).
/// A drain saves only the hot tier, so after the second restart most of
/// the pool's summaries are recomputed; step 5 is where a snapshot that
/// keeps unpromoted disk records would show.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/TieredStore.h"
#include "ir/Parser.h"
#include "pag/PAGBuilder.h"

#include <cstdio>
#include <sys/stat.h>
#include <unistd.h>

namespace perfbench {
namespace {

/// What one cycle measured and answered.
struct Cycle {
  double ColdFirstMs = 0.0, RestartFirstMs = 0.0;
  double ColdPassS = 0.0, RestartPassS = 0.0;
  /// Send-to-reply time of every pool-pass line.
  std::vector<double> LineMs;
  std::vector<double> DrainMs;
  /// Pool-pass replies (line i answers Lines[i]) and first-line replies.
  std::vector<std::string> ColdPass, RestartPass, FirstLines;
  /// Store counters of the second restart's pool pass (in-process only).
  service::ServiceStats RestartBefore, RestartAfter;
  double SnapshotMb = 0.0;
  uint64_t TransportFailures = 0;
};

class ColdStart {
public:
  ColdStart(const Options &O, Result &R) : O(O), R(R) {}

  void run();

private:
  /// Opens the tenant from text and answers the first line; the whole
  /// interval is one request.
  std::unique_ptr<Session> openAndAnswer(Backend &B, const char *Request,
                                         SpanLog *Log, double &Ms,
                                         std::string &Reply, Cycle &C);
  /// Sends every pool line; returns the replies, adds the pass time.
  std::vector<std::string> passPool(Session &S, SpanLog *Log, double &Seconds,
                                    Cycle &C);
  void drain(Backend &B, std::unique_ptr<Session> &S, Cycle &C);
  /// One cycle over fresh backends (\p InProcess: the replay).
  Cycle runCycle(bool InProcess, SpanLog *Log);
  /// Cycles until \p Seconds have passed and at least \p MinCycles ran.
  std::vector<Cycle> runCycles(bool InProcess, SpanLog *Log, double Seconds,
                               size_t MinCycles);
  void check(const Cycle &C, ReplyCounts &Cold, ReplyCounts &Restart);

  const Options &O;
  Result &R;
  double Scale = 1.0;
  analysis::AnalysisOptions AO = analysisOptions();
  std::string Text;
  std::string SnapshotDir;
  std::unique_ptr<ir::Program> Copy;
  std::vector<PoolEntry> Pool;
  std::vector<uint32_t> Active;
  std::vector<std::vector<uint32_t>> Lines;
  /// The first line: the pool's 16 top-ranked specs, the same for every
  /// seed, so both first-answer timings measure the same work.
  std::vector<uint32_t> FirstIdx;
  std::string FirstLine;
  /// The copy's PAG, for timing a standalone disk-tier attach.
  pag::BuiltPAG CopyGraph;
};

std::unique_ptr<Session> ColdStart::openAndAnswer(Backend &B,
                                                  const char *Request,
                                                  SpanLog *Log, double &Ms,
                                                  std::string &Reply,
                                                  Cycle &C) {
  if (Log)
    Log->beginRequest();
  Clock::time_point T0 = Clock::now();
  std::unique_ptr<Session> S;
  {
    Scope Req(Log, Request);
    std::string Error;
    if (!B.open(Text, SnapshotDir, Error)) {
      R.fail("open failed: " + Error);
      return nullptr;
    }
    S = B.connect(Log);
    if (!S) {
      R.fail("refused connection");
      return nullptr;
    }
    bool Ok = false;
    Reply = S->request(FirstLine, Ok);
    if (!Ok)
      ++C.TransportFailures;
  }
  Ms = msSince(T0);
  return S;
}

std::vector<std::string> ColdStart::passPool(Session &S, SpanLog *Log,
                                             double &Seconds, Cycle &C) {
  std::vector<std::string> Replies;
  Clock::time_point T0 = Clock::now();
  for (const std::vector<uint32_t> &Line : Lines) {
    if (Log)
      Log->beginRequest();
    Clock::time_point Sent = Clock::now();
    bool Ok = false;
    {
      Scope Req(Log, "request.query");
      Replies.push_back(S.request(queryLine(Pool, Line), Ok));
    }
    C.LineMs.push_back(msSince(Sent));
    if (!Ok) {
      ++C.TransportFailures;
      break;
    }
  }
  Seconds += std::chrono::duration<double>(Clock::now() - T0).count();
  return Replies;
}

void ColdStart::drain(Backend &B, std::unique_ptr<Session> &S, Cycle &C) {
  S.reset();
  Clock::time_point T0 = Clock::now();
  B.drain();
  C.DrainMs.push_back(msSince(T0));
}

Cycle ColdStart::runCycle(bool InProcess, SpanLog *Log) {
  // The cycle's tenants start their threads on the client's CPU.
  pinNextCpu();
  Cycle C;
  std::string Snapshot = SnapshotDir + "/bench.dsum";
  std::remove(Snapshot.c_str());
  auto Make = [&] {
    std::unique_ptr<Backend> B =
        InProcess ? makeInProcessBackend() : makeSocketBackend();
    B->setLog(Log);
    return B;
  };

  std::string Reply;
  std::unique_ptr<Backend> B = Make();
  std::unique_ptr<Session> S =
      openAndAnswer(*B, "request.cold_open", Log, C.ColdFirstMs, Reply, C);
  if (!S)
    return C;
  C.FirstLines.push_back(Reply);
  C.ColdPass = passPool(*S, Log, C.ColdPassS, C);
  drain(*B, S, C);
  struct stat St;
  if (::stat(Snapshot.c_str(), &St) == 0)
    C.SnapshotMb = double(St.st_size) / 1e6;
  if (Log && Log->enabled()) {
    // The restart's open attaches this file inside the service; time the
    // same attach on a standalone store over an identical graph.
    Scope A(Log, "store.attach");
    engine::SharedSummaryStore Store;
    Store.attachDiskTier(Snapshot, *CopyGraph.Graph);
  }

  B = Make();
  S = openAndAnswer(*B, "request.restart_open", Log, C.RestartFirstMs, Reply,
                    C);
  if (!S)
    return C;
  C.FirstLines.push_back(Reply);
  drain(*B, S, C);

  B = Make();
  std::string Error;
  if (!B->open(Text, SnapshotDir, Error) || !(S = B->connect(Log))) {
    R.fail("open failed: " + Error);
    return C;
  }
  if (B->service())
    C.RestartBefore = B->service()->stats();
  C.RestartPass = passPool(*S, Log, C.RestartPassS, C);
  if (B->service())
    C.RestartAfter = B->service()->stats();
  drain(*B, S, C);
  return C;
}

std::vector<Cycle> ColdStart::runCycles(bool InProcess, SpanLog *Log,
                                        double Seconds, size_t MinCycles) {
  std::vector<Cycle> Cycles;
  Clock::time_point T0 = Clock::now();
  do
    Cycles.push_back(runCycle(InProcess, Log));
  while (Cycles.size() < MinCycles ||
         std::chrono::duration<double>(Clock::now() - T0).count() < Seconds);
  return Cycles;
}

void ColdStart::check(const Cycle &C, ReplyCounts &Cold,
                      ReplyCounts &Restart) {
  ReplyCounts Ignored;
  R.Attempted += C.FirstLines.size() + C.ColdPass.size() +
                 C.RestartPass.size() + C.TransportFailures;
  R.fail("transport", C.TransportFailures);
  for (const std::string &Reply : C.FirstLines)
    checkReply(Reply, FirstIdx, Pool, nullptr, R, Ignored);
  for (size_t I = 0; I < C.ColdPass.size(); ++I)
    checkReply(C.ColdPass[I], Lines[I], Pool, nullptr, R, Cold);
  for (size_t I = 0; I < C.RestartPass.size(); ++I)
    checkReply(C.RestartPass[I], Lines[I], Pool, nullptr, R, Restart);
}

void ColdStart::run() {
  // Scale 0.1, not the serve workloads' 0.5: a cycle opens three tenants
  // and answers the pool twice.  A pass varies ~15% from one cycle to the
  // next at any scale, so the medians need many cycles: at scale 0.5 a
  // 10 s window held five and restart.qps moved 26% between runs; at 0.1
  // a cycle takes ~0.3 s (4-vCPU Xeon VM).
  Scale = O.Smoke ? 0.02 : 0.1;
  unsigned SetupRepeats = O.Smoke ? 1 : 5;
  SnapshotDir = O.WorkDir + "/cold-" + std::to_string(::getpid());
  ::mkdir(SnapshotDir.c_str(), 0755);

  // The benchmark's own copy: input selection and the NOREFINE reference,
  // which is computed after the timed cycles.
  SpanLog RefLog(O.Trace, 100);
  Text = generateProgramText(Scale);
  Copy = ir::parseProgram(Text).Prog;
  Pool = buildPool(*Copy);
  if (O.Trace) {
    Scope S(&RefLog, "pag.build");
    CopyGraph = pag::buildPAG(*Copy);
  }

  // The seed orders the client's pool passes.
  Active = ranked(Pool.size());
  std::vector<uint32_t> Order = Active;
  Rng Shuffle(O.Seed * 0x9E3779B97F4A7C15ULL + 1);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Shuffle.nextBelow(I)]);

  // Set-up: generate the text, then send a throwaway tenant what a cycle's
  // cold open sends (the first line, then the pool in the seed's order)
  // and drop every spec that ran out of budget.  Each repeat replays the
  // pool left by the one before, so a drop that changed what later
  // queries find in the store is itself checked.
  std::vector<double> SetupS;
  for (unsigned I = 0; I < SetupRepeats && !Active.empty(); ++I) {
    pinNextCpu();
    Clock::time_point T0 = Clock::now();
    Text = generateProgramText(Scale);
    std::vector<std::vector<uint32_t>> Sent = linesOf(Order, kPerLine);
    Sent.insert(Sent.begin(), linesOf(Active, kPerLine).front());
    Prepared P = prepareTenant(Text, Pool, Sent, /*InProcess=*/true, nullptr, R);
    if (!P.B)
      return;
    P.B->drain();
    Active = without(Active, P.Bound);
    Order = without(Order, P.Bound);
    SetupS.push_back(std::chrono::duration<double>(Clock::now() - T0).count());
  }
  if (Active.empty()) {
    R.fail("empty pool");
    return;
  }
  Lines = linesOf(Order, kPerLine);
  FirstIdx = linesOf(Active, kPerLine).front();
  FirstLine = queryLine(Pool, FirstIdx);

  describeProgram(R, Scale, *Copy, Text.size());
  R.prov("budget_bound_excluded", std::to_string(Pool.size() - Active.size()));
  R.prov("clients", "1 (a fixed first line of 16 specs, then the pool in "
                    "seeded order, 16 specs a line)");
  R.prov("query_threads", "1");
  R.prov("commit_threads", "1");
  R.prov("editor_tick_ms", "none");

  auto AttachReference = [&] {
    attachReference(*Copy, Pool, AO, &RefLog);
    size_t Comparable = 0;
    for (uint32_t I : Active)
      Comparable += Pool[I].Comparable;
    R.prov("pool", std::to_string(Active.size()) + " specs (" +
                       std::to_string(Comparable) +
                       " with a NOREFINE answer)");
  };

  ReplyCounts Cold, Restart;
  if (!O.Trace) {
    std::vector<Cycle> Cycles = runCycles(false, nullptr, O.Seconds, 1);
    double PeakMb = peakRssMb();
    AttachReference();
    std::vector<double> ColdFirst, RestartFirst, ColdQps, RestartQps, Drain;
    for (const Cycle &C : Cycles) {
      check(C, Cold, Restart);
      ColdFirst.push_back(C.ColdFirstMs);
      RestartFirst.push_back(C.RestartFirstMs);
      ColdQps.push_back(double(Active.size()) / C.ColdPassS);
      RestartQps.push_back(double(Active.size()) / C.RestartPassS);
      Drain.insert(Drain.end(), C.DrainMs.begin(), C.DrainMs.end());
    }
    size_t N = Cycles.size();
    R.add("setup_s", median(SetupS), "s", SetupS.size());
    R.add("peak_rss_mb", PeakMb, "MB", 1);
    R.timing("cold.first_answer_ms", ColdFirst);
    R.add("cold.qps", median(ColdQps), "1/s", N,
          std::to_string(Active.size()) + " queries per pass");
    R.timing("restart.first_answer_ms", RestartFirst);
    R.add("restart.qps", median(RestartQps), "1/s", N,
          std::to_string(Active.size()) + " queries per pass");
    R.timing("drain_ms", Drain,
             "snapshot save, not gated: fsync adds disk noise");
    // Single-threaded and seeded: these repeat exactly for a seed.
    R.Counts.push_back({"cold_pass.steps", Cold.Steps / N});
    R.Counts.push_back({"cold_pass.summaries_computed", Cold.Computed / N});
    R.Counts.push_back({"restart_pass.summaries_computed", Restart.Computed / N});
    R.Counts.push_back({"restart_pass.shared_hits", Restart.SharedHits / N});
    return;
  }

  // Traced run: the cycle over the socket (untraced, for the wire share),
  // then replayed in-process without and with spans.
  double Phase = O.Seconds / 3.0;
  std::vector<Cycle> Socket = runCycles(false, nullptr, Phase, 2);
  std::vector<Cycle> Bare = runCycles(true, nullptr, Phase, 2);
  SpanLog Log(true, 1);
  std::vector<Cycle> Traced = runCycles(true, &Log, Phase, 2);
  AttachReference();
  ReplyCounts Ignored;
  for (const Cycle &C : Socket)
    check(C, Ignored, Ignored);
  for (const Cycle &C : Bare)
    check(C, Ignored, Ignored);
  for (const Cycle &C : Traced)
    check(C, Cold, Restart);

  std::vector<const SpanLog *> Logs = {&RefLog, &Log};
  SpanSummary Sum = summarize(Logs);
  writeSpans(O.WorkDir + "/spans-" + O.Workload + "-" +
                 std::to_string(O.Seed) + ".jsonl",
             Logs);
  auto Layer = [&](const char *Name, const char *Span) {
    R.layer(Name, median(Sum.SelfMs[Span]), "ms", Sum.SelfMs[Span].size());
  };
  Layer("ir.parse_ms", "ir.parse");
  Layer("ir.validate_ms", "ir.validate");
  Layer("pag.build_ms", "pag.build");
  Layer("service.open_ms", "service.open");
  Layer("server.resolve_ms", "server.resolve");
  Layer("server.reply_ms", "server.reply");
  Layer("service.query_ms", "service.query");
  Layer("engine.batch_ms", "engine.batch");
  Layer("store.attach_ms", "store.attach");
  Layer("store.snapshot_save_ms", "store.snapshot_save");

  // Wire share and tracing overhead on the pool lines, hundreds a cycle;
  // coverage on the cold open, the request cold.first_answer_ms times.
  auto LineP50 = [](const std::vector<Cycle> &Cs) {
    std::vector<double> V;
    for (const Cycle &C : Cs)
      V.insert(V.end(), C.LineMs.begin(), C.LineMs.end());
    return median(V);
  };
  const char *Query = "request.query";
  double TracedP50 = median(Sum.TotalMs[Query]);
  R.layer("server.wire_ms", LineP50(Socket) - TracedP50, "ms",
          Sum.TotalMs[Query].size());
  double BareP50 = LineP50(Bare);
  R.layer("trace.overhead_pct", 100.0 * (TracedP50 - BareP50) / BareP50, "%",
          Sum.TotalMs[Query].size());
  const char *Open = "request.cold_open";
  R.layer("trace.coverage_pct", 100.0 * median(Sum.Coverage[Open]), "%",
          Sum.Coverage[Open].size());

  uint64_t Answers = std::max<uint64_t>(1, Cold.Answers);
  R.layer("dynsum.steps_per_query", double(Cold.Steps) / double(Answers),
          "count", Cold.Answers);
  R.layer("engine.shared_hits_per_query",
          double(Cold.SharedHits) / double(Answers), "count", Cold.Answers);
  R.layer("engine.computed_per_query", double(Cold.Computed) / double(Answers),
          "count", Cold.Answers);
  std::vector<double> SnapshotMb, DiskHit, Promoted, HitRatio, Size, Contended;
  for (const Cycle &C : Traced) {
    const engine::StoreCounters &A = C.RestartAfter.Store,
                                &B = C.RestartBefore.Store;
    SnapshotMb.push_back(C.SnapshotMb);
    uint64_t Probes = A.DiskProbes - B.DiskProbes;
    DiskHit.push_back(Probes ? double(A.DiskHits - B.DiskHits) / double(Probes)
                             : 0.0);
    Promoted.push_back(double(A.Promoted - B.Promoted));
    uint64_t Fetches = A.Fetches - B.Fetches;
    HitRatio.push_back(Fetches ? double(A.Hits - B.Hits) / double(Fetches)
                               : 0.0);
    Size.push_back(double(C.RestartAfter.StoreSize));
    Contended.push_back(double(A.LockContended - B.LockContended));
  }
  size_t N = Traced.size();
  R.layer("store.snapshot_mb", median(SnapshotMb), "MB", N);
  R.layer("store.disk_hit_ratio", median(DiskHit), "ratio", N);
  R.layer("store.promoted", median(Promoted), "count", N);
  R.layer("store.hit_ratio", median(HitRatio), "ratio", N);
  R.layer("store.size", median(Size), "count", N);
  R.layer("store.lock_contended", median(Contended), "count", N);
}

} // namespace

void runColdStart(const Options &O, Result &R) {
  ColdStart(O, R).run();
  std::string Dir = O.WorkDir + "/cold-" + std::to_string(::getpid());
  std::remove((Dir + "/bench.dsum").c_str());
  ::rmdir(Dir.c_str());
}

} // namespace perfbench
