//===----------------------------------------------------------------------===//
///
/// \file
/// serve-read and serve-edit: closed-loop readers, and on serve-edit an
/// editor on a fixed tick, against one tenant warmed in set-up.
///
/// Readers are IDE/JIT-style callers that wait for each reply (a closed
/// loop): each sends query lines of 16 specs, drawn Zipf(1) by a seeded
/// stream over the pool's fixed ranking.  The editor is an open loop:
/// cycle k is due at start + k * 250 ms and is timed from that due time,
/// so a stall that delays later cycles is charged to them.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Parser.h"

#include <algorithm>
#include <thread>

namespace perfbench {
namespace {

constexpr double kTickMs = 250.0;
/// The editor edits methods owning one of this many hottest pool specs.
constexpr size_t kEditTargets = 32;

struct Config {
  double Scale = 1.0;
  unsigned Readers = 3;
  unsigned SetupRepeats = 3;
};

/// A variable the editor redirects: `alloc` a fresh local of its class in
/// its method, then `assign` the local to it.
struct EditTarget {
  ir::MethodId Method = ir::kNone;
  ir::VarId Var = ir::kNone;
  ir::TypeId Type = ir::kNone;
  std::string MethodSpec, VarName, ClassName;
};

/// The editor's schedule: a seeded permutation of \p N targets, repeated,
/// so every seed edits the same targets about equally often.
std::vector<size_t> editSchedule(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  Rng R(Seed * 104729 + 17);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[R.nextBelow(I)]);
  return Order;
}

/// One editor cycle: its target, the fresh local, the four replies.
struct EditCycle {
  const EditTarget *Target = nullptr;
  std::string NewVar;
  std::vector<std::string> Replies;
  bool TransportOk = true;
};

/// What one timed window produced.
struct Window {
  double Seconds = 0.0;
  std::vector<double> QueryMs;
  /// Answers completed in each whole second of the window.
  std::vector<double> AnswersPerSecond;
  std::vector<std::vector<uint32_t>> Lines;
  std::vector<std::string> Replies;
  uint64_t TransportFailures = 0;
  std::vector<double> EditAnswerMs, LateMs;
  std::vector<EditCycle> Edits;
  std::vector<std::unique_ptr<SpanLog>> Logs;
};

/// Set-up: generate the program text, then open and warm the tenant.
Prepared prepare(const Config &C,
                 const std::vector<PoolEntry> &Pool, bool InProcess,
                 SpanLog *SetupLog, Result &R) {
  Clock::time_point T0 = Clock::now();
  std::string Text = generateProgramText(C.Scale);
  Prepared P = prepareTenant(Text, Pool, linesOf(ranked(Pool.size()), kPerLine),
                             InProcess, SetupLog, R);
  P.SetupSeconds = std::chrono::duration<double>(Clock::now() - T0).count();
  return P;
}

/// The editor's targets: the hottest pool specs whose variable has a
/// class type (so `alloc` can create a fresh object of it).
std::vector<EditTarget> editTargets(const ir::Program &P,
                                    const std::vector<PoolEntry> &Pool,
                                    const std::vector<uint32_t> &Active) {
  std::vector<EditTarget> Out;
  for (uint32_t I : Active) {
    if (Out.size() == kEditTargets)
      break;
    const ir::Variable &V = P.variable(Pool[I].Var);
    if (V.DeclaredType == ir::kNone || V.DeclaredType >= P.classes().size())
      continue;
    EditTarget T;
    T.Method = V.Owner;
    T.Var = V.Id;
    T.Type = V.DeclaredType;
    size_t Dot = Pool[I].Spec.rfind('.');
    T.MethodSpec = Pool[I].Spec.substr(0, Dot);
    T.VarName = Pool[I].Spec.substr(Dot + 1);
    T.ClassName = std::string(P.names().text(P.classOf(T.Type).Name));
    Out.push_back(std::move(T));
  }
  return Out;
}

/// The allocation-site description a cycle's `alloc` creates.
std::string newSite(const EditCycle &E) {
  return E.NewVar + "@serve:" + E.Target->ClassName;
}

/// Runs the readers (and the editor when \p Targets is set) for
/// \p Seconds.  Each thread owns a session and, when \p Spans, a log.
Window runWindow(Backend &B, const Options &O, const Config &C,
                 const std::vector<PoolEntry> &Pool,
                 const std::vector<uint32_t> &Active,
                 const std::vector<EditTarget> *Targets, double Seconds,
                 bool Spans, Result &R) {
  Window W;
  unsigned Threads = C.Readers + (Targets ? 1 : 0);
  std::vector<std::unique_ptr<Session>> Sessions;
  for (unsigned T = 0; T < Threads; ++T) {
    W.Logs.push_back(std::make_unique<SpanLog>(Spans, T + 1));
    Sessions.push_back(B.connect(W.Logs.back().get()));
    if (!Sessions.back()) {
      R.fail("refused connection");
      return W;
    }
  }
  struct PerReader {
    std::vector<double> Ms;
    /// Seconds from the window's start to each reply.
    std::vector<double> DoneS;
    std::vector<std::vector<uint32_t>> Lines;
    std::vector<std::string> Replies;
    uint64_t Failures = 0;
  };
  std::vector<PerReader> Out(C.Readers);
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(20);
  Clock::time_point Deadline =
      Start + std::chrono::microseconds(int64_t(Seconds * 1e6));

  auto Reader = [&](unsigned I) {
    ZipfStream Z(Active.size(), O.Seed * 7919 + I + 1);
    SpanLog *Log = W.Logs[I].get();
    PerReader &P = Out[I];
    std::this_thread::sleep_until(Start);
    while (Clock::now() < Deadline) {
      std::vector<uint32_t> Line(kPerLine);
      for (uint32_t &X : Line)
        X = Active[Z.next()];
      std::string Text = queryLine(Pool, Line);
      bool Ok = false;
      std::string Reply;
      Log->beginRequest();
      Clock::time_point T0 = Clock::now();
      {
        Scope Req(Log, "request.query");
        Reply = Sessions[I]->request(Text, Ok);
      }
      P.Ms.push_back(msSince(T0));
      if (!Ok) {
        ++P.Failures;
        break;
      }
      P.DoneS.push_back(
          std::chrono::duration<double>(Clock::now() - Start).count());
      P.Lines.push_back(std::move(Line));
      P.Replies.push_back(std::move(Reply));
    }
  };

  auto Editor = [&] {
    SpanLog *Log = W.Logs[C.Readers].get();
    Session &S = *Sessions[C.Readers];
    std::vector<size_t> Schedule = editSchedule(Targets->size(), O.Seed);
    for (unsigned K = 0;; ++K) {
      Clock::time_point Due =
          Start + std::chrono::microseconds(int64_t(K * kTickMs * 1e3));
      if (Due >= Deadline)
        break;
      std::this_thread::sleep_until(Due);
      W.LateMs.push_back(msSince(Due));
      EditCycle E;
      E.Target = &(*Targets)[Schedule[K % Schedule.size()]];
      E.NewVar = "pb_edit" + std::to_string(K);
      const EditTarget &T = *E.Target;
      std::string Lines[4] = {
          "alloc " + T.MethodSpec + " " + E.NewVar + " " + T.ClassName,
          "assign " + T.MethodSpec + " " + T.VarName + " " + E.NewVar,
          "commit",
          "query " + T.MethodSpec + "." + T.VarName + " " + T.MethodSpec +
              "." + E.NewVar};
      Log->beginRequest();
      {
        Scope Req(Log, "request.edit");
        for (const std::string &L : Lines) {
          bool Ok = false;
          E.Replies.push_back(S.request(L, Ok));
          if (!Ok) {
            E.TransportOk = false;
            break;
          }
        }
      }
      W.EditAnswerMs.push_back(msSince(Due));
      W.Edits.push_back(std::move(E));
      if (!W.Edits.back().TransportOk)
        break;
    }
  };

  std::vector<std::thread> Workers;
  for (unsigned I = 0; I < C.Readers; ++I)
    Workers.emplace_back(Reader, I);
  if (Targets)
    Workers.emplace_back(Editor);
  for (std::thread &T : Workers)
    T.join();
  W.Seconds = Seconds;
  W.AnswersPerSecond.assign(std::max<size_t>(1, size_t(Seconds)), 0.0);
  for (PerReader &P : Out) {
    W.QueryMs.insert(W.QueryMs.end(), P.Ms.begin(), P.Ms.end());
    for (double T : P.DoneS)
      if (size_t(T) < W.AnswersPerSecond.size())
        W.AnswersPerSecond[size_t(T)] += double(kPerLine);
    for (size_t I = 0; I < P.Lines.size(); ++I) {
      W.Lines.push_back(std::move(P.Lines[I]));
      W.Replies.push_back(std::move(P.Replies[I]));
    }
    W.TransportFailures += P.Failures;
  }
  return W;
}

/// Counters the editor's commit replies carry.
struct CommitCounts {
  uint64_t Commits = 0, Dropped = 0, Invalidated = 0, Relowered = 0;
};

uint64_t numberAfter(const std::string &S, const std::string &Key) {
  size_t At = S.find(Key);
  if (At == std::string::npos)
    return 0;
  size_t From = At + Key.size();
  uint64_t N = 0;
  while (From < S.size() && S[From] >= '0' && S[From] <= '9')
    N = N * 10 + uint64_t(S[From++] - '0');
  return N;
}

/// Counts the commit reply "generation G: dropped D/B store summaries,
/// I methods invalidated, R re-lowered ...".
void countCommit(const std::string &Reply, CommitCounts &C) {
  ++C.Commits;
  C.Dropped += numberAfter(Reply, "dropped ");
  C.Invalidated += numberAfter(Reply, "store summaries, ");
  C.Relowered += numberAfter(Reply, "methods invalidated, ");
}

/// Checks a window's replies outside the timed part.  Readers must match
/// NOREFINE; with edits, every reader answer must lie between the
/// generation-0 reference and the reference after all edits, which the
/// benchmark's own copy replays.  Each edit's query must see its new
/// allocation site.
void checkWindow(const Window &W, const std::vector<PoolEntry> &Pool,
                 const std::string &Text, const analysis::AnalysisOptions &AO,
                 Result &R, ReplyCounts &RC, CommitCounts &CC) {
  R.Attempted += W.Replies.size() + W.TransportFailures;
  R.fail("transport", W.TransportFailures);
  ReferenceAnswers Final;
  if (!W.Edits.empty()) {
    std::unique_ptr<ir::Program> Copy = ir::parseProgram(Text).Prog;
    for (const EditCycle &E : W.Edits) {
      const EditTarget &T = *E.Target;
      ir::VarId Fresh = Copy->createLocal(Copy->name(E.NewVar), T.Method, T.Type);
      ir::Statement New;
      New.Kind = ir::StmtKind::Alloc;
      New.Dst = Fresh;
      New.Type = T.Type;
      New.Alloc = Copy->createAllocSite(T.Type, T.Method,
                                        Copy->name(E.NewVar + "@serve"));
      Copy->addStatement(T.Method, std::move(New));
      ir::Statement Assign;
      Assign.Kind = ir::StmtKind::Assign;
      Assign.Dst = T.Var;
      Assign.Src = Fresh;
      Copy->addStatement(T.Method, std::move(Assign));
    }
    std::vector<ir::VarId> Vars;
    for (const PoolEntry &E : Pool)
      Vars.push_back(E.Var);
    Final = noRefineAnswers(*Copy, Vars, AO);
  }
  for (size_t I = 0; I < W.Replies.size(); ++I)
    checkReply(W.Replies[I], W.Lines[I], Pool, W.Edits.empty() ? nullptr : &Final,
               R, RC);
  for (const EditCycle &E : W.Edits) {
    R.Attempted += 4;
    if (!E.TransportOk || E.Replies.size() != 4) {
      R.fail("transport");
      continue;
    }
    for (int I = 0; I < 3; ++I)
      if (E.Replies[size_t(I)].compare(0, 6, "error:") == 0)
        R.fail("error reply");
    countCommit(E.Replies[2], CC);
    ParsedReply Q = parseQueryReply(E.Replies[3]);
    if (Q.Error || Q.Answers.size() != 2) {
      R.fail("error reply");
      continue;
    }
    std::string Site = newSite(E);
    for (const ParsedAnswer &A : Q.Answers) {
      ++R.Comparisons;
      if (A.Incomplete)
        R.fail("budget exceeded");
      else if (!std::binary_search(A.Sites.begin(), A.Sites.end(), Site))
        R.fail("edit not visible");
    }
  }
}

} // namespace

void runServe(const Options &O, bool WithEditor, Result &R) {
  Config C;
  // Scale 0.5: set-up answers the whole pool, and resolveVarSpec scans
  // every variable for each spec, so a set-up at scale 1 took ~5 s and
  // the three set-ups ran longer than the window they prepare.
  C.Scale = O.Smoke ? 0.02 : 0.5;
  C.Readers = WithEditor ? 2 : 3;
  C.SetupRepeats = O.Smoke ? 1 : 3;
  analysis::AnalysisOptions AO = analysisOptions();

  // The benchmark's own copy: input selection and the NOREFINE reference,
  // which is computed after the first timed window.
  SpanLog RefLog(O.Trace, 100);
  std::string Text = generateProgramText(C.Scale);
  std::unique_ptr<ir::Program> Copy = ir::parseProgram(Text).Prog;
  std::vector<PoolEntry> Pool = buildPool(*Copy);
  auto AttachReference = [&] {
    attachReference(*Copy, Pool, AO, &RefLog);
    size_t Comparable = 0;
    for (const PoolEntry &E : Pool)
      Comparable += E.Comparable;
    R.prov("pool", std::to_string(Pool.size()) + " specs (" +
                       std::to_string(Comparable) +
                       " with a NOREFINE answer)");
  };

  describeProgram(R, C.Scale, *Copy, Text.size());
  R.prov("clients", std::to_string(C.Readers) + " closed-loop readers x " +
                        std::to_string(kPerLine) + " specs/line, Zipf(1)" +
                        (WithEditor ? " + 1 editor" : ""));
  R.prov("query_threads", "1");
  R.prov("commit_threads", "1");
  R.prov("editor_tick_ms", WithEditor ? fixed(kTickMs, 0) : "none");

  ReplyCounts RC;
  CommitCounts CC;
  auto Targets = [&](const Prepared &P) {
    return editTargets(*Copy, Pool, P.Active);
  };

  if (!O.Trace) {
    std::vector<double> SetupS;
    Prepared P;
    for (unsigned I = 0; I < C.SetupRepeats; ++I) {
      if (P.B)
        P.B->drain();
      P = prepare(C, Pool, /*InProcess=*/false, nullptr, R);
      SetupS.push_back(P.SetupSeconds);
    }
    if (!P.B || P.Active.empty())
      return;
    R.prov("budget_bound_excluded",
           std::to_string(Pool.size() - P.Active.size()));
    std::vector<EditTarget> T = Targets(P);
    Window W = runWindow(*P.B, O, C, Pool, P.Active,
                         WithEditor ? &T : nullptr, O.Seconds, false, R);
    P.B->drain();
    double PeakMb = peakRssMb();
    AttachReference();
    checkWindow(W, Pool, Text, AO, R, RC, CC);

    R.add("setup_s", median(SetupS), "s", SetupS.size());
    R.add("peak_rss_mb", PeakMb, "MB", 1);
    R.timing("serve.query_p50_ms", W.QueryMs);
    R.add("serve.query_p90_ms", percentile(W.QueryMs, 0.90), "ms",
          W.QueryMs.size());
    R.add("serve.query_p99_ms", percentile(W.QueryMs, 0.99), "ms",
          W.QueryMs.size());
    // A median over one-second slices: a burst of contention from other
    // tenants of the host that spans less than half the window leaves it
    // where it was, unlike the window's average.
    R.add("serve.qps", median(W.AnswersPerSecond), "1/s",
          W.AnswersPerSecond.size(), "median over one-second slices");
    if (WithEditor) {
      Tail ET = tailOf(W.EditAnswerMs);
      R.timing("edit.answer_p50_ms", W.EditAnswerMs);
      R.add("edit.answer_tail_ms", ET.Value, "ms", W.EditAnswerMs.size(),
            "p" + fixed(ET.Percentile, 1));
      double MaxLate = W.LateMs.empty()
                           ? 0.0
                           : *std::max_element(W.LateMs.begin(), W.LateMs.end());
      R.timing("edit.late_p50_ms", W.LateMs,
               "max " + fixed(MaxLate, 3) + " ms behind the tick");
    }
    R.Counts.push_back({"answers", RC.Answers});
    R.Counts.push_back({"summaries_computed", RC.Computed});
    return;
  }

  // Traced run: the same stream over the socket (untraced, for the wire
  // share), then replayed in-process without and with spans.
  double Phase = O.Seconds / 3.0;
  Prepared SP = prepare(C, Pool, false, nullptr, R);
  if (!SP.B || SP.Active.empty())
    return;
  std::vector<EditTarget> ST = Targets(SP);
  Window Socket = runWindow(*SP.B, O, C, Pool, SP.Active,
                            WithEditor ? &ST : nullptr, Phase, false, R);
  SP.B->drain();
  SP.B.reset();
  AttachReference();
  ReplyCounts Ignored;
  CommitCounts IgnoredC;
  checkWindow(Socket, Pool, Text, AO, R, Ignored, IgnoredC);

  Prepared NP = prepare(C, Pool, true, nullptr, R);
  if (!NP.B || NP.Active.empty())
    return;
  std::vector<EditTarget> NT = Targets(NP);
  Window Bare = runWindow(*NP.B, O, C, Pool, NP.Active,
                          WithEditor ? &NT : nullptr, Phase, false, R);
  NP.B->drain();
  NP.B.reset();
  checkWindow(Bare, Pool, Text, AO, R, Ignored, IgnoredC);

  SpanLog SetupLog(true, 101);
  Prepared TP = prepare(C, Pool, true, &SetupLog, R);
  if (!TP.B || TP.Active.empty())
    return;
  std::vector<EditTarget> TT = Targets(TP);
  service::ServiceStats Before = TP.B->service()->stats();
  Window Traced = runWindow(*TP.B, O, C, Pool, TP.Active,
                            WithEditor ? &TT : nullptr, Phase, true, R);
  service::ServiceStats After = TP.B->service()->stats();
  TP.B->drain();
  TP.B.reset();
  checkWindow(Traced, Pool, Text, AO, R, RC, CC);

  std::vector<const SpanLog *> Logs = {&RefLog, &SetupLog};
  for (const auto &L : Traced.Logs)
    Logs.push_back(L.get());
  SpanSummary Sum = summarize(Logs);
  writeSpans(O.WorkDir + "/spans-" + O.Workload + "-" +
                 std::to_string(O.Seed) + ".jsonl",
             Logs);
  auto Self = [&](const char *Name) { return median(Sum.SelfMs[Name]); };
  auto N = [&](const char *Name) { return Sum.SelfMs[Name].size(); };
  auto Layer = [&](const char *Name, const char *Span) {
    R.layer(Name, Self(Span), "ms", N(Span));
  };
  Layer("ir.parse_ms", "ir.parse");
  Layer("ir.validate_ms", "ir.validate");
  Layer("pag.build_ms", "pag.build");
  Layer("service.open_ms", "service.open");
  Layer("server.resolve_ms", "server.resolve");
  Layer("server.reply_ms", "server.reply");
  Layer("service.query_ms", "service.query");
  Layer("engine.batch_ms", "engine.batch");
  // Wire share and tracing overhead on the read requests, which every
  // serve workload has by the thousand; coverage on the workload's own
  // request (the edit cycle on serve-edit).
  const char *Query = "request.query";
  double TracedP50 = median(Sum.TotalMs[Query]);
  R.layer("server.wire_ms", median(Socket.QueryMs) - TracedP50, "ms",
          Sum.TotalMs[Query].size());
  double BareP50 = median(Bare.QueryMs);
  R.layer("trace.overhead_pct", 100.0 * (TracedP50 - BareP50) / BareP50, "%",
          Sum.TotalMs[Query].size());
  const char *Req = WithEditor ? "request.edit" : Query;
  R.layer("trace.coverage_pct", 100.0 * median(Sum.Coverage[Req]), "%",
          Sum.Coverage[Req].size());
  uint64_t Answers = std::max<uint64_t>(1, RC.Answers);
  R.layer("dynsum.steps_per_query", double(RC.Steps) / double(Answers),
          "count", RC.Answers);
  R.layer("engine.shared_hits_per_query",
          double(RC.SharedHits) / double(Answers), "count", RC.Answers);
  R.layer("engine.computed_per_query", double(RC.Computed) / double(Answers),
          "count", RC.Answers);
  uint64_t Fetches = After.Store.Fetches - Before.Store.Fetches;
  R.layer("store.hit_ratio",
          Fetches ? double(After.Store.Hits - Before.Store.Hits) /
                        double(Fetches)
                  : 0.0,
          "ratio", Fetches);
  R.layer("store.lock_contended",
          double(After.Store.LockContended - Before.Store.LockContended),
          "count", 1);
  R.layer("store.size", double(After.StoreSize), "count", 1);
  if (WithEditor) {
    Layer("server.edit_ms", "server.edit");
    Layer("service.commit_ms", "service.commit");
    Layer("pag.commit_clone_ms", "pag.commit_clone");
    Layer("pag.commit_shape_ms", "pag.commit_shape");
    Layer("pag.commit_lower_ms", "pag.commit_lower");
    Layer("pag.commit_apply_ms", "pag.commit_apply");
    Layer("pag.commit_repack_ms", "pag.commit_repack");
    Layer("incremental.plan_ms", "incremental.plan");
    uint64_t Commits = std::max<uint64_t>(1, CC.Commits);
    R.layer("pag.relowered_per_commit", double(CC.Relowered) / double(Commits),
            "count", CC.Commits);
    R.layer("incremental.methods_invalidated_per_commit",
            double(CC.Invalidated) / double(Commits), "count", CC.Commits);
    R.layer("incremental.summaries_dropped_per_commit",
            double(CC.Dropped) / double(Commits), "count", CC.Commits);
  }
}

} // namespace perfbench
