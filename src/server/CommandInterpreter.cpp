//===----------------------------------------------------------------------===//
///
/// \file
/// Shared serve-path command interpreter implementation.
///
//===----------------------------------------------------------------------===//

#include "server/CommandInterpreter.h"

#include "frontend/Frontend.h"
#include "ir/Parser.h"
#include "support/StringExtras.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace dynsum;
using namespace dynsum::server;

//===----------------------------------------------------------------------===//
// Spec resolution and program loading (shared with the tool's batch
// mode --query path)
//===----------------------------------------------------------------------===//

std::vector<std::string> server::splitWords(std::string_view Line) {
  std::vector<std::string> Words;
  std::string Cur;
  for (char C : Line) {
    if (std::isspace(static_cast<unsigned char>(C))) {
      if (!Cur.empty()) {
        Words.push_back(std::move(Cur));
        Cur.clear();
      }
    } else {
      Cur.push_back(C);
    }
  }
  if (!Cur.empty())
    Words.push_back(std::move(Cur));
  return Words;
}

ir::MethodId server::resolveMethodSpec(const ir::Program &P,
                                       const std::string &Spec) {
  size_t Dot = Spec.find('.');
  if (Dot == std::string::npos)
    return P.findFreeMethod(P.names().lookup(Spec));
  ir::TypeId Cls = P.findClass(P.names().lookup(Spec.substr(0, Dot)));
  if (Cls == ir::kNone)
    return ir::kNone;
  return P.findMethod(Cls, P.names().lookup(Spec.substr(Dot + 1)));
}

ir::VarId server::resolveVarSpec(const ir::Program &P,
                                 const std::string &Spec) {
  size_t LastDot = Spec.rfind('.');
  if (LastDot == std::string::npos)
    return ir::kNone;
  ir::MethodId M = resolveMethodSpec(P, Spec.substr(0, LastDot));
  if (M == ir::kNone)
    return ir::kNone;
  Symbol N = P.names().lookup(Spec.substr(LastDot + 1));
  for (const ir::Variable &V : P.variables())
    if (!V.IsGlobal && V.Owner == M && V.Name == N)
      return V.Id;
  return ir::kNone;
}

namespace {

/// Reads a whole file into \p Out; false when it cannot be opened.
bool readFile(const std::string &Path, std::string &Out) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return false;
  char Chunk[65536];
  size_t N = 0;
  while ((N = std::fread(Chunk, 1, sizeof(Chunk), F)) > 0)
    Out.append(Chunk, N);
  std::fclose(F);
  return true;
}

} // namespace

std::unique_ptr<ir::Program> server::loadProgramFile(const std::string &Path,
                                                     std::string &Error) {
  std::string Source;
  if (!readFile(Path, Source)) {
    Error = "cannot read '" + Path + "'";
    return nullptr;
  }
  if (endsWith(Path, ".mj") || endsWith(Path, ".minijava") ||
      endsWith(Path, ".java")) {
    frontend::CompileResult R = frontend::compileMiniJava(Source);
    if (!R.ok()) {
      Error = Path + ": compilation failed\n" + R.Diags.str();
      return nullptr;
    }
    return std::move(R.Prog);
  }
  ir::ParseResult R = ir::parseProgram(Source);
  if (!R.ok()) {
    Error = Path + ": " + R.Error;
    return nullptr;
  }
  return std::move(R.Prog);
}

//===----------------------------------------------------------------------===//
// Overflow-aware line reading
//===----------------------------------------------------------------------===//

LineStatus server::readCommandLine(std::FILE *In, std::string &Line,
                                   size_t MaxBytes) {
  Line.clear();
  bool Overflowed = false;
  char Buf[4096];
  for (;;) {
    errno = 0;
    if (!std::fgets(Buf, sizeof(Buf), In)) {
      if (std::ferror(In) && errno == EINTR) {
        // A signal cut the read: drop any partial input (the caller is
        // shutting down or will re-issue) and let it re-check state.
        std::clearerr(In);
        return LineStatus::Interrupted;
      }
      // EOF: a final line with no trailing newline still executes.
      if (Overflowed)
        return LineStatus::Overflow;
      return Line.empty() ? LineStatus::Eof : LineStatus::Ok;
    }
    size_t N = std::strlen(Buf);
    bool HasNewline = N > 0 && Buf[N - 1] == '\n';
    if (HasNewline)
      --N;
    if (!Overflowed) {
      if (Line.size() + N > MaxBytes)
        Overflowed = true; // keep draining to the newline
      else
        Line.append(Buf, N);
    }
    if (HasNewline)
      return Overflowed ? LineStatus::Overflow : LineStatus::Ok;
  }
}

//===----------------------------------------------------------------------===//
// Command execution
//===----------------------------------------------------------------------===//

namespace {

/// RAII over the optional cross-session program lock: shared for
/// read-only commands, exclusive for program-mutating ones.  Lock
/// order is always ProgramLock before the service's internal edit
/// lock (which editProgram/submitCommit take themselves).
class ProgramGuard {
public:
  ProgramGuard(support::SharedMutex *M, bool Exclusive)
      : M(M), Exclusive(Exclusive) {
    if (!M)
      return;
    if (Exclusive)
      M->lock();
    else
      M->lock_shared();
  }
  ~ProgramGuard() {
    if (!M)
      return;
    if (Exclusive)
      M->unlock();
    else
      M->unlock_shared();
  }
  ProgramGuard(const ProgramGuard &) = delete;
  ProgramGuard &operator=(const ProgramGuard &) = delete;

private:
  support::SharedMutex *M;
  bool Exclusive;
};

} // namespace

void CommandInterpreter::printHelp(OStream &Out, bool WithFiles) {
  Out << "commands:\n"
         "  query <m.var>...        batched points-to queries (current "
         "generation)\n"
         "  alloc <method> <var> <Class>   buffer: var = new Class "
         "(creates var if new)\n"
         "  assign <method> <dst> <src>    buffer: dst = src\n"
         "  touch <method>          mark a method edited\n"
         "  commit [--scratch] [--async]   publish buffered edits as the "
         "next generation\n"
         "                          (--scratch force-re-lowers every "
         "method: A/B check\n"
         "                          against the delta build; --async "
         "queues the commit on\n"
         "                          the background committer and returns "
         "immediately;\n"
         "                          requests racing an in-flight commit "
         "coalesce)\n"
         "  wait                    block until queued async commits are "
         "published\n"
         "  generations             list retained snapshots (number, "
         "vars, retained bytes)\n"
         "  rollback <generation>   republish a retained snapshot (O(1); "
         "later edits\n"
         "                          become pending again)\n";
  if (WithFiles)
    Out << "  save <path>             write the summaries to a DSUM "
           "snapshot\n"
           "  load <path>             attach a snapshot as the disk tier; "
           "replaces any\n"
           "                          snapshot loaded before (no merge)\n";
  Out << "  deadline <ms>           per-query wall-clock deadline for "
         "later queries\n"
         "                          (0 turns it off; overrun queries "
         "report (timeout)\n"
         "                          with the sound partial answer "
         "gathered so far)\n"
         "  stats                   generation, store size, counters, "
         "commit times,\n"
         "                          failure counters (timeouts, shed "
         "work, retries...)\n"
         "  quit\n"
         "method spec: Class.method or method (free); var spec appends "
         ".var\n";
}

CommandStatus CommandInterpreter::runQuery(const std::vector<std::string> &W,
                                           OStream &Out, OStream &Err) {
  // Shared lock: name resolution and describeAlloc read the live
  // program, which another session may be mutating.
  ProgramGuard G(ProgramLock, /*Exclusive=*/false);
  std::vector<ir::VarId> Vars;
  for (size_t I = 1; I < W.size(); ++I) {
    ir::VarId V = resolveVarSpec(S.program(), W[I]);
    if (V == ir::kNone) {
      Err << "error: no variable '" << W[I] << "'\n";
      return CommandStatus::Error;
    }
    Vars.push_back(V);
  }
  service::ServiceBatchResult R =
      DeadlineMs > 0 ? S.queryVars(Vars, support::Deadline::in(DeadlineMs / 1e3))
                     : S.queryVars(Vars);
  for (size_t I = 0; I < Vars.size(); ++I) {
    const engine::QueryOutcome &O = R.Outcomes[I];
    Out << "pts(" << W[I + 1] << ") = {";
    for (size_t A = 0; A < O.AllocSites.size(); ++A)
      Out << (A ? ", " : "") << S.program().describeAlloc(O.AllocSites[A]);
    Out << "}";
    if (O.Status != analysis::QueryStatus::Ok)
      Out << " (" << analysis::toString(O.Status) << ")";
    else if (O.BudgetExceeded)
      Out << " (budget exceeded)";
    Out << "  [" << O.Steps << " steps]\n";
  }
  Out << "[generation " << R.Generation << ": " << R.Stats.SharedHits
      << " shared hits, " << R.Stats.SummariesComputed << " computed]\n";
  return CommandStatus::Ok;
}

CommandStatus CommandInterpreter::runAlloc(const std::vector<std::string> &W,
                                           OStream &Out, OStream &Err) {
  ProgramGuard G(ProgramLock, /*Exclusive=*/true);
  ir::MethodId M = resolveMethodSpec(S.program(), W[1]);
  ir::TypeId T = S.program().findClass(S.program().names().lookup(W[3]));
  if (M == ir::kNone || T == ir::kNone) {
    Err << "error: unknown method or class\n";
    return CommandStatus::Error;
  }
  S.editProgram([&](ir::Program &P) {
    ir::VarId Dst = resolveVarSpec(P, W[1] + "." + W[2]);
    if (Dst == ir::kNone)
      Dst = P.createLocal(P.name(W[2]), M, T);
    ir::Statement New;
    New.Kind = ir::StmtKind::Alloc;
    New.Dst = Dst;
    New.Type = T;
    New.Alloc = P.createAllocSite(T, M, P.name(W[2] + "@serve"));
    P.addStatement(M, std::move(New));
    return std::vector<ir::MethodId>{M};
  });
  Out << "buffered: " << W[2] << " = new " << W[3] << " in " << W[1] << '\n';
  return CommandStatus::Ok;
}

CommandStatus CommandInterpreter::runAssign(const std::vector<std::string> &W,
                                            OStream &Out, OStream &Err) {
  ProgramGuard G(ProgramLock, /*Exclusive=*/true);
  // The method spec must resolve on its own: the composed var specs
  // below can succeed even when W[1] names something that is not a
  // method (e.g. "assign Main main.x main.y" resolves both vars via
  // "Main.main.x" while "Main" alone is a class) — ir::kNone must
  // never reach addStatement.
  ir::MethodId M = resolveMethodSpec(S.program(), W[1]);
  if (M == ir::kNone) {
    Err << "error: unknown method '" << W[1] << "'\n";
    return CommandStatus::Error;
  }
  ir::VarId Dst = resolveVarSpec(S.program(), W[1] + "." + W[2]);
  ir::VarId Src = resolveVarSpec(S.program(), W[1] + "." + W[3]);
  if (Dst == ir::kNone || Src == ir::kNone) {
    Err << "error: unknown variable\n";
    return CommandStatus::Error;
  }
  ir::Statement St;
  St.Kind = ir::StmtKind::Assign;
  St.Dst = Dst;
  St.Src = Src;
  S.addStatement(M, std::move(St));
  Out << "buffered: " << W[2] << " = " << W[3] << " in " << W[1] << '\n';
  return CommandStatus::Ok;
}

CommandStatus CommandInterpreter::runCommit(const std::vector<std::string> &W,
                                            OStream &Out, OStream &Err) {
  service::CommitMode Mode = service::CommitMode::Delta;
  bool Async = false;
  for (size_t I = 1; I < W.size(); ++I) {
    if (W[I] == "--scratch") {
      Mode = service::CommitMode::Scratch;
    } else if (W[I] == "--async") {
      Async = true;
    } else {
      Err << "error: bad commit flag '" << W[I]
          << "' (only --scratch / --async)\n";
      return CommandStatus::Error;
    }
  }
  service::CommitRequest Req;
  Req.Mode = Mode;
  Req.Background = Async;
  service::CommitTicket Ticket = S.submitCommit(Req);
  if (Async) {
    Out << "queued async commit"
        << (Mode == service::CommitMode::Scratch ? " (scratch)" : "")
        << "; \"wait\" blocks until published, \"stats\" shows progress\n";
    return CommandStatus::Ok;
  }
  incremental::CommitStats CS = Ticket.wait();
  if (CS.Outcome != incremental::CommitOutcome::Committed &&
      CS.Outcome != incremental::CommitOutcome::NoOp) {
    Err << "error: commit " << incremental::toString(CS.Outcome)
        << (CS.Error.empty() ? "" : ": " + CS.Error)
        << " (edits stay buffered; generation unchanged)\n";
    return CommandStatus::Error;
  }
  Out << "generation " << S.generation() << ": dropped " << CS.SummariesDropped
      << "/" << CS.SummariesBefore << " store summaries, "
      << CS.MethodsInvalidated << " methods invalidated, "
      << CS.MethodsRelowered << " re-lowered"
      << (Mode == service::CommitMode::Scratch ? " (scratch)" : "") << " in ";
  Out.writeFixed(CS.Seconds * 1e3, 2);
  Out << " ms (clone ";
  Out.writeFixed(CS.CloneSeconds * 1e3, 2);
  Out << ", shape ";
  Out.writeFixed(CS.ShapeSeconds * 1e3, 2);
  Out << ", lower ";
  Out.writeFixed(CS.LowerSeconds * 1e3, 2);
  Out << ", apply ";
  Out.writeFixed(CS.ApplySeconds * 1e3, 2);
  Out << ", repack ";
  Out.writeFixed(CS.RepackSeconds * 1e3, 2);
  Out << ")\n";
  return CommandStatus::Ok;
}

CommandStatus CommandInterpreter::runStats(OStream &Out) {
  service::ServiceStats SS = S.stats();
  Out << "generation " << SS.Generation << ", store "
      << uint64_t(SS.StoreSize) << " summaries, " << SS.Commits
      << " commits, " << SS.Batches << " batches, " << SS.Queries
      << " queries, " << SS.SharedSummariesDropped << " summaries dropped\n";
  if (SS.AsyncCommitsRequested > 0 || SS.CommitInFlight)
    Out << "async: " << SS.AsyncCommitsRequested << " requested, "
        << SS.AsyncCommitsCoalesced << " coalesced, "
        << (SS.CommitInFlight ? "commit in flight\n" : "queue idle\n");
  if (SS.RetainedGenerations > 0 || SS.Rollbacks > 0)
    Out << "history: " << SS.RetainedGenerations << " retained generations, "
        << SS.Rollbacks << " rollbacks\n";
  if (SS.TimedOutQueries || SS.CancelledQueries || SS.ShedQueries ||
      SS.CommitFailures || SS.CommitValidationRejects || SS.CommitRetries ||
      SS.CommitsQuarantined || SS.CommitsShed || SS.Quarantined ||
      SS.Shedding) {
    Out << "failures: " << SS.TimedOutQueries << " query timeouts, "
        << SS.CancelledQueries << " cancelled, " << SS.ShedQueries << " shed ("
        << SS.ShedBatches << " batches); commits: "
        << SS.CommitValidationRejects << " validation-rejected, "
        << SS.CommitFailures << " build-failed, " << SS.CommitRetries
        << " retries, " << SS.CommitsQuarantined << " quarantined, "
        << SS.CommitsShed << " shed" << (SS.Quarantined ? "; QUARANTINED" : "")
        << (SS.Shedding ? "; SHEDDING" : "") << '\n';
  }
  Out << "store: " << SS.Store.Hits << "/" << SS.Store.Fetches
      << " fetches hit (" << SS.Store.StaleFetches << " stale), "
      << SS.Store.Publishes << " published (" << SS.Store.StalePublishes
      << " stale), " << SS.Store.Invalidated << " invalidated, "
      << SS.Store.LockContended << " contended locks, "
      << SS.StoreStripes << " stripes\n";
  if (SS.DiskTierAttached || SS.Store.DiskProbes > 0)
    Out << "disk tier: " << (SS.DiskTierAttached ? "attached" : "detached")
        << ", " << SS.Store.DiskHits << "/" << SS.Store.DiskProbes
        << " probes hit, " << SS.Store.Promoted << " promoted, "
        << SS.Store.DiskStale << " stale, " << SS.Store.DiskCorrupt
        << " corrupt records\n";
  if (SS.Commits > 0) {
    Out << "last commit ";
    Out.writeFixed(SS.LastCommitSeconds * 1e3, 2);
    Out << " ms (" << SS.LastCommitRelowered << " methods re-lowered), mean ";
    Out.writeFixed(SS.TotalCommitSeconds * 1e3 / double(SS.Commits), 2);
    Out << " ms over " << SS.Commits << " commits\n";
  }
  return CommandStatus::Ok;
}

CommandStatus CommandInterpreter::execute(const std::string &Line,
                                          OStream &Out, OStream &Err) {
  std::vector<std::string> W = splitWords(Line);
  if (W.empty())
    return CommandStatus::Ok;
  const std::string &Cmd = W[0];

  if (Cmd == "quit" || Cmd == "exit")
    return CommandStatus::Quit;
  if (Cmd == "help") {
    printHelp(Out);
    return CommandStatus::Ok;
  }
  if (Cmd == "query" && W.size() > 1)
    return runQuery(W, Out, Err);
  if (Cmd == "alloc" && W.size() == 4)
    return runAlloc(W, Out, Err);
  if (Cmd == "assign" && W.size() == 4)
    return runAssign(W, Out, Err);
  if (Cmd == "touch" && W.size() == 2) {
    ProgramGuard G(ProgramLock, /*Exclusive=*/true);
    ir::MethodId M = resolveMethodSpec(S.program(), W[1]);
    if (M == ir::kNone) {
      Err << "error: no method '" << W[1] << "'\n";
      return CommandStatus::Error;
    }
    S.markDirty(M);
    return CommandStatus::Ok;
  }
  if (Cmd == "commit" && W.size() <= 3)
    return runCommit(W, Out, Err);
  if (Cmd == "wait" && W.size() == 1) {
    S.waitForCommits();
    Out << "generation " << S.generation() << " (async queue drained)\n";
    return CommandStatus::Ok;
  }
  if (Cmd == "generations" && W.size() == 1) {
    for (const service::GenerationInfo &G : S.generations())
      Out << "  generation " << G.Number << ": " << uint64_t(G.NumVars)
          << " vars, " << G.RetainedBytes << " / " << G.TotalBytes
          << " bytes exclusive" << (G.IsCurrent ? " (current)" : "") << '\n';
    return CommandStatus::Ok;
  }
  if (Cmd == "rollback" && W.size() == 2) {
    // Digits only, the whole word: a lenient parse would read "oops"
    // as 0, which names the current generation of a tenant that has not
    // committed yet — and rolling back to it clears the store.
    char *End = nullptr;
    errno = 0;
    uint64_t Gen = std::strtoull(W[1].c_str(), &End, 10);
    if (!std::isdigit(static_cast<unsigned char>(W[1][0])) || *End != '\0' ||
        errno == ERANGE) {
      Err << "error: rollback wants a generation number, got '" << W[1]
          << "'\n";
      return CommandStatus::Error;
    }
    if (S.rollback(Gen)) {
      Out << "rolled back to snapshot " << Gen << "; now serving "
          << "generation " << S.generation()
          << " (edits after its capture are pending again)\n";
      return CommandStatus::Ok;
    }
    Err << "error: generation " << Gen
        << " is not retained (see \"generations\")\n";
    return CommandStatus::Error;
  }
  if (Cmd == "deadline" && W.size() == 2) {
    char *End = nullptr;
    double Ms = std::strtod(W[1].c_str(), &End);
    if (End == W[1].c_str() || *End != '\0' || !std::isfinite(Ms) || Ms < 0) {
      Err << "error: deadline wants a millisecond count, got '" << W[1]
          << "'\n";
      return CommandStatus::Error;
    }
    DeadlineMs = Ms;
    if (Ms > 0) {
      Out << "queries now carry a ";
      Out.writeFixed(Ms, 1);
      Out << " ms deadline\n";
    } else {
      Out << "query deadline off\n";
    }
    return CommandStatus::Ok;
  }
  if ((Cmd == "save" || Cmd == "load") && W.size() == 2) {
    uint64_t Records = 0;
    bool Ok = Cmd == "save" ? S.saveSummaries(W[1], &Records)
                            : S.loadSummaries(W[1], &Records);
    if (Ok) {
      Out << Cmd << ": " << Records << " summaries (" << W[1] << ")\n";
      return CommandStatus::Ok;
    }
    Err << "error: cannot " << Cmd << " " << W[1] << '\n';
    return CommandStatus::Error;
  }
  if (Cmd == "stats" && W.size() == 1)
    return runStats(Out);
  Err << "error: bad command (try \"help\")\n";
  return CommandStatus::Error;
}
