//===----------------------------------------------------------------------===//
///
/// \file
/// dynsum — the command-line driver for the whole library.
///
/// Loads a program from a MiniJava source file (.mj/.minijava/.java) or
/// a textual-IR file (anything else), builds the PAG, and either runs a
/// client over it or answers individual points-to queries.
///
/// Usage:
///   dynsum <file> [--analysis=dynsum|refine|norefine]
///                 [--resolver=cha|rta|andersen]
///                 [--client=safecast|nullderef|factorym|devirt|all]
///                 [--query=Class.method.var]...  (repeatable flag, or
///                                                 free.method.var for
///                                                 ownerless methods)
///                 [--budget=N] [--max-queries=N] [--threads=N]
///                 [--commit-threads=N] [--keep-generations=N]
///                 [--stats] [--dump-ir] [--dump-pag]
///                 [--serve] [--save-summaries=path] [--load-summaries=path]
///                 [--snapshot=path] [--warm-from-disk=path]
///
/// A flag not listed above is a usage error (exit 2), and so is a
/// numeric flag whose value is not decimal digits or is out of range.
///
/// --threads routes queries and clients through the parallel batch
/// engine (dynsum only; N shards per batch, 0 = one per hardware
/// thread).
///
/// --load-summaries / --save-summaries go through a summary store —
/// the engine's under --threads, otherwise one the sequential DYNSUM
/// instance exchanges summaries with — so both paths persist alike: a
/// load attaches the file as the store's disk tier (queries promote
/// what they probe) and a save writes the store, hot tier plus the
/// attached records it still serves.
///
/// --serve starts an interactive AnalysisService session on stdin: a
/// line-oriented edit/query loop over the loaded program ("help" lists
/// the commands).  Queries run through the parallel engine against the
/// current generation; edits buffer until "commit" publishes the next
/// one ("commit --async" queues it on the background committer instead
/// of blocking the REPL; --commit-threads=N splits each commit phase
/// into up to N tasks).  --keep-generations=N retains superseded
/// snapshots: the "generations" command lists them with their
/// structural-sharing cost and "rollback <gen>" republishes one in
/// O(1).  "save"/"load" persist warm summaries across serve sessions.
///
/// --snapshot=path is the warm-restart loop in one flag: the service
/// saves its summary store there on shutdown and, on the next start,
/// attaches the same file as the store's memory-mapped read-only disk
/// tier — first queries answer from disk hits instead of recomputing.
///
/// --warm-from-disk=path warms from a different file than the shutdown
/// snapshot.
///
/// Examples:
///   dynsum prog.mj --client=all
///   dynsum prog.ir --analysis=refine --client=nullderef --budget=10000
///   dynsum prog.mj --query=Main.main.result --stats
///   dynsum prog.mj --client=all --threads=8
///   dynsum prog.ir --serve --threads=4 --commit-threads=8
///
//===----------------------------------------------------------------------===//

#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "clients/Client.h"
#include "engine/QueryScheduler.h"
#include "frontend/Frontend.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Validator.h"
#include "pag/GraphViz.h"
#include "pag/PAGBuilder.h"
#include "pag/Rta.h"
#include "server/CommandInterpreter.h"
#include "service/AnalysisService.h"
#include "support/CommandLine.h"
#include "support/OStream.h"
#include "support/PrettyTable.h"
#include "support/Shutdown.h"
#include "support/StringExtras.h"

#include <cctype>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

using namespace dynsum;

namespace {

/// Loads \p Path as MiniJava or textual IR by extension (shared with
/// dynsum_serverd through server::loadProgramFile).
std::unique_ptr<ir::Program> loadProgram(const std::string &Path) {
  std::string Error;
  std::unique_ptr<ir::Program> Prog = server::loadProgramFile(Path, Error);
  if (!Prog)
    errs() << "error: " << Error << '\n';
  return Prog;
}

/// Resolves "Class.method.var" / "method.var" to a PAG variable node,
/// reporting what part failed to resolve.
bool findQueryNode(const ir::Program &P, const pag::PAG &G,
                   const std::string &Spec, pag::NodeId &Node) {
  ir::VarId V = server::resolveVarSpec(P, Spec);
  if (V == ir::kNone) {
    errs() << "error: cannot resolve '" << Spec
           << "' (expected Class.method.var or method.var)\n";
    return false;
  }
  Node = G.nodeOfVar(V);
  return true;
}

/// Creates the selected analysis; \p OutDynSum is set when it is a
/// DynSumAnalysis so the summary save/load flags can reach it without
/// RTTI.
std::unique_ptr<analysis::DemandAnalysis>
makeAnalysis(const std::string &Name, const pag::PAG &G,
             const analysis::AnalysisOptions &Opts,
             analysis::DynSumAnalysis *&OutDynSum) {
  OutDynSum = nullptr;
  if (Name == "dynsum") {
    auto A = std::make_unique<analysis::DynSumAnalysis>(G, Opts);
    OutDynSum = A.get();
    return A;
  }
  if (Name == "refine")
    return std::make_unique<analysis::RefinePtsAnalysis>(G, Opts);
  if (Name == "norefine")
    return std::make_unique<analysis::RefinePtsAnalysis>(G, Opts,
                                                         /*Refinement=*/false);
  return nullptr;
}

int usage() {
  errs() << "usage: dynsum <file.{mj,ir}> [--analysis=dynsum|refine|"
            "norefine] [--resolver=cha|rta|andersen]\n"
            "              [--client=safecast|nullderef|factorym|devirt|all]"
            " [--query=Class.method.var]\n"
            "              [--budget=N] [--max-queries=N] [--threads=N]"
            " [--commit-threads=N]\n"
            "              [--keep-generations=N] [--stats] [--dump-ir]"
            " [--dump-pag] [--serve]\n"
            "              [--save-summaries=path] [--load-summaries=path]\n"
            "              [--snapshot=path] [--warm-from-disk=path]\n";
  return 2;
}

//===----------------------------------------------------------------------===//
// --serve: an interactive AnalysisService session on stdin
//===----------------------------------------------------------------------===//

int runServe(std::unique_ptr<ir::Program> Prog,
             const analysis::AnalysisOptions &AO, unsigned Threads,
             unsigned CommitThreads, unsigned KeepGenerations,
             const std::string &Snapshot, const std::string &WarmPath) {
  service::ServiceOptions SO;
  SO.Engine.NumThreads = Threads;
  SO.Engine.Analysis = AO;
  SO.Commit = CommitThreads;
  SO.KeepGenerations = KeepGenerations;
  // --snapshot=path is the warm-restart loop in one flag: save the
  // store there on shutdown AND attach the same file as the disk tier
  // on startup.  --warm-from-disk overrides just the startup side.
  SO.SnapshotOnShutdownPath = Snapshot;
  SO.WarmFromDiskPath = WarmPath.empty() ? Snapshot : WarmPath;
  service::AnalysisService S(std::move(Prog), SO);
  outs() << "dynsum serve: " << uint64_t(S.program().methods().size())
         << " methods, " << uint64_t(S.program().variables().size())
         << " variables; \"help\" lists commands\n";
  if (!SO.WarmFromDiskPath.empty()) {
    if (S.stats().DiskTierAttached)
      outs() << "warm tier: " << SO.WarmFromDiskPath
             << " attached (hot misses probe the mapped snapshot)\n";
    else
      outs() << "warm tier: " << SO.WarmFromDiskPath
             << " not attached (missing/stale snapshot); starting cold\n";
  }

  support::installShutdownHandlers();
  server::CommandInterpreter Interp(S);
  std::string Line;
  for (;;) {
    if (support::shutdownRequested()) {
      // A SIGINT/SIGTERM mid-session drains like "quit": the normal
      // return below unwinds ~AnalysisService, which saves --snapshot.
      outs() << '\n'
             << (support::shutdownSignal() == SIGTERM ? "SIGTERM" : "SIGINT")
             << ": shutting down"
             << (Snapshot.empty() ? "" : " (snapshot saves)") << '\n';
      break;
    }
    outs() << "dynsum> ";
    outs().flush();
    server::LineStatus LS =
        server::readCommandLine(stdin, Line, server::kMaxReplLineBytes);
    if (LS == server::LineStatus::Interrupted)
      continue; // the loop head re-checks the shutdown flag
    if (LS == server::LineStatus::Eof)
      break;
    if (LS == server::LineStatus::Overflow) {
      // One command, one error: the overlong line is drained whole, so
      // its tail can no longer execute as a second command.
      errs() << "error: line exceeds " << uint64_t(server::kMaxReplLineBytes)
             << " bytes (ignored)\n";
      continue;
    }
    if (Interp.execute(Line, outs(), errs()) == server::CommandStatus::Quit)
      break;
  }
  return 0;
}

} // namespace

namespace {
int runTool(int argc, char **argv);
} // namespace

int main(int argc, char **argv) {
  // Last-resort containment: whatever a malformed input or an internal
  // failure throws, the tool reports it and exits nonzero — it never
  // aborts with an unhandled exception.
  try {
    return runTool(argc, argv);
  } catch (const std::exception &E) {
    errs() << "fatal: " << E.what() << '\n';
    return 1;
  } catch (...) {
    errs() << "fatal: unknown error\n";
    return 1;
  }
}

namespace {
int runTool(int argc, char **argv) {
  CommandLine Args(argc, argv);
  std::vector<std::string> Unknown = Args.unknownFlags(
      {"analysis", "resolver", "client", "query", "budget", "max-queries",
       "threads", "commit-threads", "keep-generations", "stats", "dump-ir",
       "dump-pag", "serve", "save-summaries", "load-summaries", "snapshot",
       "warm-from-disk"});
  for (const std::string &Flag : Unknown)
    errs() << "error: unknown flag --" << Flag << '\n';
  if (!Unknown.empty() || Args.positional().empty())
    return usage();

  // Numeric flags are counts; a value that is not one, or is out of
  // range, is a usage error (see CommandLine::getCount).
  constexpr uint64_t kU32 = std::numeric_limits<unsigned>::max();
  bool Bad = false;
  uint64_t Budget =
      Args.getCount("budget", 75000, std::numeric_limits<int64_t>::max(), Bad);
  unsigned Threads =
      unsigned(Args.getCount("threads", Args.has("serve") ? 4 : 0, kU32, Bad));
  unsigned CommitThreads =
      unsigned(Args.getCount("commit-threads", 1, kU32, Bad));
  unsigned KeepGenerations =
      unsigned(Args.getCount("keep-generations", 0, kU32, Bad));
  size_t MaxQueries = size_t(Args.getCount("max-queries", 0, kU32, Bad));
  if (Bad)
    return usage();

  std::unique_ptr<ir::Program> Prog = loadProgram(Args.positional().front());
  if (!Prog)
    return 1;
  std::vector<std::string> Problems = ir::validate(*Prog);
  if (!Problems.empty()) {
    errs() << "error: invalid program: " << Problems.front() << '\n';
    return 1;
  }

  // Interactive service session: the AnalysisService builds and rebuilds
  // its own PAG per generation, so it takes over right here.
  if (Args.has("serve")) {
    analysis::AnalysisOptions ServeOpts;
    ServeOpts.BudgetPerQuery = Budget;
    return runServe(std::move(Prog), ServeOpts, Threads, CommitThreads,
                    KeepGenerations, Args.getString("snapshot", ""),
                    Args.getString("warm-from-disk", ""));
  }

  // Dispatch resolver.
  std::string ResolverName = Args.getString("resolver", "cha");
  std::unique_ptr<pag::RtaTargetResolver> Rta;
  pag::BuiltPAG Built;
  if (ResolverName == "cha") {
    Built = pag::buildPAG(*Prog);
  } else if (ResolverName == "rta") {
    Rta = std::make_unique<pag::RtaTargetResolver>(*Prog);
    Built = pag::buildPAG(*Prog, Rta.get());
  } else if (ResolverName == "andersen") {
    Built = analysis::buildPAGWithAndersenCallGraph(*Prog);
  } else {
    errs() << "error: unknown resolver '" << ResolverName << "'\n";
    return usage();
  }

  if (Args.has("stats")) {
    pag::PAGStats Stats = Built.Graph->stats();
    outs() << "methods " << Stats.NumMethods << ", objects "
           << Stats.NumObjects << ", locals " << Stats.NumLocals
           << ", globals " << Stats.NumGlobals << ", edges "
           << Stats.totalEdges() << " (locality ";
    outs().writeFixed(Stats.locality() * 100.0, 1);
    outs() << "%)\n";
  }
  if (Args.has("dump-ir")) {
    ir::printProgram(*Prog, outs());
    return 0;
  }
  if (Args.has("dump-pag")) {
    pag::writeGraphViz(*Built.Graph, outs());
    return 0;
  }

  analysis::AnalysisOptions Opts;
  Opts.BudgetPerQuery = Budget;
  std::string AnalysisName = Args.getString("analysis", "dynsum");
  analysis::DynSumAnalysis *AsDynSum = nullptr;
  std::unique_ptr<analysis::DemandAnalysis> Analysis =
      makeAnalysis(AnalysisName, *Built.Graph, Opts, AsDynSum);
  if (!Analysis) {
    errs() << "error: unknown analysis '" << AnalysisName << "'\n";
    return usage();
  }

  // The parallel batch engine: shards queries across worker threads
  // with a shared summary store (dynsum only).
  std::unique_ptr<engine::QueryScheduler> Scheduler;
  if (Args.has("threads")) {
    if (!AsDynSum) {
      errs() << "error: --threads requires --analysis=dynsum\n";
      return 1;
    }
    engine::EngineOptions EO;
    EO.NumThreads = Threads;
    EO.Analysis = Opts;
    Scheduler = std::make_unique<engine::QueryScheduler>(*Built.Graph, EO);
  }

  // Persistence goes through a summary store (see the file comment).
  engine::TieredSummaryStore SequentialStore;
  engine::TieredSummaryStore &Store =
      Scheduler ? Scheduler->store() : SequentialStore;
  if (AsDynSum && !Scheduler)
    AsDynSum->setSummaryExchange(&SequentialStore);

  std::string LoadPath = Args.getString("load-summaries", "");
  if (!LoadPath.empty()) {
    if (!AsDynSum) {
      errs() << "error: --load-summaries requires --analysis=dynsum\n";
      return 1;
    }
    engine::TieredSummaryStore::DiskTierStatus Loaded =
        Store.attachDiskTier(LoadPath, *Built.Graph);
    if (Loaded.Attached)
      outs() << "loaded " << Loaded.Records << " summaries from " << LoadPath
             << '\n';
    else
      outs() << "note: could not load summaries from " << LoadPath
             << " (missing or different program); starting cold\n";
  }

  int Exit = 0;

  // Individual queries: resolve the specs, then answer them either as
  // one engine batch or one at a time.
  std::vector<std::string> QuerySpecs = Args.getAll("query");
  std::vector<std::pair<std::string, pag::NodeId>> QueryNodes;
  for (const std::string &Value : QuerySpecs) {
    pag::NodeId Node = 0;
    if (!findQueryNode(*Prog, *Built.Graph, Value, Node)) {
      Exit = 1;
      continue;
    }
    QueryNodes.emplace_back(Value, Node);
  }
  auto PrintAnswer = [&](const std::string &Value,
                         const std::vector<ir::AllocId> &Sites,
                         bool BudgetExceeded, uint64_t Steps) {
    outs() << "pts(" << Value << ") = {";
    bool First = true;
    for (ir::AllocId A : Sites) {
      if (!First)
        outs() << ", ";
      First = false;
      outs() << Prog->describeAlloc(A);
    }
    outs() << "}" << (BudgetExceeded ? " (budget exceeded: partial)" : "")
           << "  [" << Steps << " steps]\n";
  };
  if (Scheduler && !QueryNodes.empty()) {
    engine::QueryBatch Batch;
    for (const auto &[Value, Node] : QueryNodes)
      Batch.add(Node);
    engine::BatchResult R = Scheduler->run(Batch);
    for (size_t I = 0; I < QueryNodes.size(); ++I)
      PrintAnswer(QueryNodes[I].first, R.Outcomes[I].AllocSites,
                  R.Outcomes[I].BudgetExceeded, R.Outcomes[I].Steps);
  } else {
    for (const auto &[Value, Node] : QueryNodes) {
      analysis::QueryResult R = Analysis->query(Node);
      PrintAnswer(Value, R.allocSites(), R.BudgetExceeded, R.Steps);
    }
  }

  // Clients.
  std::string ClientName = Args.getString("client", "");
  if (!ClientName.empty()) {
    std::vector<std::unique_ptr<clients::Client>> Selected;
    for (auto &C : clients::makeAllClients()) {
      std::string Lower = C->name();
      for (char &Ch : Lower)
        Ch = char(std::tolower(static_cast<unsigned char>(Ch)));
      if (ClientName == "all" || ClientName == Lower)
        Selected.push_back(std::move(C));
    }
    if (Selected.empty()) {
      errs() << "error: unknown client '" << ClientName << "'\n";
      return usage();
    }
    PrettyTable T;
    T.row()
        .cell("client")
        .cell("queries")
        .cell("proven")
        .cell("refuted")
        .cell("unknown")
        .cell("steps")
        .cell("seconds");
    for (const auto &C : Selected) {
      std::vector<clients::ClientQuery> Qs =
          C->makeQueries(*Built.Graph, MaxQueries);
      clients::ClientReport Rep =
          Scheduler ? runClientBatched(*C, *Scheduler, Qs)
                    : runClient(*C, *Analysis, Qs);
      T.row()
          .cell(Rep.ClientName)
          .cell(Rep.NumQueries)
          .cell(Rep.Proven)
          .cell(Rep.Refuted)
          .cell(Rep.Unknown)
          .cell(Rep.TotalSteps)
          .cell(Rep.Seconds, 3);
    }
    T.print(outs());
  }

  std::string SavePath = Args.getString("save-summaries", "");
  if (!SavePath.empty()) {
    if (!AsDynSum) {
      errs() << "error: --save-summaries requires --analysis=dynsum\n";
      return 1;
    }
    uint64_t Saved = 0;
    if (Store.save(SavePath, *Built.Graph, &Saved))
      outs() << "saved " << Saved << " summaries to " << SavePath << '\n';
    else {
      errs() << "error: cannot write " << SavePath << '\n';
      Exit = 1;
    }
  }

  return Exit;
}
} // namespace
