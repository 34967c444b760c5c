//===----------------------------------------------------------------------===//
///
/// \file
/// dynsum_serverd — the multi-tenant socket analysis server.
///
/// Hosts N independent analysis tenants — each with its own program,
/// AnalysisService, summary store and warm-restart snapshot — behind
/// one loopback TCP port speaking the newline-delimited serve protocol
/// (the REPL grammar without save/load, plus "tenant <name>"/"tenants"
/// binding verbs; see src/server/Serverd.h for the framing).
///
/// Usage:
///   dynsum_serverd --tenant=<name>=<program file>...  (repeatable)
///                  [--port=N]            (0/default = ephemeral)
///                  [--port-file=path]    (write the bound port here)
///                  [--snapshot-dir=dir]  (per-tenant <dir>/<name>.dsum
///                                         saved on drain, warm-attached
///                                         on the next start)
///                  [--threads=N] [--commit-threads=N]
///                  [--keep-generations=N]
///                  [--budget=N] [--max-connections=N]
///                  [--max-active-batches=N] [--resume-active-batches=N]
///                  [--max-commit-backlog=N]
///
/// A flag not listed above, or a numeric flag that is not all decimal
/// digits or lies outside its range (a port above 65535, a count above
/// 2^32-1), is a usage error (exit 2).
///
/// The server drains gracefully on SIGTERM/SIGINT: it stops accepting,
/// unblocks and joins every live session, and snapshots every tenant's
/// summary store to --snapshot-dir — a restart over the same directory
/// answers its first batches warm.
///
/// Example:
///   dynsum_serverd --tenant=alpha=a.ir --tenant=beta=b.mj
///                  --snapshot-dir=/tmp/snap --port-file=/tmp/port &
///   printf 'tenant alpha\nquery Main.main.s1\nquit\n' | nc 127.0.0.1 $(cat /tmp/port)
///
//===----------------------------------------------------------------------===//

#include "ir/Validator.h"
#include "server/CommandInterpreter.h"
#include "server/Serverd.h"
#include "support/CommandLine.h"
#include "support/OStream.h"
#include "support/Shutdown.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <limits>
#include <poll.h>

using namespace dynsum;

namespace {

int usage() {
  errs() << "usage: dynsum_serverd --tenant=<name>=<file>... [--port=N] "
            "[--port-file=path]\n"
            "                      [--snapshot-dir=dir] [--threads=N] "
            "[--commit-threads=N]\n"
            "                      [--keep-generations=N] [--budget=N] "
            "[--max-connections=N]\n"
            "                      [--max-active-batches=N] "
            "[--resume-active-batches=N]\n"
            "                      [--max-commit-backlog=N]\n";
  return 2;
}

int runServerd(int argc, char **argv) {
  CommandLine Args(argc, argv);
  std::vector<std::string> Unknown = Args.unknownFlags(
      {"tenant", "port", "port-file", "snapshot-dir", "threads",
       "commit-threads", "keep-generations", "budget", "max-connections",
       "max-active-batches", "resume-active-batches", "max-commit-backlog"});
  for (const std::string &Flag : Unknown)
    errs() << "error: unknown flag --" << Flag << '\n';
  if (!Unknown.empty())
    return usage();
  std::vector<std::string> TenantSpecs = Args.getAll("tenant");
  if (TenantSpecs.empty())
    return usage();

  // Numeric flags are counts (CommandLine::getCount).  A value that is
  // not one, or lies outside the field's range, is a usage error:
  // wrapped, --port=70000 would listen on 4464, and clamped,
  // --max-connections=-1 would become 0, "unlimited".
  constexpr uint64_t kU32 = std::numeric_limits<unsigned>::max();
  bool Bad = false;
  server::ServerOptions SO;
  SO.Port = uint16_t(Args.getCount("port", 0, 65535, Bad));
  SO.MaxConnections = unsigned(Args.getCount("max-connections", 64, kU32, Bad));
  SO.QueryThreads = unsigned(Args.getCount("threads", 2, kU32, Bad));
  SO.CommitThreads = unsigned(Args.getCount("commit-threads", 1, kU32, Bad));
  SO.KeepGenerations =
      unsigned(Args.getCount("keep-generations", 0, kU32, Bad));
  SO.SnapshotDir = Args.getString("snapshot-dir", "");
  SO.Analysis.BudgetPerQuery =
      Args.getCount("budget", 75000, std::numeric_limits<int64_t>::max(), Bad);
  SO.Overload.MaxActiveBatches =
      unsigned(Args.getCount("max-active-batches", 0, kU32, Bad));
  SO.Overload.ResumeActiveBatches =
      unsigned(Args.getCount("resume-active-batches", 0, kU32, Bad));
  SO.Overload.MaxCommitBacklog =
      unsigned(Args.getCount("max-commit-backlog", 0, kU32, Bad));
  if (Bad)
    return usage();

  server::AnalysisServer Server(SO);
  for (const std::string &Spec : TenantSpecs) {
    size_t Eq = Spec.find('=');
    if (Eq == std::string::npos || Eq == 0 || Eq + 1 == Spec.size()) {
      errs() << "error: --tenant wants <name>=<file>, got '" << Spec
             << "'\n";
      return usage();
    }
    std::string Name = Spec.substr(0, Eq);
    std::string Path = Spec.substr(Eq + 1);
    std::string LoadError;
    std::unique_ptr<ir::Program> Prog =
        server::loadProgramFile(Path, LoadError);
    if (!Prog) {
      errs() << "error: tenant " << Name << ": " << LoadError << '\n';
      return 1;
    }
    std::vector<std::string> Problems = ir::validate(*Prog);
    if (!Problems.empty()) {
      errs() << "error: tenant " << Name << ": invalid program: "
             << Problems.front() << '\n';
      return 1;
    }
    if (!Server.addTenant(Name, std::move(Prog))) {
      errs() << "error: duplicate or bad tenant name '" << Name << "'\n";
      return 1;
    }
  }

  // Arm the drain path BEFORE opening the listen socket: a SIGTERM that
  // lands during startup must already find the graceful handler.
  if (!support::installShutdownHandlers())
    errs() << "warning: cannot install signal handlers; "
              "Ctrl-C will not snapshot\n";

  std::string Error;
  if (!Server.start(Error)) {
    errs() << "error: " << Error << '\n';
    return 1;
  }
  std::string PortFile = Args.getString("port-file", "");
  if (!PortFile.empty()) {
    if (std::FILE *F = std::fopen(PortFile.c_str(), "w")) {
      std::fprintf(F, "%u\n", unsigned(Server.port()));
      std::fclose(F);
    } else {
      errs() << "error: cannot write " << PortFile << '\n';
      return 1;
    }
  }
  outs() << "dynsum_serverd: " << uint64_t(TenantSpecs.size())
         << " tenants listening on 127.0.0.1:" << unsigned(Server.port())
         << '\n';
  outs().flush();

  // Park until a shutdown signal: the self-pipe readable (or EINTR on
  // the poll itself) means SIGTERM/SIGINT arrived.
  while (!support::shutdownRequested()) {
    pollfd Fd = {support::shutdownWakeFd(), POLLIN, 0};
    if (::poll(&Fd, 1, -1) < 0 && errno != EINTR)
      break;
  }
  int Sig = support::shutdownSignal();
  outs() << "dynsum_serverd: "
         << (Sig == SIGTERM ? "SIGTERM" : Sig == SIGINT ? "SIGINT" : "stop")
         << ": draining " << uint64_t(TenantSpecs.size()) << " tenants\n";
  outs().flush();
  Server.stop(); // joins sessions, then snapshots every tenant
  outs() << "dynsum_serverd: drained ("
         << Server.acceptedConnections() << " connections served, "
         << Server.shedConnections() << " shed)\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  // Same containment contract as dynsum_tool: report and exit nonzero,
  // never abort on an unhandled exception.
  try {
    return runServerd(argc, argv);
  } catch (const std::exception &E) {
    errs() << "fatal: " << E.what() << '\n';
    return 1;
  } catch (...) {
    errs() << "fatal: unknown error\n";
    return 1;
  }
}
