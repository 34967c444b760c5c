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
///                  [--keep-generations=N] [--store-stripes=N]
///                  [--budget=N] [--max-connections=N]
///                  [--max-active-batches=N] [--resume-active-batches=N]
///                  [--max-commit-backlog=N]
///
/// A negative numeric flag, or a port above 65535, is a usage error
/// (exit 2).
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
            "                      [--keep-generations=N] "
            "[--store-stripes=N]\n"
            "                      [--budget=N] [--max-connections=N]\n"
            "                      [--max-active-batches=N] "
            "[--resume-active-batches=N]\n"
            "                      [--max-commit-backlog=N]\n";
  return 2;
}

int runServerd(int argc, char **argv) {
  CommandLine Args(argc, argv);
  std::vector<std::string> TenantSpecs = Args.getAll("tenant");
  if (TenantSpecs.empty())
    return usage();

  // Numeric flags are counts.  A value outside the field's range is a
  // usage error: wrapped, --port=70000 would listen on 4464, and
  // clamped, --max-connections=-1 would become 0, "unlimited".
  bool BadFlag = false;
  auto Count = [&](const char *Name, int64_t Default,
                   int64_t Max = std::numeric_limits<unsigned>::max()) {
    int64_t V = Args.getInt(Name, Default);
    if (V >= 0 && V <= Max)
      return uint64_t(V);
    errs() << "error: --" << Name << " wants an integer in [0, " << Max
           << "]\n";
    BadFlag = true;
    return uint64_t(0);
  };
  server::ServerOptions SO;
  SO.Port = uint16_t(Count("port", 0, 65535));
  SO.MaxConnections = unsigned(Count("max-connections", 64));
  SO.QueryThreads = unsigned(Count("threads", 2));
  SO.CommitThreads = unsigned(Count("commit-threads", 1));
  SO.KeepGenerations = unsigned(Count("keep-generations", 0));
  SO.StoreStripes = unsigned(Count("store-stripes", 0));
  SO.SnapshotDir = Args.getString("snapshot-dir", "");
  SO.Analysis.BudgetPerQuery =
      Count("budget", 75000, std::numeric_limits<int64_t>::max());
  SO.Overload.MaxActiveBatches = unsigned(Count("max-active-batches", 0));
  SO.Overload.ResumeActiveBatches = unsigned(Count("resume-active-batches", 0));
  SO.Overload.MaxCommitBacklog = unsigned(Count("max-commit-backlog", 0));
  if (BadFlag)
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
