//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant socket analysis server behind dynsum_serverd.
///
/// One AnalysisServer multiplexes many independent tenants over one
/// loopback TCP socket.  Each tenant owns a full vertical slice of the
/// stack — its own ir::Program, AnalysisService (generation snapshots,
/// commit queue, overload watermarks), tiered summary store and
/// warm-restart snapshot file — so no summary, statement or allocation
/// site can leak across tenants by construction: there is no shared
/// mutable analysis state.  The tenants' query shards and commit phases
/// all run on the process's one executor (support/Parallel.h), whose
/// calls carry no tenant data of their own and never wait for each
/// other.
///
/// Protocol (newline-delimited, one reply block per request line):
/// a client connects, reads the greeting block, sends "tenant <name>"
/// to bind the session, then speaks the REPL grammar the shared
/// CommandInterpreter implements (query/alloc/assign/touch/commit/wait/
/// generations/rollback/deadline/stats/help).  Every reply block —
/// greeting included — is terminated by a line containing a single
/// "."; error lines start with "error:".  Server verbs that need no
/// bound tenant: "tenant <name>", "tenants", "help", "quit".  The
/// REPL's "save <path>" and "load <path>" are refused with one error
/// line: a socket client must not name files on the server's disk, and
/// tenants persist through SnapshotDir on drain instead.
///
/// Admission control is two-layer: a global connection cap (excess
/// connects are answered "error: server overloaded" and closed — never
/// left hanging), and per-tenant OverloadPolicy watermarks inside each
/// AnalysisService (shed query batches answer Status == Overloaded,
/// shed background commits complete their ticket as Shed; both are
/// well-formed replies, never garbage).
///
/// Drain sequence (stop()/destructor, and what the dynsum_serverd
/// front end runs on SIGTERM/SIGINT): stop accepting, shutdown(2) every
/// live connection so parked reads return, join the handler threads,
/// then destroy the tenants — each AnalysisService destructor saves its
/// SnapshotOnShutdownPath, so a drained server restarts warm.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_SERVER_SERVERD_H
#define DYNSUM_SERVER_SERVERD_H

#include "server/CommandInterpreter.h"
#include "service/AnalysisService.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace dynsum {
namespace server {

/// Server-wide configuration; per-tenant service knobs are stamped onto
/// every tenant alike.
struct ServerOptions {
  /// TCP port to listen on (loopback only); 0 picks an ephemeral port —
  /// read it back through port() after start().
  uint16_t Port = 0;
  /// Global connection cap: connects past it are answered
  /// "error: server overloaded" and closed.  0 = unlimited.
  unsigned MaxConnections = 64;
  /// Per-tenant query-engine thread budget.
  unsigned QueryThreads = 1;
  /// Per-tenant commit task budget: each commit phase splits into at
  /// most this many tasks on the shared executor.
  unsigned CommitThreads = 1;
  /// Per-tenant retained-generation count (rollback window).
  unsigned KeepGenerations = 0;
  /// Per-tenant load-shedding watermarks (defaults disable shedding).
  service::OverloadPolicy Overload;
  /// When nonempty, each tenant snapshots to <SnapshotDir>/<name>.dsum
  /// on drain and warm-attaches the same file on the next start.
  std::string SnapshotDir;
  /// Analysis configuration stamped onto every tenant's engine.
  analysis::AnalysisOptions Analysis;
};

/// The server: register tenants, start(), and every accepted connection
/// gets its own handler thread + CommandInterpreter session over the
/// tenant it binds.
class AnalysisServer {
public:
  explicit AnalysisServer(ServerOptions Opts);
  ~AnalysisServer(); ///< stop() + tenant teardown (snapshots save)

  AnalysisServer(const AnalysisServer &) = delete;
  AnalysisServer &operator=(const AnalysisServer &) = delete;

  /// Registers a tenant before start(); builds its AnalysisService
  /// around \p Prog (warm-attaching its snapshot file when SnapshotDir
  /// is set).  False when the name is empty or already taken.
  bool addTenant(const std::string &Name, std::unique_ptr<ir::Program> Prog);

  /// Binds the loopback listen socket and spawns the accept loop.
  /// False (with \p Error set) on socket/bind/listen failure.
  bool start(std::string &Error);

  /// The bound port (valid after start(); useful with Port = 0).
  uint16_t port() const { return BoundPort; }

  /// Graceful drain: stop accepting, unblock + join every live
  /// connection, then destroy the tenants so their services save
  /// shutdown snapshots.  Idempotent; the destructor calls it.
  void stop();

  /// Registered tenant names, in registration order.
  std::vector<std::string> tenantNames() const;

  /// Connections shed by the global cap (for tests and the bench).
  uint64_t shedConnections() const {
    return ShedConnections.load(std::memory_order_relaxed);
  }

  /// Connections accepted and served (for tests and the bench).
  uint64_t acceptedConnections() const {
    return AcceptedConnections.load(std::memory_order_relaxed);
  }

private:
  /// One tenant: name + program lock + its vertical service slice.
  struct Tenant {
    std::string Name;
    /// Serializes program reads (name resolution, describeAlloc) in
    /// this tenant's sessions against its program-mutating commands;
    /// handed to every CommandInterpreter bound here.  Writer-preferring,
    /// so a waiting alloc/assign/touch is not starved by closed-loop
    /// queries; it is never taken shared twice on one thread (a query
    /// takes it once, for resolution, the batch and the reply).
    support::SharedMutex ProgramLock;
    std::unique_ptr<service::AnalysisService> Service;
  };

  /// One live client connection.
  struct Connection {
    int Fd = -1;
    std::thread Handler;
    std::atomic<bool> Done{false};
  };

  void acceptLoop();
  void handleConnection(Connection &C);
  Tenant *findTenant(const std::string &Name);
  /// Joins and erases finished connections (accept-loop housekeeping).
  void reapConnections();

  ServerOptions Opts;
  std::vector<std::unique_ptr<Tenant>> Tenants;

  int ListenFd = -1;
  uint16_t BoundPort = 0;
  /// Self-pipe that wakes the accept loop's poll() for stop().
  int StopPipe[2] = {-1, -1};
  std::thread Acceptor;
  std::atomic<bool> Stopping{false};
  bool Started = false;
  bool Drained = false;

  mutable std::mutex ConnsM;
  std::vector<std::unique_ptr<Connection>> Conns;
  std::atomic<unsigned> ActiveConnections{0};
  std::atomic<uint64_t> ShedConnections{0};
  std::atomic<uint64_t> AcceptedConnections{0};
};

} // namespace server
} // namespace dynsum

#endif // DYNSUM_SERVER_SERVERD_H
