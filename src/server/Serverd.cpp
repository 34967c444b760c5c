//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-tenant socket server implementation (see Serverd.h).
///
//===----------------------------------------------------------------------===//

#include "server/Serverd.h"

#include "support/Shutdown.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dynsum;
using namespace dynsum::server;

namespace {

/// Writes the whole buffer, riding out EINTR.  False on a dead peer
/// (EPIPE/ECONNRESET — the handler just ends the session).
bool sendAll(int Fd, const char *Data, size_t N) {
  while (N > 0) {
    ssize_t W = ::send(Fd, Data, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += W;
    N -= size_t(W);
  }
  return true;
}

/// Sends one protocol reply block: the accumulated text followed by the
/// lone-"." terminator line.
bool sendBlock(int Fd, const std::string &Body) {
  std::string Block = Body;
  Block += ".\n";
  return sendAll(Fd, Block.data(), Block.size());
}

/// Newline-delimited reads over a socket with the same overflow/EINTR
/// contract as readCommandLine(): an overlong line is drained whole and
/// reported once, a signal mid-read surfaces as Interrupted so the
/// handler can re-check the drain flag.
class SocketLineReader {
public:
  explicit SocketLineReader(int Fd) : Fd(Fd) {}

  LineStatus readLine(std::string &Line, size_t MaxBytes) {
    Line.clear();
    bool Overflowed = false;
    for (;;) {
      size_t Nl = Buf.find('\n', Scanned);
      if (Nl != std::string::npos) {
        bool TooLong = Overflowed || Nl > MaxBytes;
        if (!TooLong)
          Line.assign(Buf, 0, Nl);
        Buf.erase(0, Nl + 1);
        Scanned = 0;
        return TooLong ? LineStatus::Overflow : LineStatus::Ok;
      }
      Scanned = Buf.size();
      if (Buf.size() > MaxBytes)
        Overflowed = true; // keep draining to the newline
      if (AtEof) {
        if (Overflowed)
          return LineStatus::Overflow;
        if (Buf.empty())
          return LineStatus::Eof;
        Line.swap(Buf); // final line without a newline still executes
        Buf.clear();
        Scanned = 0;
        return LineStatus::Ok;
      }
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0) {
        if (errno == EINTR)
          return LineStatus::Interrupted;
        return LineStatus::Eof; // reset/shutdown: treat as hangup
      }
      if (N == 0)
        AtEof = true;
      else
        Buf.append(Chunk, size_t(N));
    }
  }

private:
  int Fd;
  std::string Buf;
  size_t Scanned = 0; ///< prefix of Buf already known newline-free
  bool AtEof = false;
};

} // namespace

AnalysisServer::AnalysisServer(ServerOptions O) : Opts(std::move(O)) {}

AnalysisServer::~AnalysisServer() { stop(); }

bool AnalysisServer::addTenant(const std::string &Name,
                               std::unique_ptr<ir::Program> Prog) {
  if (Name.empty() || !Prog || Started || findTenant(Name))
    return false;
  auto T = std::make_unique<Tenant>();
  T->Name = Name;
  service::ServiceOptions SO;
  SO.Engine.NumThreads = Opts.QueryThreads;
  SO.Engine.Analysis = Opts.Analysis;
  SO.Commit = Opts.CommitThreads;
  SO.KeepGenerations = Opts.KeepGenerations;
  SO.Overload = Opts.Overload;
  if (!Opts.SnapshotDir.empty()) {
    std::string Snapshot = Opts.SnapshotDir + "/" + Name + ".dsum";
    SO.SnapshotOnShutdownPath = Snapshot;
    SO.WarmFromDiskPath = Snapshot; // warm-restart loop per tenant
  }
  T->Service =
      std::make_unique<service::AnalysisService>(std::move(Prog), SO);
  Tenants.push_back(std::move(T));
  return true;
}

bool AnalysisServer::start(std::string &Error) {
  if (Started) {
    Error = "already started";
    return false;
  }
  if (::pipe(StopPipe) != 0) {
    Error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK); // loopback only
  Addr.sin_port = htons(Opts.Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
      0) {
    Error = std::string("bind: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 64) != 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  socklen_t Len = sizeof(Addr);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len);
  BoundPort = ntohs(Addr.sin_port);
  Started = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void AnalysisServer::stop() {
  if (Drained)
    return;
  Drained = true;
  Stopping.store(true, std::memory_order_release);
  if (Started) {
    // Wake the accept loop's poll() and let it exit.
    char Byte = 1;
    ssize_t Ignored = ::write(StopPipe[1], &Byte, 1);
    (void)Ignored;
    Acceptor.join();
  }
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  for (int &Fd : StopPipe)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
  // Unblock every parked handler read, then join.  Handlers never
  // close their own fd — the close happens here, after the join, so a
  // racing handler can never touch a recycled descriptor.
  std::vector<std::unique_ptr<Connection>> Live;
  {
    std::lock_guard<std::mutex> L(ConnsM);
    Live.swap(Conns);
  }
  for (auto &C : Live)
    ::shutdown(C->Fd, SHUT_RDWR);
  for (auto &C : Live) {
    if (C->Handler.joinable())
      C->Handler.join();
    ::close(C->Fd);
  }
  // Destroy the tenants: each AnalysisService destructor saves its
  // SnapshotOnShutdownPath, so the drain IS the snapshot pass.
  Tenants.clear();
}

std::vector<std::string> AnalysisServer::tenantNames() const {
  std::vector<std::string> Names;
  Names.reserve(Tenants.size());
  for (const auto &T : Tenants)
    Names.push_back(T->Name);
  return Names;
}

AnalysisServer::Tenant *AnalysisServer::findTenant(const std::string &Name) {
  for (auto &T : Tenants)
    if (T->Name == Name)
      return T.get();
  return nullptr;
}

void AnalysisServer::reapConnections() {
  std::lock_guard<std::mutex> L(ConnsM);
  for (size_t I = 0; I < Conns.size();) {
    if (Conns[I]->Done.load(std::memory_order_acquire)) {
      Conns[I]->Handler.join();
      ::close(Conns[I]->Fd);
      Conns.erase(Conns.begin() + long(I));
    } else {
      ++I;
    }
  }
}

void AnalysisServer::acceptLoop() {
  for (;;) {
    pollfd Fds[2] = {{ListenFd, POLLIN, 0}, {StopPipe[0], POLLIN, 0}};
    int R = ::poll(Fds, 2, -1);
    if (R < 0) {
      if (errno == EINTR) {
        // A drain signal may have landed here instead of on main.
        if (Stopping.load(std::memory_order_acquire) ||
            support::shutdownRequested())
          return;
        continue;
      }
      return;
    }
    if (Stopping.load(std::memory_order_acquire) || (Fds[1].revents & POLLIN))
      return;
    if (!(Fds[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    reapConnections();
    if (Opts.MaxConnections > 0 &&
        ActiveConnections.load(std::memory_order_relaxed) >=
            Opts.MaxConnections) {
      // Global cap: a well-formed refusal, then close.  Never a hung
      // connect, never a half answer.
      ShedConnections.fetch_add(1, std::memory_order_relaxed);
      sendBlock(Fd, "error: server overloaded\n");
      ::close(Fd);
      continue;
    }
    AcceptedConnections.fetch_add(1, std::memory_order_relaxed);
    ActiveConnections.fetch_add(1, std::memory_order_relaxed);
    auto C = std::make_unique<Connection>();
    C->Fd = Fd;
    Connection *Raw = C.get();
    {
      std::lock_guard<std::mutex> L(ConnsM);
      Conns.push_back(std::move(C));
    }
    Raw->Handler = std::thread([this, Raw] {
      handleConnection(*Raw);
      ActiveConnections.fetch_sub(1, std::memory_order_relaxed);
      Raw->Done.store(true, std::memory_order_release);
    });
  }
}

void AnalysisServer::handleConnection(Connection &C) {
  {
    StringOStream Hello;
    Hello << "dynsum_serverd: " << uint64_t(Tenants.size())
          << " tenants; \"tenant <name>\" binds this session, \"help\" "
             "lists commands\n";
    if (!sendBlock(C.Fd, Hello.str()))
      return;
  }
  SocketLineReader Reader(C.Fd);
  Tenant *Bound = nullptr;
  std::unique_ptr<CommandInterpreter> Interp;
  std::string Line;
  for (;;) {
    LineStatus LS = Reader.readLine(Line, kMaxReplLineBytes);
    if (LS == LineStatus::Interrupted) {
      if (Stopping.load(std::memory_order_acquire) ||
          support::shutdownRequested())
        return;
      continue;
    }
    if (LS == LineStatus::Eof)
      return;
    StringOStream Out;
    if (LS == LineStatus::Overflow) {
      Out << "error: line exceeds " << uint64_t(kMaxReplLineBytes)
          << " bytes (dropped)\n";
      if (!sendBlock(C.Fd, Out.str()))
        return;
      continue;
    }
    std::vector<std::string> W = splitWords(Line);
    if (W.empty()) {
      if (!sendBlock(C.Fd, "")) // every request line gets one block
        return;
      continue;
    }
    bool Quit = false;
    if (W[0] == "quit" || W[0] == "exit") {
      Out << "bye\n";
      Quit = true;
    } else if (W[0] == "tenants" && W.size() == 1) {
      for (const auto &T : Tenants)
        Out << "  " << T->Name << ": generation "
            << T->Service->generation()
            << (T.get() == Bound ? " (bound)" : "") << '\n';
    } else if (W[0] == "tenant" && W.size() == 2) {
      Tenant *T = findTenant(W[1]);
      if (!T) {
        Out << "error: no tenant '" << W[1] << "' (see \"tenants\")\n";
      } else {
        Bound = T;
        // Session state (the deadline) starts fresh on every rebind.
        Interp = std::make_unique<CommandInterpreter>(*T->Service,
                                                      &T->ProgramLock);
        Out << "tenant " << T->Name << " bound (generation "
            << T->Service->generation() << ")\n";
      }
    } else if (W[0] == "save" || W[0] == "load") {
      // The REPL's persistence verbs take a path from the client; over
      // the socket that would let any loopback client write or read any
      // file the server can.
      Out << "error: " << W[0] << " is not served; tenants persist through "
          << "--snapshot-dir on drain\n";
    } else if (W[0] == "help") {
      Out << "server verbs: tenant <name> (bind), tenants, quit\n"
             "after binding a tenant:\n";
      CommandInterpreter::printHelp(Out, /*WithFiles=*/false);
    } else if (!Bound) {
      Out << "error: no tenant bound (use \"tenant <name>\")\n";
    } else {
      try {
        if (Interp->execute(Line, Out, Out) == CommandStatus::Quit) {
          Out << "bye\n";
          Quit = true;
        }
      } catch (const std::exception &E) {
        Out << "error: internal: " << E.what() << '\n';
      }
    }
    if (!sendBlock(C.Fd, Out.str()) || Quit)
      return;
  }
}
