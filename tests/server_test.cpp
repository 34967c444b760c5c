//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the serve path: the overflow-aware line reader (an overlong
/// line must report ONE error, never execute as two commands), the
/// shared command interpreter (including the fixed "assign" method
/// validation and the deadline verb's range check), the shutdown-signal
/// plumbing, and the multi-tenant socket server — greeting/bind
/// protocol, the refused save/load verbs, per-tenant isolation (edits
/// in tenant A never change tenant B's answers), the global connection
/// cap's well-formed refusal, and a concurrent multi-client mixed
/// edit/query session (the TSan job runs this test).
///
//===----------------------------------------------------------------------===//

#include "server/Serverd.h"

#include "ir/Parser.h"
#include "server/CommandInterpreter.h"
#include "support/Shutdown.h"
#include "workload/PaperExample.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace dynsum;
using namespace dynsum::server;

namespace {

std::unique_ptr<ir::Program> figure2() {
  ir::ParseResult R = ir::parseProgram(workload::figure2Source());
  EXPECT_TRUE(R.ok()) << R.Error;
  return std::move(R.Prog);
}

std::unique_ptr<service::AnalysisService> makeService(unsigned Threads = 1) {
  service::ServiceOptions SO;
  SO.Engine.NumThreads = Threads;
  return std::make_unique<service::AnalysisService>(figure2(), SO);
}

/// Runs one command and returns everything it wrote (out and err share
/// one stream, like a socket session).
std::string run(CommandInterpreter &I, const std::string &Line,
                CommandStatus *Status = nullptr) {
  StringOStream Out;
  CommandStatus St = I.execute(Line, Out, Out);
  if (Status)
    *Status = St;
  return Out.str();
}

/// Writes \p Content to a temp stdio stream and rewinds it, so
/// readCommandLine sees exactly the bytes a REPL's stdin would.
struct TempInput {
  std::FILE *F;
  explicit TempInput(const std::string &Content) : F(std::tmpfile()) {
    EXPECT_NE(F, nullptr);
    std::fwrite(Content.data(), 1, Content.size(), F);
    std::rewind(F);
  }
  ~TempInput() { std::fclose(F); }
};

//===----------------------------------------------------------------------===//
// readCommandLine: the overflow fix
//===----------------------------------------------------------------------===//

TEST(ReadCommandLine, PlainLinesAndEof) {
  TempInput In("first line\nsecond\n\nlast-no-newline");
  std::string Line;
  EXPECT_EQ(readCommandLine(In.F, Line, 4096), LineStatus::Ok);
  EXPECT_EQ(Line, "first line");
  EXPECT_EQ(readCommandLine(In.F, Line, 4096), LineStatus::Ok);
  EXPECT_EQ(Line, "second");
  EXPECT_EQ(readCommandLine(In.F, Line, 4096), LineStatus::Ok);
  EXPECT_EQ(Line, "");
  EXPECT_EQ(readCommandLine(In.F, Line, 4096), LineStatus::Ok);
  EXPECT_EQ(Line, "last-no-newline");
  EXPECT_EQ(readCommandLine(In.F, Line, 4096), LineStatus::Eof);
}

TEST(ReadCommandLine, OverlongLineDrainsWholeAndReportsOnce) {
  // The historical bug: fgets(Line, 4096, stdin) split a >4095-byte
  // line into two commands — the tail executed as a second command.
  // Now the whole line must be consumed as ONE Overflow and the NEXT
  // line must come through intact.
  std::string Long(10000, 'x');
  TempInput In(Long + "\nquery Main.main.s1\n");
  std::string Line;
  EXPECT_EQ(readCommandLine(In.F, Line, kMaxReplLineBytes),
            LineStatus::Overflow);
  EXPECT_EQ(readCommandLine(In.F, Line, kMaxReplLineBytes), LineStatus::Ok);
  EXPECT_EQ(Line, "query Main.main.s1");
  EXPECT_EQ(readCommandLine(In.F, Line, kMaxReplLineBytes), LineStatus::Eof);
}

TEST(ReadCommandLine, OverlongFinalLineWithoutNewline) {
  TempInput In(std::string(8000, 'y'));
  std::string Line;
  EXPECT_EQ(readCommandLine(In.F, Line, kMaxReplLineBytes),
            LineStatus::Overflow);
  EXPECT_EQ(readCommandLine(In.F, Line, kMaxReplLineBytes), LineStatus::Eof);
}

TEST(ReadCommandLine, ExactCapIsNotOverflow) {
  std::string AtCap(kMaxReplLineBytes, 'z');
  TempInput In(AtCap + "\n");
  std::string Line;
  EXPECT_EQ(readCommandLine(In.F, Line, kMaxReplLineBytes), LineStatus::Ok);
  EXPECT_EQ(Line.size(), kMaxReplLineBytes);
}

//===----------------------------------------------------------------------===//
// splitWords / spec resolution
//===----------------------------------------------------------------------===//

TEST(SplitWords, EdgeCases) {
  EXPECT_TRUE(splitWords("").empty());
  EXPECT_TRUE(splitWords("   \t  ").empty());
  std::vector<std::string> W = splitWords("  query\t Main.main.s1  ");
  ASSERT_EQ(W.size(), 2u);
  EXPECT_EQ(W[0], "query");
  EXPECT_EQ(W[1], "Main.main.s1");
}

TEST(SpecResolution, MethodAndVarSpecs) {
  std::unique_ptr<ir::Program> P = figure2();
  EXPECT_NE(resolveMethodSpec(*P, "Main.main"), ir::kNone);
  EXPECT_EQ(resolveMethodSpec(*P, "Main"), ir::kNone) << "a class is not a "
                                                         "method";
  EXPECT_EQ(resolveMethodSpec(*P, "NoSuch.method"), ir::kNone);
  EXPECT_NE(resolveVarSpec(*P, "Main.main.s1"), ir::kNone);
  EXPECT_EQ(resolveVarSpec(*P, "nodots"), ir::kNone);
  EXPECT_EQ(resolveVarSpec(*P, "Main.main.missing"), ir::kNone);
}

//===----------------------------------------------------------------------===//
// CommandInterpreter
//===----------------------------------------------------------------------===//

TEST(CommandInterpreter, GarbageAndEmptyLines) {
  auto S = makeService();
  CommandInterpreter I(*S);
  CommandStatus St;
  EXPECT_EQ(run(I, "", &St), "");
  EXPECT_EQ(St, CommandStatus::Ok);
  std::string Reply = run(I, "frobnicate all the things", &St);
  EXPECT_EQ(St, CommandStatus::Error);
  EXPECT_NE(Reply.find("error: bad command"), std::string::npos);
  run(I, "commit --sideways", &St);
  EXPECT_EQ(St, CommandStatus::Error);
  run(I, "deadline soon", &St);
  EXPECT_EQ(St, CommandStatus::Error);
  run(I, "quit", &St);
  EXPECT_EQ(St, CommandStatus::Quit);
}

TEST(CommandInterpreter, AssignValidatesMethodSpec) {
  // The fixed bug: "assign Main main.x main.y" resolves both variables
  // through the composed specs "Main.main.x"/"Main.main.y", but "Main"
  // alone is a class — the unchecked ir::kNone used to flow straight
  // into addStatement.
  auto S = makeService();
  // Create x and y so the variable lookups genuinely succeed.
  CommandInterpreter I(*S);
  run(I, "alloc Main.main x Integer");
  run(I, "alloc Main.main y Integer");
  CommandStatus St;
  std::string Reply = run(I, "assign Main main.x main.y", &St);
  EXPECT_EQ(St, CommandStatus::Error);
  EXPECT_NE(Reply.find("error: unknown method 'Main'"), std::string::npos)
      << Reply;
  // The valid spelling still buffers.
  Reply = run(I, "assign Main.main x y", &St);
  EXPECT_EQ(St, CommandStatus::Ok);
  EXPECT_NE(Reply.find("buffered: x = y"), std::string::npos) << Reply;
}

TEST(CommandInterpreter, EditCommitQueryRoundTrip) {
  auto S = makeService();
  CommandInterpreter I(*S);
  std::string Reply = run(I, "query Main.main.s1");
  EXPECT_NE(Reply.find("pts(Main.main.s1) = {o26:Integer}"),
            std::string::npos)
      << Reply;
  CommandStatus St;
  run(I, "alloc Main.main s1 String", &St);
  EXPECT_EQ(St, CommandStatus::Ok);
  run(I, "commit", &St);
  EXPECT_EQ(St, CommandStatus::Ok);
  Reply = run(I, "query Main.main.s1");
  EXPECT_NE(Reply.find("s1@serve:String"), std::string::npos) << Reply;
  Reply = run(I, "stats");
  EXPECT_NE(Reply.find("generation 1"), std::string::npos) << Reply;
}

TEST(CommandInterpreter, RollbackRefusesAnythingButANumber) {
  // The fixed bug: the argument was parsed leniently, so "rollback oops"
  // meant "rollback 0" — the current generation of a tenant that has
  // not committed yet — and the rollback to it cleared the store.
  auto S = makeService();
  CommandInterpreter I(*S);
  run(I, "query Main.main.s1");
  uint64_t Gen = S->generation();
  size_t Store = S->stats().StoreSize;
  ASSERT_GT(Store, 0u);
  std::vector<std::string> Bad = {"oops", "-1", "+0", "0x0", "0oops"};
  Bad.push_back("18446744073709551616"); // 2^64: out of range
  for (const std::string &Arg : Bad) {
    CommandStatus St;
    std::string Reply = run(I, "rollback " + Arg, &St);
    EXPECT_EQ(St, CommandStatus::Error) << Arg;
    EXPECT_NE(Reply.find("error: rollback wants a generation number"),
              std::string::npos)
        << Reply;
    EXPECT_EQ(S->generation(), Gen) << Arg;
    EXPECT_EQ(S->stats().StoreSize, Store) << Arg;
  }
  // A number still reaches the service.
  CommandStatus St;
  std::string Reply = run(I, "rollback 0", &St);
  EXPECT_EQ(St, CommandStatus::Ok) << Reply;
}

TEST(CommandInterpreter, DeadlineRefusesNonFiniteAndSaturatesHugeSpans) {
  // The fixed bug: "deadline inf" was accepted, and it or any span past
  // ~9.2e9 s overflowed the conversion to clock ticks, so every later
  // query timed out at once with an empty answer; "deadline nan" was
  // accepted and read as "off".
  auto S = makeService();
  CommandInterpreter I(*S);
  for (const char *Arg : {"inf", "-inf", "nan", "infinity"}) {
    CommandStatus St;
    std::string Reply = run(I, std::string("deadline ") + Arg, &St);
    EXPECT_EQ(St, CommandStatus::Error) << Arg;
    EXPECT_NE(Reply.find("error: deadline wants a millisecond count"),
              std::string::npos)
        << Reply;
    EXPECT_EQ(I.deadlineMs(), 0.0) << Arg;
  }
  for (const char *Arg : {"1e13", "1e300"}) {
    CommandStatus St;
    run(I, std::string("deadline ") + Arg, &St);
    EXPECT_EQ(St, CommandStatus::Ok) << Arg;
    std::string Reply = run(I, "query Main.main.s1");
    EXPECT_NE(Reply.find("pts(Main.main.s1) = {o26:Integer}"),
              std::string::npos)
        << Arg << ": " << Reply;
    EXPECT_EQ(Reply.find("(timeout)"), std::string::npos)
        << Arg << ": " << Reply;
  }
}

//===----------------------------------------------------------------------===//
// Shutdown plumbing
//===----------------------------------------------------------------------===//

TEST(Shutdown, SignalSetsFlagAndWakesPipe) {
  ASSERT_TRUE(support::installShutdownHandlers());
  support::resetShutdownRequest();
  EXPECT_FALSE(support::shutdownRequested());
  std::raise(SIGTERM); // handled: must NOT kill the test binary
  EXPECT_TRUE(support::shutdownRequested());
  EXPECT_EQ(support::shutdownSignal(), SIGTERM);
  pollfd Fd = {support::shutdownWakeFd(), POLLIN, 0};
  EXPECT_EQ(::poll(&Fd, 1, 1000), 1);
  support::resetShutdownRequest();
  EXPECT_FALSE(support::shutdownRequested());
}

//===----------------------------------------------------------------------===//
// The socket server
//===----------------------------------------------------------------------===//

/// A blocking line-protocol client: connect, then request() sends one
/// line and reads the reply block up to its lone-"." terminator.
class TestClient {
public:
  explicit TestClient(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_in Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Port);
    Connected =
        ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0;
  }
  ~TestClient() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool connected() const { return Connected; }

  /// Reads one reply block (everything up to the "." line).
  std::string readBlock() {
    std::string Block;
    std::string Line;
    while (readLine(Line)) {
      if (Line == ".")
        return Block;
      Block += Line;
      Block += '\n';
    }
    return Block; // hangup mid-block
  }

  std::string request(const std::string &Line) {
    std::string Wire = Line + "\n";
    EXPECT_TRUE(sendAll(Wire));
    return readBlock();
  }

  bool sendAll(const std::string &Data) {
    size_t Off = 0;
    while (Off < Data.size()) {
      ssize_t W =
          ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += size_t(W);
    }
    return true;
  }

private:
  bool readLine(std::string &Line) {
    Line.clear();
    for (;;) {
      if (Pos < Buf.size()) {
        size_t Nl = Buf.find('\n', Pos);
        if (Nl != std::string::npos) {
          Line = Buf.substr(Pos, Nl - Pos);
          Pos = Nl + 1;
          return true;
        }
      }
      Buf.erase(0, Pos);
      Pos = 0;
      char Chunk[4096];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N <= 0)
        return false;
      Buf.append(Chunk, size_t(N));
    }
  }

  int Fd = -1;
  bool Connected = false;
  std::string Buf;
  size_t Pos = 0;
};

/// A started two-tenant server on an ephemeral port.
struct ServerFixture {
  AnalysisServer Server;
  explicit ServerFixture(ServerOptions O = ServerOptions()) : Server([&O] {
    O.QueryThreads = 1;
    return O;
  }()) {
    EXPECT_TRUE(Server.addTenant("alpha", figure2()));
    EXPECT_TRUE(Server.addTenant("beta", figure2()));
    std::string Error;
    EXPECT_TRUE(Server.start(Error)) << Error;
  }
};

TEST(AnalysisServer, GreetingBindAndServerVerbs) {
  ServerFixture F;
  TestClient C(F.Server.port());
  ASSERT_TRUE(C.connected());
  EXPECT_NE(C.readBlock().find("dynsum_serverd: 2 tenants"),
            std::string::npos);
  EXPECT_NE(C.request("query Main.main.s1").find("error: no tenant bound"),
            std::string::npos);
  EXPECT_NE(C.request("tenant nosuch").find("error: no tenant"),
            std::string::npos);
  std::string Tenants = C.request("tenants");
  EXPECT_NE(Tenants.find("alpha"), std::string::npos);
  EXPECT_NE(Tenants.find("beta"), std::string::npos);
  EXPECT_NE(C.request("tenant alpha").find("tenant alpha bound"),
            std::string::npos);
  EXPECT_NE(C.request("query Main.main.s1").find("{o26:Integer}"),
            std::string::npos);
  EXPECT_NE(C.request("help").find("commands:"), std::string::npos);
  // Empty request line: still exactly one (empty) reply block.
  EXPECT_EQ(C.request(""), "");
  EXPECT_NE(C.request("quit").find("bye"), std::string::npos);
}

TEST(AnalysisServer, SaveAndLoadAreRefusedOverTheSocket) {
  // The fixed hole: the REPL's "save <path>" and "load <path>" took the
  // path from any loopback client, which could overwrite or read any
  // file the server can.  Tenants persist through SnapshotDir instead.
  ServerFixture F;
  TestClient C(F.Server.port());
  ASSERT_TRUE(C.connected());
  C.readBlock();
  std::string Path = ::testing::TempDir() + "/dynsum_socket_save_probe.dsum";
  std::remove(Path.c_str());
  auto ExpectRefused = [&](const std::string &Verb) {
    std::string Reply = C.request(Verb + " " + Path);
    EXPECT_EQ(Reply.rfind("error: ", 0), 0u) << Reply;
    EXPECT_EQ(Reply.find('\n'), Reply.size() - 1) << "one line: " << Reply;
    EXPECT_NE(Reply.find("--snapshot-dir"), std::string::npos) << Reply;
  };
  ExpectRefused("save");
  C.request("tenant alpha");
  C.request("query Main.main.s1"); // give the store something to save
  ExpectRefused("save");
  ExpectRefused("load");
  EXPECT_NE(::access(Path.c_str(), F_OK), 0) << "no file may appear";
  EXPECT_EQ(C.request("help").find("save"), std::string::npos);
  // The session survives.
  EXPECT_NE(C.request("query Main.main.s1").find("{o26:Integer}"),
            std::string::npos);
}

TEST(AnalysisServer, OverlongProtocolLineIsOneError) {
  ServerFixture F;
  TestClient C(F.Server.port());
  ASSERT_TRUE(C.connected());
  C.readBlock();
  C.request("tenant alpha");
  std::string Long = "query " + std::string(10000, 'x');
  EXPECT_NE(C.request(Long).find("error: line exceeds"), std::string::npos);
  // The session survives and the next command parses cleanly.
  EXPECT_NE(C.request("query Main.main.s1").find("{o26:Integer}"),
            std::string::npos);
}

TEST(AnalysisServer, TenantIsolation) {
  ServerFixture F;
  TestClient A(F.Server.port()), B(F.Server.port());
  ASSERT_TRUE(A.connected() && B.connected());
  A.readBlock();
  B.readBlock();
  A.request("tenant alpha");
  B.request("tenant beta");
  // Mutate alpha: new alloc site flows into its answer...
  A.request("alloc Main.main s1 String");
  EXPECT_NE(A.request("commit").find("generation 1"), std::string::npos);
  EXPECT_NE(A.request("query Main.main.s1").find("s1@serve:String"),
            std::string::npos);
  // ...and beta's program, generation and answer are untouched.
  std::string BReply = B.request("query Main.main.s1");
  EXPECT_NE(BReply.find("pts(Main.main.s1) = {o26:Integer}"),
            std::string::npos)
      << BReply;
  EXPECT_EQ(BReply.find("s1@serve"), std::string::npos) << BReply;
  EXPECT_NE(B.request("stats").find("generation 0"), std::string::npos);
}

TEST(AnalysisServer, ConnectionCapShedsWellFormed) {
  ServerOptions O;
  O.MaxConnections = 1;
  ServerFixture F(O);
  TestClient First(F.Server.port());
  ASSERT_TRUE(First.connected());
  First.readBlock(); // occupy the only slot
  // Everything past the cap gets the refusal block, then a close —
  // never a hang, never garbage.
  for (int I = 0; I < 3; ++I) {
    TestClient Shed(F.Server.port());
    ASSERT_TRUE(Shed.connected());
    EXPECT_NE(Shed.readBlock().find("error: server overloaded"),
              std::string::npos);
  }
  EXPECT_GE(F.Server.shedConnections(), 3u);
  // The admitted session still works.
  First.request("tenant alpha");
  EXPECT_NE(First.request("query Main.main.s1").find("{o26:Integer}"),
            std::string::npos);
}

TEST(AnalysisServer, ConcurrentMultiClientMixedTraffic) {
  // 4 clients × 2 tenants of interleaved edit/query/commit traffic.
  // Every reply must be well-formed (this test runs under TSan in CI,
  // so it is also the data-race gate for the server).
  ServerOptions O;
  O.CommitThreads = 2;
  ServerFixture F(O);
  std::atomic<int> Failures{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T < 4; ++T) {
    Clients.emplace_back([&F, &Failures, T] {
      TestClient C(F.Server.port());
      if (!C.connected()) {
        ++Failures;
        return;
      }
      C.readBlock();
      const char *Tenant = (T % 2 == 0) ? "alpha" : "beta";
      if (C.request(std::string("tenant ") + Tenant).find("bound") ==
          std::string::npos) {
        ++Failures;
        return;
      }
      for (int I = 0; I < 12; ++I) {
        std::string Reply;
        switch (I % 4) {
        case 0:
          Reply = C.request("query Main.main.s1 Main.main.s2");
          if (Reply.find("pts(") == std::string::npos &&
              Reply.find("(overloaded)") == std::string::npos)
            ++Failures;
          break;
        case 1:
          Reply = C.request("alloc Main.main v" + std::to_string(T) +
                            " Integer");
          if (Reply.find("buffered:") == std::string::npos)
            ++Failures;
          break;
        case 2:
          Reply = C.request("commit --async");
          if (Reply.find("queued async commit") == std::string::npos)
            ++Failures;
          break;
        default:
          Reply = C.request("stats");
          if (Reply.find("generation") == std::string::npos)
            ++Failures;
          break;
        }
      }
      C.request("quit");
    });
  }
  for (std::thread &T : Clients)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  F.Server.stop(); // drain with traffic done: joins cleanly
}

TEST(AnalysisServer, StopUnblocksLiveSessions) {
  auto F = std::make_unique<ServerFixture>();
  TestClient C(F->Server.port());
  ASSERT_TRUE(C.connected());
  C.readBlock();
  C.request("tenant alpha");
  // Stop with the session parked in recv: drain must shut it down and
  // join without hanging.
  std::thread Stopper([&F] { F->Server.stop(); });
  EXPECT_EQ(C.readBlock(), ""); // hangup surfaces as an empty block
  Stopper.join();
}

} // namespace
