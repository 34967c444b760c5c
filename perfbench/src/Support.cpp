//===----------------------------------------------------------------------===//
///
/// \file
/// Statistics, spans, seeded inputs, the NOREFINE reference, reply
/// parsing, and the socket and in-process tenant backends.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/RefinePts.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Validator.h"
#include "pag/PAGBuilder.h"
#include "server/CommandInterpreter.h"
#include "server/Serverd.h"
#include "support/OStream.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <sys/resource.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = size_t(std::ceil(P * double(V.size())));
  return V[std::min(V.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

Tail tailOf(std::vector<double> V) {
  Tail T;
  if (V.size() < 11)
    return T;
  std::sort(V.begin(), V.end());
  // Keep ten samples strictly beyond the reported one.
  size_t Index = V.size() - 11;
  T.Value = V[Index];
  T.Percentile = 100.0 * double(Index + 1) / double(V.size());
  return T;
}

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string fixed(double V, int Decimals) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Decimals, V);
  return Buf;
}

void pinNextCpu() {
  // The CPUs allowed at the first call, before any pinning narrowed them.
  static const std::vector<int> Cpus = [] {
    std::vector<int> V;
    cpu_set_t Set;
    CPU_ZERO(&Set);
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Set))
          V.push_back(C);
    return V;
  }();
  static size_t Next = 0;
  if (Cpus.size() < 2)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpus[Next++ % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

void Result::timing(std::string Name, const std::vector<double> &Samples,
                    const std::string &Note) {
  Tail T = tailOf(Samples);
  std::string Full = T.Percentile > 0.0
                         ? "tail p" + fixed(T.Percentile, 1) + " = " +
                               fixed(T.Value, 3) + " ms"
                         : "no tail: fewer than 11 samples";
  if (!Note.empty())
    Full += "; " + Note;
  add(std::move(Name), median(Samples), "ms", Samples.size(), Full);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

} // namespace

int32_t SpanLog::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.Start = nowNs();
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  Spans.push_back(S);
  Stack.push_back(int32_t(Spans.size() - 1));
  return Stack.back();
}

void SpanLog::close(int32_t S) {
  Spans[size_t(S)].End = nowNs();
  if (!Stack.empty() && Stack.back() == S)
    Stack.pop_back();
}

void SpanLog::add(const char *Name, int64_t Start, int64_t End) {
  if (!Enabled)
    return;
  Span S;
  S.Name = Name;
  S.Start = Start;
  S.End = End;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  Spans.push_back(S);
}

SpanSummary summarize(const std::vector<const SpanLog *> &Logs) {
  SpanSummary Sum;
  for (const SpanLog *L : Logs) {
    const std::vector<Span> &S = L->spans();
    std::vector<int64_t> ChildNs(S.size(), 0);
    for (const Span &X : S)
      if (X.Parent >= 0)
        ChildNs[size_t(X.Parent)] += X.End - X.Start;
    for (size_t I = 0; I < S.size(); ++I) {
      double Total = double(S[I].End - S[I].Start) / 1e6;
      double Self = double(S[I].End - S[I].Start - ChildNs[I]) / 1e6;
      Sum.TotalMs[S[I].Name].push_back(Total);
      Sum.SelfMs[S[I].Name].push_back(std::max(0.0, Self));
      if (ChildNs[I] > 0 && Total > 0.0)
        Sum.Coverage[S[I].Name].push_back(double(ChildNs[I]) / 1e6 / Total);
    }
  }
  return Sum;
}

bool writeSpans(const std::string &Path,
                const std::vector<const SpanLog *> &Logs) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const SpanLog *L : Logs)
    for (const Span &S : L->spans())
      std::fprintf(F,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"request\":%llu}\n",
                   S.Name, (long long)S.Start, (long long)S.End, S.Parent,
                   (unsigned long long)S.Request);
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Inputs and the reference
//===----------------------------------------------------------------------===//

std::string generateProgramText(double Scale) {
  workload::GenOptions Gen;
  Gen.Scale = Scale;
  Gen.Seed = kProgramSeed;
  std::unique_ptr<ir::Program> P =
      workload::generateProgram(workload::specByName("soot-c"), Gen);
  return ir::programToString(*P);
}

void describeProgram(Result &R, double Scale, const ir::Program &P,
                     size_t TextBytes) {
  R.prov("spec", "soot-c, generator seed " + std::to_string(kProgramSeed));
  R.prov("scale", fixed(Scale, 2));
  R.prov("methods", std::to_string(P.methods().size()));
  R.prov("variables", std::to_string(P.variables().size()));
  R.prov("program_text_mb", fixed(double(TextBytes) / 1e6, 2));
}

namespace {

/// The protocol spec ("Class.method.var" / "method.var") of a local.
std::string querySpecOf(const ir::Program &P, ir::VarId V) {
  const ir::Variable &Var = P.variable(V);
  const ir::Method &M = P.method(Var.Owner);
  std::string Spec;
  if (M.Owner != ir::kNone) {
    Spec += P.names().text(P.classOf(M.Owner).Name);
    Spec += '.';
  }
  Spec += P.names().text(M.Name);
  Spec += '.';
  Spec += P.names().text(Var.Name);
  return Spec;
}

/// Sorted describeAlloc strings of \p Sites.
std::vector<std::string> describeSites(const ir::Program &P,
                                       const std::vector<ir::AllocId> &Sites) {
  std::vector<std::string> Out;
  Out.reserve(Sites.size());
  for (ir::AllocId A : Sites)
    Out.push_back(P.describeAlloc(A));
  std::sort(Out.begin(), Out.end());
  return Out;
}

} // namespace

ReferenceAnswers noRefineAnswers(const ir::Program &P,
                                 const std::vector<ir::VarId> &Vars,
                                 const analysis::AnalysisOptions &Opts,
                                 SpanLog *Log) {
  pag::BuiltPAG Built;
  {
    Scope S(Log, "pag.build");
    Built = pag::buildPAG(P);
  }
  analysis::RefinePtsAnalysis NoRefine(*Built.Graph, Opts,
                                       /*Refinement=*/false);
  ReferenceAnswers R;
  R.Complete.resize(Vars.size(), false);
  R.Sites.resize(Vars.size());
  for (size_t I = 0; I < Vars.size(); ++I) {
    analysis::QueryResult Q = NoRefine.query(Built.Graph->nodeOfVar(Vars[I]));
    if (Q.BudgetExceeded)
      continue;
    R.Complete[I] = true;
    R.Sites[I] = describeSites(P, Q.allocSites());
  }
  return R;
}

std::vector<PoolEntry> buildPool(const ir::Program &P) {
  std::vector<PoolEntry> Pool;
  for (ir::VarId V : workload::probeVariables(P, 61)) {
    PoolEntry E;
    E.Spec = querySpecOf(P, V);
    E.Var = V;
    if (server::resolveVarSpec(P, E.Spec) == V)
      Pool.push_back(std::move(E));
  }
  Rng R(0x5EED);
  for (size_t I = Pool.size(); I > 1; --I)
    std::swap(Pool[I - 1], Pool[R.nextBelow(I)]);
  return Pool;
}

void attachReference(const ir::Program &P, std::vector<PoolEntry> &Pool,
                     const analysis::AnalysisOptions &Opts, SpanLog *Log) {
  std::vector<ir::VarId> Vars;
  for (const PoolEntry &E : Pool)
    Vars.push_back(E.Var);
  ReferenceAnswers Ref = noRefineAnswers(P, Vars, Opts, Log);
  for (size_t I = 0; I < Pool.size(); ++I) {
    Pool[I].Comparable = Ref.Complete[I];
    Pool[I].Reference = std::move(Ref.Sites[I]);
  }
}

//===----------------------------------------------------------------------===//
// Reply parsing
//===----------------------------------------------------------------------===//

namespace {

uint64_t parseCount(const std::string &S, size_t From) {
  uint64_t N = 0;
  while (From < S.size() && S[From] >= '0' && S[From] <= '9')
    N = N * 10 + uint64_t(S[From++] - '0');
  return N;
}

} // namespace

ParsedReply parseQueryReply(const std::string &Block) {
  ParsedReply R;
  size_t Pos = 0;
  while (Pos < Block.size()) {
    size_t Nl = Block.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Block.size();
    std::string Line = Block.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    if (Line.compare(0, 6, "error:") == 0) {
      R.Error = true;
      continue;
    }
    if (Line.compare(0, 12, "[generation ") == 0) {
      size_t Colon = Line.find(": ");
      if (Colon != std::string::npos) {
        R.SharedHits = parseCount(Line, Colon + 2);
        size_t Comma = Line.find(", ", Colon);
        if (Comma != std::string::npos)
          R.Computed = parseCount(Line, Comma + 2);
      }
      continue;
    }
    if (Line.compare(0, 4, "pts(") != 0)
      continue;
    size_t Eq = Line.find(") = {");
    size_t Close = Eq == std::string::npos ? Eq : Line.find('}', Eq);
    if (Close == std::string::npos) {
      R.Error = true;
      continue;
    }
    ParsedAnswer A;
    A.Spec = Line.substr(4, Eq - 4);
    size_t Item = Eq + 5;
    while (Item < Close) {
      size_t Sep = Line.find(", ", Item);
      if (Sep == std::string::npos || Sep > Close)
        Sep = Close;
      A.Sites.push_back(Line.substr(Item, Sep - Item));
      Item = Sep + 2;
    }
    std::sort(A.Sites.begin(), A.Sites.end());
    size_t Steps = Line.find("  [", Close);
    A.Incomplete = Line.find(" (", Close) < Steps;
    if (Steps != std::string::npos)
      A.Steps = parseCount(Line, Steps + 3);
    R.Answers.push_back(std::move(A));
  }
  return R;
}

namespace {

/// True when sorted \p A is a subset of sorted \p B.
bool subsetOf(const std::vector<std::string> &A,
              const std::vector<std::string> &B) {
  return std::includes(B.begin(), B.end(), A.begin(), A.end());
}

} // namespace

std::string queryLine(const std::vector<PoolEntry> &Pool,
                      const std::vector<uint32_t> &Idx) {
  std::string Line = "query";
  for (uint32_t I : Idx) {
    Line += ' ';
    Line += Pool[I].Spec;
  }
  return Line;
}

void checkReply(const std::string &Reply, const std::vector<uint32_t> &Idx,
                const std::vector<PoolEntry> &Pool,
                const ReferenceAnswers *Upper, Result &R, ReplyCounts &C) {
  ParsedReply P = parseQueryReply(Reply);
  if (P.Error || P.Answers.size() != Idx.size()) {
    R.fail("error reply");
    return;
  }
  C.SharedHits += P.SharedHits;
  C.Computed += P.Computed;
  for (size_t J = 0; J < Idx.size(); ++J) {
    const ParsedAnswer &A = P.Answers[J];
    const PoolEntry &E = Pool[Idx[J]];
    ++C.Answers;
    C.Steps += A.Steps;
    if (A.Spec != E.Spec) {
      R.fail("error reply");
      continue;
    }
    if (A.Incomplete) {
      R.fail("budget exceeded");
      continue;
    }
    if (!E.Comparable)
      continue;
    bool Ok = false;
    if (!Upper) {
      Ok = A.Sites == E.Reference;
    } else {
      if (!Upper->Complete[Idx[J]])
        continue;
      Ok = subsetOf(E.Reference, A.Sites) &&
           subsetOf(A.Sites, Upper->Sites[Idx[J]]);
    }
    ++R.Comparisons;
    if (!Ok)
      R.fail("reference mismatch");
  }
}

namespace {

/// Pool indices whose answer in \p Reply (to queryLine(Pool, Idx)) is
/// incomplete or took more than a third of the budget: the budget-bound
/// entries set-up drops.  The margin is for serve-edit, where commits
/// drop summaries an answer reused and edits add flow: at scale 0.5 one
/// spec took 35k of the 75k steps in set-up and ran out of budget in
/// about one window in three, while every other one stayed under 15k.
void collectBudgetBound(const std::string &Reply,
                        const std::vector<uint32_t> &Idx,
                        std::vector<bool> &BudgetBound) {
  const uint64_t Budget = analysisOptions().BudgetPerQuery;
  ParsedReply P = parseQueryReply(Reply);
  for (size_t J = 0; J < Idx.size() && J < P.Answers.size(); ++J)
    if (P.Answers[J].Incomplete || 3 * P.Answers[J].Steps > Budget)
      BudgetBound[Idx[J]] = true;
}

} // namespace

std::vector<std::vector<uint32_t>> linesOf(const std::vector<uint32_t> &Idx,
                                           size_t PerLine) {
  std::vector<std::vector<uint32_t>> Lines;
  for (size_t I = 0; I < Idx.size(); I += PerLine)
    Lines.emplace_back(Idx.begin() + long(I),
                       Idx.begin() + long(std::min(Idx.size(), I + PerLine)));
  return Lines;
}

//===----------------------------------------------------------------------===//
// Backends
//===----------------------------------------------------------------------===//

analysis::AnalysisOptions analysisOptions() { return analysis::AnalysisOptions(); }

Session::~Session() = default;
Backend::~Backend() = default;

namespace {

constexpr const char *kTenant = "bench";

std::string snapshotPath(const std::string &Dir) {
  return Dir + "/" + kTenant + ".dsum";
}

/// Parses and validates program text, as dynsum_serverd does before it
/// registers a tenant.
std::unique_ptr<ir::Program> loadText(const std::string &Text,
                                      std::string &Error, SpanLog *Log) {
  ir::ParseResult R;
  {
    Scope S(Log, "ir.parse");
    R = ir::parseProgram(Text);
  }
  if (!R.ok()) {
    Error = R.Error;
    return nullptr;
  }
  std::vector<std::string> Problems;
  {
    Scope S(Log, "ir.validate");
    Problems = ir::validate(*R.Prog);
  }
  if (!Problems.empty()) {
    Error = Problems.front();
    return nullptr;
  }
  return std::move(R.Prog);
}

//===--- Socket ---------------------------------------------------------===//

bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t W = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += size_t(W);
  }
  return true;
}

/// A reply that takes longer than this counts as a timed-out operation.
void setReceiveTimeout(int Fd) {
  timeval Timeout{60, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
}

class SocketSession : public Session {
public:
  explicit SocketSession(int Fd) : Fd(Fd) {}
  ~SocketSession() override {
    if (Fd >= 0)
      ::close(Fd);
  }
  SocketSession(const SocketSession &) = delete;
  SocketSession &operator=(const SocketSession &) = delete;

  std::string request(const std::string &Line, bool &Ok) override {
    if (!sendAll(Fd, Line + "\n")) {
      Ok = false;
      return {};
    }
    return readBlock(Ok);
  }

  /// Reads up to the lone "." line that ends every reply block.
  std::string readBlock(bool &Ok) {
    for (;;) {
      size_t Nl = Buf.find('\n', Scanned);
      if (Nl != std::string::npos) {
        if (Nl == Scanned + 1 && Buf[Scanned] == '.') {
          std::string Block(Buf, 0, Scanned);
          Buf.erase(0, Nl + 1);
          Scanned = 0;
          Ok = true;
          return Block;
        }
        Scanned = Nl + 1;
        continue;
      }
      char Chunk[65536];
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0) {
        Ok = false; // hangup, refusal or receive timeout
        return Buf;
      }
      Buf.append(Chunk, size_t(N));
    }
  }

private:
  int Fd;
  std::string Buf;
  size_t Scanned = 0; ///< start of the first line not yet ended
};

class SocketBackend : public Backend {
public:
  bool open(const std::string &Text, const std::string &SnapshotDir,
            std::string &Error) override {
    std::unique_ptr<ir::Program> P = loadText(Text, Error, nullptr);
    if (!P)
      return false;
    server::ServerOptions SO;
    SO.MaxConnections = 8;
    SO.QueryThreads = 1;
    SO.CommitThreads = 1;
    SO.SnapshotDir = SnapshotDir;
    SO.Analysis = analysisOptions();
    Server = std::make_unique<server::AnalysisServer>(SO);
    if (!Server->addTenant(kTenant, std::move(P))) {
      Error = "addTenant failed";
      return false;
    }
    return Server->start(Error);
  }

  std::unique_ptr<Session> connect(SpanLog *) override {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return nullptr;
    setReceiveTimeout(Fd);
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Server->port());
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
        0) {
      ::close(Fd);
      return nullptr;
    }
    auto S = std::make_unique<SocketSession>(Fd);
    bool Ok = false;
    std::string Greeting = S->readBlock(Ok);
    if (!Ok || Greeting.compare(0, 6, "error:") == 0)
      return nullptr;
    std::string Bound = S->request(std::string("tenant ") + kTenant, Ok);
    if (!Ok || Bound.compare(0, 6, "tenant") != 0)
      return nullptr;
    return S;
  }

  void drain() override {
    if (Server)
      Server->stop();
    Server.reset();
  }

  service::AnalysisService *service() override { return nullptr; }

private:
  std::unique_ptr<server::AnalysisServer> Server;
};

//===--- In-process -----------------------------------------------------===//

/// The tenant state the in-process sessions share: the program lock the
/// server hands every CommandInterpreter, and the service.
struct InProcessTenant {
  std::shared_mutex ProgramLock;
  std::unique_ptr<service::AnalysisService> Service;
};

/// Dispatches command lines to the calls server::CommandInterpreter
/// makes for them, with a span around each layer's part, and replies in
/// the same text format so the checks are shared with the socket path.
class Dispatcher {
public:
  Dispatcher(InProcessTenant &T, SpanLog *Log) : T(T), Log(Log) {}

  std::string run(const std::string &Line) {
    std::vector<std::string> W = server::splitWords(Line);
    if (W.empty())
      return {};
    if (W[0] == "query")
      return query(W);
    if ((W[0] == "alloc" || W[0] == "assign") && W.size() == 4)
      return edit(W);
    if (W[0] == "commit")
      return commit();
    return "error: bad command\n";
  }

private:
  service::AnalysisService &svc() { return *T.Service; }

  std::string query(const std::vector<std::string> &W) {
    Scope Q(Log, "server.query");
    std::shared_lock<std::shared_mutex> Lock(T.ProgramLock);
    std::vector<ir::VarId> Vars;
    {
      Scope S(Log, "server.resolve");
      for (size_t I = 1; I < W.size(); ++I) {
        ir::VarId V = server::resolveVarSpec(svc().program(), W[I]);
        if (V == ir::kNone)
          return "error: no variable '" + W[I] + "'\n";
        Vars.push_back(V);
      }
    }
    service::ServiceBatchResult R;
    {
      Scope S(Log, "service.query");
      R = svc().queryVars(Vars);
      if (Log && Log->enabled()) {
        int64_t End = nowNs();
        Log->add("engine.batch", End - int64_t(R.Stats.Seconds * 1e9), End);
      }
    }
    Scope S(Log, "server.reply");
    StringOStream Out;
    for (size_t I = 0; I < Vars.size(); ++I) {
      const engine::QueryOutcome &O = R.Outcomes[I];
      Out << "pts(" << W[I + 1] << ") = {";
      for (size_t A = 0; A < O.AllocSites.size(); ++A)
        Out << (A ? ", " : "") << svc().program().describeAlloc(O.AllocSites[A]);
      Out << "}";
      if (O.Status != analysis::QueryStatus::Ok)
        Out << " (" << analysis::toString(O.Status) << ")";
      else if (O.BudgetExceeded)
        Out << " (budget exceeded)";
      Out << "  [" << O.Steps << " steps]\n";
    }
    Out << "[generation " << R.Generation << ": " << R.Stats.SharedHits
        << " shared hits, " << R.Stats.SummariesComputed << " computed]\n";
    return Out.str();
  }

  /// alloc/assign exactly as CommandInterpreter::runAlloc/runAssign, the
  /// exclusive program-lock wait included.
  std::string edit(const std::vector<std::string> &W) {
    Scope S(Log, "server.edit");
    std::unique_lock<std::shared_mutex> Lock(T.ProgramLock);
    ir::Program &P = svc().program();
    ir::MethodId M = server::resolveMethodSpec(P, W[1]);
    if (M == ir::kNone)
      return "error: unknown method\n";
    if (W[0] == "alloc") {
      ir::TypeId Ty = P.findClass(P.names().lookup(W[3]));
      if (Ty == ir::kNone)
        return "error: unknown class\n";
      svc().editProgram([&](ir::Program &Q) {
        ir::VarId Dst = server::resolveVarSpec(Q, W[1] + "." + W[2]);
        if (Dst == ir::kNone)
          Dst = Q.createLocal(Q.name(W[2]), M, Ty);
        ir::Statement New;
        New.Kind = ir::StmtKind::Alloc;
        New.Dst = Dst;
        New.Type = Ty;
        New.Alloc = Q.createAllocSite(Ty, M, Q.name(W[2] + "@serve"));
        Q.addStatement(M, std::move(New));
        return std::vector<ir::MethodId>{M};
      });
      return "buffered\n";
    }
    ir::VarId Dst = server::resolveVarSpec(P, W[1] + "." + W[2]);
    ir::VarId Src = server::resolveVarSpec(P, W[1] + "." + W[3]);
    if (Dst == ir::kNone || Src == ir::kNone)
      return "error: unknown variable\n";
    ir::Statement St;
    St.Kind = ir::StmtKind::Assign;
    St.Dst = Dst;
    St.Src = Src;
    svc().addStatement(M, std::move(St));
    return "buffered\n";
  }

  /// A foreground commit; its CommitStats phases become child spans laid
  /// end to end from the commit's start (their order inside the commit).
  std::string commit() {
    int64_t Start = nowNs();
    Scope S(Log, "service.commit");
    incremental::CommitStats CS =
        svc().submitCommit(service::CommitRequest()).wait();
    if (Log && Log->enabled()) {
      int64_t At = Start;
      auto Phase = [&](const char *Name, double Seconds) {
        int64_t Ns = int64_t(Seconds * 1e9);
        Log->add(Name, At, At + Ns);
        At += Ns;
      };
      double Phases = CS.CloneSeconds + CS.ShapeSeconds + CS.LowerSeconds +
                      CS.ApplySeconds + CS.RepackSeconds;
      Phase("pag.commit_clone", CS.CloneSeconds);
      Phase("pag.commit_shape", CS.ShapeSeconds);
      Phase("pag.commit_lower", CS.LowerSeconds);
      Phase("pag.commit_apply", CS.ApplySeconds);
      Phase("pag.commit_repack", CS.RepackSeconds);
      Phase("incremental.plan", std::max(0.0, CS.Seconds - Phases));
    }
    if (CS.Outcome != incremental::CommitOutcome::Committed &&
        CS.Outcome != incremental::CommitOutcome::NoOp)
      return std::string("error: commit ") + incremental::toString(CS.Outcome) +
             "\n";
    StringOStream Out;
    Out << "generation " << svc().generation() << ": dropped "
        << CS.SummariesDropped << "/" << CS.SummariesBefore
        << " store summaries, " << CS.MethodsInvalidated
        << " methods invalidated, " << CS.MethodsRelowered << " re-lowered\n";
    return Out.str();
  }

  InProcessTenant &T;
  SpanLog *Log;
};

/// A connection's handler thread, as AnalysisServer runs one per client:
/// reads request lines from its end of a socket pair, dispatches them and
/// writes each reply block.  A client therefore waits for its reply as it
/// does over TCP, and the gap between one reader's requests, which decides
/// how long an editor waits for the program lock, keeps its shape.  The
/// client's request span is open while the handler adds its child spans
/// to the same log; the socket round trip orders the two threads.
void serveConnection(int Fd, InProcessTenant &T, SpanLog *Log) {
  Dispatcher D(T, Log);
  std::string Buf;
  char Chunk[65536];
  for (;;) {
    size_t Nl;
    while ((Nl = Buf.find('\n')) == std::string::npos) {
      ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return;
      Buf.append(Chunk, size_t(N));
    }
    std::string Line = Buf.substr(0, Nl);
    Buf.erase(0, Nl + 1);
    if (!sendAll(Fd, D.run(Line) + ".\n"))
      return;
  }
}

class InProcessBackend : public Backend {
public:
  ~InProcessBackend() override { drain(); }

  bool open(const std::string &Text, const std::string &SnapshotDir,
            std::string &Error) override {
    std::unique_ptr<ir::Program> P = loadText(Text, Error, Log);
    if (!P)
      return false;
    // The options AnalysisServer::addTenant stamps on a tenant.
    service::ServiceOptions SO;
    SO.Engine.NumThreads = 1;
    SO.Engine.Analysis = analysisOptions();
    SO.Commit = support::ExecContext(1);
    Snapshot = SnapshotDir.empty() ? "" : snapshotPath(SnapshotDir);
    SO.WarmFromDiskPath = Snapshot;
    Scope S(Log, "service.open");
    T = std::make_unique<InProcessTenant>();
    T->Service = std::make_unique<service::AnalysisService>(std::move(P), SO);
    return true;
  }

  std::unique_ptr<Session> connect(SpanLog *L) override {
    int Fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0)
      return nullptr;
    setReceiveTimeout(Fds[0]);
    HandlerFds.push_back(Fds[1]);
    Handlers.emplace_back(serveConnection, Fds[1], std::ref(*T), L);
    return std::make_unique<SocketSession>(Fds[0]);
  }

  /// The server's drain: every connection is shut down and its handler
  /// joined, then the tenant's service saves its snapshot and goes away.
  void drain() override {
    for (int Fd : HandlerFds)
      ::shutdown(Fd, SHUT_RDWR);
    for (std::thread &H : Handlers)
      H.join();
    for (int Fd : HandlerFds)
      ::close(Fd);
    Handlers.clear();
    HandlerFds.clear();
    if (!T)
      return;
    if (!Snapshot.empty()) {
      Scope S(Log, "store.snapshot_save");
      T->Service->saveSummaries(Snapshot);
    }
    T.reset();
  }

  service::AnalysisService *service() override {
    return T ? T->Service.get() : nullptr;
  }

private:
  std::unique_ptr<InProcessTenant> T;
  std::string Snapshot;
  std::vector<int> HandlerFds;
  std::vector<std::thread> Handlers;
};

} // namespace

std::vector<uint32_t> without(const std::vector<uint32_t> &Idx,
                              const std::vector<bool> &Bound) {
  std::vector<uint32_t> Out;
  for (uint32_t I : Idx)
    if (!Bound[I])
      Out.push_back(I);
  return Out;
}

std::vector<uint32_t> ranked(size_t N) {
  std::vector<uint32_t> All(N);
  for (uint32_t I = 0; I < All.size(); ++I)
    All[I] = I;
  return All;
}

Prepared prepareTenant(const std::string &Text,
                       const std::vector<PoolEntry> &Pool,
                       const std::vector<std::vector<uint32_t>> &Lines,
                       bool InProcess, SpanLog *SetupLog, Result &R) {
  Prepared P;
  P.B = InProcess ? makeInProcessBackend() : makeSocketBackend();
  P.B->setLog(SetupLog);
  std::string Error;
  if (!P.B->open(Text, "", Error)) {
    R.fail("open failed: " + Error);
    P.B.reset();
    return P;
  }
  std::unique_ptr<Session> S = P.B->connect(nullptr);
  if (!S) {
    R.fail("refused connection");
    P.B.reset();
    return P;
  }
  P.Bound.assign(Pool.size(), false);
  for (const std::vector<uint32_t> &Line : Lines) {
    bool Ok = false;
    std::string Reply = S->request(queryLine(Pool, Line), Ok);
    if (!Ok)
      R.fail("transport");
    collectBudgetBound(Reply, Line, P.Bound);
  }
  P.Active = without(ranked(Pool.size()), P.Bound);
  return P;
}

std::unique_ptr<Backend> makeSocketBackend() {
  return std::make_unique<SocketBackend>();
}

std::unique_ptr<Backend> makeInProcessBackend() {
  return std::make_unique<InProcessBackend>();
}

} // namespace perfbench
