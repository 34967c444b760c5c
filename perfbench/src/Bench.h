//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: options, the result
/// record every workload fills, sample statistics, the span recorder of
/// the traced run, the seeded inputs (program text, query pool, Zipf
/// streams), the NOREFINE reference, and the two ways a workload reaches
/// a tenant — over a loopback socket to an in-process AnalysisServer, or
/// by replaying the same command lines in-process through the public
/// calls the server makes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "analysis/Query.h"
#include "ir/Program.h"
#include "service/AnalysisService.h"
#include "support/Random.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using namespace dynsum;

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

//===----------------------------------------------------------------------===//
// Options and results
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Tiny programs and short windows, for the benchmark's own tests.
  bool Smoke = false;
  std::string WorkDir;
  /// The sources measured: a git commit or a digest of the tree.
  std::string Source = "unknown";
};

/// One reported number with its unit and the samples behind it.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
  uint64_t Samples = 0;
  /// Extra context printed next to the value (a tail's percentile).
  std::string Note;
};

/// Everything one run reports.
struct Result {
  /// The workload's named end-to-end metrics, in print order.
  std::vector<Metric> EndToEnd;
  /// The traced run's per-layer metrics.
  std::vector<Metric> Layers;
  /// Provenance: the configuration the numbers describe.
  std::vector<std::pair<std::string, std::string>> Provenance;
  /// Counts a single-threaded path repeats exactly.
  std::vector<std::pair<std::string, uint64_t>> Counts;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Answers checked against the reference.
  uint64_t Comparisons = 0;
  /// Failure breakdown (error replies, budget, mismatches, ...).
  std::map<std::string, uint64_t> Failures;

  void fail(const std::string &Why, uint64_t N = 1) {
    if (N == 0)
      return;
    Failed += N;
    Failures[Why] += N;
  }
  void add(std::string Name, double Value, std::string Unit, uint64_t Samples,
           std::string Note = "") {
    EndToEnd.push_back(
        {std::move(Name), Value, std::move(Unit), Samples, std::move(Note)});
  }
  /// A timing in ms: the median of \p Samples, noted with its tail (see
  /// tailOf) and \p Note.
  void timing(std::string Name, const std::vector<double> &Samples,
              const std::string &Note = "");
  void layer(std::string Name, double Value, std::string Unit,
             uint64_t Samples) {
    Layers.push_back({std::move(Name), Value, std::move(Unit), Samples, ""});
  }
  void prov(std::string Key, std::string Value) {
    Provenance.emplace_back(std::move(Key), std::move(Value));
  }
};

//===----------------------------------------------------------------------===//
// Sample statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);

/// The highest percentile of \p V that still has at least ten samples
/// beyond it, with that percentile (0 when there are fewer than 11).
struct Tail {
  double Value = 0.0;
  double Percentile = 0.0;
};
Tail tailOf(std::vector<double> V);

/// Nearest-rank percentile \p P in [0, 1].
double percentile(std::vector<double> V, double P);

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// \p V with \p Decimals digits after the point.
std::string fixed(double V, int Decimals);

/// Pins the calling thread to the next of the CPUs the process may run
/// on, in turn; threads it starts from then on inherit that CPU.  The
/// single-client workloads call it before each cycle.  On a shared host
/// one vCPU ran up to 20% slower than the others for tens of seconds, and
/// a single-threaded run that the scheduler kept on it measured that
/// vCPU; rotating spreads every run evenly over all of them.
void pinNextCpu();

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// One span: a named interval, the span that caused it, and the request
/// it belongs to.  Times are nanoseconds on the steady clock.
struct Span {
  const char *Name = "";
  int64_t Start = 0;
  int64_t End = 0;
  int32_t Parent = -1;
  uint64_t Request = 0;
};

/// The spans of one connection, kept in memory until the run ends.  Its
/// client and handler threads write it in turn, never at once.  A
/// disabled log records nothing, so the same replay code runs with and
/// without spans.
class SpanLog {
public:
  explicit SpanLog(bool Enabled, uint32_t Id = 0)
      : Enabled(Enabled), Id(Id) {}

  bool enabled() const { return Enabled; }
  /// Opens a span under the innermost open one.
  int32_t open(const char *Name);
  void close(int32_t S);
  /// Records a finished span under the innermost open one.
  void add(const char *Name, int64_t Start, int64_t End);
  /// Starts a new request: spans opened from now on carry its id.
  void beginRequest() { Request = (uint64_t(Id) << 40) | ++NextRequest; }

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  uint32_t Id;
  uint64_t NextRequest = 0;
  uint64_t Request = 0;
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
};

/// RAII span on a log (null log: nothing).
class Scope {
public:
  Scope(SpanLog *L, const char *Name)
      : L(L && L->enabled() ? L : nullptr), S(this->L ? L->open(Name) : -1) {}
  ~Scope() {
    if (L)
      L->close(S);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog *L;
  int32_t S;
};

/// Self times per span name across several logs: a span's duration
/// minus the part its children cover.
struct SpanSummary {
  std::map<std::string, std::vector<double>> SelfMs;
  std::map<std::string, std::vector<double>> TotalMs;
  /// Per span name: the share of its duration its children cover.
  std::map<std::string, std::vector<double>> Coverage;
};
SpanSummary summarize(const std::vector<const SpanLog *> &Logs);

/// Writes every span as one JSON object per line.
bool writeSpans(const std::string &Path,
                const std::vector<const SpanLog *> &Logs);

//===----------------------------------------------------------------------===//
// Inputs and the reference
//===----------------------------------------------------------------------===//

/// The generator seed of every workload's program.  The program is the
/// same for every run: soot-c's analysis cost moves up to 5x between
/// generator seeds (Andersen at scale 0.2 took 0.17-1.16 s over seeds
/// 1-8 on a 4-vCPU Xeon VM), which no run length averages out.  The
/// run's --seed drives the request streams instead.
constexpr uint64_t kProgramSeed = 0;

/// The benchmark's program: soot-c at \p Scale, as textual IR (what a
/// tenant is opened from).
std::string generateProgramText(double Scale);

/// Provenance of the program a workload runs on: spec, scale, size.
void describeProgram(Result &R, double Scale, const ir::Program &P,
                     size_t TextBytes);

/// One pool entry: a spec, its variable, and the NOREFINE answer
/// (sorted allocation-site descriptions) when NOREFINE finished within
/// the budget.
struct PoolEntry {
  std::string Spec;
  ir::VarId Var = ir::kNone;
  bool Comparable = false;
  std::vector<std::string> Reference;
};

/// The NOREFINE reference over the benchmark's own copy of the program:
/// builds the copy's PAG and answers \p Vars with refinement off.
/// Element i is empty-with-false when NOREFINE ran out of budget.
struct ReferenceAnswers {
  std::vector<bool> Complete;
  std::vector<std::vector<std::string>> Sites;
};
ReferenceAnswers noRefineAnswers(const ir::Program &P,
                                 const std::vector<ir::VarId> &Vars,
                                 const analysis::AnalysisOptions &Opts,
                                 SpanLog *Log = nullptr);

/// The query pool: every 61st local whose spec resolves back to it.  The
/// order (a fixed shuffle) is the Zipf rank order; it does not move with
/// the run's seed, because the rank-1 spec lands in ~85% of 16-spec lines
/// and a seeded order made each seed's median follow that one spec's cost
/// (13% spread over five seeds against 5% on one seed, 4-vCPU Xeon VM).
std::vector<PoolEntry> buildPool(const ir::Program &P);

/// Fills in every pool entry's NOREFINE answer.  Workloads call it after
/// their timed windows, so peak_rss_mb leaves the reference out.
void attachReference(const ir::Program &P, std::vector<PoolEntry> &Pool,
                     const analysis::AnalysisOptions &Opts,
                     SpanLog *Log = nullptr);

/// A closed-loop client's stream: lines of \p PerLine specs drawn Zipf(1)
/// over the pool's order.
class ZipfStream {
public:
  ZipfStream(size_t PoolSize, uint64_t Seed) : Z(PoolSize, 1.0), R(Seed) {}
  size_t next() { return Z.sample(R); }

private:
  ZipfSampler Z;
  Rng R;
};

//===----------------------------------------------------------------------===//
// Reply parsing and checking
//===----------------------------------------------------------------------===//

/// One parsed "pts(spec) = {...}" line of a query reply.
struct ParsedAnswer {
  std::string Spec;
  std::vector<std::string> Sites; ///< sorted
  bool Incomplete = false;        ///< budget exceeded / timeout / shed
  uint64_t Steps = 0;
};

/// A parsed query reply block.
struct ParsedReply {
  bool Error = false;
  std::vector<ParsedAnswer> Answers;
  uint64_t SharedHits = 0;
  uint64_t Computed = 0;
};
ParsedReply parseQueryReply(const std::string &Block);

/// "query s1 s2 ..." for pool entries \p Idx.
std::string queryLine(const std::vector<PoolEntry> &Pool,
                      const std::vector<uint32_t> &Idx);

/// Counters summed over checked query replies.
struct ReplyCounts {
  uint64_t Answers = 0;
  uint64_t Steps = 0;
  uint64_t SharedHits = 0;
  uint64_t Computed = 0;
};

/// Checks one reply to queryLine(Pool, Idx): an error reply, a missing
/// answer or an incomplete (over-budget) one is a failure; a complete
/// answer with a complete reference must equal Pool's reference, or,
/// with \p Upper, lie between Pool's reference and Upper's.
void checkReply(const std::string &Reply, const std::vector<uint32_t> &Idx,
                const std::vector<PoolEntry> &Pool,
                const ReferenceAnswers *Upper, Result &R, ReplyCounts &C);

/// \p Idx cut into lines of \p PerLine.
std::vector<std::vector<uint32_t>> linesOf(const std::vector<uint32_t> &Idx,
                                           size_t PerLine);

//===----------------------------------------------------------------------===//
// Reaching a tenant
//===----------------------------------------------------------------------===//

/// The options every tenant runs with: one query thread, one commit
/// thread, the default budget, shedding off.
analysis::AnalysisOptions analysisOptions();

/// One client connection: a request line out, its reply block back.
class Session {
public:
  virtual ~Session();
  /// Sends \p Line and returns the reply block; sets \p Ok false on a
  /// transport failure (refused, hung up, timed out).
  virtual std::string request(const std::string &Line, bool &Ok) = 0;
};

/// One tenant's lifecycle: opened from program text, served to sessions,
/// drained (saving its snapshot when it has a snapshot path).
class Backend {
public:
  virtual ~Backend();
  /// Parses and validates \p Text and opens the tenant over it.  A
  /// nonempty \p Snapshot is both the drain target and the file the
  /// tenant warm-attaches when it exists.
  virtual bool open(const std::string &Text, const std::string &Snapshot,
                    std::string &Error) = 0;
  /// A new session bound to the tenant; \p Log receives its spans (the
  /// in-process backend only).
  virtual std::unique_ptr<Session> connect(SpanLog *Log) = 0;
  /// Drains the tenant: its snapshot is saved when it has a path.
  virtual void drain() = 0;
  /// The open tenant's service (for counters).
  virtual service::AnalysisService *service() = 0;
  /// Spans of open/drain go here (in-process backend only).
  void setLog(SpanLog *L) { Log = L; }

protected:
  SpanLog *Log = nullptr;
};

/// The tenant behind an in-process server::AnalysisServer, reached over
/// loopback TCP: what dynsum_serverd runs.
std::unique_ptr<Backend> makeSocketBackend();

/// Specs per query line.
constexpr size_t kPerLine = 16;

/// A tenant opened and warmed in set-up.
struct Prepared {
  std::unique_ptr<Backend> B;
  /// Per pool index: its answer ran out of budget, or used more than a
  /// third of it, during the warm-up.
  std::vector<bool> Bound;
  /// The pool in rank order without the budget-bound indices.
  std::vector<uint32_t> Active;
  double SetupSeconds = 0.0;
};

/// Opens a tenant from \p Text and warms its store by sending it \p Lines
/// (the whole pool, kPerLine indices a line) in order, noting every
/// budget-bound answer.  Budget use depends on what earlier queries left
/// in the store, so \p Lines should be the order the timed window sends.
Prepared prepareTenant(const std::string &Text,
                       const std::vector<PoolEntry> &Pool,
                       const std::vector<std::vector<uint32_t>> &Lines,
                       bool InProcess, SpanLog *SetupLog, Result &R);

/// \p Idx without the indices \p Bound marks, in the same order.
std::vector<uint32_t> without(const std::vector<uint32_t> &Idx,
                              const std::vector<bool> &Bound);

/// 0, 1, ..., \p N - 1: the whole pool in rank order.
std::vector<uint32_t> ranked(size_t N);

/// The same tenant served in-process: each connection is a socket pair
/// with a handler thread, as in AnalysisServer, that dispatches command
/// lines to the public calls server::CommandInterpreter makes, with spans
/// around them.
std::unique_ptr<Backend> makeInProcessBackend();

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

void runColdStart(const Options &O, Result &R);
void runServe(const Options &O, bool WithEditor, Result &R);
void runBatchClients(const Options &O, Result &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
