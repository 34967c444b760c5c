//===----------------------------------------------------------------------===//
///
/// \file
/// Commit latency of the AnalysisService at 1k/10k/100k methods: the
/// commit-side numbers perfbench does not measure (its serve-edit
/// workload runs one commit thread on programs of under 2k methods).
///
/// Part 1 measures commit latency itself: p50/p95 of delta commits
/// (single-method edits, per-method re-lower over the cloned previous
/// generation) against from-scratch commits (forced full re-lower).
/// The commit.<size>.* keys feed the CI assertion that the 10k delta
/// p50 beats the from-scratch row.
///
/// Part 2 measures the PARALLEL commit pipeline: the same delta
/// commits at 1/2/8 commit threads on the 10k and 100k programs
/// (copy-on-write snapshot, shape sweep, staged lowering, partitioned
/// repack, boundary diff), plus the async path — how long a background
/// submitCommit holds the calling thread versus a blocking commit.
/// The pcommit.* keys feed the CI gate that 8-thread delta commits beat
/// single-thread on the 10k program.
///
/// Part 3 measures generation retention: a commit's snapshot step is a
/// chunk-table copy, and a retained generation holds only the chunks
/// later deltas split away from it.  The gen.<size>.* keys record the
/// snapshot cost and the retained fraction; the CI gate pins both so a
/// deep clone cannot creep back in.
///
/// Flags: the harness's --seed, --threads (query-engine threads) and
/// --json=<file>, plus --commit-max-methods=N, which skips the sizes
/// above N (the CI smoke runs up to 10k).  The harness's --scale is
/// accepted and ignored: each row fixes its own program size.  Every
/// edit is a step of the shared workload::applyScriptEdit script.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "service/AnalysisService.h"
#include "support/OStream.h"
#include "support/PrettyTable.h"
#include "support/Timer.h"

#include <algorithm>

using namespace dynsum;
using namespace dynsum::bench;
using namespace dynsum::incremental;
using namespace dynsum::service;

namespace {

/// Nearest-rank percentile over a sample copy.
double percentile(std::vector<double> Samples, double P) {
  std::sort(Samples.begin(), Samples.end());
  size_t I = size_t(P * double(Samples.size() - 1) + 0.5);
  return Samples[I];
}

/// A generated soot-c program of about \p Methods methods (soot-c is
/// 3.4k methods at scale 1).
std::unique_ptr<ir::Program> programOfSize(size_t Methods, uint64_t Seed) {
  workload::GenOptions Gen;
  Gen.Scale = double(Methods) / 3400.0;
  Gen.Seed = Seed;
  return workload::generateProgram(workload::specByName("soot-c"), Gen);
}

/// Walks a service through the shared edit script, one step per edit.
class Editor {
public:
  explicit Editor(AnalysisService &S) : S(S) {}

  void edit() {
    S.editProgram(
        [this](ir::Program &P) { return workload::applyScriptEdit(P, Step); });
    ++Step;
  }

  /// One edit, committed in the foreground.
  CommitStats commit(CommitMode Mode = CommitMode::Delta) {
    edit();
    return S.submitCommit({Mode, /*Background=*/false}).wait();
  }

private:
  AnalysisService &S;
  unsigned Step = 0;
};

ServiceOptions serviceOptions(const HarnessOptions &Opts) {
  ServiceOptions SO;
  SO.Engine = Opts.engineOptions(Opts.Threads);
  return SO;
}

/// Part 1: delta vs from-scratch commit latency.
void measureDeltaVsScratch(const HarnessOptions &Opts, uint64_t MaxMethods,
                           BenchJson &Json) {
  outs() << "=== Commit latency: delta vs from-scratch (single-method "
            "edits) ===\n\n";
  struct SizeRow {
    const char *Label;
    size_t Methods;
    unsigned DeltaSamples;
    unsigned ScratchSamples;
  };
  const SizeRow Rows[] = {
      {"1k", 1000, 9, 5},
      {"10k", 10000, 9, 3},
      {"100k", 100000, 7, 3},
  };

  PrettyTable CT;
  CT.row()
      .cell("methods")
      .cell("delta p50 ms")
      .cell("delta p95 ms")
      .cell("scratch p50 ms")
      .cell("scratch p95 ms")
      .cell("speedup p50")
      .cell("relowered");

  for (const SizeRow &Row : Rows) {
    if (Row.Methods > MaxMethods)
      continue;
    AnalysisService S(programOfSize(Row.Methods, Opts.Seed),
                      serviceOptions(Opts));
    Editor E(S);
    E.commit(); // warm-up: first-edit paths
    std::vector<double> DeltaMs, ScratchMs;
    uint64_t Relowered = 0;
    for (unsigned I = 0; I < Row.DeltaSamples; ++I) {
      DeltaMs.push_back(E.commit().Seconds * 1e3);
      Relowered += S.stats().LastCommitRelowered;
    }
    for (unsigned I = 0; I < Row.ScratchSamples; ++I)
      ScratchMs.push_back(E.commit(CommitMode::Scratch).Seconds * 1e3);

    double DP50 = percentile(DeltaMs, 0.5), DP95 = percentile(DeltaMs, 0.95);
    double SP50 = percentile(ScratchMs, 0.5),
           SP95 = percentile(ScratchMs, 0.95);
    CT.row()
        .cell(Row.Label)
        .cell(DP50, 2)
        .cell(DP95, 2)
        .cell(SP50, 2)
        .cell(SP95, 2)
        .cell(DP50 > 0.0 ? SP50 / DP50 : 0.0, 1)
        .cell(Relowered / Row.DeltaSamples);

    std::string Prefix = std::string("commit.") + Row.Label;
    Json.set(Prefix + ".methods", uint64_t(Row.Methods));
    Json.set(Prefix + ".delta_p50_ms", DP50);
    Json.set(Prefix + ".delta_p95_ms", DP95);
    Json.set(Prefix + ".scratch_p50_ms", SP50);
    Json.set(Prefix + ".scratch_p95_ms", SP95);
    Json.set(Prefix + ".speedup_p50", DP50 > 0.0 ? SP50 / DP50 : 0.0);
  }
  CT.print(outs());
  outs() << "\ndelta commits clone the previous generation's graph and\n"
            "re-lower only the edited method; from-scratch forces every\n"
            "method through lowering again (the pre-delta commit path).\n";
}

/// Part 2: delta commits at 1/2/8 commit threads, and the async
/// enqueue cost.
void measureParallelCommits(const HarnessOptions &Opts, uint64_t MaxMethods,
                            BenchJson &Json) {
  outs() << "\n=== Parallel commit pipeline: delta commits at 1/2/8 "
            "commit threads ===\n\n";
  struct PSizeRow {
    const char *Label;
    size_t Methods;
    unsigned Samples;
  };
  const PSizeRow Rows[] = {
      {"10k", 10000, 15},
      {"100k", 100000, 5},
  };
  const unsigned ThreadCounts[] = {1, 2, 8};

  PrettyTable PT;
  PT.row()
      .cell("methods")
      .cell("threads")
      .cell("delta p50 ms")
      .cell("delta p95 ms")
      .cell("clone p50")
      .cell("shape p50")
      .cell("repack p50")
      .cell("speedup vs 1t");

  for (const PSizeRow &Row : Rows) {
    if (Row.Methods > MaxMethods)
      continue;
    double P50ByThreads[3] = {};
    for (unsigned TI = 0; TI < 3; ++TI) {
      unsigned CT = ThreadCounts[TI];
      ServiceOptions SO = serviceOptions(Opts);
      SO.Commit = CT;
      AnalysisService S(programOfSize(Row.Methods, Opts.Seed), SO);
      Editor E(S);
      E.commit(); // warm-up: first-edit paths
      std::vector<double> Ms, CloneMs, ShapeMs, RepackMs;
      for (unsigned I = 0; I < Row.Samples; ++I) {
        CommitStats CS = E.commit();
        Ms.push_back(CS.Seconds * 1e3);
        CloneMs.push_back(CS.CloneSeconds * 1e3);
        ShapeMs.push_back(CS.ShapeSeconds * 1e3);
        RepackMs.push_back(CS.RepackSeconds * 1e3);
      }

      double P50 = percentile(Ms, 0.5), P95 = percentile(Ms, 0.95);
      double CloneP50 = percentile(CloneMs, 0.5);
      double ShapeP50 = percentile(ShapeMs, 0.5);
      double RepackP50 = percentile(RepackMs, 0.5);
      P50ByThreads[TI] = P50;
      PT.row()
          .cell(Row.Label)
          .cell(uint64_t(CT))
          .cell(P50, 2)
          .cell(P95, 2)
          .cell(CloneP50, 2)
          .cell(ShapeP50, 2)
          .cell(RepackP50, 2)
          .cell(P50 > 0.0 ? P50ByThreads[0] / P50 : 0.0, 2);

      std::string Prefix =
          std::string("pcommit.") + Row.Label + ".t" + std::to_string(CT);
      Json.set(Prefix + ".p50_ms", P50);
      Json.set(Prefix + ".p95_ms", P95);
      Json.set(Prefix + ".clone_p50_ms", CloneP50);
      Json.set(Prefix + ".shape_p50_ms", ShapeP50);
      Json.set(Prefix + ".repack_p50_ms", RepackP50);
    }
    Json.set(std::string("pcommit.") + Row.Label + ".methods",
             uint64_t(Row.Methods));
    Json.set(std::string("pcommit.") + Row.Label + ".speedup_8v1",
             P50ByThreads[2] > 0.0 ? P50ByThreads[0] / P50ByThreads[2] : 0.0);
  }
  PT.print(outs());

  // Async enqueue cost: how long the serving thread is held.  A
  // blocking commit pays the whole pipeline; a background submitCommit
  // returns as soon as the request is queued, and the committer
  // publishes in the background (waitForCommits fences each sample so
  // commits never pile up).
  if (10000 > MaxMethods)
    return;
  ServiceOptions SO = serviceOptions(Opts);
  SO.Commit = 8;
  AnalysisService S(programOfSize(10000, Opts.Seed), SO);
  Editor E(S);
  E.commit(); // warm-up
  std::vector<double> EnqueueMs, BlockingMs;
  for (unsigned I = 0; I < 7; ++I) {
    E.edit();
    Timer TA;
    S.submitCommit({CommitMode::Delta, /*Background=*/true});
    EnqueueMs.push_back(TA.seconds() * 1e3);
    S.waitForCommits();
    E.edit();
    Timer TB;
    S.submitCommit().wait();
    BlockingMs.push_back(TB.seconds() * 1e3);
  }
  double EnqueueP50 = percentile(EnqueueMs, 0.5);
  double BlockingP50 = percentile(BlockingMs, 0.5);
  outs() << "\nasync commit enqueue p50 ";
  outs().writeFixed(EnqueueP50, 4);
  outs() << " ms vs blocking commit p50 ";
  outs().writeFixed(BlockingP50, 2);
  outs() << " ms (10k methods, 8 commit threads): the serving "
            "thread no longer pays the pipeline\n";
  Json.set("pcommit.async.enqueue_p50_ms", EnqueueP50);
  Json.set("pcommit.async.blocking_p50_ms", BlockingP50);
}

/// Part 3: copy-on-write snapshot cost and retained generation bytes.
void measureRetention(const HarnessOptions &Opts, uint64_t MaxMethods,
                      BenchJson &Json) {
  outs() << "\n=== Generation retention: CoW snapshot cost and retained "
            "bytes ===\n\n";
  struct GSizeRow {
    const char *Label;
    size_t Methods;
    unsigned Samples;
  };
  const GSizeRow Rows[] = {
      {"10k", 10000, 9},
      {"100k", 100000, 5},
  };

  PrettyTable GT;
  GT.row()
      .cell("methods")
      .cell("commit p50 ms")
      .cell("snapshot p50 ms")
      .cell("retained KB")
      .cell("graph KB")
      .cell("retained frac");

  for (const GSizeRow &Row : Rows) {
    if (Row.Methods > MaxMethods)
      continue;
    ServiceOptions SO = serviceOptions(Opts);
    SO.Commit = 1; // retention is about sharing, not sharding
    SO.KeepGenerations = 4;
    AnalysisService S(programOfSize(Row.Methods, Opts.Seed), SO);
    Editor E(S);
    E.commit(); // warm-up: first-edit paths
    std::vector<double> Ms, SnapMs;
    for (unsigned I = 0; I < Row.Samples; ++I) {
      CommitStats CS = E.commit();
      Ms.push_back(CS.Seconds * 1e3);
      SnapMs.push_back(CS.CloneSeconds * 1e3);
    }

    // The youngest retained generation sits one single-method delta
    // behind the head: its exclusive bytes are the cost of keeping it,
    // and must stay a sliver of the full graph footprint.
    std::vector<GenerationInfo> Gens = S.generations();
    const GenerationInfo &Retained = Gens[Gens.size() - 2];
    double Frac = Retained.TotalBytes > 0 ? double(Retained.RetainedBytes) /
                                                double(Retained.TotalBytes)
                                          : 0.0;

    double P50 = percentile(Ms, 0.5);
    double SnapP50 = percentile(SnapMs, 0.5);
    GT.row()
        .cell(Row.Label)
        .cell(P50, 2)
        .cell(SnapP50, 3)
        .cell(double(Retained.RetainedBytes) / 1024.0, 1)
        .cell(double(Retained.TotalBytes) / 1024.0, 1)
        .cell(Frac, 4);

    std::string Prefix = std::string("gen.") + Row.Label;
    Json.set(Prefix + ".methods", uint64_t(Row.Methods));
    Json.set(Prefix + ".commit_p50_ms", P50);
    Json.set(Prefix + ".snapshot_p50_ms", SnapP50);
    Json.set(Prefix + ".retained_bytes", uint64_t(Retained.RetainedBytes));
    Json.set(Prefix + ".total_bytes", uint64_t(Retained.TotalBytes));
    Json.set(Prefix + ".retained_fraction", Frac);
  }
  GT.print(outs());
}

} // namespace

int main(int argc, char **argv) {
  HarnessOptions Opts = HarnessOptions::parse(argc, argv);
  uint64_t MaxMethods =
      uint64_t(CommandLine(argc, argv).getInt("commit-max-methods", 100000));
  BenchJson Json;
  measureDeltaVsScratch(Opts, MaxMethods, Json);
  measureParallelCommits(Opts, MaxMethods, Json);
  measureRetention(Opts, MaxMethods, Json);
  if (!Opts.JsonPath.empty() && !Json.writeFile(Opts.JsonPath))
    errs() << "warning: cannot write " << Opts.JsonPath << '\n';
  return 0;
}
