//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks of the core machinery: PPTA
/// summarization, DYNSUM queries (cold vs warm cache), REFINEPTS and
/// NOREFINE queries, Andersen solving, textual-IR parsing, and
/// interned-stack operations —
/// plus a traversal-throughput section (queries/sec over the generated
/// workload) that lands in a BENCH_*.json file via --json=<file>.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "engine/QueryScheduler.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "pag/PAGBuilder.h"
#include "support/InternedStack.h"
#include "support/Timer.h"
#include "workload/Generator.h"
#include "workload/PaperExample.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

using namespace dynsum;
using namespace dynsum::analysis;

namespace {

/// Lazily built shared fixtures (benchmark registration runs before
/// main, so build on first use, not statically).
struct Fig2 {
  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  pag::NodeId S1 = 0, S2 = 0, RetGet = 0;

  static Fig2 &get() {
    static Fig2 F;
    if (!F.Prog) {
      ir::ParseResult R = ir::parseProgram(workload::figure2Source());
      F.Prog = std::move(R.Prog);
      F.Built = pag::buildPAG(*F.Prog);
      for (const ir::Variable &V : F.Prog->variables()) {
        if (V.IsGlobal)
          continue;
        std::string_view Name = F.Prog->names().text(V.Name);
        std::string Method = F.Prog->describeMethod(V.Owner);
        if (Name == "s1" && Method == "Main.main")
          F.S1 = F.Built.Graph->nodeOfVar(V.Id);
        if (Name == "s2" && Method == "Main.main")
          F.S2 = F.Built.Graph->nodeOfVar(V.Id);
        if (Name == "ret" && Method == "Vector.get")
          F.RetGet = F.Built.Graph->nodeOfVar(V.Id);
      }
    }
    return F;
  }
};

struct GenProg {
  std::unique_ptr<ir::Program> Prog;
  pag::BuiltPAG Built;
  std::vector<pag::NodeId> QueryNodes;

  static GenProg &get() {
    static GenProg G;
    if (!G.Prog) {
      workload::GenOptions GO;
      GO.Scale = 1.0 / 64;
      G.Prog = workload::generateProgram(
          workload::specByName("soot-c"), GO);
      G.Built = analysis::buildPAGWithAndersenCallGraph(*G.Prog);
      // Query every 37th local variable: a spread of demand targets.
      for (size_t I = 0; I < G.Prog->variables().size(); I += 37)
        if (!G.Prog->variables()[I].IsGlobal)
          G.QueryNodes.push_back(G.Built.Graph->nodeOfVar(ir::VarId(I)));
    }
    return G;
  }
};

void BM_PptaSummary_Figure2(benchmark::State &State) {
  Fig2 &F = Fig2::get();
  AnalysisOptions Opts;
  DynSumAnalysis A(*F.Built.Graph, Opts);
  PptaEngine Engine(*F.Built.Graph, A.fieldStacks(), Opts.MaxFieldDepth);
  for (auto _ : State) {
    Budget B(Opts.BudgetPerQuery);
    PptaSummary S;
    Engine.compute(F.RetGet, StackPool::empty(), RsmState::S1, B, S);
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_PptaSummary_Figure2);

void BM_DynSumQuery_Cold(benchmark::State &State) {
  Fig2 &F = Fig2::get();
  AnalysisOptions Opts;
  for (auto _ : State) {
    DynSumAnalysis A(*F.Built.Graph, Opts); // fresh cache every round
    benchmark::DoNotOptimize(A.query(F.S1));
  }
}
BENCHMARK(BM_DynSumQuery_Cold);

void BM_DynSumQuery_Warm(benchmark::State &State) {
  Fig2 &F = Fig2::get();
  AnalysisOptions Opts;
  DynSumAnalysis A(*F.Built.Graph, Opts);
  (void)A.query(F.S1);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.query(F.S2));
}
BENCHMARK(BM_DynSumQuery_Warm);

void BM_RefinePtsQuery(benchmark::State &State) {
  Fig2 &F = Fig2::get();
  AnalysisOptions Opts;
  RefinePtsAnalysis A(*F.Built.Graph, Opts);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.query(F.S1));
}
BENCHMARK(BM_RefinePtsQuery);

void BM_NoRefineQuery(benchmark::State &State) {
  Fig2 &F = Fig2::get();
  AnalysisOptions Opts;
  RefinePtsAnalysis A(*F.Built.Graph, Opts, /*Refinement=*/false);
  for (auto _ : State)
    benchmark::DoNotOptimize(A.query(F.S1));
}
BENCHMARK(BM_NoRefineQuery);

void BM_DynSum_GeneratedQueries(benchmark::State &State) {
  GenProg &G = GenProg::get();
  AnalysisOptions Opts;
  DynSumAnalysis A(*G.Built.Graph, Opts);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        A.query(G.QueryNodes[I++ % G.QueryNodes.size()]));
  }
}
BENCHMARK(BM_DynSum_GeneratedQueries);

void BM_AndersenSolve(benchmark::State &State) {
  // The serial worklist over hybrid points-to sets.
  GenProg &G = GenProg::get();
  for (auto _ : State) {
    AndersenAnalysis A(*G.Built.Graph);
    A.solve();
    benchmark::DoNotOptimize(A.propagationCount());
  }
}
BENCHMARK(BM_AndersenSolve);

void BM_PAGBuild(benchmark::State &State) {
  GenProg &G = GenProg::get();
  for (auto _ : State) {
    pag::BuiltPAG Built = pag::buildPAG(*G.Prog);
    benchmark::DoNotOptimize(Built.Graph->numEdges());
  }
}
BENCHMARK(BM_PAGBuild);

/// Parse throughput on the program perfbench parses (soot-c, generator
/// seed 0) at scale range(0)/100.  bytes_per_second is the throughput
/// (printed in MiB/s); s_per_MB is the time per 10^6 bytes, and it stays
/// flat across the three scales when parsing costs the same per byte.
void BM_ParseProgram(benchmark::State &State) {
  static std::map<int64_t, std::string> Texts;
  std::string &Text = Texts[State.range(0)];
  if (Text.empty()) {
    workload::GenOptions GO;
    GO.Scale = double(State.range(0)) / 100;
    GO.Seed = 0;
    Text = ir::programToString(
        *workload::generateProgram(workload::specByName("soot-c"), GO));
  }
  for (auto _ : State) {
    ir::ParseResult R = ir::parseProgram(Text);
    benchmark::DoNotOptimize(R.Prog.get());
    State.PauseTiming(); // the program is freed outside the timed region
    R = {};
    State.ResumeTiming();
  }
  State.SetBytesProcessed(int64_t(State.iterations()) * int64_t(Text.size()));
  State.counters["MB"] = double(Text.size()) / 1e6;
  State.counters["s_per_MB"] = benchmark::Counter(
      double(Text.size()) / 1e6,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ParseProgram)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_EngineBatch(benchmark::State &State) {
  // The generated query stream as one batch, sharded over range(0)
  // workers with a cold shared store each round.
  GenProg &G = GenProg::get();
  engine::EngineOptions EO;
  EO.NumThreads = unsigned(State.range(0));
  for (auto _ : State) {
    engine::QueryScheduler S(*G.Built.Graph, EO);
    benchmark::DoNotOptimize(S.run(G.QueryNodes).Stats.TotalSteps);
  }
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_EngineBatch_WarmStore(benchmark::State &State) {
  // Same batch against a scheduler whose shared store was warmed by a
  // prior run — the cross-batch reuse path.
  GenProg &G = GenProg::get();
  engine::EngineOptions EO;
  EO.NumThreads = unsigned(State.range(0));
  engine::QueryScheduler S(*G.Built.Graph, EO);
  (void)S.run(G.QueryNodes);
  for (auto _ : State)
    benchmark::DoNotOptimize(S.run(G.QueryNodes).Stats.TotalSteps);
}
BENCHMARK(BM_EngineBatch_WarmStore)->Arg(1)->Arg(4);

void BM_StackPool_PushPop(benchmark::State &State) {
  StackPool Pool;
  uint64_t Sum = 0;
  for (auto _ : State) {
    StackId S = StackPool::empty();
    for (uint32_t I = 0; I < 16; ++I)
      S = Pool.push(S, I & 7);
    for (uint32_t I = 0; I < 16; ++I) {
      Sum += Pool.peek(S);
      S = Pool.pop(S);
    }
  }
  benchmark::DoNotOptimize(Sum);
}
BENCHMARK(BM_StackPool_PushPop);

//===----------------------------------------------------------------------===//
// Traversal throughput: queries/sec over the generated workload.
//
// google-benchmark reports ns/op; this section reports the headline
// number the perf trajectory tracks — demand queries answered per
// second, cold (fresh scheduler and summary store per batch), warm
// (store reused across batches), and sequential (one DynSumAnalysis).
//===----------------------------------------------------------------------===//

/// Repeats \p Body until ~\p MinSeconds elapsed; returns executions/sec.
template <typename Fn> double measureRate(double MinSeconds, Fn &&Body) {
  // One untimed warm-up execution.
  Body();
  uint64_t Reps = 0;
  Timer T;
  do {
    Body();
    ++Reps;
  } while (T.seconds() < MinSeconds);
  return double(Reps) / T.seconds();
}

//===----------------------------------------------------------------------===//
// Whole-program solve: Andersen at a requested program size and the
// whole Andersen call-graph pipeline (buildPAGWithAndersenCallGraph).
// Opt-in via
// --andersen-methods=N (a 10k-method solve is too slow for the default
// microbench run); results ride the same trajectory JSON.
//===----------------------------------------------------------------------===//

struct AndersenSection {
  bool Ran = false;
  uint64_t Methods = 0, Nodes = 0, Edges = 0;
  double T1Ms = 0, CallGraphT1Ms = 0;
};

AndersenSection runAndersenSection(uint64_t Methods) {
  AndersenSection R;
  if (Methods == 0)
    return R;
  workload::GenOptions GO;
  GO.Scale = double(Methods) / 3400.0; // soot-c: 3.4k methods at scale 1
  std::unique_ptr<ir::Program> Prog =
      workload::generateProgram(workload::specByName("soot-c"), GO);
  pag::BuiltPAG Built = pag::buildPAG(*Prog);

  // Best-of-3 below ~5k methods, where allocator noise dominates the
  // variance; a 10k-method solve runs minutes, so one rep has to do.
  // Progress goes to stderr as each config lands.
  const int Reps = Methods >= 5000 ? 1 : 3;
  auto BestMs = [&](const char *Name, const auto &Body) {
    double Best = 1e300;
    for (int I = 0; I < Reps; ++I) {
      Timer T;
      Body();
      Best = std::min(Best, T.seconds() * 1e3);
    }
    std::fprintf(stderr, "andersen %s: %.2f ms (best of %d)\n", Name, Best,
                 Reps);
#if defined(__GLIBC__)
    // Return each config's freed points-to sets to the OS before the
    // next one allocates, so back-to-back solves don't stack their
    // high-water marks on CI-sized runners.
    malloc_trim(0);
#endif
    return Best;
  };
  R.Ran = true;
  R.Methods = Prog->methods().size();
  R.Nodes = Built.Graph->numNodes();
  R.Edges = Built.Graph->numEdges();
  R.T1Ms = BestMs("t1", [&] {
    AndersenAnalysis A(*Built.Graph);
    A.solve();
    benchmark::DoNotOptimize(A.propagationCount());
  });
  // The call-graph pipeline (two PAG builds around one solve) runs only
  // up to 5k methods, so a 10k-method run takes no longer for it.
  if (Methods <= 5000)
    R.CallGraphT1Ms = BestMs("call graph t1", [&] {
      pag::BuiltPAG CG = buildPAGWithAndersenCallGraph(*Prog);
      benchmark::DoNotOptimize(CG.Graph->numEdges());
    });
  else
    std::fprintf(stderr, "andersen call graph t1: skipped above 5k "
                         "methods\n");

  std::printf("\n-- Andersen whole-program solve (soot-c, %llu methods, "
              "%llu nodes / %llu edges) --\n",
              (unsigned long long)R.Methods, (unsigned long long)R.Nodes,
              (unsigned long long)R.Edges);
  std::printf("t1: %9.2f ms\n", R.T1Ms);
  if (R.CallGraphT1Ms > 0)
    std::printf("call graph t1: %9.2f ms  (buildPAGWithAndersenCallGraph)\n",
                R.CallGraphT1Ms);
  return R;
}

void runThroughputSection(const std::string &JsonPath,
                          const AndersenSection &Andersen) {
  GenProg &G = GenProg::get();
  size_t N = G.QueryNodes.size();
  engine::EngineOptions EO;
  EO.NumThreads = 1;

  double ColdBatches = measureRate(1.0, [&] {
    engine::QueryScheduler S(*G.Built.Graph, EO);
    benchmark::DoNotOptimize(S.run(G.QueryNodes).Stats.TotalSteps);
  });

  engine::QueryScheduler Warm(*G.Built.Graph, EO);
  (void)Warm.run(G.QueryNodes);
  double WarmBatches = measureRate(1.0, [&] {
    benchmark::DoNotOptimize(Warm.run(G.QueryNodes).Stats.TotalSteps);
  });

  analysis::AnalysisOptions AO;
  DynSumAnalysis Seq(*G.Built.Graph, AO);
  size_t I = 0;
  double SeqQueries = measureRate(1.0, [&] {
    benchmark::DoNotOptimize(
        Seq.query(G.QueryNodes[I++ % G.QueryNodes.size()]).Steps);
  });

  double ColdQps = ColdBatches * double(N);
  double WarmQps = WarmBatches * double(N);
  std::printf("\n-- Traversal throughput (soot-c @ 1/64, %zu queries, "
              "1 thread) --\n",
              N);
  std::printf("batch cold: %12.0f queries/sec\n", ColdQps);
  std::printf("batch warm: %12.0f queries/sec\n", WarmQps);
  std::printf("sequential: %12.0f queries/sec\n", SeqQueries);

  if (JsonPath.empty())
    return;
  bench::BenchJson J;
  J.set("bench", "micro_ppta");
  J.set("workload", "soot-c");
  J.set("scale", 1.0 / 64);
  J.set("num_queries", uint64_t(N));
  J.set("threads", uint64_t(1));
  J.set("pag_nodes", uint64_t(G.Built.Graph->numNodes()));
  J.set("pag_edges", uint64_t(G.Built.Graph->numEdges()));
  J.set("traversal.batch_cold_qps", ColdQps);
  J.set("traversal.batch_warm_qps", WarmQps);
  J.set("traversal.sequential_qps", SeqQueries);
  if (Andersen.Ran) {
    J.set("andersen.methods", Andersen.Methods);
    J.set("andersen.pag_nodes", Andersen.Nodes);
    J.set("andersen.pag_edges", Andersen.Edges);
    J.set("andersen.t1_ms", Andersen.T1Ms);
    if (Andersen.CallGraphT1Ms > 0)
      J.set("andersen.callgraph_t1_ms", Andersen.CallGraphT1Ms);
  }
  if (J.writeFile(JsonPath))
    std::printf("throughput JSON written to %s\n", JsonPath.c_str());
  else
    std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
}

} // namespace

/// Custom main: --json=<file> and --andersen-methods=<N> are peeled
/// off before google-benchmark sees argv (it rejects flags it does not
/// know), then the registered microbenchmarks run, then the Andersen
/// and throughput sections.
int main(int argc, char **argv) {
  std::string JsonPath;
  uint64_t AndersenMethods = 0;
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    if (std::strncmp(argv[I], "--json=", 7) == 0)
      JsonPath = argv[I] + 7;
    else if (std::strncmp(argv[I], "--andersen-methods=", 19) == 0)
      AndersenMethods = std::strtoull(argv[I] + 19, nullptr, 10);
    else
      Args.push_back(argv[I]);
  }
  int Argc = int(Args.size());
  benchmark::Initialize(&Argc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(Argc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  AndersenSection Andersen = runAndersenSection(AndersenMethods);
  runThroughputSection(JsonPath, Andersen);
  return 0;
}
