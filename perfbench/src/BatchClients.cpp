//===----------------------------------------------------------------------===//
///
/// \file
/// batch-clients: the CLI pipeline (dynsum_tool --client) from program
/// text to the three paper clients' verdicts: parse, validate,
/// buildPAGWithAndersenCallGraph, then SafeCast, NullDeref and FactoryM
/// on one sequential DYNSUM analysis.  The only workload that runs
/// whole-program Andersen and the clients; every serve workload bypasses
/// both.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/Andersen.h"
#include "analysis/DynSum.h"
#include "analysis/RefinePts.h"
#include "clients/Client.h"
#include "ir/Parser.h"
#include "ir/Validator.h"
#include "pag/PAGBuilder.h"

#include <cstdio>

namespace perfbench {
namespace {

/// Verdict totals of the three clients, in evaluation order.
struct Verdicts {
  uint64_t Proven[3] = {0, 0, 0};
  uint64_t Refuted[3] = {0, 0, 0};
  uint64_t Unknown[3] = {0, 0, 0};
  uint64_t Queries = 0;

  void add(unsigned I, const clients::ClientReport &Rep) {
    Proven[I] += Rep.Proven;
    Refuted[I] += Rep.Refuted;
    Unknown[I] += Rep.Unknown;
    Queries += Rep.NumQueries;
  }
  bool operator==(const Verdicts &O) const {
    for (unsigned I = 0; I < 3; ++I)
      if (Proven[I] != O.Proven[I] || Refuted[I] != O.Refuted[I] ||
          Unknown[I] != O.Unknown[I])
        return false;
    return Queries == O.Queries;
  }
  uint64_t unknown() const { return Unknown[0] + Unknown[1] + Unknown[2]; }
};

struct Cycle {
  double TotalMs = 0.0;
  double CallGraphMs = 0.0;
  Verdicts V;
  uint64_t Propagations = 0;
  unsigned Rounds = 0;
};

/// buildPAGWithAndersenCallGraph's loop through its public pieces, so
/// the traced run can time each pass and count Andersen's work.
pag::BuiltPAG andersenCallGraph(const ir::Program &P, SpanLog *Log,
                                Cycle &C) {
  pag::BuiltPAG Built;
  {
    Scope S(Log, "pag.build");
    Built = pag::buildPAG(P);
  }
  for (unsigned Round = 0; Round < 2; ++Round) {
    analysis::AndersenAnalysis Andersen(*Built.Graph);
    {
      Scope S(Log, "andersen.solve");
      Andersen.solve();
    }
    C.Propagations += Andersen.propagationCount();
    ++C.Rounds;
    analysis::AndersenTargetResolver Resolver(Andersen, *Built.Graph);
    pag::BuiltPAG Refined;
    {
      Scope S(Log, "pag.build");
      Refined = pag::buildPAG(P, &Resolver);
    }
    bool Same = Refined.Graph->numEdges() == Built.Graph->numEdges();
    Built = std::move(Refined);
    if (Same)
      break;
  }
  return Built;
}

/// Client \p Index's queries on \p G in the run's seeded order: the
/// stream the seed varies (DYNSUM's cache makes the cost of a query
/// depend on the ones before it).
std::vector<clients::ClientQuery> queryStream(const clients::Client &C,
                                              unsigned Index,
                                              const pag::PAG &G,
                                              uint64_t Seed) {
  std::vector<clients::ClientQuery> Qs = C.makeQueries(G, 0);
  Rng R(Seed * 31 + Index);
  for (size_t I = Qs.size(); I > 1; --I)
    std::swap(Qs[I - 1], Qs[R.nextBelow(I)]);
  return Qs;
}

/// One pipeline run.  \p Replay uses andersenCallGraph (the traced
/// run's split) instead of the library call the CLI makes.
Cycle runCycle(const std::string &Text, const analysis::AnalysisOptions &AO,
               uint64_t Seed, bool Replay, SpanLog *Log, Result &R) {
  pinNextCpu();
  Cycle C;
  if (Log)
    Log->beginRequest();
  Clock::time_point T0 = Clock::now();
  Scope Req(Log, "request.batch");
  ir::ParseResult Parsed;
  {
    Scope S(Log, "ir.parse");
    Parsed = ir::parseProgram(Text);
  }
  if (!Parsed.ok()) {
    R.fail("parse failed");
    return C;
  }
  {
    Scope S(Log, "ir.validate");
    if (!ir::validate(*Parsed.Prog).empty()) {
      R.fail("invalid program");
      return C;
    }
  }
  pag::BuiltPAG Built =
      Replay ? andersenCallGraph(*Parsed.Prog, Log, C)
             : analysis::buildPAGWithAndersenCallGraph(*Parsed.Prog);
  C.CallGraphMs = msSince(T0);
  analysis::DynSumAnalysis DynSum(*Built.Graph, AO);
  std::vector<std::unique_ptr<clients::Client>> Clients =
      clients::makePaperClients();
  for (unsigned I = 0; I < Clients.size(); ++I) {
    Scope S(Log, "clients.run");
    std::vector<clients::ClientQuery> Qs =
        queryStream(*Clients[I], I, *Built.Graph, Seed);
    C.V.add(I, clients::runClient(*Clients[I], DynSum, Qs));
  }
  C.TotalMs = msSince(T0);
  return C;
}

std::vector<Cycle> runCycles(const std::string &Text,
                             const analysis::AnalysisOptions &AO,
                             uint64_t Seed, bool Replay, SpanLog *Log,
                             double Seconds, Result &R) {
  std::vector<Cycle> Cycles;
  Clock::time_point T0 = Clock::now();
  do
    Cycles.push_back(runCycle(Text, AO, Seed, Replay, Log, R));
  while (std::chrono::duration<double>(Clock::now() - T0).count() < Seconds);
  return Cycles;
}

/// The reference: per-query verdicts of a fresh DYNSUM run (which must
/// reproduce every timed cycle's totals) and of NOREFINE, on the PAG the
/// benchmark builds from its own copy of the program.
struct Reference {
  Verdicts DynSum;
  /// Queries where both analyses reach a verdict, and where they differ.
  uint64_t Comparable = 0, Mismatches = 0;
  uint64_t Propagations = 0;
  unsigned Rounds = 0;
  std::unique_ptr<ir::Program> Copy;
};

Reference reference(const std::string &Text,
                    const analysis::AnalysisOptions &AO, uint64_t Seed) {
  Reference Ref;
  Ref.Copy = ir::parseProgram(Text).Prog;
  Cycle C;
  pag::BuiltPAG Built = andersenCallGraph(*Ref.Copy, nullptr, C);
  Ref.Propagations = C.Propagations;
  Ref.Rounds = C.Rounds;
  analysis::DynSumAnalysis DynSum(*Built.Graph, AO);
  analysis::RefinePtsAnalysis NoRefine(*Built.Graph, AO,
                                       /*Refinement=*/false);
  std::vector<std::unique_ptr<clients::Client>> Clients =
      clients::makePaperClients();
  auto Judge = [](const clients::ClientReport &Rep) {
    return Rep.Proven ? clients::Verdict::Proven
                      : Rep.Refuted ? clients::Verdict::Refuted
                                    : clients::Verdict::Unknown;
  };
  for (unsigned I = 0; I < Clients.size(); ++I) {
    std::vector<clients::ClientQuery> Qs =
        queryStream(*Clients[I], I, *Built.Graph, Seed);
    for (size_t Q = 0; Q < Qs.size(); ++Q) {
      clients::ClientReport D =
          clients::runClient(*Clients[I], DynSum, Qs, Q, Q + 1);
      clients::ClientReport N =
          clients::runClient(*Clients[I], NoRefine, Qs, Q, Q + 1);
      Ref.DynSum.add(I, D);
      clients::Verdict DV = Judge(D), NV = Judge(N);
      if (DV == clients::Verdict::Unknown || NV == clients::Verdict::Unknown)
        continue;
      ++Ref.Comparable;
      Ref.Mismatches += DV != NV;
    }
  }
  return Ref;
}

} // namespace

void runBatchClients(const Options &O, Result &R) {
  // Scale 0.1: a cycle varies ~10% from one run of the pipeline to the
  // next, so the window needs many cycles.  At 0.25 a cycle took ~2.5 s,
  // four fit in a 10 s window and batch.total_ms moved 25% between runs;
  // at 0.1 it takes ~0.36 s, still ~85% of it the Andersen call graph
  // (4-vCPU Xeon VM).
  double Scale = O.Smoke ? 0.02 : 0.1;
  unsigned SetupRepeats = O.Smoke ? 1 : 5;
  analysis::AnalysisOptions AO = analysisOptions();

  // Set-up: generate the program text the pipeline starts from, then run
  // one untimed cycle so the window starts warm.  Generation alone takes
  // ~0.1 s, and its median of 25 still moved 45% between runs on a 4-vCPU
  // VM; with the warm-up cycle set-up is as steady as a timed cycle.
  std::vector<double> SetupS;
  std::string Text;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    Clock::time_point T0 = Clock::now();
    Text = generateProgramText(Scale);
    runCycle(Text, AO, O.Seed, false, nullptr, R);
    SetupS.push_back(std::chrono::duration<double>(Clock::now() - T0).count());
  }

  // The timed cycles come first, so peak_rss_mb leaves the reference out.
  std::vector<Cycle> Cycles, Bare, Traced;
  SpanLog Log(O.Trace, 1);
  if (!O.Trace) {
    Cycles = runCycles(Text, AO, O.Seed, false, nullptr, O.Seconds, R);
  } else {
    Bare = runCycles(Text, AO, O.Seed, true, nullptr, O.Seconds / 2.0, R);
    Traced = runCycles(Text, AO, O.Seed, true, &Log, O.Seconds / 2.0, R);
  }
  double PeakMb = peakRssMb();
  Reference Ref = reference(Text, AO, O.Seed);

  describeProgram(R, Scale, *Ref.Copy, Text.size());
  R.prov("pool", std::to_string(Ref.DynSum.Queries) +
                     " client queries (SafeCast, NullDeref, FactoryM), seeded order");
  R.prov("budget_bound_excluded", "0 (an over-budget query is Unknown)");
  R.prov("clients", "1 sequential pipeline (dynsum_tool --client)");
  R.prov("query_threads", "1 (sequential DYNSUM)");
  R.prov("commit_threads", "none");
  R.prov("editor_tick_ms", "none");

  // NOREFINE was compared query by query in reference(); each timed
  // cycle must then reproduce the reference DYNSUM run's verdicts.
  R.Comparisons += Ref.Comparable;
  R.fail("verdict differs from NOREFINE", Ref.Mismatches);
  auto Check = [&](const std::vector<Cycle> &Cycles) {
    for (const Cycle &C : Cycles) {
      R.Attempted += Ref.DynSum.Queries;
      ++R.Comparisons;
      if (!(C.V == Ref.DynSum))
        R.fail("verdicts differ from the reference DYNSUM run",
               Ref.DynSum.Queries);
    }
  };

  if (!O.Trace) {
    Check(Cycles);
    std::vector<double> Total, CallGraph, Qps;
    for (const Cycle &C : Cycles) {
      Total.push_back(C.TotalMs);
      CallGraph.push_back(C.CallGraphMs);
      Qps.push_back(double(C.V.Queries) / (C.TotalMs / 1e3));
    }
    R.add("setup_s", median(SetupS), "s", SetupS.size());
    R.add("peak_rss_mb", PeakMb, "MB", 1);
    R.timing("batch.total_ms", Total);
    R.timing("batch.callgraph_ms", CallGraph,
             "program text to the Andersen call graph");
    R.add("batch.queries_per_s", median(Qps), "1/s", Cycles.size(),
          std::to_string(Ref.DynSum.Queries) + " client queries per cycle");
    // Single-threaded and seeded: these repeat exactly for a seed.
    R.Counts.push_back({"andersen.propagations", Ref.Propagations});
    R.Counts.push_back({"andersen.rounds", Ref.Rounds});
    const char *Names[3] = {"safecast", "nullderef", "factorym"};
    for (unsigned I = 0; I < 3; ++I) {
      std::string N = std::string("verdicts.") + Names[I];
      R.Counts.push_back({N + ".proven", Ref.DynSum.Proven[I]});
      R.Counts.push_back({N + ".refuted", Ref.DynSum.Refuted[I]});
      R.Counts.push_back({N + ".unknown", Ref.DynSum.Unknown[I]});
    }
    return;
  }

  // Traced run: the pipeline replayed without and with spans.
  Check(Bare);
  Check(Traced);
  std::vector<const SpanLog *> Logs = {&Log};
  SpanSummary Sum = summarize(Logs);
  writeSpans(O.WorkDir + "/spans-" + O.Workload + "-" +
                 std::to_string(O.Seed) + ".jsonl",
             Logs);
  auto Layer = [&](const char *Name, const char *Span) {
    R.layer(Name, median(Sum.SelfMs[Span]), "ms", Sum.SelfMs[Span].size());
  };
  Layer("ir.parse_ms", "ir.parse");
  Layer("ir.validate_ms", "ir.validate");
  Layer("pag.build_ms", "pag.build");
  Layer("andersen.solve_ms", "andersen.solve");
  Layer("clients.ms", "clients.run");
  const Cycle &Last = Traced.back();
  R.layer("andersen.propagations", double(Last.Propagations), "count",
          Traced.size());
  R.layer("andersen.rounds", double(Last.Rounds), "count", Traced.size());
  R.layer("clients.unknown", double(Last.V.unknown()), "count",
          Traced.size());
  const char *Req = "request.batch";
  std::vector<double> BareMs;
  for (const Cycle &C : Bare)
    BareMs.push_back(C.TotalMs);
  double TracedP50 = median(Sum.TotalMs[Req]);
  double BareP50 = median(BareMs);
  R.layer("trace.overhead_pct", 100.0 * (TracedP50 - BareP50) / BareP50, "%",
          Sum.TotalMs[Req].size());
  R.layer("trace.coverage_pct", 100.0 * median(Sum.Coverage[Req]), "%",
          Sum.Coverage[Req].size());
}

} // namespace perfbench
