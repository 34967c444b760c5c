//===----------------------------------------------------------------------===//
///
/// \file
/// Bench harness implementation.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/OStream.h"

#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace dynsum;
using namespace dynsum::bench;
using namespace dynsum::workload;

namespace {

/// Escapes a string for a double-quoted JSON literal.
std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  Out.push_back('"');
  return Out;
}

} // namespace

void BenchJson::set(const std::string &Key, const std::string &Value) {
  Entries.emplace_back(Key, jsonQuote(Value));
}

void BenchJson::set(const std::string &Key, const char *Value) {
  set(Key, std::string(Value));
}

void BenchJson::set(const std::string &Key, double Value) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  Entries.emplace_back(Key, Buf);
}

void BenchJson::set(const std::string &Key, uint64_t Value) {
  Entries.emplace_back(Key, std::to_string(Value));
}

std::string BenchJson::render() const {
  std::string Out = "{\n";
  for (size_t I = 0; I < Entries.size(); ++I) {
    Out += "  " + jsonQuote(Entries[I].first) + ": " + Entries[I].second;
    if (I + 1 < Entries.size())
      Out += ",";
    Out += "\n";
  }
  Out += "}\n";
  return Out;
}

bool BenchJson::writeFile(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  std::string Buf = render();
  bool Ok = std::fwrite(Buf.data(), 1, Buf.size(), F) == Buf.size();
  if (std::fclose(F) != 0)
    Ok = false;
  return Ok;
}

void dynsum::bench::usageExit(const char *Prog, const char *BenchFlags) {
  errs() << "usage: " << Prog
         << " [--scale=X] [--budget=N] [--seed=N] [--bench=name]\n"
            "       [--threads=N] [--json=file]";
  if (*BenchFlags)
    errs() << ' ' << BenchFlags;
  errs() << '\n';
  std::exit(2);
}

HarnessOptions HarnessOptions::parse(int Argc, const char *const *Argv,
                                     const char *BenchFlags) {
  CommandLine CL(Argc, Argv);
  HarnessOptions O;
  bool Bad = false;
  O.Scale = CL.getDouble("scale", O.Scale, Bad);
  O.Budget = CL.getCount("budget", O.Budget,
                         std::numeric_limits<int64_t>::max(), Bad);
  O.Seed = CL.getCount("seed", 0, std::numeric_limits<uint64_t>::max(), Bad);
  O.Threads = unsigned(CL.getCount(
      "threads", O.Threads, std::numeric_limits<unsigned>::max(), Bad));
  O.Only = CL.getString("bench", "");
  O.JsonPath = CL.getString("json", "");
  if (Bad)
    usageExit(Argv[0], BenchFlags);
  return O;
}

BenchProgram dynsum::bench::makeBenchProgram(const BenchmarkSpec &Spec,
                                             const HarnessOptions &Opts) {
  BenchProgram BP;
  BP.Spec = &Spec;
  GenOptions GO;
  GO.Scale = Opts.Scale;
  GO.Seed = Opts.Seed;
  BP.Prog = generateProgram(Spec, GO);
  BP.Built = analysis::buildPAGWithAndersenCallGraph(*BP.Prog);
  return BP;
}

std::vector<const BenchmarkSpec *>
dynsum::bench::selectedSpecs(const HarnessOptions &Opts) {
  std::vector<const BenchmarkSpec *> Out;
  for (const BenchmarkSpec &S : paperSuite())
    if (Opts.Only.empty() || S.Name == Opts.Only)
      Out.push_back(&S);
  return Out;
}

std::vector<const BenchmarkSpec *> dynsum::bench::figureSpecs() {
  return {&specByName("soot-c"), &specByName("bloat"), &specByName("jython")};
}

std::vector<clients::ClientQuery>
dynsum::bench::clientQueries(const clients::Client &C, unsigned ClientIndex,
                             const BenchProgram &BP,
                             const HarnessOptions &Opts) {
  size_t Max = scaledQueryCount(*BP.Spec, ClientIndex, Opts.Scale);
  return C.makeQueries(*BP.Built.Graph, Max);
}
