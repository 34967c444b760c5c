//===----------------------------------------------------------------------===//
///
/// \file
/// CommandLine implementation.
///
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/OStream.h"
#include "support/StringExtras.h"

#include <cmath>
#include <cstdlib>
#include <string_view>

using namespace dynsum;

CommandLine::CommandLine(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string_view Arg(Argv[I]);
    if (!startsWith(Arg, "--")) {
      Positional.emplace_back(Arg);
      continue;
    }
    Arg.remove_prefix(2);
    size_t Eq = Arg.find('=');
    std::string Name, Value;
    if (Eq == std::string_view::npos) {
      Name = std::string(Arg);
    } else {
      Name = std::string(Arg.substr(0, Eq));
      Value = std::string(Arg.substr(Eq + 1));
    }
    Flags.emplace(Name, Value);
    Ordered.emplace_back(std::move(Name), std::move(Value));
  }
}

std::vector<std::string> CommandLine::getAll(const std::string &Name) const {
  std::vector<std::string> Out;
  for (const auto &[Flag, Value] : Ordered)
    if (Flag == Name)
      Out.push_back(Value);
  return Out;
}

std::string CommandLine::getString(const std::string &Name,
                                   const std::string &Default) const {
  auto It = Flags.find(Name);
  return It == Flags.end() ? Default : It->second;
}

uint64_t CommandLine::getCount(const std::string &Name, uint64_t Default,
                               uint64_t Max, bool &Bad) const {
  auto It = Flags.find(Name);
  if (It == Flags.end() || It->second.empty())
    return Default;
  uint64_t V = 0;
  for (char C : It->second) {
    uint64_t Digit = uint64_t(C - '0');
    if (C < '0' || C > '9' || Digit > Max || V > (Max - Digit) / 10) {
      errs() << "error: --" << Name << " wants an integer in [0, " << Max
             << "]\n";
      Bad = true;
      return Default;
    }
    V = V * 10 + Digit;
  }
  return V;
}

double CommandLine::getDouble(const std::string &Name, double Default,
                              bool &Bad) const {
  auto It = Flags.find(Name);
  if (It == Flags.end() || It->second.empty())
    return Default;
  char *End = nullptr;
  double V = std::strtod(It->second.c_str(), &End);
  if (*End != '\0' || !std::isfinite(V)) {
    errs() << "error: --" << Name << " wants a finite number\n";
    Bad = true;
    return Default;
  }
  return V;
}
