//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal --flag=value command-line parser for examples and benches.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_SUPPORT_COMMANDLINE_H
#define DYNSUM_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dynsum {

/// Parses "--name=value" and bare positional arguments.  Unknown flags
/// are collected rather than rejected so harnesses can share argv with
/// other libraries (e.g. google-benchmark).
class CommandLine {
public:
  CommandLine(int Argc, const char *const *Argv);

  /// Returns flag \p Name's value or \p Default when absent.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;

  /// Returns flag \p Name as a count, or \p Default when the flag is
  /// absent or has an empty value.  The value must be decimal digits
  /// only, at most \p Max.  Anything else ("abc", "4x", "-1", a value
  /// past \p Max) prints an error naming the flag and its range, sets
  /// \p Bad and returns \p Default.
  uint64_t getCount(const std::string &Name, uint64_t Default, uint64_t Max,
                    bool &Bad) const;

  /// Returns flag \p Name as a number, or \p Default when the flag is
  /// absent or has an empty value.  The whole value must parse as a
  /// finite number; anything else ("abc", "0.5x", "nan") prints an
  /// error naming the flag, sets \p Bad and returns \p Default.
  double getDouble(const std::string &Name, double Default, bool &Bad) const;

  /// True when "--name" or "--name=..." was present.
  bool has(const std::string &Name) const { return Flags.count(Name) != 0; }

  /// Every value of a repeatable flag, in command-line order (the map
  /// accessors above return only the first occurrence).
  std::vector<std::string> getAll(const std::string &Name) const;

  const std::vector<std::string> &positional() const { return Positional; }

private:
  std::map<std::string, std::string> Flags;
  /// All (flag, value) pairs in order, for repeatable flags.
  std::vector<std::pair<std::string, std::string>> Ordered;
  std::vector<std::string> Positional;
};

} // namespace dynsum

#endif // DYNSUM_SUPPORT_COMMANDLINE_H
