//===----------------------------------------------------------------------===//
///
/// \file
/// The shared serve-path command interpreter: ONE implementation of the
/// line-oriented edit/query grammar behind both front ends — the
/// dynsum_tool --serve stdin REPL and every dynsum_serverd socket
/// session.  The grammar used to live inline in the tool's REPL loop;
/// factoring it here means a protocol command and a REPL command can
/// never drift apart, and the serve-path bugs get fixed in one place:
///
///   * "assign" validates its resolveMethod result before calling
///     AnalysisService::addStatement (the method spec can fail to
///     resolve even when both variable specs do — e.g. "assign Main
///     main.x main.y" resolves the vars through the composed
///     "Main.main.x" spec while "Main" alone names a class, not a
///     method — and ir::kNone must never reach addStatement).
///
///   * readCommandLine() reads one full line with an explicit cap: a
///     line longer than the cap is DRAINED to its newline and reported
///     as LineStatus::Overflow — exactly one error for the caller to
///     print — instead of silently executing as two commands the way a
///     bare fixed-buffer fgets loop used to.
///
/// Sessions are per-front-end: the interpreter holds session state (the
/// "deadline" setting) but no program state — many interpreters can
/// serve one AnalysisService.  When several sessions share a service
/// (the multi-tenant server), pass the tenant's program lock: command
/// execution then takes it shared for read-only commands (name
/// resolution reads the live ir::Program, which the service's
/// thread-safety contract leaves to the caller) and exclusive for
/// program-mutating ones (alloc/assign/touch).  The lock is a
/// writer-preferring support::SharedMutex: an edit waits for the
/// queries already inside, not for every query that arrives after it.
/// It is not recursive, so each command takes it exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_SERVER_COMMANDINTERPRETER_H
#define DYNSUM_SERVER_COMMANDINTERPRETER_H

#include "service/AnalysisService.h"
#include "support/OStream.h"
#include "support/SharedMutex.h"

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace dynsum {
namespace server {

/// Splits \p Line on whitespace (never returns empty words).
std::vector<std::string> splitWords(std::string_view Line);

/// Resolves "Class.method" or "method" (free methods) to a MethodId.
ir::MethodId resolveMethodSpec(const ir::Program &P, const std::string &Spec);

/// Resolves "Class.method.var" / "method.var" to a VarId.
ir::VarId resolveVarSpec(const ir::Program &P, const std::string &Spec);

/// Loads a program from a MiniJava source file (.mj/.minijava/.java) or
/// a textual-IR file (anything else).  Returns null with \p Error set
/// on read/parse/compile failure.
std::unique_ptr<ir::Program> loadProgramFile(const std::string &Path,
                                             std::string &Error);

/// How one readCommandLine() ended.
enum class LineStatus : uint8_t {
  Ok,          ///< one complete command line (newline stripped)
  Eof,         ///< end of input, nothing buffered
  Interrupted, ///< a signal interrupted the read; re-check shutdown state
  Overflow,    ///< line exceeded the cap; drained whole, report ONE error
};

/// Line cap for the stdin REPL.  The historical fgets buffer size; the
/// difference is that an overlong line now reports Overflow instead of
/// executing as two commands.
constexpr size_t kMaxReplLineBytes = 4096;

/// Reads one '\n'-terminated line from \p In into \p Line (newline
/// stripped).  A line longer than \p MaxBytes is consumed up to and
/// including its newline and reported as Overflow — never split.  A
/// final line ended by EOF instead of a newline still returns
/// Ok/Overflow; EINTR returns Interrupted (partial input is dropped —
/// the caller is shutting down).
LineStatus readCommandLine(std::FILE *In, std::string &Line, size_t MaxBytes);

/// How one command execution ended.
enum class CommandStatus : uint8_t {
  Ok,    ///< executed (output, possibly empty, was written)
  Error, ///< rejected; one "error: ..." line was written
  Quit,  ///< "quit"/"exit": the session should end
};

/// One serve session's command dispatcher over a shared
/// AnalysisService.  Holds only session state (the per-session query
/// deadline); see the file comment for the locking contract.
class CommandInterpreter {
public:
  /// \p ProgramLock, when non-null, serializes this session's program
  /// reads/writes against other sessions of the same service (shared
  /// for queries, exclusive for alloc/assign/touch).  A single-session
  /// front end (the REPL) passes null and skips locking entirely.
  explicit CommandInterpreter(service::AnalysisService &S,
                              support::SharedMutex *ProgramLock = nullptr)
      : S(S), ProgramLock(ProgramLock) {}

  /// Executes one command line, writing the reply to \p Out and
  /// "error: ..." diagnostics to \p Err (front ends may pass the same
  /// stream for both).  An empty/blank line is Ok with no output.
  CommandStatus execute(const std::string &Line, OStream &Out, OStream &Err);

  /// The command reference ("help").  \p WithFiles lists save/load,
  /// which only the stdin REPL serves.
  static void printHelp(OStream &Out, bool WithFiles = true);

  /// Current per-session query deadline (0 = unlimited).
  double deadlineMs() const { return DeadlineMs; }

private:
  CommandStatus runQuery(const std::vector<std::string> &W, OStream &Out,
                         OStream &Err);
  CommandStatus runAlloc(const std::vector<std::string> &W, OStream &Out,
                         OStream &Err);
  CommandStatus runAssign(const std::vector<std::string> &W, OStream &Out,
                          OStream &Err);
  CommandStatus runCommit(const std::vector<std::string> &W, OStream &Out,
                          OStream &Err);
  CommandStatus runStats(OStream &Out);

  service::AnalysisService &S;
  support::SharedMutex *ProgramLock;
  /// Session state: per-query wall-clock deadline (0 = unlimited).
  double DeadlineMs = 0.0;
};

} // namespace server
} // namespace dynsum

#endif // DYNSUM_SERVER_COMMANDINTERPRETER_H
