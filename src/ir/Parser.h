//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for the textual mini-IR format.
///
/// Grammar (comments run from "//" or "#" to end of line):
///
///   program   := (classdecl | globaldecl | methoddecl)*
///   classdecl := "class" IDENT ["extends" IDENT]
///                "{" ["fields" IDENT ("," IDENT)*]* "}"
///   globaldecl:= "global" IDENT [":" IDENT]
///   methoddecl:= "method" QUAL "(" [param ("," param)*] ")" "{" stmt* "}"
///   param     := IDENT [":" IDENT]
///   QUAL      := IDENT ["." IDENT]
///   stmt      := "var" IDENT ":" IDENT
///              | IDENT "=" "new" IDENT ["@" IDENT]
///              | IDENT "=" "null"
///              | IDENT "=" "(" IDENT ")" IDENT          // cast
///              | IDENT "=" IDENT "." IDENT              // load
///              | IDENT "." IDENT "=" IDENT              // store
///              | IDENT "=" IDENT                        // assign
///              | [IDENT "="] "call" ["@" NUM] QUAL "(" args ")"
///              | [IDENT "="] "vcall" ["@" NUM] IDENT "." IDENT "(" args ")"
///              | "return" IDENT
///
/// A call label NUM is at most 4294967294 (2^32 - 2).
///
/// Example (the paper's Figure 2 program ships in tests/ and examples/).
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_IR_PARSER_H
#define DYNSUM_IR_PARSER_H

#include "ir/Program.h"

#include <memory>
#include <string>
#include <string_view>

namespace dynsum {
namespace ir {

/// Outcome of a parse: either a program or a diagnostic.
struct ParseResult {
  std::unique_ptr<Program> Prog;
  /// Empty on success; otherwise "line N: message".
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Parses \p Source into a Program.  Classes and globals are declared
/// before any method signature, and every signature before any body, so
/// a name may be used above the line that declares it.  The program
/// keeps no reference to \p Source.
ParseResult parseProgram(std::string_view Source);

} // namespace ir
} // namespace dynsum

#endif // DYNSUM_IR_PARSER_H
