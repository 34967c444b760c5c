//===----------------------------------------------------------------------===//
///
/// \file
/// One-call MiniJava compilation pipeline: source text -> pointer IR.
///
/// This is the frontend analogue of ir::parseProgram for users who want
/// to write analyses against Java-like source instead of the textual
/// IR.  The pipeline is lex -> parse -> sema -> lower; the IR program it
/// produces feeds pag::buildPAG and every analysis unchanged.
///
/// Identity contract: lowering assigns variable/allocation-site/method
/// ids deterministically in source order, and the produced Program
/// carries the per-method edit clock and fingerprints (see "Edit
/// tracking" in ir/Program.h) that the incremental layers key on.
/// Those append-only ids are what the PAG's persistent node table is
/// keyed by, so identity is stable from source symbol to PAG node to
/// service summary — edits after compilation (AnalysisService) patch
/// per method instead of rebuilding.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_FRONTEND_FRONTEND_H
#define DYNSUM_FRONTEND_FRONTEND_H

#include "frontend/Diagnostics.h"
#include "ir/Program.h"

#include <memory>
#include <string_view>

namespace dynsum {
namespace frontend {

/// Result of compiling a MiniJava unit.
struct CompileResult {
  /// The lowered program; null when compilation failed.
  std::unique_ptr<ir::Program> Prog;
  /// All diagnostics, in phase order (lexer/parser before sema).
  DiagnosticEngine Diags;

  bool ok() const { return Prog != nullptr; }
};

/// Compiles MiniJava \p Source down to the pointer IR.
CompileResult compileMiniJava(std::string_view Source);

} // namespace frontend
} // namespace dynsum

#endif // DYNSUM_FRONTEND_FRONTEND_H
