//===----------------------------------------------------------------------===//
///
/// \file
/// Uniques strings to dense 32-bit symbol ids.
///
/// Names of classes, fields, methods and variables are interned once so
/// that the rest of the system compares and hashes 4-byte ids instead of
/// strings.
///
//===----------------------------------------------------------------------===//

#ifndef DYNSUM_SUPPORT_STRINGINTERNER_H
#define DYNSUM_SUPPORT_STRINGINTERNER_H

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dynsum {

/// A dense id naming an interned string.  Id 0 is the empty string in any
/// interner, so value-initialized symbols are valid and "empty".
struct Symbol {
  uint32_t Id = 0;

  bool empty() const { return Id == 0; }
  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }
};

/// Bidirectional string <-> Symbol table.  Texts live in storage the
/// interner owns, so it cannot be copied: a copy's views would point
/// into the original.
class StringInterner {
public:
  StringInterner();
  StringInterner(const StringInterner &) = delete;
  StringInterner &operator=(const StringInterner &) = delete;

  /// Returns the unique symbol for \p Text, creating it on first use.
  /// A hit hashes \p Text once and allocates nothing; only a new text is
  /// copied.
  Symbol intern(std::string_view Text);

  /// Returns the symbol for \p Text, or the empty symbol when \p Text has
  /// never been interned.  Never allocates.
  Symbol lookup(std::string_view Text) const;

  /// Returns the text of \p Sym.  \p Sym must come from this interner.
  std::string_view text(Symbol Sym) const;

  /// Number of distinct strings interned (including the empty string).
  size_t size() const { return Texts.size(); }

private:
  std::deque<std::string> Storage; // never moves an element it holds
  std::unordered_map<std::string_view, uint32_t> Ids; // keys view Storage
  std::vector<std::string_view> Texts; // by symbol id, views into Storage
};

} // namespace dynsum

#endif // DYNSUM_SUPPORT_STRINGINTERNER_H
