//===----------------------------------------------------------------------===//
///
/// \file
/// StringInterner implementation.
///
//===----------------------------------------------------------------------===//

#include "support/StringInterner.h"

#include <cassert>

using namespace dynsum;

StringInterner::StringInterner() {
  Symbol Empty = intern("");
  (void)Empty;
  assert(Empty.Id == 0 && "empty string must be symbol 0");
}

Symbol StringInterner::intern(std::string_view Text) {
  auto It = Ids.find(Text);
  if (It != Ids.end())
    return Symbol{It->second};
  uint32_t Id = uint32_t(Texts.size());
  Texts.push_back(Storage.emplace_back(Text));
  Ids.emplace(Texts.back(), Id);
  return Symbol{Id};
}

Symbol StringInterner::lookup(std::string_view Text) const {
  auto It = Ids.find(Text);
  return Symbol{It == Ids.end() ? 0 : It->second};
}

std::string_view StringInterner::text(Symbol Sym) const {
  assert(Sym.Id < Texts.size() && "symbol from a different interner");
  return Texts[Sym.Id];
}
