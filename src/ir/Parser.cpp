//===----------------------------------------------------------------------===//
///
/// \file
/// One-scan recursive-descent parser for the textual mini-IR.
///
/// Tokens are views into the source, lexed one at a time.  A declaration
/// scan parses classes and globals and records where each method starts,
/// stepping over its text once; signatures and then bodies are parsed
/// from the recorded positions.  So the builder sees classes and globals,
/// then signatures, then bodies, each in text order.  That order fixes
/// every id, Symbol ids included, and must not change:
/// programFingerprint hashes the ids, and saved summary snapshots are
/// checked against it.
///
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "ir/Builder.h"

#include <array>
#include <vector>

using namespace dynsum;
using namespace dynsum::ir;

namespace {

enum class TokKind : uint8_t { Ident, Number, Punct, Eof };

/// Byte classes.  Identifiers may contain letters, digits, '_', '<', '>',
/// '$', '[' and ']' (but start with a letter, '_', '<' or '$') so that
/// Java-flavoured names like "<init>" work unquoted.
enum : uint8_t {
  kSpace = 1, // blanks other than '\n'
  kIdentStart = 2,
  kIdentChar = 4,
  kDigit = 8,
  kPunct = 16,
  kSkipStop = 32, // bytes skipMethodText must look at
};

constexpr std::array<uint8_t, 256> makeCharClasses() {
  std::array<uint8_t, 256> T{};
  for (char C : {' ', '\t', '\v', '\f', '\r'})
    T[uint8_t(C)] = kSpace;
  for (int C = 0; C < 26; ++C) {
    T['a' + C] = kIdentStart | kIdentChar;
    T['A' + C] = kIdentStart | kIdentChar;
  }
  for (int C = '0'; C <= '9'; ++C)
    T[C] = kDigit | kIdentChar;
  for (char C : {'_', '<', '$'})
    T[uint8_t(C)] = kIdentStart | kIdentChar;
  for (char C : {'>', '[', ']'})
    T[uint8_t(C)] = kIdentChar;
  for (char C : std::string_view("{}()=.,:@"))
    T[uint8_t(C)] = kPunct;
  for (char C : {'\n', '#', '/', '{', '}'})
    T[uint8_t(C)] |= kSkipStop;
  return T;
}

constexpr std::array<uint8_t, 256> kCharClass = makeCharClasses();

bool hasClass(char C, uint8_t Class) {
  return kCharClass[uint8_t(C)] & Class;
}

/// A method found by the declaration scan.
struct MethodDecl {
  size_t Pos;    // just past "method"; after its signature, past the '{'
  unsigned Line; // the line of Pos
  MethodId Id;   // set by the signature
};

class Parser {
public:
  explicit Parser(std::string_view Source) : Source(Source) {}

  ParseResult run() {
    next();
    if (!declarationScan())
      return {nullptr, Error};
    for (MethodDecl &D : Methods)
      if (!parseSignature(D))
        return {nullptr, Error};
    for (const MethodDecl &D : Methods)
      if (!parseBody(D))
        return {nullptr, Error};
    return {Builder.takeProgram(), ""};
  }

private:
  //===------------------------------------------------------------------===//
  // Lexer
  //===------------------------------------------------------------------===//

  /// Lexes the token at Pos into Kind/Text.  An unlexable character
  /// records the error and reads as end of input.
  void next() {
    size_t N = Source.size();
    while (Pos < N) {
      char C = Source[Pos];
      if (hasClass(C, kSpace)) {
        ++Pos;
      } else if (C == '\n') {
        ++Line;
        ++Pos;
      } else if (atComment(Pos)) {
        skipComment();
      } else {
        break;
      }
    }
    Text = {};
    Kind = TokKind::Eof;
    if (Pos == N)
      return;
    size_t Begin = Pos;
    char C = Source[Pos++];
    if (hasClass(C, kIdentStart)) {
      while (Pos < N && hasClass(Source[Pos], kIdentChar))
        ++Pos;
      Kind = TokKind::Ident;
    } else if (hasClass(C, kDigit)) {
      while (Pos < N && hasClass(Source[Pos], kDigit))
        ++Pos;
      Kind = TokKind::Number;
    } else if (hasClass(C, kPunct)) {
      Kind = TokKind::Punct;
    } else {
      --Pos;
      fail(std::string("unexpected character '") + C + "'");
      return;
    }
    Text = Source.substr(Begin, Pos - Begin);
  }

  /// True when a "#" or "//" comment starts at \p At.
  bool atComment(size_t At) const {
    return Source[At] == '#' || (Source[At] == '/' && At + 1 < Source.size() &&
                                 Source[At + 1] == '/');
  }

  /// Moves to the end of the line (its '\n' is left for the caller).
  void skipComment() {
    size_t End = Source.find('\n', Pos);
    Pos = End == std::string_view::npos ? Source.size() : End;
  }

  /// Restarts lexing at a position recorded earlier.
  void seek(size_t NewPos, unsigned NewLine) {
    Pos = NewPos;
    Line = NewLine;
    next();
  }

  bool isPunct(char C) const {
    return Kind == TokKind::Punct && Text[0] == C;
  }
  bool isIdent(std::string_view S) const {
    return Kind == TokKind::Ident && Text == S;
  }

  /// Consumes the current token when it is the punctuation \p C.
  bool accept(char C) {
    if (!isPunct(C))
      return false;
    next();
    return true;
  }
  /// Consumes the current token when it is the keyword \p S.
  bool acceptKeyword(std::string_view S) {
    if (!isIdent(S))
      return false;
    next();
    return true;
  }

  bool fail(const std::string &Message) { return failAt(Line, Message); }

  /// Records the first error only: a lex error reads as end of input, and
  /// the parse error that follows must not replace it.
  bool failAt(unsigned AtLine, const std::string &Message) {
    if (Error.empty())
      Error = "line " + std::to_string(AtLine) + ": " + Message;
    return false;
  }

  bool expectPunct(char C) {
    return accept(C) || fail(std::string("expected '") + C + "', found '" +
                             std::string(Text) + "'");
  }

  bool expectIdent(std::string_view &Out) {
    if (Kind != TokKind::Ident)
      return fail("expected identifier, found '" + std::string(Text) + "'");
    Out = Text;
    next();
    return true;
  }

  //===------------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------------===//

  /// Parses classes and globals; records each method and skips its text.
  /// Methods come later so their signatures and bodies may name classes
  /// and globals declared further down the file.
  bool declarationScan() {
    while (Kind != TokKind::Eof) {
      if (acceptKeyword("class")) {
        if (!parseClassDecl())
          return false;
      } else if (acceptKeyword("global")) {
        if (!parseGlobalDecl())
          return false;
      } else if (isIdent("method")) {
        Methods.push_back({Pos, Line, kNone});
        if (!skipMethodText())
          return false;
        next();
      } else {
        return fail("expected 'class', 'global' or 'method'");
      }
    }
    return Error.empty();
  }

  /// Steps over a method's raw text: to the first '{' and on to its
  /// matching '}', counting lines and skipping comments.  Everything in
  /// between is checked when the signature and body are parsed.
  bool skipMethodText() {
    unsigned Depth = 0;
    while (Pos < Source.size()) {
      char C = Source[Pos++];
      if (!hasClass(C, kSkipStop))
        continue;
      if (C == '\n')
        ++Line;
      else if (atComment(Pos - 1))
        skipComment();
      else if (C == '{')
        ++Depth;
      else if (C == '}' && Depth > 0 && --Depth == 0)
        return true;
    }
    Kind = TokKind::Eof;
    Text = {};
    return fail(Depth > 0 ? "unterminated block" : "expected '{', found ''");
  }

  bool parseClassDecl() {
    std::string_view Name, Super;
    if (!expectIdent(Name) ||
        (acceptKeyword("extends") && !expectIdent(Super)))
      return false;
    unsigned DeclLine = Line;
    if (!expectPunct('{'))
      return false;
    std::string Problem;
    if (Builder.cls(Name, Super, &Problem) == kNone)
      return failAt(DeclLine, Problem);
    while (!accept('}')) {
      if (Kind == TokKind::Eof)
        return fail("unterminated class body");
      if (!acceptKeyword("fields"))
        return fail("expected 'fields' or '}' in class body");
      do {
        std::string_view FieldName;
        if (!expectIdent(FieldName))
          return false;
        Builder.field(FieldName);
      } while (accept(','));
    }
    return true;
  }

  bool parseGlobalDecl() {
    std::string_view Name, Type;
    if (!expectIdent(Name) || (accept(':') && !expectIdent(Type)))
      return false;
    Builder.global(Name, Type);
    return true;
  }

  /// Parses "QUAL(params)" after the recorded "method" and declares the
  /// method; leaves \p D at the body's first token.
  bool parseSignature(MethodDecl &D) {
    seek(D.Pos, D.Line);
    std::string_view First, Second;
    if (!expectIdent(First) || (accept('.') && !expectIdent(Second)) ||
        !expectPunct('('))
      return false;
    Params.clear();
    if (!isPunct(')')) {
      do {
        std::string_view ParamName, ParamType;
        if (!expectIdent(ParamName) ||
            (accept(':') && !expectIdent(ParamType)))
          return false;
        Params.emplace_back(ParamName, ParamType);
      } while (accept(','));
    }
    if (!expectPunct(')'))
      return false;
    std::string Qual(First);
    if (!Second.empty())
      Qual.append(".").append(Second);
    D.Id = Builder.method(Qual, Params);
    const Program &P = Builder.program();
    const Method &M = P.method(D.Id);
    MethodId Earlier = M.Owner == kNone ? P.findFreeMethod(M.Name)
                                        : P.findMethod(M.Owner, M.Name);
    if (Earlier != D.Id)
      return fail("duplicate method '" + Qual + "'");
    if (!isPunct('{'))
      return fail("expected '{', found '" + std::string(Text) + "'");
    D.Pos = Pos;
    D.Line = Line;
    return true;
  }

  //===------------------------------------------------------------------===//
  // Bodies
  //===------------------------------------------------------------------===//

  bool parseBody(const MethodDecl &D) {
    seek(D.Pos, D.Line);
    Current = D.Id;
    while (!isPunct('}')) {
      if (Kind == TokKind::Eof)
        return fail("unterminated method body");
      if (!parseStatement())
        return false;
    }
    return true;
  }

  /// Parses an optional "@ NUM" call-site label.  kNone means "no label",
  /// so the largest label is kNone - 1.
  bool parseOptionalLabel(uint32_t &Label) {
    Label = kNone;
    if (!accept('@'))
      return true;
    if (Kind != TokKind::Number)
      return fail("expected number after '@'");
    uint64_t Value = 0;
    for (char Digit : Text) {
      Value = Value * 10 + uint64_t(Digit - '0');
      if (Value >= kNone)
        return fail("call label '" + std::string(Text) + "' out of range");
    }
    Label = uint32_t(Value);
    next();
    return true;
  }

  bool parseArgs() {
    Args.clear();
    if (!expectPunct('('))
      return false;
    if (!isPunct(')')) {
      do {
        std::string_view Arg;
        if (!expectIdent(Arg))
          return false;
        Args.push_back(Arg);
      } while (accept(','));
    }
    return expectPunct(')');
  }

  bool parseCall(std::string_view Dst) {
    bool Virtual = isIdent("vcall");
    next(); // call / vcall
    uint32_t Label;
    std::string_view First, Second;
    if (!parseOptionalLabel(Label) || !expectIdent(First))
      return false;
    bool HasDot = accept('.');
    if (HasDot && !expectIdent(Second))
      return false;
    unsigned CallLine = Line;
    if (!parseArgs())
      return false;
    if (Virtual) {
      if (!HasDot)
        return fail("vcall requires receiver.method");
      Builder.vcall(Current, Dst, First, Second, Args, Label);
      return true;
    }
    const Program &P = Builder.program();
    MethodId Callee = kNone;
    if (!HasDot)
      Callee = P.findFreeMethod(P.names().lookup(First));
    else if (TypeId Owner = P.findClass(P.names().lookup(First));
             Owner != kNone)
      Callee = P.findMethod(Owner, P.names().lookup(Second));
    if (Callee == kNone)
      return failAt(CallLine, "call to undeclared method '" +
                                  std::string(First) + (HasDot ? "." : "") +
                                  std::string(Second) + "'");
    Builder.call(Current, Dst, Callee, Args, Label);
    return true;
  }

  bool parseStatement() {
    std::string_view First, Second, Third;
    // return IDENT
    if (acceptKeyword("return")) {
      if (!expectIdent(First))
        return false;
      Builder.ret(Current, First);
      return true;
    }
    // var IDENT : TYPE
    if (acceptKeyword("var")) {
      if (!expectIdent(First) || !expectPunct(':') || !expectIdent(Second))
        return false;
      Builder.declareLocal(Current, First, Second);
      return true;
    }
    // call/vcall without result
    if (isIdent("call") || isIdent("vcall"))
      return parseCall("");

    if (!expectIdent(First))
      return false;
    // store: IDENT . FIELD = IDENT
    if (accept('.')) {
      if (!expectIdent(Second) || !expectPunct('=') || !expectIdent(Third))
        return false;
      Builder.store(Current, First, Second, Third);
      return true;
    }
    if (!expectPunct('='))
      return false;
    // IDENT = new TYPE [@ LABEL]
    if (acceptKeyword("new")) {
      if (!expectIdent(Second))
        return false;
      if (accept('@')) {
        if (Kind != TokKind::Ident && Kind != TokKind::Number)
          return fail("expected label after '@'");
        Third = Text;
        next();
      }
      Builder.alloc(Current, First, Second, Third);
      return true;
    }
    // IDENT = null
    if (acceptKeyword("null")) {
      Builder.nullAssign(Current, First);
      return true;
    }
    // IDENT = ( TYPE ) IDENT  -- cast
    if (accept('(')) {
      if (!expectIdent(Second) || !expectPunct(')') || !expectIdent(Third))
        return false;
      Builder.cast(Current, First, Second, Third);
      return true;
    }
    // IDENT = call/vcall ...
    if (isIdent("call") || isIdent("vcall"))
      return parseCall(First);
    // IDENT = IDENT [. FIELD]
    if (!expectIdent(Second))
      return false;
    if (accept('.')) {
      if (!expectIdent(Third))
        return false;
      Builder.load(Current, First, Second, Third);
      return true;
    }
    Builder.assign(Current, First, Second);
    return true;
  }

  std::string_view Source;
  size_t Pos = 0;
  unsigned Line = 1;
  TokKind Kind = TokKind::Eof;
  std::string_view Text; // the current token

  ProgramBuilder Builder;
  std::vector<MethodDecl> Methods;
  MethodId Current = kNone;
  ProgramBuilder::ParamList Params;  // reused by every signature
  std::vector<std::string_view> Args; // reused by every call
  std::string Error;
};

} // namespace

ParseResult dynsum::ir::parseProgram(std::string_view Source) {
  return Parser(Source).run();
}
