//===- qasm/Lexer.cpp - OpenQASM / wQASM lexer ----------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Lexer.h"

#include "support/StringUtils.h"

#include <charconv>

using namespace weaver;
using namespace weaver::qasm;

namespace {

// ASCII classes; they accept exactly what the <cctype> functions accept in
// the "C" locale, without the locale lookup. Lexer::next's switch spells
// out isspace's set: ' ', \t, \n, \v, \f, \r.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) { return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z'); }
bool isIdentChar(char C) { return isAlpha(C) || isDigit(C) || C == '_'; }

/// Longest numeral accepted, as in parseFiniteDouble: caps the work a
/// hostile token can cause.
constexpr size_t MaxNumeralChars = 64;

/// Converts a scanned numeral in place. Returns false for malformed shapes
/// ("1.2.3", "1e+"), overlong text and non-finite values.
bool convertNumeral(std::string_view Text, double &Value) {
  if (Text.size() > MaxNumeralChars)
    return false;
  const char *End = Text.data() + Text.size();
  auto R = std::from_chars(Text.data(), End, Value);
  if (R.ec == std::errc::result_out_of_range) {
    // from_chars reports underflow ("1e-400") like overflow and leaves no
    // value; strtod tells them apart, and underflow stays accepted.
    Expected<double> Slow = parseFiniteDouble(Text);
    if (!Slow)
      return false;
    Value = *Slow;
    return true;
  }
  return R.ec == std::errc() && R.ptr == End;
}

} // namespace

Token Lexer::make(TokenKind Kind, size_t Start, size_t End,
                  double Value) const {
  Token T;
  T.Kind = Kind;
  T.Text = std::string_view(Source.data() + Start, End - Start);
  T.NumberValue = Value;
  T.Line = Line;
  return T;
}

Token Lexer::fail(std::string Message) {
  ErrorMessage = "line " + std::to_string(Line) + ": " + std::move(Message);
  return make(TokenKind::Error, Pos, Pos);
}

Token Lexer::lexNumber(size_t Start) {
  Pos = Start;
  const size_t N = Source.size();
  while (Pos < N) {
    char D = Source[Pos];
    bool Sign = (D == '+' || D == '-') && Pos > Start &&
                (Source[Pos - 1] == 'e' || Source[Pos - 1] == 'E');
    if (!isDigit(D) && D != '.' && D != 'e' && D != 'E' && !Sign)
      break;
    ++Pos;
  }
  // The scan above accepts shapes like "1.2.3" or "1e+" that a prefix
  // parse would silently truncate; the conversion must consume the whole
  // run, so they are lexer errors, as is overflow.
  std::string_view Text = Source.substr(Start, Pos - Start);
  double Value;
  if (!convertNumeral(Text, Value))
    return fail("invalid numeric literal '" + std::string(Text) + "'");
  return make(TokenKind::Number, Start, Pos, Value);
}

Token Lexer::next() {
  if (!ErrorMessage.empty())
    return make(TokenKind::Error, Pos, Pos);
  const size_t N = Source.size();
  while (Pos < N) {
    size_t Start = Pos;
    char C = Source[Pos++];
    switch (C) {
    case '\n':
      ++Line;
      continue;
    case ' ':
    case '\t':
    case '\v':
    case '\f':
    case '\r':
      continue;
    case ';':
    case ',':
    case '(':
    case ')':
    case '[':
    case ']':
    case '{':
    case '}':
    case '+':
    case '-':
    case '*':
    case '=':
    case '<':
    case '>':
      return make(TokenKind::Punct, Start, Pos);
    case '/':
      if (Pos < N && Source[Pos] == '/') {
        while (Pos < N && Source[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (Pos < N && Source[Pos] == '*') {
        ++Pos;
        while (Pos + 1 < N &&
               !(Source[Pos] == '*' && Source[Pos + 1] == '/')) {
          if (Source[Pos] == '\n')
            ++Line;
          ++Pos;
        }
        Pos = Pos + 2 <= N ? Pos + 2 : N;
        continue;
      }
      return make(TokenKind::Punct, Start, Pos);
    case '"':
      while (Pos < N && Source[Pos] != '"')
        ++Pos;
      if (Pos == N)
        return fail("unterminated string");
      ++Pos;
      return make(TokenKind::String, Start + 1, Pos - 1);
    case '@':
      while (Pos < N && isIdentChar(Source[Pos]))
        ++Pos;
      if (Pos == Start + 1)
        return fail("'@' without keyword");
      return make(TokenKind::Annotation, Start + 1, Pos);
    case '.':
      if (Pos < N && isDigit(Source[Pos]))
        return lexNumber(Start);
      break;
    default:
      if (isDigit(C))
        return lexNumber(Start);
      if (isAlpha(C) || C == '_') {
        while (Pos < N && isIdentChar(Source[Pos]))
          ++Pos;
        return make(TokenKind::Identifier, Start, Pos);
      }
      break;
    }
    return fail(std::string("unexpected character '") + C + "'");
  }
  return make(TokenKind::EndOfFile, Pos, Pos);
}

std::vector<Token> qasm::tokenize(std::string_view Source,
                                  std::string &ErrorOut) {
  std::vector<Token> Tokens;
  Lexer Lex(Source);
  for (;;) {
    Token T = Lex.next();
    if (T.is(TokenKind::Error))
      break;
    Tokens.push_back(T);
    if (T.is(TokenKind::EndOfFile))
      break;
  }
  ErrorOut = Lex.error();
  return Tokens;
}
