//===- qasm/Lexer.h - OpenQASM / wQASM lexer -------------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-rolled tokenizer for the OpenQASM subset (plus wQASM '@'
/// annotations) that the paper's pipeline consumes and emits.
///
/// The lexer is a cursor: the parser pulls one token at a time and keeps a
/// single token of lookahead, so no token vector is ever built. A token's
/// text is a view into the source, and numerals are converted in place
/// with std::from_chars, so lexing allocates nothing per token.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_QASM_LEXER_H
#define WEAVER_QASM_LEXER_H

#include <string>
#include <string_view>
#include <vector>

namespace weaver {
namespace qasm {

/// Token categories produced by the lexer.
enum class TokenKind {
  Identifier, ///< gate names, register names, keywords
  Number,     ///< integer or floating literal
  String,     ///< double-quoted string (include paths)
  Annotation, ///< '@' followed by a keyword, e.g. @shuttle
  Punct,      ///< one of ; , ( ) [ ] { } + - * / = < >
  EndOfFile,
  Error,      ///< lexical error; the message is in Lexer::error()
};

/// One token with its source line (1-based) for diagnostics. \c Text
/// borrows the source the token was lexed from (without the quotes of a
/// String or the '@' of an Annotation); it is valid only while that source
/// is alive.
struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  std::string_view Text;
  double NumberValue = 0;
  int Line = 0;

  bool is(TokenKind K) const { return Kind == K; }
  bool isPunct(char C) const {
    return Kind == TokenKind::Punct && Text[0] == C;
  }
  bool isIdent(std::string_view S) const {
    return Kind == TokenKind::Identifier && Text == S;
  }
};

/// Pull-style tokenizer over a borrowed source. '//' line comments and
/// '/* */' block comments are skipped. The first lexical error (an unknown
/// character, a malformed, non-finite or over-64-character numeral, an
/// unterminated string, a bare '@') yields an Error token, after which
/// every call yields Error again.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Source(Source) {}

  /// Lexes the next token. After the last token it returns EndOfFile.
  Token next();

  /// The "line N: ..." diagnostic of the first Error token, else empty.
  const std::string &error() const { return ErrorMessage; }

private:
  Token make(TokenKind Kind, size_t Start, size_t End, double Value = 0) const;
  Token fail(std::string Message);
  /// Lexes the numeral starting at \p Start.
  Token lexNumber(size_t Start);

  std::string_view Source;
  size_t Pos = 0;
  int Line = 1;
  std::string ErrorMessage;
};

/// Tokenizes all of \p Source, ending with an EndOfFile token. On a lexical
/// error the message goes to \p ErrorOut and the tokens before the error
/// are returned (without EndOfFile). The tokens' text borrows \p Source.
std::vector<Token> tokenize(std::string_view Source, std::string &ErrorOut);

} // namespace qasm
} // namespace weaver

#endif // WEAVER_QASM_LEXER_H
