//===- qasm/Parser.cpp - OpenQASM / wQASM parser ---------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Parser.h"

#include "qasm/Lexer.h"

#include <array>
#include <climits>
#include <cmath>
#include <map>

using namespace weaver;
using namespace weaver::qasm;
using circuit::Gate;
using circuit::GateKind;

namespace {

constexpr double Pi = 3.14159265358979323846;

/// Recursive-descent parser pulling tokens from a Lexer with one token of
/// lookahead. All parse* methods return false after recording an error in
/// ErrorMessage.
class Parser {
public:
  explicit Parser(std::string_view Source) : Lex(Source), Cur(Lex.next()) {}

  Expected<WqasmProgram> run();

private:
  const Token &peek() const { return Cur; }
  Token advance() {
    Token T = Cur;
    Cur = Lex.next();
    return T;
  }

  /// Records \p Message against the lookahead token's line. A lexical
  /// error in the lookahead token reports the lexer's diagnostic instead:
  /// no production accepts an Error token, so it always ends up here.
  bool fail(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage = Cur.is(TokenKind::Error)
                         ? Lex.error()
                         : "line " + std::to_string(Cur.Line) + ": " + Message;
    return false;
  }

  /// "found 'x'" text for diagnostics.
  std::string found() const { return "found '" + std::string(Cur.Text) + "'"; }

  bool expectPunct(char C) {
    if (!peek().isPunct(C))
      return fail(std::string("expected '") + C + "', " + found());
    advance();
    return true;
  }

  bool parseStatement();
  bool parseVersion();
  bool parseInclude();
  bool parseRegisterDecl(bool Quantum, bool Qasm3Style);
  bool parseGateCall(std::string_view Name);
  bool parseMeasure();
  bool parseBarrier();
  bool parseAnnotation();

  bool parseInt(int &Out);
  bool parseSignedNumber(double &Out);
  bool parseIntList(std::vector<int> &Out);
  bool parseNumberList(std::vector<double> &Out);
  bool parseQubitRef(int &FlatIndex);
  bool parseQubitRefOrIndex(int &FlatIndex);
  bool parseBitRef(int &FlatIndex);
  bool parseParamExpr(double &Out);
  bool parseParamTerm(double &Out);
  bool parseParamFactor(double &Out);

  /// Registers: name -> (flat offset, size). Quantum and classical live in
  /// separate maps, both searchable by string_view.
  using RegisterMap = std::map<std::string, std::pair<int, int>, std::less<>>;
  RegisterMap QuantumRegs;
  RegisterMap ClassicalRegs;

  Lexer Lex;
  Token Cur;
  WqasmProgram Program;
  std::vector<Annotation> PendingAnnotations;
  std::string ErrorMessage;
};

Expected<WqasmProgram> Parser::run() {
  while (!peek().is(TokenKind::EndOfFile))
    if (!parseStatement())
      return Expected<WqasmProgram>::error(ErrorMessage);
  Program.TrailingAnnotations = std::move(PendingAnnotations);
  return std::move(Program);
}

bool Parser::parseStatement() {
  const Token &T = peek();
  if (T.is(TokenKind::Annotation))
    return parseAnnotation();
  if (!T.is(TokenKind::Identifier))
    return fail("expected statement, " + found());
  if (T.Text == "OPENQASM" || T.Text == "OpenQASM")
    return parseVersion();
  if (T.Text == "include")
    return parseInclude();
  if (T.Text == "qreg")
    return parseRegisterDecl(/*Quantum=*/true, /*Qasm3Style=*/false);
  if (T.Text == "creg")
    return parseRegisterDecl(/*Quantum=*/false, /*Qasm3Style=*/false);
  if (T.Text == "qubit")
    return parseRegisterDecl(/*Quantum=*/true, /*Qasm3Style=*/true);
  if (T.Text == "bit")
    return parseRegisterDecl(/*Quantum=*/false, /*Qasm3Style=*/true);
  if (T.Text == "measure")
    return parseMeasure();
  if (T.Text == "barrier")
    return parseBarrier();
  return parseGateCall(advance().Text);
}

bool Parser::parseVersion() {
  advance(); // OPENQASM
  if (!peek().is(TokenKind::Number))
    return fail("expected version number after OPENQASM");
  Program.Version = std::string(advance().Text);
  return expectPunct(';');
}

bool Parser::parseInclude() {
  advance(); // include
  if (!peek().is(TokenKind::String))
    return fail("expected string after include");
  advance();
  return expectPunct(';');
}

bool Parser::parseRegisterDecl(bool Quantum, bool Qasm3Style) {
  advance(); // keyword
  std::string_view Name;
  int Size = 1;
  if (Qasm3Style) {
    // qubit[5] q;
    if (peek().isPunct('[')) {
      advance();
      if (!parseInt(Size))
        return false;
      if (!expectPunct(']'))
        return false;
    }
    if (!peek().is(TokenKind::Identifier))
      return fail("expected register name");
    Name = advance().Text;
  } else {
    // qreg q[5];
    if (!peek().is(TokenKind::Identifier))
      return fail("expected register name");
    Name = advance().Text;
    if (peek().isPunct('[')) {
      advance();
      if (!parseInt(Size))
        return false;
      if (!expectPunct(']'))
        return false;
    }
  }
  if (Size <= 0)
    return fail("register size must be positive");
  auto &Map = Quantum ? QuantumRegs : ClassicalRegs;
  int &Total = Quantum ? Program.NumQubits : Program.NumBits;
  if (Size > INT_MAX - Total)
    return fail("register '" + std::string(Name) +
                "' overflows the total register size");
  if (!Map.emplace(std::string(Name), std::make_pair(Total, Size)).second)
    return fail("redeclaration of register '" + std::string(Name) + "'");
  Total += Size;
  return expectPunct(';');
}

// A numeral used as an index or size must be integral and fit in an int;
// truncating "1.9" or wrapping "3000000000" would silently change the
// program.
bool Parser::parseInt(int &Out) {
  if (!peek().is(TokenKind::Number))
    return fail("expected integer, " + found());
  double V = peek().NumberValue;
  if (V != std::trunc(V))
    return fail("expected integer, " + found());
  if (V > INT_MAX)
    return fail("integer out of range, " + found());
  Out = static_cast<int>(V);
  advance();
  return true;
}

bool Parser::parseSignedNumber(double &Out) {
  double Sign = 1;
  while (peek().isPunct('-') || peek().isPunct('+')) {
    if (advance().Text == "-")
      Sign = -Sign;
  }
  if (!peek().is(TokenKind::Number))
    return fail("expected number, " + found());
  Out = Sign * advance().NumberValue;
  return true;
}

// '[' v (',' v)* ']' with optional commas, shared by every bracketed
// annotation list.
bool Parser::parseIntList(std::vector<int> &Out) {
  if (!expectPunct('['))
    return false;
  while (!peek().isPunct(']')) {
    int V;
    if (!parseInt(V))
      return false;
    Out.push_back(V);
    if (peek().isPunct(','))
      advance();
  }
  advance(); // ']'
  return true;
}

bool Parser::parseNumberList(std::vector<double> &Out) {
  if (!expectPunct('['))
    return false;
  while (!peek().isPunct(']')) {
    double V;
    if (!parseSignedNumber(V))
      return false;
    Out.push_back(V);
    if (peek().isPunct(','))
      advance();
  }
  advance(); // ']'
  return true;
}

bool Parser::parseQubitRef(int &FlatIndex) {
  if (!peek().is(TokenKind::Identifier))
    return fail("expected qubit reference");
  std::string_view Name = advance().Text;
  auto It = QuantumRegs.find(Name);
  if (It == QuantumRegs.end())
    return fail("unknown quantum register '" + std::string(Name) + "'");
  int Offset = It->second.first, Size = It->second.second;
  if (peek().isPunct('[')) {
    advance();
    int Index;
    if (!parseInt(Index))
      return false;
    if (!expectPunct(']'))
      return false;
    if (Index < 0 || Index >= Size)
      return fail("qubit index out of range for register '" +
                  std::string(Name) + "'");
    FlatIndex = Offset + Index;
    return true;
  }
  if (Size != 1)
    return fail("unindexed reference to multi-qubit register '" +
                std::string(Name) + "'");
  FlatIndex = Offset;
  return true;
}

bool Parser::parseBitRef(int &FlatIndex) {
  if (!peek().is(TokenKind::Identifier))
    return fail("expected bit reference");
  std::string_view Name = advance().Text;
  auto It = ClassicalRegs.find(Name);
  if (It == ClassicalRegs.end())
    return fail("unknown classical register '" + std::string(Name) + "'");
  int Offset = It->second.first, Size = It->second.second;
  if (peek().isPunct('[')) {
    advance();
    int Index;
    if (!parseInt(Index))
      return false;
    if (!expectPunct(']'))
      return false;
    if (Index < 0 || Index >= Size)
      return fail("bit index out of range for register '" + std::string(Name) +
                  "'");
    FlatIndex = Offset + Index;
    return true;
  }
  if (Size != 1)
    return fail("unindexed reference to multi-bit register '" +
                std::string(Name) + "'");
  FlatIndex = Offset;
  return true;
}

// expr := term (('+'|'-') term)*
bool Parser::parseParamExpr(double &Out) {
  if (!parseParamTerm(Out))
    return false;
  while (peek().isPunct('+') || peek().isPunct('-')) {
    bool Add = advance().Text == "+";
    double Rhs;
    if (!parseParamTerm(Rhs))
      return false;
    Out = Add ? Out + Rhs : Out - Rhs;
  }
  return true;
}

// term := factor (('*'|'/') factor)*
bool Parser::parseParamTerm(double &Out) {
  if (!parseParamFactor(Out))
    return false;
  while (peek().isPunct('*') || peek().isPunct('/')) {
    bool Mul = advance().Text == "*";
    double Rhs;
    if (!parseParamFactor(Rhs))
      return false;
    if (!Mul && Rhs == 0)
      return fail("division by zero in parameter expression");
    Out = Mul ? Out * Rhs : Out / Rhs;
  }
  return true;
}

// factor := ('-'|'+') factor | number | 'pi' | '(' expr ')'
bool Parser::parseParamFactor(double &Out) {
  if (peek().isPunct('-') || peek().isPunct('+')) {
    bool Negate = advance().Text == "-";
    if (!parseParamFactor(Out))
      return false;
    if (Negate)
      Out = -Out;
    return true;
  }
  if (peek().is(TokenKind::Number)) {
    Out = advance().NumberValue;
    return true;
  }
  if (peek().isIdent("pi")) {
    advance();
    Out = Pi;
    return true;
  }
  if (peek().isPunct('(')) {
    advance();
    if (!parseParamExpr(Out))
      return false;
    return expectPunct(')');
  }
  return fail("expected parameter expression, " + found());
}

bool Parser::parseGateCall(std::string_view Name) {
  GateKind Kind;
  if (!circuit::parseGateName(Name, Kind))
    return fail("unknown gate '" + std::string(Name) + "'");

  // Operands go straight into the gate's fixed storage; the counts keep
  // running past it so an over-long list is still reported by its length.
  std::array<double, 3> Params = {0.0, 0.0, 0.0};
  size_t NumParams = 0;
  if (peek().isPunct('(')) {
    advance();
    if (!peek().isPunct(')')) {
      for (;;) {
        double Value;
        if (!parseParamExpr(Value))
          return false;
        if (NumParams < Params.size())
          Params[NumParams] = Value;
        ++NumParams;
        if (!peek().isPunct(','))
          break;
        advance();
      }
    }
    if (!expectPunct(')'))
      return false;
  }
  if (NumParams != circuit::gateNumParams(Kind))
    return fail("gate '" + std::string(Name) + "' expects " +
                std::to_string(circuit::gateNumParams(Kind)) +
                " parameter(s), got " + std::to_string(NumParams));

  std::array<int, 3> Qubits = {0, 0, 0};
  size_t NumQubits = 0;
  for (;;) {
    int Q;
    if (!parseQubitRef(Q))
      return false;
    if (NumQubits < Qubits.size())
      Qubits[NumQubits] = Q;
    ++NumQubits;
    if (!peek().isPunct(','))
      break;
    advance();
  }
  if (!expectPunct(';'))
    return false;
  if (NumQubits != circuit::gateArity(Kind))
    return fail("gate '" + std::string(Name) + "' expects " +
                std::to_string(circuit::gateArity(Kind)) + " qubit(s), got " +
                std::to_string(NumQubits));
  for (size_t I = 0; I < NumQubits; ++I)
    for (size_t J = I + 1; J < NumQubits; ++J)
      if (Qubits[I] == Qubits[J])
        return fail("duplicate qubit operand in gate '" + std::string(Name) +
                    "'");

  GateStatement Stmt;
  Stmt.Gate = Gate::fromStorage(Kind, Qubits, Params);
  Stmt.Annotations = std::move(PendingAnnotations);
  PendingAnnotations.clear();
  Program.Statements.push_back(std::move(Stmt));
  return true;
}

bool Parser::parseMeasure() {
  advance(); // measure
  int Qubit;
  if (!parseQubitRef(Qubit))
    return false;
  if (peek().isPunct('-')) { // QASM2 arrow: measure q[0] -> c[0];
    advance();
    if (!expectPunct('>'))
      return false;
    int Bit;
    if (!parseBitRef(Bit))
      return false;
  }
  if (!expectPunct(';'))
    return false;
  GateStatement Stmt;
  Stmt.Gate = Gate(GateKind::Measure, {Qubit});
  Stmt.Annotations = std::move(PendingAnnotations);
  PendingAnnotations.clear();
  Program.Statements.push_back(std::move(Stmt));
  return true;
}

bool Parser::parseBarrier() {
  advance(); // barrier
  // Operand lists are accepted but the IR barrier spans all qubits.
  while (!peek().isPunct(';')) {
    int Q;
    if (!parseQubitRef(Q))
      return false;
    if (peek().isPunct(','))
      advance();
  }
  advance(); // ';'
  GateStatement Stmt;
  Stmt.Gate = Gate(GateKind::Barrier, {});
  Stmt.Annotations = std::move(PendingAnnotations);
  PendingAnnotations.clear();
  Program.Statements.push_back(std::move(Stmt));
  return true;
}

bool Parser::parseAnnotation() {
  std::string_view Keyword = advance().Text;
  Annotation A;
  if (Keyword == "slm") {
    if (!expectPunct('['))
      return false;
    std::vector<Vec2> Traps;
    while (!peek().isPunct(']')) {
      if (!expectPunct('('))
        return false;
      double X, Y;
      if (!parseSignedNumber(X))
        return false;
      if (!expectPunct(','))
        return false;
      if (!parseSignedNumber(Y))
        return false;
      if (!expectPunct(')'))
        return false;
      Traps.push_back(Vec2{X, Y});
      if (peek().isPunct(','))
        advance();
    }
    advance(); // ']'
    A = Annotation::slm(std::move(Traps));
  } else if (Keyword == "aod") {
    std::vector<double> Xs, Ys;
    if (!parseNumberList(Xs) || !parseNumberList(Ys))
      return false;
    A = Annotation::aod(std::move(Xs), std::move(Ys));
  } else if (Keyword == "bind") {
    int Qubit;
    if (!parseQubitRefOrIndex(Qubit))
      return false;
    if (peek().isIdent("slm")) {
      advance();
      int Index;
      if (!parseInt(Index))
        return false;
      A = Annotation::bindSlm(Qubit, Index);
    } else if (peek().isIdent("aod")) {
      advance();
      int Col, Row;
      if (!parseInt(Col) || !parseInt(Row))
        return false;
      A = Annotation::bindAod(Qubit, Col, Row);
    } else {
      return fail("expected 'slm' or 'aod' in @bind");
    }
  } else if (Keyword == "transfer") {
    int SlmIndex, Col, Row;
    if (!parseInt(SlmIndex))
      return false;
    if (!expectPunct('('))
      return false;
    if (!parseInt(Col))
      return false;
    if (!expectPunct(','))
      return false;
    if (!parseInt(Row))
      return false;
    if (!expectPunct(')'))
      return false;
    A = Annotation::transfer(SlmIndex, Col, Row);
  } else if (Keyword == "shuttle") {
    bool Row, Parallel;
    if (peek().isIdent("row"))
      Row = true, Parallel = false;
    else if (peek().isIdent("column"))
      Row = false, Parallel = false;
    else if (peek().isIdent("rows"))
      Row = true, Parallel = true;
    else if (peek().isIdent("columns"))
      Row = false, Parallel = true;
    else
      return fail("expected 'row', 'column', 'rows' or 'columns' in "
                  "@shuttle");
    advance();
    if (Parallel) {
      // @shuttle rows|columns [i0, i1, ...] [off0, off1, ...]
      std::vector<int> Indices;
      std::vector<double> Offsets;
      if (!parseIntList(Indices) || !parseNumberList(Offsets))
        return false;
      if (Indices.size() != Offsets.size())
        return fail("@shuttle parallel form needs one offset per index");
      A = Annotation::shuttleParallel(Row, std::move(Indices),
                                      std::move(Offsets));
    } else {
      int Index;
      double Offset;
      if (!parseInt(Index) || !parseSignedNumber(Offset))
        return false;
      A = Annotation::shuttle(Row, Index, Offset);
    }
  } else if (Keyword == "raman") {
    bool Global;
    if (peek().isIdent("global"))
      Global = true;
    else if (peek().isIdent("local"))
      Global = false;
    else
      return fail("expected 'global' or 'local' in @raman");
    advance();
    int Qubit = -1;
    if (!Global && !parseQubitRefOrIndex(Qubit))
      return false;
    double X, Y, Z;
    if (!parseSignedNumber(X) || !parseSignedNumber(Y) ||
        !parseSignedNumber(Z))
      return false;
    A = Global ? Annotation::ramanGlobal(X, Y, Z)
               : Annotation::ramanLocal(Qubit, X, Y, Z);
  } else if (Keyword == "rydberg") {
    A = Annotation::rydberg();
  } else {
    return fail("unknown annotation '@" + std::string(Keyword) + "'");
  }
  PendingAnnotations.push_back(std::move(A));
  return true;
}

bool Parser::parseQubitRefOrIndex(int &FlatIndex) {
  if (peek().is(TokenKind::Number))
    return parseInt(FlatIndex);
  return parseQubitRef(FlatIndex);
}

} // namespace

Expected<WqasmProgram> qasm::parseWqasm(std::string_view Source) {
  return Parser(Source).run();
}

Expected<circuit::Circuit> qasm::parseQasmCircuit(std::string_view Source) {
  auto Program = parseWqasm(Source);
  if (!Program)
    return Expected<circuit::Circuit>::error(Program.message());
  return Program->toCircuit();
}
