//===- tests/qasm_test.cpp - QASM front end unit + property tests ---------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/WeaverCompiler.h"
#include "qasm/Lexer.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"
#include "sim/StateVector.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace weaver;
using namespace weaver::qasm;
using circuit::Circuit;
using circuit::GateKind;

// --- Lexer ---------------------------------------------------------------

TEST(Lexer, TokenisesBasicProgram) {
  std::string Err;
  auto Tokens = tokenize("h q[0];", Err);
  ASSERT_TRUE(Err.empty()) << Err;
  ASSERT_EQ(Tokens.size(), 7u); // h q [ 0 ] ; EOF
  EXPECT_TRUE(Tokens[0].isIdent("h"));
  EXPECT_TRUE(Tokens[2].isPunct('['));
  EXPECT_EQ(Tokens[3].NumberValue, 0.0);
}

TEST(Lexer, SkipsComments) {
  std::string Err;
  auto Tokens = tokenize("// line\nh q; /* block\nstill */ x q;", Err);
  ASSERT_TRUE(Err.empty());
  EXPECT_TRUE(Tokens[0].isIdent("h"));
}

TEST(Lexer, LexesAnnotations) {
  std::string Err;
  auto Tokens = tokenize("@rydberg", Err);
  ASSERT_TRUE(Err.empty());
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Annotation);
  EXPECT_EQ(Tokens[0].Text, "rydberg");
}

TEST(Lexer, LexesFloatsAndExponents) {
  std::string Err;
  auto Tokens = tokenize("1.5 2e-3 .25", Err);
  ASSERT_TRUE(Err.empty());
  EXPECT_DOUBLE_EQ(Tokens[0].NumberValue, 1.5);
  EXPECT_DOUBLE_EQ(Tokens[1].NumberValue, 2e-3);
  EXPECT_DOUBLE_EQ(Tokens[2].NumberValue, 0.25);
}

TEST(Lexer, RejectsMalformedNumerals) {
  // The scanner accepts number-ish character runs that strtod would
  // silently truncate to a prefix; they must be lexer errors instead.
  for (const char *Bad : {"1.2.3", "1e", "1e+", "2e--3", "1.5e1e1",
                          "3..14", "9e999999999999999999"}) {
    std::string Err;
    tokenize(std::string("rz(") + Bad + ") q;", Err);
    EXPECT_FALSE(Err.empty()) << "accepted hostile numeral: " << Bad;
    EXPECT_NE(Err.find("line 1"), std::string::npos) << Err;
  }
}

TEST(Lexer, RejectsOverflowingNumerals) {
  std::string Err;
  tokenize("1e400", Err); // ERANGE: infinity under strtod
  EXPECT_FALSE(Err.empty());
  Err.clear();
  // Denormal underflow parses to a finite (tiny or zero) value; that is
  // representable and must stay accepted.
  auto Tokens = tokenize("1e-400", Err);
  EXPECT_TRUE(Err.empty()) << Err;
  ASSERT_FALSE(Tokens.empty());
  EXPECT_GE(Tokens[0].NumberValue, 0.0);
}

TEST(Lexer, RejectsOverlongNumerals) {
  // 64 characters is the cap on a numeral's text; one more is an error.
  std::string Ok = "1." + std::string(62, '5');
  ASSERT_EQ(Ok.size(), 64u);
  std::string Err;
  auto Tokens = tokenize(Ok, Err);
  EXPECT_TRUE(Err.empty()) << Err;
  ASSERT_FALSE(Tokens.empty());
  EXPECT_DOUBLE_EQ(Tokens[0].NumberValue, 1.5555555555555556);
  tokenize(Ok + "5", Err);
  EXPECT_NE(Err.find("line 1: invalid numeric literal"), std::string::npos)
      << Err;
}

// The lexer converts numerals with from_chars; parseFiniteDouble (strtod)
// is the oracle for which numeral-shaped runs are accepted and what value
// they take, including underflow to denormals and zero.
TEST(Lexer, NumeralsMatchStrtodOracle) {
  std::vector<std::string> Cases = {
      "0",       "1.",     ".5",      "1.e5",     "007",   "1e-324",
      "2.5e-324", "4.9406564584124654e-324", "1e-400", "1e308", "1.8e308",
      "2.2250738585072011e-308", "9007199254740993", "1e+5",  "1E-5"};
  SplitMix64 Rng(20251017);
  const char Alphabet[] = "0123456789.eE+-";
  for (int I = 0; I < 20000; ++I) {
    // Only runs the lexer's numeral scan would take whole: a digit first,
    // signs only right after an exponent letter.
    std::string S(1, static_cast<char>('0' + Rng.next() % 10));
    size_t Len = Rng.next() % 12;
    while (S.size() < Len) {
      char C = Alphabet[Rng.next() % (sizeof(Alphabet) - 1)];
      if ((C == '+' || C == '-') && S.back() != 'e' && S.back() != 'E')
        continue;
      S += C;
    }
    Cases.push_back(S);
  }
  for (const std::string &S : Cases) {
    std::string Err;
    auto Tokens = tokenize(S, Err);
    Expected<double> Oracle = parseFiniteDouble(S);
    ASSERT_EQ(Err.empty(), Oracle.ok()) << S << ": " << Err;
    if (!Oracle)
      continue;
    ASSERT_EQ(Tokens.size(), 2u) << S;
    ASSERT_EQ(Tokens[0].Text, S);
    ASSERT_EQ(Tokens[0].NumberValue, *Oracle) << S;
  }
}

TEST(Lexer, TokenTextBorrowsTheSource) {
  std::string Source = "rz(0.5) q[12];";
  std::string Err;
  auto Tokens = tokenize(Source, Err);
  ASSERT_TRUE(Err.empty()) << Err;
  ASSERT_EQ(Tokens.size(), 10u);
  EXPECT_EQ(Tokens[0].Text, "rz");
  EXPECT_EQ(Tokens[2].Text, "0.5");
  EXPECT_EQ(Tokens[2].Text.data(), Source.data() + 3);
  EXPECT_EQ(Tokens[6].NumberValue, 12.0);
  EXPECT_TRUE(Tokens[9].is(TokenKind::EndOfFile));
}

TEST(Lexer, ReportsUnterminatedString) {
  std::string Err;
  tokenize("include \"abc", Err);
  EXPECT_FALSE(Err.empty());
}

TEST(Lexer, ReportsBareAt) {
  std::string Err;
  tokenize("@ 1", Err);
  EXPECT_FALSE(Err.empty());
}

TEST(Lexer, TracksLineNumbers) {
  std::string Err;
  auto Tokens = tokenize("h q;\nx q;", Err);
  ASSERT_TRUE(Err.empty());
  EXPECT_EQ(Tokens[0].Line, 1);
  EXPECT_EQ(Tokens[3].Line, 2);
}

// --- Parser ----------------------------------------------------------------

TEST(Parser, ParsesQasm3Program) {
  auto C = parseQasmCircuit("OPENQASM 3.0;\n"
                            "qubit[2] q;\n"
                            "bit[2] c;\n"
                            "h q[0];\n"
                            "cz q[0], q[1];\n"
                            "measure q[0];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_EQ(C->numQubits(), 2);
  EXPECT_EQ(C->size(), 3u);
  EXPECT_EQ(C->gate(1).kind(), GateKind::CZ);
}

TEST(Parser, ParsesQasm2Program) {
  auto C = parseQasmCircuit("OPENQASM 2.0;\n"
                            "include \"qelib1.inc\";\n"
                            "qreg q[3];\n"
                            "creg c[3];\n"
                            "ccx q[0], q[1], q[2];\n"
                            "measure q[1] -> c[1];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_EQ(C->gate(0).kind(), GateKind::CCX);
  EXPECT_EQ(C->gate(1).kind(), GateKind::Measure);
}

TEST(Parser, EvaluatesParameterExpressions) {
  auto C = parseQasmCircuit("qubit[1] q;\nrz(pi/2) q[0];\n"
                            "rx(-pi) q[0];\nu3(1+2*3, (2-1)/4, -0.5) q[0];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_NEAR(C->gate(0).param(0), 1.5707963267948966, 1e-12);
  EXPECT_NEAR(C->gate(1).param(0), -3.14159265358979, 1e-10);
  EXPECT_NEAR(C->gate(2).param(0), 7.0, 1e-12);
  EXPECT_NEAR(C->gate(2).param(1), 0.25, 1e-12);
}

TEST(Parser, MultipleRegistersGetFlatOffsets) {
  auto C = parseQasmCircuit("qreg a[2];\nqreg b[2];\ncz a[1], b[0];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_EQ(C->gate(0).qubit(0), 1);
  EXPECT_EQ(C->gate(0).qubit(1), 2);
}

TEST(Parser, RejectsUnknownGate) {
  EXPECT_FALSE(parseQasmCircuit("qubit[1] q;\nfrob q[0];\n").ok());
}

TEST(Parser, RejectsWrongArity) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\ncz q[0];\n").ok());
}

TEST(Parser, RejectsWrongParamCount) {
  EXPECT_FALSE(parseQasmCircuit("qubit[1] q;\nrz q[0];\n").ok());
  EXPECT_FALSE(parseQasmCircuit("qubit[1] q;\nh(0.5) q[0];\n").ok());
}

TEST(Parser, RejectsOutOfRangeIndex) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\nh q[2];\n").ok());
}

TEST(Parser, RejectsUnknownRegister) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\nh r[0];\n").ok());
}

TEST(Parser, RejectsDuplicateOperands) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\ncz q[0], q[0];\n").ok());
}

TEST(Parser, RejectsRedeclaration) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\nqubit[2] q;\n").ok());
}

TEST(Parser, ErrorsCarryLineNumbers) {
  auto C = parseQasmCircuit("qubit[1] q;\nh q[0];\nbogus q[0];\n");
  ASSERT_FALSE(C.ok());
  EXPECT_NE(C.message().find("line 3"), std::string::npos) << C.message();
}

TEST(Parser, RejectsNonIntegralIndicesAndSizes) {
  // Truncation would silently change the program: q[1.9] would address
  // q[1] and qubit[2.5] would declare 2 qubits.
  struct Case {
    const char *Source;
    const char *Line;
  } Cases[] = {
      {"qubit[2] q;\nh q[1.9];\n", "line 2:"},
      {"qubit[2.5] q;\n", "line 1:"},
      {"qreg q[2.5];\n", "line 1:"},
      {"qubit[2] q;\n@bind 1.5 slm 0\nh q[0];\n", "line 2:"},
      {"qubit[2] q;\n@raman local 0.5 0 0 0\nh q[0];\n", "line 2:"},
      {"qubit[4] q;\n@transfer 1 (0.5, 1)\nh q[0];\n", "line 2:"},
  };
  for (const Case &C : Cases) {
    auto P = parseWqasm(C.Source);
    ASSERT_FALSE(P.ok()) << C.Source;
    EXPECT_NE(P.message().find(C.Line), std::string::npos) << P.message();
  }
  // An integral numeral in another spelling is still that integer.
  auto P = parseWqasm("qubit[2] q;\nh q[1.0];\nx q[1e0];\n");
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->Statements[0].Gate.qubit(0), 1);
  EXPECT_EQ(P->Statements[1].Gate.qubit(0), 1);
}

TEST(Parser, RejectsIntegersOutsideIntRange) {
  for (const char *Source :
       {"qubit[3000000000] q;\n", "qubit[2] q;\nh q[1e10];\n",
        "qubit[2] q;\n@bind 4294967296 slm 0\nh q[0];\n"}) {
    auto P = parseWqasm(Source);
    ASSERT_FALSE(P.ok()) << Source;
    EXPECT_NE(P.message().find("out of range"), std::string::npos)
        << P.message();
  }
}

TEST(Parser, RejectsRegisterTotalOverflow) {
  // Each register fits in an int but their total does not, and must not
  // wrap to a negative qubit count.
  auto P = parseWqasm("qubit[2000000000] a;\nqubit[2000000000] b;\n");
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.message().find("line 2:"), std::string::npos) << P.message();
  EXPECT_FALSE(parseWqasm("creg a[2147483647];\ncreg b[1];\n").ok());
  // The largest total that fits is accepted.
  EXPECT_TRUE(parseWqasm("creg a[2147483646];\ncreg b[1];\n").ok());
}

TEST(Parser, LexErrorAfterValidPrefixIsReported) {
  auto P = parseWqasm("qubit[2] q;\nh q[0];\nrz(1.2.3) q[1];\n");
  ASSERT_FALSE(P.ok());
  EXPECT_EQ(P.message(), "line 3: invalid numeric literal '1.2.3'");
}

TEST(Parser, BarrierVariants) {
  auto C = parseQasmCircuit("qubit[2] q;\nbarrier;\nbarrier q[0], q[1];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_EQ(C->count(GateKind::Barrier), 2u);
}

// --- wQASM annotations -------------------------------------------------------

TEST(Wqasm, ParsesAllAnnotationForms) {
  auto P = parseWqasm("qubit[2] q;\n"
                      "@slm [(0, 0), (5, 0)]\n"
                      "@aod [1, 3] [2]\n"
                      "@bind q[0] slm 0\n"
                      "@bind q[1] aod 0 0\n"
                      "@transfer 1 (1, 0)\n"
                      "@shuttle row 0 2.5\n"
                      "@shuttle column 1 -1.5\n"
                      "@raman global 0 -1.5707963 3.14159265\n"
                      "@raman local q[0] 3.14159265 0 0\n"
                      "@rydberg\n"
                      "x q[0];\n");
  ASSERT_TRUE(P.ok()) << P.message();
  ASSERT_EQ(P->Statements.size(), 1u);
  const auto &Anns = P->Statements[0].Annotations;
  ASSERT_EQ(Anns.size(), 10u);
  EXPECT_EQ(Anns[0].Kind, AnnotationKind::Slm);
  EXPECT_EQ(Anns[0].TrapPositions.size(), 2u);
  EXPECT_EQ(Anns[1].AodXs.size(), 2u);
  EXPECT_TRUE(Anns[2].BindToSlm);
  EXPECT_FALSE(Anns[3].BindToSlm);
  EXPECT_EQ(Anns[4].SlmIndex, 1);
  EXPECT_TRUE(Anns[5].ShuttleRow);
  EXPECT_FALSE(Anns[6].ShuttleRow);
  EXPECT_DOUBLE_EQ(Anns[6].Offset, -1.5);
  EXPECT_EQ(Anns[7].Kind, AnnotationKind::RamanGlobal);
  EXPECT_EQ(Anns[8].Kind, AnnotationKind::RamanLocal);
  EXPECT_EQ(Anns[8].Qubit, 0);
  EXPECT_EQ(Anns[9].Kind, AnnotationKind::Rydberg);
}

TEST(Wqasm, ParsesParallelShuttleForms) {
  auto P = parseWqasm("qubit[1] q;\n"
                      "@shuttle columns [0, 2, 3] [5, -1.5, 2]\n"
                      "@shuttle rows [1] [-4]\n"
                      "x q[0];\n");
  ASSERT_TRUE(P.ok()) << P.message();
  const auto &Anns = P->Statements[0].Annotations;
  ASSERT_EQ(Anns.size(), 2u);
  EXPECT_EQ(Anns[0].Kind, AnnotationKind::ShuttleParallel);
  EXPECT_FALSE(Anns[0].ShuttleRow);
  EXPECT_EQ(Anns[0].ShuttleIndices, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(Anns[0].ShuttleOffsets, (std::vector<double>{5, -1.5, 2}));
  EXPECT_EQ(Anns[1].Kind, AnnotationKind::ShuttleParallel);
  EXPECT_TRUE(Anns[1].ShuttleRow);
  EXPECT_EQ(Anns[1].ShuttleIndices, (std::vector<int>{1}));
  EXPECT_EQ(Anns[1].ShuttleOffsets, (std::vector<double>{-4}));
}

TEST(Wqasm, RejectsParallelShuttleArityMismatch) {
  EXPECT_FALSE(
      parseWqasm("qubit[1] q;\n@shuttle columns [0, 1] [5]\nx q[0];\n")
          .ok());
}

TEST(Wqasm, TrailingAnnotationsPreserved) {
  auto P = parseWqasm("qubit[1] q;\nh q[0];\n@shuttle row 0 1\n");
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->TrailingAnnotations.size(), 1u);
}

TEST(Wqasm, RejectsUnknownAnnotation) {
  EXPECT_FALSE(parseWqasm("qubit[1] q;\n@teleport\nh q[0];\n").ok());
}

TEST(Wqasm, RejectsMalformedBind) {
  EXPECT_FALSE(parseWqasm("qubit[1] q;\n@bind q[0] nowhere 1\nh q[0];\n").ok());
}

TEST(Wqasm, AnnotationStrRoundTrips) {
  const char *Lines[] = {
      "@slm [(0, 0), (5.5, -2)]", "@aod [1, 3] [2, 4]",
      "@bind q[3] slm 2",         "@bind q[4] aod 1 0",
      "@transfer 2 (0, 1)",       "@shuttle row 0 7.5",
      "@shuttle column 1 -2.5",   "@raman global 0 1.5 0",
      "@raman local q[3] 0 0 2",  "@rydberg",
      "@shuttle columns [0, 2, 5] [5, -1.5, 2]",
      "@shuttle rows [0, 1] [2, 2]"};
  for (const char *Line : Lines) {
    std::string Source = std::string("qubit[9] q;\n") + Line + "\nh q[0];\n";
    auto P = parseWqasm(Source);
    ASSERT_TRUE(P.ok()) << Line << ": " << P.message();
    ASSERT_EQ(P->Statements[0].Annotations.size(), 1u) << Line;
    EXPECT_EQ(P->Statements[0].Annotations[0].str(), Line);
  }
}

// --- Printer round trips ------------------------------------------------------

TEST(Printer, EmitsParsableOpenQasm) {
  Circuit C(3);
  C.h(0).u3(0.1, -0.2, 0.3, 1).cz(0, 2).ccz(0, 1, 2).rz(0.5, 1).barrier();
  C.measureAll();
  std::string Text = printOpenQasm(C);
  auto Back = parseQasmCircuit(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->size(), C.size());
  EXPECT_EQ(printOpenQasm(*Back), Text) << "print->parse->print not stable";
}

TEST(Printer, PreservesUnitarySemantics) {
  Circuit C(3);
  C.h(0).t(1).cx(1, 2).rzz(0.7, 0, 2).sdg(2).swap(0, 1);
  auto Back = parseQasmCircuit(printOpenQasm(C));
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_TRUE(sim::circuitsEquivalent(C, *Back));
}

TEST(Printer, WqasmRoundTripStable) {
  WqasmProgram P;
  P.NumQubits = 2;
  circuit::Gate H(GateKind::H, {0});
  GateStatement S{H, {Annotation::ramanLocal(0, 0, -1.5707963267948966,
                                             3.141592653589793)}};
  P.Statements.push_back(S);
  GateStatement S2{circuit::Gate(GateKind::CZ, {0, 1}),
                   {Annotation::shuttle(true, 0, 3.5), Annotation::rydberg()}};
  P.Statements.push_back(S2);
  std::string Text = printWqasm(P);
  auto Back = parseWqasm(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(printWqasm(*Back), Text);
  EXPECT_EQ(Back->numAnnotations(), 3u);
}

TEST(Printer, WqasmRoundTripStableOnCompilerOutput) {
  auto W = core::compileWeaver(sat::satlibInstance(100, 1),
                               core::WeaverOptions());
  ASSERT_TRUE(W.ok()) << W.message();
  std::string Text = printWqasm(W->Program);
  auto Back = parseWqasm(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->Statements.size(), W->Program.Statements.size());
  EXPECT_EQ(Back->numAnnotations(), W->Program.numAnnotations());
  EXPECT_TRUE(printWqasm(*Back) == Text) << "print->parse->print not stable";
}

TEST(AnnotationView, IteratesInExecutionOrderSkippingEmptyStatements) {
  WqasmProgram P;
  P.NumQubits = 2;
  P.Statements.push_back({circuit::Gate(GateKind::H, {0}), {}});
  P.Statements.push_back(
      {circuit::Gate(GateKind::H, {1}),
       {Annotation::shuttle(true, 0, 1.0), Annotation::rydberg()}});
  P.Statements.push_back({circuit::Gate(GateKind::X, {0}), {}});
  P.Statements.push_back({circuit::Gate(GateKind::X, {1}),
                          {Annotation::ramanGlobal(1, 2, 3)}});
  P.TrailingAnnotations = {Annotation::shuttle(false, 1, -2.0)};

  AnnotationView View(P);
  EXPECT_EQ(View.size(), P.numAnnotations());
  std::vector<const Annotation *> Seen;
  for (const Annotation &A : View)
    Seen.push_back(&A);
  ASSERT_EQ(Seen.size(), 4u);
  // Zero-copy: the iterator yields the program's own annotation objects.
  EXPECT_EQ(Seen[0], &P.Statements[1].Annotations[0]);
  EXPECT_EQ(Seen[1], &P.Statements[1].Annotations[1]);
  EXPECT_EQ(Seen[2], &P.Statements[3].Annotations[0]);
  EXPECT_EQ(Seen[3], &P.TrailingAnnotations[0]);
}

TEST(AnnotationView, EmptyProgramYieldsNothing) {
  WqasmProgram P;
  AnnotationView View(P);
  EXPECT_EQ(View.begin(), View.end());
  EXPECT_EQ(View.size(), 0u);
}
