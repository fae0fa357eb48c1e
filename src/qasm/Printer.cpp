//===- qasm/Printer.cpp - OpenQASM / wQASM emission -----------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Printer.h"

#include "support/StringUtils.h"

using namespace weaver;
using namespace weaver::qasm;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

void printStatementLine(std::string &Out, const Gate &G) {
  G.appendTo(Out);
  Out += ";\n";
}

void printHeader(std::string &Out, const std::string &Version, int NumQubits,
                 int NumBits) {
  Out += "OPENQASM ";
  Out += Version;
  Out += ";\n";
  if (NumQubits > 0) {
    Out += "qubit[";
    appendInt(Out, NumQubits);
    Out += "] q;\n";
  }
  if (NumBits > 0) {
    Out += "bit[";
    appendInt(Out, NumBits);
    Out += "] c;\n";
  }
}

void printAnnotationLine(std::string &Out, const Annotation &A) {
  A.appendTo(Out);
  Out += '\n';
}

// Typical printed widths in compiler output: a gate line, the fixed part
// of an annotation line, a list index and a "%.17g" number with its
// separator.
constexpr size_t StatementBytes = 24, AnnotationBytes = 40, IndexBytes = 5,
                 NumberBytes = 20;

/// Cheap estimate of printWqasm's output size, so the one output buffer is
/// reserved about once without a worst-case bound (17 digits for every
/// number) inflating transient memory.
size_t estimateBytes(const WqasmProgram &Program) {
  size_t Bytes = 64 + Program.Statements.size() * StatementBytes;
  for (const Annotation &A : AnnotationView(Program))
    Bytes += AnnotationBytes + IndexBytes * A.ShuttleIndices.size() +
             NumberBytes * (2 * A.TrapPositions.size() + A.AodXs.size() +
                            A.AodYs.size() + A.ShuttleOffsets.size());
  return Bytes;
}

} // namespace

std::string qasm::printOpenQasm(const Circuit &C) {
  std::string Out;
  printHeader(Out, "3.0", C.numQubits(),
              static_cast<int>(C.count(GateKind::Measure)));
  for (const Gate &G : C)
    printStatementLine(Out, G);
  return Out;
}

std::string qasm::printWqasm(const WqasmProgram &Program) {
  std::string Out;
  Out.reserve(estimateBytes(Program));
  printHeader(Out, Program.Version, Program.NumQubits, Program.NumBits);
  for (const GateStatement &S : Program.Statements) {
    for (const Annotation &A : S.Annotations)
      printAnnotationLine(Out, A);
    printStatementLine(Out, S.Gate);
  }
  for (const Annotation &A : Program.TrailingAnnotations)
    printAnnotationLine(Out, A);
  return Out;
}
