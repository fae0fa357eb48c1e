//===- qasm/Printer.cpp - OpenQASM / wQASM emission -----------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Printer.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <numeric>

using namespace weaver;
using namespace weaver::qasm;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

void printStatementLine(std::string &Out, const Gate &G,
                        TextSpan *Param0 = nullptr) {
  G.appendTo(Out, Param0);
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

void printAnnotationLine(std::string &Out, const Annotation &A,
                         TextSpan *AngleXAt = nullptr,
                         TextSpan *AngleZAt = nullptr) {
  A.appendTo(Out, AngleXAt, AngleZAt);
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
  std::vector<TextSpan> NoSpans;
  return printWqasm(Program, {}, NoSpans);
}

std::string qasm::printWqasm(const WqasmProgram &Program,
                             const std::vector<AngleRef> &Angles,
                             std::vector<TextSpan> &Spans) {
  using Field = AngleRef::Field;
  // Visit the requested angles in print order: by statement, each
  // statement's annotations (by index) before its gate line.
  auto OnGate = [&](uint32_t I) {
    return Angles[I].Where == Field::GateParam0;
  };
  std::vector<uint32_t> Order(Angles.size());
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(), [&](uint32_t L, uint32_t R) {
    const AngleRef &A = Angles[L], &B = Angles[R];
    if (A.Statement != B.Statement)
      return A.Statement < B.Statement;
    if (OnGate(L) != OnGate(R))
      return OnGate(R);
    if (!OnGate(L) && A.Annotation != B.Annotation)
      return A.Annotation < B.Annotation;
    return A.Where < B.Where;
  });
  Spans.assign(Angles.size(), TextSpan());

  std::string Out;
  Out.reserve(estimateBytes(Program));
  printHeader(Out, Program.Version, Program.NumQubits, Program.NumBits);
  const size_t N = Order.size();
  size_t Next = 0;
  for (uint32_t SI = 0; SI < Program.Statements.size(); ++SI) {
    const GateStatement &S = Program.Statements[SI];
    // Angles of this statement occupy Order[Next, End).
    while (Next < N && Angles[Order[Next]].Statement < SI)
      ++Next;
    size_t End = Next;
    while (End < N && Angles[Order[End]].Statement == SI)
      ++End;
    size_t K = Next;
    for (uint32_t AI = 0; AI < S.Annotations.size(); ++AI) {
      while (K < End && !OnGate(Order[K]) &&
             Angles[Order[K]].Annotation < AI)
        ++K;
      auto AtThis = [&] {
        return K < End && !OnGate(Order[K]) &&
               Angles[Order[K]].Annotation == AI;
      };
      if (!AtThis()) {
        printAnnotationLine(Out, S.Annotations[AI]);
        continue;
      }
      TextSpan X, Z;
      printAnnotationLine(Out, S.Annotations[AI], &X, &Z);
      for (; AtThis(); ++K)
        Spans[Order[K]] = Angles[Order[K]].Where == Field::AnnotationX ? X : Z;
    }
    while (K < End && !OnGate(Order[K]))
      ++K;
    if (K == End) {
      printStatementLine(Out, S.Gate);
    } else {
      TextSpan Param0;
      printStatementLine(Out, S.Gate, &Param0);
      for (; K < End; ++K)
        Spans[Order[K]] = Param0;
    }
    Next = End;
  }
  for (const Annotation &A : Program.TrailingAnnotations)
    printAnnotationLine(Out, A);
  return Out;
}
