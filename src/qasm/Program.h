//===- qasm/Program.h - Parsed wQASM program representation ----*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory form of a (w)QASM file: a flat qubit register, a statement
/// list, and the FPQA annotations attached to each statement (paper §4.2:
/// annotations specify the FPQA steps executed before the following
/// OpenQASM statement). Ignoring the annotations yields a plain OpenQASM
/// program that can be retargeted to other architectures.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_QASM_PROGRAM_H
#define WEAVER_QASM_PROGRAM_H

#include "circuit/Circuit.h"
#include "qasm/Annotation.h"

#include <cstdint>
#include <string>
#include <vector>

namespace weaver {
namespace qasm {

/// Names one angle field of a WqasmProgram: parameter 0 of statement
/// Statement's gate, or the X or Z angle of its annotation Annotation.
struct AngleRef {
  enum class Field : uint8_t {
    GateParam0,  ///< Statements[Statement].Gate parameter 0
    AnnotationX, ///< Statements[Statement].Annotations[Annotation].AngleX
    AnnotationZ, ///< Statements[Statement].Annotations[Annotation].AngleZ
  };
  uint32_t Statement = 0;
  uint32_t Annotation = 0; ///< meaningful unless Where == GateParam0
  Field Where = Field::GateParam0;
};

/// One OpenQASM statement (a gate, measurement or barrier) plus the wQASM
/// annotations that precede it.
struct GateStatement {
  circuit::Gate Gate;
  std::vector<Annotation> Annotations;
};

/// A parsed wQASM (or plain OpenQASM) program over one flat qubit register.
struct WqasmProgram {
  std::string Version = "3.0";
  int NumQubits = 0;
  int NumBits = 0;
  std::vector<GateStatement> Statements;
  /// Annotations appearing after the last statement (rare; kept for
  /// round-trip fidelity).
  std::vector<Annotation> TrailingAnnotations;

  /// Drops the annotations and returns the logical circuit — the
  /// "treat wQASM like regular OpenQASM" path of §4.2.
  circuit::Circuit toCircuit() const;

  /// Wraps a circuit into an annotation-free program.
  static WqasmProgram fromCircuit(const circuit::Circuit &C);

  /// Total number of annotations across all statements.
  size_t numAnnotations() const;
};

/// Zero-copy forward range over every annotation of a program in execution
/// order — each statement's annotations, then the trailing ones. This is
/// the order the device executes the pulse stream in (§4.2); replay-style
/// consumers iterate it directly instead of materialising a flattened
/// copy of the stream.
class AnnotationView {
public:
  explicit AnnotationView(const WqasmProgram &Program) : Program(&Program) {}

  class Iterator {
  public:
    Iterator(const WqasmProgram *Program, size_t Segment, size_t Index)
        : Program(Program), Segment(Segment), Index(Index) {
      skipExhausted();
    }

    const Annotation &operator*() const { return segment(Segment)[Index]; }
    const Annotation *operator->() const { return &**this; }

    Iterator &operator++() {
      ++Index;
      skipExhausted();
      return *this;
    }

    friend bool operator==(const Iterator &A, const Iterator &B) {
      return A.Segment == B.Segment && A.Index == B.Index;
    }
    friend bool operator!=(const Iterator &A, const Iterator &B) {
      return !(A == B);
    }

  private:
    /// Segment \p S is statement S's annotation list; the one-past-last
    /// segment is the trailing list.
    const std::vector<Annotation> &segment(size_t S) const {
      return S < Program->Statements.size()
                 ? Program->Statements[S].Annotations
                 : Program->TrailingAnnotations;
    }
    void skipExhausted() {
      while (Segment <= Program->Statements.size() &&
             Index >= segment(Segment).size()) {
        ++Segment;
        Index = 0;
      }
    }

    const WqasmProgram *Program;
    size_t Segment;
    size_t Index;
  };

  Iterator begin() const { return Iterator(Program, 0, 0); }
  Iterator end() const {
    return Iterator(Program, Program->Statements.size() + 1, 0);
  }
  size_t size() const { return Program->numAnnotations(); }

private:
  const WqasmProgram *Program;
};

} // namespace qasm
} // namespace weaver

#endif // WEAVER_QASM_PROGRAM_H
