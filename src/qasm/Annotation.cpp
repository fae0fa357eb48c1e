//===- qasm/Annotation.cpp - wQASM FPQA annotations ------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Annotation.h"

#include "support/StringUtils.h"

using namespace weaver;
using namespace weaver::qasm;

const char *qasm::annotationKindName(AnnotationKind Kind) {
  switch (Kind) {
  case AnnotationKind::Slm:
    return "slm";
  case AnnotationKind::Aod:
    return "aod";
  case AnnotationKind::Bind:
    return "bind";
  case AnnotationKind::Transfer:
    return "transfer";
  case AnnotationKind::Shuttle:
  case AnnotationKind::ShuttleParallel:
    return "shuttle";
  case AnnotationKind::RamanGlobal:
  case AnnotationKind::RamanLocal:
    return "raman";
  case AnnotationKind::Rydberg:
    return "rydberg";
  }
  return "";
}

namespace {

void appendQubit(std::string &Out, int Qubit) {
  Out += "q[";
  appendInt(Out, Qubit);
  Out += ']';
}

void appendValue(std::string &Out, int Value) { appendInt(Out, Value); }
void appendValue(std::string &Out, double Value) { appendDouble(Out, Value); }

/// Appends "[v0, v1, ...]".
template <typename T>
void appendList(std::string &Out, const std::vector<T> &Vals) {
  Out += '[';
  for (size_t I = 0; I < Vals.size(); ++I) {
    if (I)
      Out += ", ";
    appendValue(Out, Vals[I]);
  }
  Out += ']';
}

void appendAngles(std::string &Out, double X, double Y, double Z,
                  TextSpan *XAt, TextSpan *ZAt) {
  appendDouble(Out, X, XAt);
  Out += ' ';
  appendDouble(Out, Y);
  Out += ' ';
  appendDouble(Out, Z, ZAt);
}

} // namespace

void Annotation::appendTo(std::string &Out, TextSpan *AngleXAt,
                          TextSpan *AngleZAt) const {
  Out += '@';
  Out += annotationKindName(Kind);
  switch (Kind) {
  case AnnotationKind::Slm:
    Out += " [";
    for (size_t I = 0; I < TrapPositions.size(); ++I) {
      Out += I ? ", (" : "(";
      appendDouble(Out, TrapPositions[I].X);
      Out += ", ";
      appendDouble(Out, TrapPositions[I].Y);
      Out += ')';
    }
    Out += ']';
    break;
  case AnnotationKind::Aod:
    Out += ' ';
    appendList(Out, AodXs);
    Out += ' ';
    appendList(Out, AodYs);
    break;
  case AnnotationKind::Bind:
    Out += ' ';
    appendQubit(Out, Qubit);
    if (BindToSlm) {
      Out += " slm ";
      appendInt(Out, SlmIndex);
    } else {
      Out += " aod ";
      appendInt(Out, AodCol);
      Out += ' ';
      appendInt(Out, AodRow);
    }
    break;
  case AnnotationKind::Transfer:
    Out += ' ';
    appendInt(Out, SlmIndex);
    Out += " (";
    appendInt(Out, AodCol);
    Out += ", ";
    appendInt(Out, AodRow);
    Out += ')';
    break;
  case AnnotationKind::Shuttle:
    Out += ShuttleRow ? " row " : " column ";
    appendInt(Out, ShuttleIndex);
    Out += ' ';
    appendDouble(Out, Offset);
    break;
  case AnnotationKind::ShuttleParallel:
    Out += ShuttleRow ? " rows " : " columns ";
    appendList(Out, ShuttleIndices);
    Out += ' ';
    appendList(Out, ShuttleOffsets);
    break;
  case AnnotationKind::RamanGlobal:
    Out += " global ";
    appendAngles(Out, AngleX, AngleY, AngleZ, AngleXAt, AngleZAt);
    break;
  case AnnotationKind::RamanLocal:
    Out += " local ";
    appendQubit(Out, Qubit);
    Out += ' ';
    appendAngles(Out, AngleX, AngleY, AngleZ, AngleXAt, AngleZAt);
    break;
  case AnnotationKind::Rydberg:
    break;
  }
}

std::string Annotation::str() const {
  std::string Out;
  appendTo(Out);
  return Out;
}

Annotation Annotation::slm(std::vector<Vec2> Traps) {
  Annotation A;
  A.Kind = AnnotationKind::Slm;
  A.TrapPositions = std::move(Traps);
  return A;
}

Annotation Annotation::aod(std::vector<double> Xs, std::vector<double> Ys) {
  Annotation A;
  A.Kind = AnnotationKind::Aod;
  A.AodXs = std::move(Xs);
  A.AodYs = std::move(Ys);
  return A;
}

Annotation Annotation::bindSlm(int Qubit, int SlmIndex) {
  Annotation A;
  A.Kind = AnnotationKind::Bind;
  A.Qubit = Qubit;
  A.BindToSlm = true;
  A.SlmIndex = SlmIndex;
  return A;
}

Annotation Annotation::bindAod(int Qubit, int Col, int Row) {
  Annotation A;
  A.Kind = AnnotationKind::Bind;
  A.Qubit = Qubit;
  A.BindToSlm = false;
  A.AodCol = Col;
  A.AodRow = Row;
  return A;
}

Annotation Annotation::transfer(int SlmIndex, int Col, int Row) {
  Annotation A;
  A.Kind = AnnotationKind::Transfer;
  A.SlmIndex = SlmIndex;
  A.AodCol = Col;
  A.AodRow = Row;
  return A;
}

Annotation Annotation::shuttle(bool Row, int Index, double Offset) {
  Annotation A;
  A.Kind = AnnotationKind::Shuttle;
  A.ShuttleRow = Row;
  A.ShuttleIndex = Index;
  A.Offset = Offset;
  return A;
}

Annotation Annotation::shuttleParallel(bool Rows, std::vector<int> Indices,
                                       std::vector<double> Offsets) {
  Annotation A;
  A.Kind = AnnotationKind::ShuttleParallel;
  A.ShuttleRow = Rows;
  A.ShuttleIndices = std::move(Indices);
  A.ShuttleOffsets = std::move(Offsets);
  return A;
}

Annotation Annotation::ramanGlobal(double X, double Y, double Z) {
  Annotation A;
  A.Kind = AnnotationKind::RamanGlobal;
  A.AngleX = X;
  A.AngleY = Y;
  A.AngleZ = Z;
  return A;
}

Annotation Annotation::ramanLocal(int Qubit, double X, double Y, double Z) {
  Annotation A;
  A.Kind = AnnotationKind::RamanLocal;
  A.Qubit = Qubit;
  A.AngleX = X;
  A.AngleY = Y;
  A.AngleZ = Z;
  return A;
}

Annotation Annotation::rydberg() {
  Annotation A;
  A.Kind = AnnotationKind::Rydberg;
  return A;
}
