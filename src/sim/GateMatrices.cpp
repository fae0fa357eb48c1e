//===- sim/GateMatrices.cpp - Unitary semantics of gate kinds ------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/GateMatrices.h"

#include <cmath>

using namespace weaver;
using namespace weaver::sim;
using circuit::Gate;
using circuit::GateKind;

Matrix sim::u3Matrix(double Theta, double Phi, double Lambda) {
  Matrix M(2, 2);
  double C = std::cos(Theta / 2), S = std::sin(Theta / 2);
  // std::polar requires a non-negative modulus, and S or C is negative
  // for Theta outside [0, pi]: scale unit phasors instead.
  M.at(0, 0) = Complex(C, 0);
  M.at(0, 1) = -S * std::polar(1.0, Lambda);
  M.at(1, 0) = S * std::polar(1.0, Phi);
  M.at(1, 1) = C * std::polar(1.0, Phi + Lambda);
  return M;
}

namespace {

Matrix pauli(GateKind Kind) {
  Matrix M(2, 2);
  switch (Kind) {
  case GateKind::I:
    return Matrix::identity(2);
  case GateKind::X:
    M.at(0, 1) = M.at(1, 0) = 1;
    return M;
  case GateKind::Y:
    M.at(0, 1) = Complex(0, -1);
    M.at(1, 0) = Complex(0, 1);
    return M;
  case GateKind::Z:
    M.at(0, 0) = 1;
    M.at(1, 1) = -1;
    return M;
  default:
    assert(false && "not a Pauli");
    return M;
  }
}

Matrix phaseGate(double Angle) {
  Matrix M = Matrix::identity(2);
  M.at(1, 1) = std::polar(1.0, Angle);
  return M;
}

Matrix rotation(GateKind Axis, double Theta) {
  double C = std::cos(Theta / 2), S = std::sin(Theta / 2);
  Matrix M(2, 2);
  switch (Axis) {
  case GateKind::RX:
    M.at(0, 0) = M.at(1, 1) = C;
    M.at(0, 1) = M.at(1, 0) = Complex(0, -S);
    return M;
  case GateKind::RY:
    M.at(0, 0) = M.at(1, 1) = C;
    M.at(0, 1) = -S;
    M.at(1, 0) = S;
    return M;
  case GateKind::RZ:
    M.at(0, 0) = std::polar(1.0, -Theta / 2);
    M.at(1, 1) = std::polar(1.0, Theta / 2);
    return M;
  default:
    assert(false && "not a rotation axis");
    return M;
  }
}

} // namespace

Matrix sim::gateUnitary(const Gate &G) {
  constexpr double Pi = 3.14159265358979323846;
  constexpr double InvSqrt2 = 0.70710678118654752440;
  switch (G.kind()) {
  case GateKind::I:
  case GateKind::X:
  case GateKind::Y:
  case GateKind::Z:
    return pauli(G.kind());
  case GateKind::H: {
    Matrix M(2, 2);
    M.at(0, 0) = M.at(0, 1) = M.at(1, 0) = InvSqrt2;
    M.at(1, 1) = -InvSqrt2;
    return M;
  }
  case GateKind::S:
    return phaseGate(Pi / 2);
  case GateKind::Sdg:
    return phaseGate(-Pi / 2);
  case GateKind::T:
    return phaseGate(Pi / 4);
  case GateKind::Tdg:
    return phaseGate(-Pi / 4);
  case GateKind::RX:
  case GateKind::RY:
  case GateKind::RZ:
    return rotation(G.kind(), G.param(0));
  case GateKind::U3:
    return u3Matrix(G.param(0), G.param(1), G.param(2));
  case GateKind::CX: {
    // Operands (control, target); control is the high local bit.
    Matrix M(4, 4);
    M.at(0, 0) = M.at(1, 1) = 1; // control 0: identity
    M.at(2, 3) = M.at(3, 2) = 1; // control 1: X on target
    return M;
  }
  case GateKind::CZ: {
    Matrix M = Matrix::identity(4);
    M.at(3, 3) = -1;
    return M;
  }
  case GateKind::SWAP: {
    Matrix M(4, 4);
    M.at(0, 0) = M.at(3, 3) = 1;
    M.at(1, 2) = M.at(2, 1) = 1;
    return M;
  }
  case GateKind::RZZ: {
    double Theta = G.param(0);
    Matrix M(4, 4);
    Complex Minus = std::polar(1.0, -Theta / 2);
    Complex Plus = std::polar(1.0, Theta / 2);
    M.at(0, 0) = Minus; // |00>: Z⊗Z = +1
    M.at(1, 1) = Plus;  // |01>: -1
    M.at(2, 2) = Plus;  // |10>: -1
    M.at(3, 3) = Minus; // |11>: +1
    return M;
  }
  case GateKind::CCX: {
    Matrix M = Matrix::identity(8);
    M.at(6, 6) = M.at(7, 7) = 0;
    M.at(6, 7) = M.at(7, 6) = 1; // controls (high bits) = 11: X on target
    return M;
  }
  case GateKind::CCZ: {
    Matrix M = Matrix::identity(8);
    M.at(7, 7) = -1;
    return M;
  }
  case GateKind::Barrier:
  case GateKind::Measure:
    break;
  }
  assert(false && "gateUnitary requires a unitary gate");
  return Matrix();
}
