//===- tests/sim_test.cpp - simulator unit + property tests ---------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/GateMatrices.h"
#include "sim/Matrix.h"
#include "sim/Optimize.h"
#include "sim/StateVector.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace weaver;
using namespace weaver::sim;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {
constexpr double Pi = 3.14159265358979323846;

Gate makeGate(GateKind Kind, double P0 = 0.3) {
  unsigned Arity = circuit::gateArity(Kind);
  unsigned Params = circuit::gateNumParams(Kind);
  std::initializer_list<int> Q1 = {0}, Q2 = {0, 1}, Q3 = {0, 1, 2};
  auto Qs = Arity == 1 ? Q1 : (Arity == 2 ? Q2 : Q3);
  if (Params == 0)
    return Gate(Kind, Qs);
  if (Params == 1)
    return Gate(Kind, Qs, {P0});
  return Gate(Kind, Qs, {P0, 0.5, -0.7});
}

/// A random circuit over \p NumQubits with \p NumGates unitary gates.
Circuit randomCircuit(int NumQubits, int NumGates, uint64_t Seed) {
  static const GateKind Pool[] = {
      GateKind::X,  GateKind::H,  GateKind::S,   GateKind::T,
      GateKind::RX, GateKind::RY, GateKind::RZ,  GateKind::U3,
      GateKind::CX, GateKind::CZ, GateKind::SWAP, GateKind::RZZ,
      GateKind::CCZ};
  Xoshiro256 Rng(Seed);
  Circuit C(NumQubits);
  for (int I = 0; I < NumGates; ++I) {
    GateKind Kind = Pool[Rng.nextBelow(std::size(Pool))];
    unsigned Arity = circuit::gateArity(Kind);
    if (static_cast<int>(Arity) > NumQubits) {
      --I;
      continue;
    }
    int Q[3];
    for (unsigned J = 0; J < Arity;) {
      int Cand = static_cast<int>(Rng.nextBelow(NumQubits));
      bool Dup = false;
      for (unsigned K = 0; K < J; ++K)
        Dup |= Q[K] == Cand;
      if (!Dup)
        Q[J++] = Cand;
    }
    double P0 = Rng.nextDouble() * 2 * Pi - Pi;
    double P1 = Rng.nextDouble() * 2 * Pi - Pi;
    double P2 = Rng.nextDouble() * 2 * Pi - Pi;
    switch (circuit::gateNumParams(Kind)) {
    case 0:
      if (Arity == 1)
        C.append(Gate(Kind, {Q[0]}));
      else if (Arity == 2)
        C.append(Gate(Kind, {Q[0], Q[1]}));
      else
        C.append(Gate(Kind, {Q[0], Q[1], Q[2]}));
      break;
    case 1:
      if (Arity == 1)
        C.append(Gate(Kind, {Q[0]}, {P0}));
      else
        C.append(Gate(Kind, {Q[0], Q[1]}, {P0}));
      break;
    default:
      C.append(Gate(Kind, {Q[0]}, {P0, P1, P2}));
      break;
    }
  }
  return C;
}

} // namespace

// --- Matrix ----------------------------------------------------------------

TEST(Matrix, IdentityAndMultiply) {
  Matrix I = Matrix::identity(4);
  Matrix M(4, 4);
  M.at(0, 3) = Complex(0, 1);
  EXPECT_NEAR(I.multiply(M).maxAbsDiff(M), 0, 1e-15);
}

TEST(Matrix, DaggerConjugatesAndTransposes) {
  Matrix M(2, 2);
  M.at(0, 1) = Complex(1, 2);
  Matrix D = M.dagger();
  EXPECT_EQ(D.at(1, 0), Complex(1, -2));
}

TEST(Matrix, GlobalPhaseEquality) {
  Matrix A = Matrix::identity(2);
  Matrix B(2, 2);
  Complex Phase = std::polar(1.0, 0.83);
  B.at(0, 0) = Phase;
  B.at(1, 1) = Phase;
  EXPECT_TRUE(equalUpToGlobalPhase(A, B));
  B.at(1, 1) = std::polar(1.0, 0.84);
  EXPECT_FALSE(equalUpToGlobalPhase(A, B));
}

TEST(Matrix, GlobalPhaseRejectsScaling) {
  Matrix A = Matrix::identity(2), B = Matrix::identity(2);
  B.at(0, 0) = 2.0;
  B.at(1, 1) = 2.0;
  EXPECT_FALSE(equalUpToGlobalPhase(A, B));
}

// --- Gate matrices -----------------------------------------------------------

class GateUnitaryProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(GateUnitaryProperty, MatricesAreUnitary) {
  GateKind Kind = static_cast<GateKind>(GetParam());
  if (Kind == GateKind::Barrier || Kind == GateKind::Measure)
    GTEST_SKIP();
  EXPECT_TRUE(gateUnitary(makeGate(Kind)).isUnitary())
      << circuit::gateName(Kind);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, GateUnitaryProperty,
                         ::testing::Range(0u, circuit::NumGateKinds));

TEST(GateMatrices, KnownValues) {
  Matrix X = gateUnitary(Gate(GateKind::X, {0}));
  EXPECT_EQ(X.at(0, 1), Complex(1, 0));
  Matrix CZ = gateUnitary(Gate(GateKind::CZ, {0, 1}));
  EXPECT_EQ(CZ.at(3, 3), Complex(-1, 0));
  Matrix CCZ = gateUnitary(Gate(GateKind::CCZ, {0, 1, 2}));
  EXPECT_EQ(CCZ.at(7, 7), Complex(-1, 0));
  EXPECT_EQ(CCZ.at(6, 6), Complex(1, 0));
}

TEST(GateMatrices, HSquaredIsIdentity) {
  Matrix H = gateUnitary(Gate(GateKind::H, {0}));
  EXPECT_NEAR(H.multiply(H).maxAbsDiff(Matrix::identity(2)), 0, 1e-12);
}

TEST(GateMatrices, U3ReproducesNamedGates) {
  // X = U3(pi, 0, pi); H = U3(pi/2, 0, pi).
  EXPECT_TRUE(equalUpToGlobalPhase(u3Matrix(Pi, 0, Pi),
                                   gateUnitary(Gate(GateKind::X, {0}))));
  EXPECT_TRUE(equalUpToGlobalPhase(u3Matrix(Pi / 2, 0, Pi),
                                   gateUnitary(Gate(GateKind::H, {0}))));
}

TEST(GateMatrices, U3MatchesExplicitPhasesForNegativeHalfAngles) {
  // U3(t, p, l) = [[c, -e^{il} s], [e^{ip} s, e^{i(p+l)} c]] with
  // c = cos(t/2), s = sin(t/2). Each theta below makes s or c (or both)
  // negative — the moduli std::polar must never be handed.
  const double Phi = 0.7, Lambda = -1.3;
  const Complex I(0, 1);
  for (double Theta : {-0.9, -Pi / 2, 2.5 * Pi, 3 * Pi, -2.5 * Pi, 3.9}) {
    double C = std::cos(Theta / 2), S = std::sin(Theta / 2);
    ASSERT_TRUE(C < 0 || S < 0) << Theta;
    Matrix U = u3Matrix(Theta, Phi, Lambda);
    EXPECT_NEAR(std::abs(U.at(0, 0) - C), 0, 1e-12) << Theta;
    EXPECT_NEAR(std::abs(U.at(0, 1) + std::exp(I * Lambda) * S), 0, 1e-12)
        << Theta;
    EXPECT_NEAR(std::abs(U.at(1, 0) - std::exp(I * Phi) * S), 0, 1e-12)
        << Theta;
    EXPECT_NEAR(std::abs(U.at(1, 1) - std::exp(I * (Phi + Lambda)) * C), 0,
                1e-12)
        << Theta;
  }
}

// --- State vector --------------------------------------------------------

TEST(StateVector, InitialBasisState) {
  StateVector SV(3, 0b101);
  EXPECT_EQ(SV.amplitude(0b101), Complex(1, 0));
  EXPECT_EQ(SV.amplitude(0), Complex(0, 0));
}

TEST(StateVector, XFlipsBit) {
  StateVector SV(2);
  SV.applyGate(Gate(GateKind::X, {1}));
  EXPECT_NEAR(std::abs(SV.amplitude(0b10)), 1.0, 1e-12);
}

TEST(StateVector, BellState) {
  StateVector SV(2);
  SV.applyGate(Gate(GateKind::H, {0}));
  SV.applyGate(Gate(GateKind::CX, {0, 1}));
  auto P = SV.probabilities();
  EXPECT_NEAR(P[0b00], 0.5, 1e-12);
  EXPECT_NEAR(P[0b11], 0.5, 1e-12);
  EXPECT_NEAR(P[0b01] + P[0b10], 0.0, 1e-12);
}

TEST(StateVector, CxControlIsFirstOperand) {
  StateVector SV(2, 0b01); // qubit 0 set
  SV.applyGate(Gate(GateKind::CX, {0, 1}));
  EXPECT_NEAR(std::abs(SV.amplitude(0b11)), 1.0, 1e-12);
  StateVector SV2(2, 0b10); // qubit 1 set, control 0 clear
  SV2.applyGate(Gate(GateKind::CX, {0, 1}));
  EXPECT_NEAR(std::abs(SV2.amplitude(0b10)), 1.0, 1e-12);
}

TEST(StateVector, NormPreservedByRandomCircuit) {
  Circuit C = randomCircuit(4, 60, 17);
  StateVector SV(4);
  SV.applyCircuit(C);
  EXPECT_NEAR(SV.norm(), 1.0, 1e-9);
}

TEST(StateVector, FidelityWithSelfIsOne) {
  Circuit C = randomCircuit(3, 25, 5);
  StateVector A(3), B(3);
  A.applyCircuit(C);
  B.applyCircuit(C);
  EXPECT_NEAR(A.fidelityWith(B), 1.0, 1e-9);
}

TEST(StateVector, CczAppliesPhaseOnAllOnes) {
  StateVector SV(3, 0b111);
  SV.applyGate(Gate(GateKind::CCZ, {0, 1, 2}));
  EXPECT_NEAR(SV.amplitude(0b111).real(), -1.0, 1e-12);
  StateVector SV2(3, 0b110);
  SV2.applyGate(Gate(GateKind::CCZ, {0, 1, 2}));
  EXPECT_NEAR(SV2.amplitude(0b110).real(), 1.0, 1e-12);
}

// --- Circuit unitaries ------------------------------------------------------

TEST(CircuitUnitary, MatchesGateMatrix) {
  Circuit C(2);
  C.cz(0, 1);
  Matrix U = circuitUnitary(C);
  EXPECT_NEAR(U.maxAbsDiff(gateUnitary(Gate(GateKind::CZ, {0, 1}))), 0,
              1e-12);
}

TEST(CircuitUnitary, RandomCircuitsAreUnitary) {
  for (uint64_t Seed = 0; Seed < 5; ++Seed)
    EXPECT_TRUE(circuitUnitary(randomCircuit(3, 30, Seed)).isUnitary());
}

TEST(CircuitsEquivalent, DetectsDifference) {
  Circuit A(2), B(2);
  A.h(0);
  B.h(0);
  EXPECT_TRUE(circuitsEquivalent(A, B));
  B.t(1);
  EXPECT_FALSE(circuitsEquivalent(A, B));
}

TEST(CircuitsEquivalent, IgnoresGlobalPhase) {
  Circuit A(1), B(1);
  A.rz(0.8, 0);            // exp(-i 0.4 Z)
  B.u3(0, 0, 0.8, 0);      // diag(1, e^{i 0.8}) = e^{i 0.4} RZ(0.8)
  EXPECT_TRUE(circuitsEquivalent(A, B));
}

// --- ZYZ decomposition + run merging ---------------------------------------

TEST(Zyz, ReconstructsRandomUnitaries) {
  Xoshiro256 Rng(42);
  for (int I = 0; I < 50; ++I) {
    double T = Rng.nextDouble() * Pi;
    double P = Rng.nextDouble() * 2 * Pi - Pi;
    double L = Rng.nextDouble() * 2 * Pi - Pi;
    Matrix U = u3Matrix(T, P, L);
    double T2, P2, L2;
    zyzDecompose(U, T2, P2, L2);
    EXPECT_TRUE(equalUpToGlobalPhase(U, u3Matrix(T2, P2, L2), 1e-9))
        << "theta=" << T << " phi=" << P << " lambda=" << L;
  }
}

TEST(Zyz, HandlesDiagonalAndAntiDiagonal) {
  double T, P, L;
  zyzDecompose(gateUnitary(Gate(GateKind::Z, {0})), T, P, L);
  EXPECT_NEAR(T, 0, 1e-12);
  zyzDecompose(gateUnitary(Gate(GateKind::X, {0})), T, P, L);
  EXPECT_NEAR(T, Pi, 1e-12);
}

TEST(MergeRuns, CollapsesRunToSingleU3) {
  Circuit C(1);
  C.h(0).t(0).s(0).rx(0.3, 0);
  Circuit M = mergeSingleQubitRuns(C);
  EXPECT_EQ(M.size(), 1u);
  EXPECT_EQ(M.gate(0).kind(), GateKind::U3);
  EXPECT_TRUE(circuitsEquivalent(C, M));
}

TEST(MergeRuns, DropsIdentityRuns) {
  Circuit C(1);
  C.h(0).h(0);
  EXPECT_TRUE(mergeSingleQubitRuns(C).empty());
}

TEST(MergeRuns, MultiQubitGatesFlush) {
  Circuit C(2);
  C.h(0).cz(0, 1).h(0);
  Circuit M = mergeSingleQubitRuns(C);
  // h, cz, h cannot merge across the CZ.
  EXPECT_EQ(M.size(), 3u);
  EXPECT_TRUE(circuitsEquivalent(C, M));
}

TEST(MergeRuns, PreservesRandomCircuitUnitaries) {
  for (uint64_t Seed = 100; Seed < 110; ++Seed) {
    Circuit C = randomCircuit(4, 40, Seed);
    Circuit M = mergeSingleQubitRuns(C);
    EXPECT_LE(M.size(), C.size());
    EXPECT_TRUE(circuitsEquivalent(C, M)) << "seed " << Seed;
  }
}

TEST(MergeRuns, MeasureAndBarrierFlush) {
  Circuit C(1);
  C.h(0).barrier().t(0).measure(0);
  Circuit M = mergeSingleQubitRuns(C);
  EXPECT_EQ(M.count(GateKind::Measure), 1u);
  EXPECT_EQ(M.count(GateKind::Barrier), 1u);
  EXPECT_EQ(M.count(GateKind::U3), 2u);
}
