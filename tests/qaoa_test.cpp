//===- tests/qaoa_test.cpp - QAOA construction unit + property tests ------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qaoa/Builder.h"
#include "qaoa/Optimizer.h"
#include "sat/Evaluator.h"
#include "sat/Generator.h"
#include "sim/StateVector.h"

#include <gtest/gtest.h>

#include <complex>

using namespace weaver;
using namespace weaver::qaoa;
using circuit::Circuit;
using circuit::GateKind;
using sat::Clause;
using sat::CnfFormula;

namespace {

/// Checks that applying only the phase-separation part of the clause
/// fragment imprints phase exp(-i Gamma * unsat(b)) on each basis state b
/// (up to one global phase). This pins the cost-Hamiltonian semantics to
/// the clause-counting objective — the heart of §5's correctness.
void expectPhaseSeparation(const CnfFormula &F, const Circuit &PhaseOnly,
                           double Gamma) {
  int N = F.numVariables();
  ASSERT_LE(N, 10);
  std::complex<double> Anchor(0, 0);
  for (uint64_t Bits = 0; Bits < (uint64_t(1) << N); ++Bits) {
    sim::StateVector SV(N, Bits);
    SV.applyCircuit(PhaseOnly);
    // Diagonal circuit: the basis state maps to itself times a phase.
    std::complex<double> Amp = SV.amplitude(Bits);
    ASSERT_NEAR(std::abs(Amp), 1.0, 1e-9) << "fragment is not diagonal";
    size_t Unsat =
        F.numClauses() - F.countSatisfied(sat::assignmentFromBits(Bits, N));
    std::complex<double> ExpectedRel =
        std::polar(1.0, -Gamma * static_cast<double>(Unsat));
    if (Bits == 0)
      Anchor = Amp / ExpectedRel;
    EXPECT_NEAR(std::abs(Amp / (Anchor * ExpectedRel) - 1.0), 0.0, 1e-8)
        << "wrong phase at basis state " << Bits;
  }
}

Circuit phaseOnlyCircuit(const CnfFormula &F, double Gamma, bool Compressed) {
  Circuit C(F.numVariables());
  for (const Clause &Cl : F.clauses()) {
    if (Compressed && Cl.size() == 3)
      appendClausePhaseCompressed(C, Cl, Gamma);
    else
      appendClausePhaseLadder(C, Cl, Gamma);
  }
  return C;
}

} // namespace

// --- Clause fragments -------------------------------------------------------

TEST(ClauseFragments, LadderImplementsPhase1Lit) {
  CnfFormula F(2, {Clause{1}, Clause{-2}});
  expectPhaseSeparation(F, phaseOnlyCircuit(F, 0.7, false), 0.7);
}

TEST(ClauseFragments, LadderImplementsPhase2Lit) {
  CnfFormula F(3, {Clause{1, -2}, Clause{-2, 3}});
  expectPhaseSeparation(F, phaseOnlyCircuit(F, 0.9, false), 0.9);
}

TEST(ClauseFragments, LadderImplementsPhase3Lit) {
  CnfFormula F(3, {Clause{-1, -2, -3}});
  expectPhaseSeparation(F, phaseOnlyCircuit(F, 0.7, false), 0.7);
}

TEST(ClauseFragments, CompressedImplementsPhase3Lit) {
  CnfFormula F(3, {Clause{-1, -2, -3}});
  expectPhaseSeparation(F, phaseOnlyCircuit(F, 0.7, true), 0.7);
}

class PolaritySweep : public ::testing::TestWithParam<int> {};

TEST_P(PolaritySweep, CompressedMatchesLadderForEveryPolarity) {
  // All eight sign patterns of a 3-literal clause.
  int Mask = GetParam();
  auto Sign = [&](int Bit, int Var) {
    return (Mask >> Bit) & 1 ? Var : -Var;
  };
  Clause Cl{Sign(0, 1), Sign(1, 2), Sign(2, 3)};
  CnfFormula F(3, {Cl});
  double Gamma = 0.6;
  Circuit Ladder = phaseOnlyCircuit(F, Gamma, false);
  Circuit Compressed = phaseOnlyCircuit(F, Gamma, true);
  EXPECT_TRUE(sim::circuitsEquivalent(Ladder, Compressed))
      << "polarity mask " << Mask;
  expectPhaseSeparation(F, Compressed, Gamma);
}

INSTANTIATE_TEST_SUITE_P(AllPolarities, PolaritySweep, ::testing::Range(0, 8));

TEST(ClauseFragments, RandomFormulaPhaseProperty) {
  for (uint64_t Seed : {11u, 22u, 33u}) {
    CnfFormula F = sat::RandomSatGenerator(Seed).generate(6, 12);
    double Gamma = 0.4 + 0.1 * Seed;
    expectPhaseSeparation(F, phaseOnlyCircuit(F, Gamma, false), Gamma);
    expectPhaseSeparation(F, phaseOnlyCircuit(F, Gamma, true), Gamma);
  }
}

TEST(ClauseFragments, CompressedUsesTwoCczAndTwoCz) {
  Circuit C(3);
  appendClausePhaseCompressed(C, Clause{-1, -2, -3}, 0.7);
  EXPECT_EQ(C.count(GateKind::CCZ), 2u);
  EXPECT_EQ(C.count(GateKind::CX), 2u); // the control-pair ladder
}

// --- Full QAOA circuits ------------------------------------------------------

TEST(QaoaBuilder, StructureAndSize) {
  CnfFormula F(4, {Clause{1, 2, 3}, Clause{-2, -3, -4}});
  QaoaParams P;
  P.Layers = 2;
  P.Measure = true;
  Circuit C = buildQaoaCircuit(F, P);
  EXPECT_EQ(C.numQubits(), 4);
  EXPECT_EQ(C.count(GateKind::H), 4u);
  EXPECT_EQ(C.count(GateKind::Measure), 4u);
  // Mixer: 4 RX per layer plus RX inside fragments? Ladder uses none.
  EXPECT_EQ(C.count(GateKind::RX), 8u);
}

TEST(QaoaBuilder, CompressedAndLadderCircuitsEquivalent) {
  CnfFormula F(5, {Clause{1, -2, 3}, Clause{-3, 4, -5}});
  QaoaParams P;
  P.Gamma = 0.8;
  P.Beta = 0.4;
  Circuit Ladder = buildQaoaCircuit(F, P);
  P.UseCompressedClauses = true;
  Circuit Compressed = buildQaoaCircuit(F, P);
  EXPECT_TRUE(sim::circuitsEquivalent(Ladder, Compressed));
}

TEST(QaoaBuilder, QaoaBiasesTowardOptimum) {
  // A tiny satisfiable formula; one QAOA layer should give satisfying
  // assignments more probability mass than the uniform distribution.
  // Seven of the eight sign patterns over three variables: each clause
  // excludes exactly one assignment, so 111 is the unique satisfying
  // assignment (the missing pattern is the one 111 would falsify).
  CnfFormula F(3, {Clause{1, 2, 3}, Clause{-1, 2, 3}, Clause{1, -2, 3},
                   Clause{1, 2, -3}, Clause{-1, -2, 3}, Clause{-1, 2, -3},
                   Clause{1, -2, -3}});
  // The classical outer loop tunes the angles; the optimised state must
  // concentrate far more mass on the unique optimum than the uniform
  // distribution's 1/8.
  OptimizedParams Tuned = optimizeQaoaParams(F);
  EXPECT_GT(Tuned.OptimumMass, 2.0 / 8.0)
      << "QAOA failed to bias toward the satisfying assignment";
  EXPECT_GT(Tuned.ExpectedSatisfied, F.numClauses() * 7.0 / 8.0);
}

TEST(QaoaBuilder, LayersComposeSequentially) {
  CnfFormula F(3, {Clause{-1, -2, -3}});
  QaoaParams P1, P2;
  P2.Layers = 2;
  Circuit C1 = buildQaoaCircuit(F, P1);
  Circuit C2 = buildQaoaCircuit(F, P2);
  EXPECT_GT(C2.size(), C1.size());
  EXPECT_EQ(C2.count(GateKind::RX), 2 * C1.count(GateKind::RX));
}
