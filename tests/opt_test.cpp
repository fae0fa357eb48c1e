//===- tests/opt_test.cpp - max-cut / QAOA optimiser tests ----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qaoa/Builder.h"
#include "qaoa/MaxCut.h"
#include "qaoa/Optimizer.h"
#include "sat/Evaluator.h"
#include "sat/Generator.h"

#include <gtest/gtest.h>

using namespace weaver;

// --- Max-cut front end ----------------------------------------------------------

TEST(MaxCut, CutSizeCountsCrossingEdges) {
  qaoa::MaxCutGraph G;
  G.NumVertices = 3;
  G.Edges = {{0, 1}, {1, 2}, {0, 2}};
  EXPECT_EQ(G.cutSize(0b000), 0u);
  EXPECT_EQ(G.cutSize(0b001), 2u);
  EXPECT_EQ(G.cutSize(0b011), 2u);
}

TEST(MaxCut, TriangleOptimumIsTwo) {
  qaoa::MaxCutGraph G;
  G.NumVertices = 3;
  G.Edges = {{0, 1}, {1, 2}, {0, 2}};
  EXPECT_EQ(G.maxCutBruteForce(), 2u);
}

TEST(MaxCut, FormulaEncodesCut) {
  qaoa::MaxCutGraph G = qaoa::paperFigure1Graph();
  sat::CnfFormula F = qaoa::maxCutToFormula(G);
  EXPECT_EQ(F.numClauses(), 2 * G.Edges.size());
  // satisfied(b) = |E| + cut(b) for every assignment.
  for (uint64_t Bits = 0; Bits < (1u << G.NumVertices); ++Bits) {
    size_t Sat =
        F.countSatisfied(sat::assignmentFromBits(Bits, G.NumVertices));
    EXPECT_EQ(Sat, G.Edges.size() + G.cutSize(Bits)) << "bits " << Bits;
  }
}

TEST(MaxCut, PaperGraphOptimum) {
  qaoa::MaxCutGraph G = qaoa::paperFigure1Graph();
  // Fig. 1d: partition {a,b,e} vs {c,d,f} (bits 010011... vertex ids
  // 0,1,4 on one side) achieves the optimum.
  uint64_t PaperBits = (1u << 2) | (1u << 3) | (1u << 5);
  EXPECT_EQ(G.cutSize(PaperBits), G.maxCutBruteForce());
}

// --- QAOA parameter optimisation ---------------------------------------------

TEST(QaoaOptimizer, ExpectationMatchesUniformAtZeroAngles) {
  sat::CnfFormula F = sat::RandomSatGenerator(8).generate(5, 12);
  qaoa::QaoaParams P;
  P.Gamma = 0;
  P.Beta = 0;
  // gamma = 0 leaves the uniform superposition: expectation = average
  // satisfied count = 7/8 per clause.
  double Expected = qaoa::expectedSatisfiedClauses(F, P);
  EXPECT_NEAR(Expected, F.numClauses() * 7.0 / 8.0, 1e-6);
}

TEST(QaoaOptimizer, SearchBeatsUniformBaseline) {
  sat::CnfFormula F = sat::RandomSatGenerator(12).generate(6, 14);
  qaoa::OptimizerOptions Opt;
  Opt.GridPoints = 5;
  Opt.RefineIterations = 6;
  qaoa::OptimizedParams R = qaoa::optimizeQaoaParams(F, Opt);
  EXPECT_GT(R.ExpectedSatisfied, F.numClauses() * 7.0 / 8.0);
  EXPECT_GT(R.OptimumMass, 0);
  EXPECT_GT(R.Evaluations, 25);
}

TEST(QaoaOptimizer, TwoLayersAtLeastAsGoodAsOne) {
  sat::CnfFormula F = sat::RandomSatGenerator(21).generate(5, 10);
  qaoa::OptimizerOptions One, Two;
  One.Layers = 1;
  Two.Layers = 2;
  One.GridPoints = Two.GridPoints = 4;
  One.RefineIterations = Two.RefineIterations = 5;
  double V1 = qaoa::optimizeQaoaParams(F, One).ExpectedSatisfied;
  double V2 = qaoa::optimizeQaoaParams(F, Two).ExpectedSatisfied;
  EXPECT_GE(V2, V1 - 0.05);
}
