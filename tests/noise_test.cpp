//===- tests/noise_test.cpp - noise, AOD reuse, retargeting tests ---------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/WeaverCompiler.h"
#include "qaoa/Builder.h"
#include "sat/Generator.h"
#include "sim/Noise.h"

#include <gtest/gtest.h>

using namespace weaver;
using circuit::Circuit;

// --- Monte-Carlo noise ----------------------------------------------------

TEST(Noise, ZeroNoiseReproducesIdealDistribution) {
  Circuit C(3);
  C.h(0).cx(0, 1).ccz(0, 1, 2).rx(0.4, 2);
  sim::NoiseModel None;
  None.OneQubitError = None.TwoQubitError = None.ThreeQubitError = 0;
  auto R = sim::simulateNoisy(C, None, 10);
  EXPECT_DOUBLE_EQ(R.ErrorFreeFraction, 1.0);
  EXPECT_NEAR(R.HellingerFidelity, 1.0, 1e-9);
}

TEST(Noise, ErrorFreeFractionTracksAnalyticEps) {
  // 40 two-qubit gates at 2% error: analytic no-error probability is
  // 0.98^40 ~ 0.446. Monte Carlo with many shots should agree within a
  // few percentage points.
  Circuit C(2);
  for (int I = 0; I < 40; ++I)
    C.cz(0, 1);
  sim::NoiseModel Noise;
  Noise.TwoQubitError = 0.02;
  Noise.OneQubitError = 0;
  auto R = sim::simulateNoisy(C, Noise, 3000, 7);
  double Analytic = std::pow(0.98, 40);
  EXPECT_NEAR(R.ErrorFreeFraction, Analytic, 0.05);
}

TEST(Noise, HellingerFidelityAtLeastErrorFreeFraction) {
  // Errors can be harmless, so distribution fidelity dominates the
  // no-error probability.
  sat::CnfFormula F = sat::RandomSatGenerator(5).generate(4, 8);
  Circuit C = qaoa::buildQaoaCircuit(F, qaoa::QaoaParams());
  sim::NoiseModel Noise;
  Noise.TwoQubitError = 0.01;
  auto R = sim::simulateNoisy(C, Noise, 400, 11);
  EXPECT_GE(R.HellingerFidelity, R.ErrorFreeFraction - 0.05);
}

TEST(Noise, MoreNoiseLowersFidelity) {
  sat::CnfFormula F = sat::RandomSatGenerator(9).generate(4, 8);
  Circuit C = qaoa::buildQaoaCircuit(F, qaoa::QaoaParams());
  sim::NoiseModel Low, High;
  Low.TwoQubitError = 0.002;
  High.TwoQubitError = 0.05;
  auto RLow = sim::simulateNoisy(C, Low, 400, 3);
  auto RHigh = sim::simulateNoisy(C, High, 400, 3);
  EXPECT_GT(RLow.HellingerFidelity, RHigh.HellingerFidelity);
  EXPECT_GT(RLow.ErrorFreeFraction, RHigh.ErrorFreeFraction);
}

TEST(Noise, DistributionNormalised) {
  Circuit C(3);
  C.h(0).h(1).h(2).ccz(0, 1, 2);
  sim::NoiseModel Noise;
  auto R = sim::simulateNoisy(C, Noise, 50, 21);
  double Sum = 0;
  for (double P : R.Distribution)
    Sum += P;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

// --- Colour shuttling reuse (Algorithm 2) ------------------------------------

TEST(AodReuse, ReuseStillVerifiesEndToEnd) {
  for (uint64_t Seed : {41u, 42u, 43u}) {
    sat::CnfFormula F = sat::RandomSatGenerator(Seed).generate(8, 18);
    core::WeaverOptions Opt;
    Opt.ReuseAodAtoms = true;
    Opt.RunChecker = true;
    auto R = core::compileWeaver(F, Opt);
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_TRUE(R->Check->StructuralOk) << R->Check->Diagnostic;
    EXPECT_TRUE(R->Check->UnitaryOk) << R->Check->Diagnostic;
  }
}

TEST(AodReuse, NoReuseStillVerifiesEndToEnd) {
  sat::CnfFormula F = sat::RandomSatGenerator(44).generate(8, 18);
  core::WeaverOptions Opt;
  Opt.ReuseAodAtoms = false;
  Opt.RunChecker = true;
  auto R = core::compileWeaver(F, Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->Check->passed()) << R->Check->Diagnostic;
}

TEST(AodReuse, ReuseReducesTransfers) {
  sat::CnfFormula F = sat::satlibInstance(20, 1);
  core::WeaverOptions On, Off;
  On.ReuseAodAtoms = true;
  Off.ReuseAodAtoms = false;
  auto ROn = core::compileWeaver(F, On);
  auto ROff = core::compileWeaver(F, Off);
  ASSERT_TRUE(ROn.ok() && ROff.ok());
  EXPECT_LT(ROn->Stats.TransferInstructions,
            ROff->Stats.TransferInstructions);
  EXPECT_LE(ROn->Stats.Duration, ROff->Stats.Duration * 1.05);
}

TEST(AodReuse, LargeInstanceStructurallySound) {
  sat::CnfFormula F = sat::satlibInstance(100, 2);
  core::WeaverOptions Opt;
  Opt.ReuseAodAtoms = true;
  auto R = core::compileWeaver(F, Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  auto Report = core::checkWqasm(R->Program, Opt.Hw);
  EXPECT_TRUE(Report.StructuralOk) << Report.Diagnostic;
}

// --- Retargeting entry point ---------------------------------------------------

#include "baselines/Superconducting.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"

TEST(Retarget, WqasmFileRetargetsToSuperconducting) {
  // §4.2: a wQASM file with annotations ignored is plain OpenQASM and can
  // be retargeted to another architecture.
  sat::CnfFormula F = sat::RandomSatGenerator(77).generate(10, 25);
  core::WeaverOptions Opt;
  auto W = core::compileWeaver(F, Opt);
  ASSERT_TRUE(W.ok()) << W.message();
  std::string WqasmText = qasm::printWqasm(W->Program);
  auto Parsed = qasm::parseWqasm(WqasmText);
  ASSERT_TRUE(Parsed.ok()) << Parsed.message();
  circuit::Circuit Logical = Parsed->toCircuit();
  auto SC = baselines::compileSuperconductingCircuit(Logical);
  EXPECT_TRUE(SC.usable());
  EXPECT_GT(SC.Pulses, 0u);
  EXPECT_GT(SC.Eps, 0);
}
