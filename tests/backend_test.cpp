//===- tests/backend_test.cpp - Backend interface + compileBatch ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "baselines/Backend.h"
#include "core/CompileBatch.h"
#include "sat/Generator.h"

#include <gtest/gtest.h>

#include <set>

using namespace weaver;
using namespace weaver::baselines;
using sat::Clause;
using sat::CnfFormula;

namespace {

CnfFormula paperExample() {
  return CnfFormula(6, {Clause{-1, -2, -3}, Clause{4, -5, 6},
                        Clause{3, 5, -6}});
}

// --- Factory ------------------------------------------------------------

TEST(Backend, FactoryCoversEveryKindWithUniqueNames) {
  std::set<std::string> Names;
  for (BackendKind Kind : AllBackendKinds) {
    std::unique_ptr<Backend> B = createBackend(Kind);
    ASSERT_NE(B, nullptr);
    EXPECT_EQ(B->name(), backendKindName(Kind));
    Names.insert(B->name());
  }
  EXPECT_EQ(Names.size(), std::size(AllBackendKinds));
}

TEST(Backend, FactoryByName) {
  auto Kind = backendKindFromName("weaver");
  ASSERT_TRUE(Kind.ok()) << Kind.message();
  EXPECT_EQ(createBackend(*Kind)->name(), "weaver");
  EXPECT_FALSE(backendKindFromName("qiskit").ok());
}

// --- Retargeting one formula through every backend ----------------------

TEST(Backend, AllFiveBackendsCompileThePaperExample) {
  CnfFormula F = paperExample();
  qaoa::QaoaParams Qaoa;
  for (BackendKind Kind : AllBackendKinds) {
    std::unique_ptr<Backend> B = createBackend(Kind);
    BaselineResult R = B->compile(F, Qaoa).Metrics;
    EXPECT_EQ(R.Compiler, B->name());
    EXPECT_TRUE(R.usable()) << B->name();
    EXPECT_GT(R.Pulses, 0u) << B->name();
    EXPECT_GE(R.CompileSeconds, 0.0) << B->name();
  }
}

TEST(Backend, PreCancelledTokenCancelsEveryBackend) {
  CancelToken Cancel;
  Cancel.requestCancel();
  for (BackendKind Kind : AllBackendKinds) {
    std::unique_ptr<Backend> B = createBackend(Kind);
    CompileOutput Out = B->compile(paperExample(), {}, &Cancel);
    EXPECT_TRUE(Out.Cancelled) << B->name();
    EXPECT_EQ(Out.Metrics.Diagnostic, CancelledDiagnostic) << B->name();
    EXPECT_EQ(Out.Metrics.Compiler, B->name());
    EXPECT_FALSE(Out.Program.has_value()) << B->name();
  }
}

TEST(Backend, WeaverBackendExposesFpqaMetrics) {
  CompileOutput Out = WeaverBackend().compile(paperExample(), {});
  ASSERT_TRUE(Out.Program.has_value());
  const BaselineResult &R = Out.Metrics;
  EXPECT_EQ(R.Colors, 2);            // Fig. 5 running example
  EXPECT_EQ(R.ThreeQubitGates, 6u);  // 3 clauses x 2 CCZ
  EXPECT_GT(R.Eps, 0.0);
  EXPECT_GT(R.ExecutionSeconds, 0.0);
}

TEST(Backend, WeaverBackendHonoursPerCallQaoaParams) {
  qaoa::QaoaParams OneLayer, TwoLayers;
  TwoLayers.Layers = 2;
  WeaverBackend B;
  BaselineResult R1 = B.compile(paperExample(), OneLayer).Metrics;
  BaselineResult R2 = B.compile(paperExample(), TwoLayers).Metrics;
  EXPECT_GT(R2.Pulses, R1.Pulses);
}

TEST(Backend, WeaverBackendReportsWideClausesUnsupported) {
  CnfFormula F(4, {Clause{1, 2, 3, 4}});
  BaselineResult R = WeaverBackend().compile(F, {}).Metrics;
  EXPECT_TRUE(R.Unsupported);
  EXPECT_FALSE(R.usable());
}

// --- compileBatch -------------------------------------------------------

std::vector<CnfFormula> smallBatch(size_t N) {
  std::vector<CnfFormula> Batch;
  for (size_t I = 0; I < N; ++I)
    Batch.push_back(
        sat::RandomSatGenerator(100 + I).generate(6 + I % 4, 12 + 2 * I));
  return Batch;
}

core::PoolOptions threads(int N) {
  core::PoolOptions Opt;
  Opt.NumThreads = N;
  return Opt;
}

TEST(BatchCompiler, EmptyBatch) {
  WeaverBackend B;
  core::WorkerPool Pool(threads(2));
  EXPECT_TRUE(core::compileBatch(B, {}, {}, Pool).empty());
}

TEST(BatchCompiler, ResultsMatchSequentialCompilationInOrder) {
  std::vector<CnfFormula> Batch = smallBatch(8);
  WeaverBackend B;

  core::WorkerPool Pool(threads(4));
  std::vector<BaselineResult> Threaded =
      core::compileBatch(B, Batch, {}, Pool);

  ASSERT_EQ(Threaded.size(), Batch.size());
  for (size_t I = 0; I < Batch.size(); ++I) {
    BaselineResult Direct = B.compile(Batch[I], {}).Metrics;
    // Deterministic metrics agree element-wise (wall-clock times differ).
    EXPECT_EQ(Threaded[I].Pulses, Direct.Pulses) << I;
    EXPECT_EQ(Threaded[I].Colors, Direct.Colors) << I;
    EXPECT_EQ(Threaded[I].TwoQubitGates, Direct.TwoQubitGates) << I;
    EXPECT_EQ(Threaded[I].ThreeQubitGates, Direct.ThreeQubitGates) << I;
    EXPECT_DOUBLE_EQ(Threaded[I].Eps, Direct.Eps) << I;
    EXPECT_DOUBLE_EQ(Threaded[I].ExecutionSeconds,
                     Direct.ExecutionSeconds)
        << I;
  }
}

TEST(BatchCompiler, ThreadCountDoesNotChangeResults) {
  std::vector<CnfFormula> Batch = smallBatch(6);
  WeaverBackend B;
  core::WorkerPool One(threads(1)), Many(threads(3));
  std::vector<BaselineResult> Sequential =
      core::compileBatch(B, Batch, {}, One);
  std::vector<BaselineResult> Threaded =
      core::compileBatch(B, Batch, {}, Many);
  ASSERT_EQ(Sequential.size(), Threaded.size());
  for (size_t I = 0; I < Batch.size(); ++I) {
    EXPECT_EQ(Sequential[I].Pulses, Threaded[I].Pulses) << I;
    EXPECT_DOUBLE_EQ(Sequential[I].Eps, Threaded[I].Eps) << I;
  }
}

TEST(BatchCompiler, WorksWithBaselineBackends) {
  std::vector<CnfFormula> Batch = smallBatch(3);
  AtomiqueBackend B;
  core::WorkerPool Pool(threads(2));
  std::vector<BaselineResult> Results =
      core::compileBatch(B, Batch, {}, Pool);
  ASSERT_EQ(Results.size(), Batch.size());
  for (const BaselineResult &R : Results) {
    EXPECT_EQ(R.Compiler, "atomique");
    EXPECT_TRUE(R.usable());
    EXPECT_GT(R.Pulses, 0u);
  }
}

} // namespace
