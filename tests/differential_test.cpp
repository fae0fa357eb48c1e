//===- tests/differential_test.cpp - Cross-backend differential tests -----===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Differential correctness across the five BackendKinds of the paper's
/// evaluation: on a common formula grid every backend must produce a
/// structurally valid result (sane qubit/gate/pulse counts, fidelity in
/// (0, 1], non-empty program where the backend emits one), and the Weaver
/// path must produce byte-identical wQASM whether it is driven directly,
/// through the BatchCompiler, or through the CompileService — with the
/// PassCache on and off. Mismatching programs are dumped into the
/// per-test scratch directory (tests/TestPaths.h) for diffing.
///
//===----------------------------------------------------------------------===//

#include "TestPaths.h"
#include "core/BatchCompiler.h"
#include "core/WeaverCompiler.h"
#include "core/service/CompileService.h"
#include "oq2/Export.h"
#include "oq2/Frontend.h"
#include "oq2/QaoaRecover.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"

#include <gtest/gtest.h>

#include <fstream>

using namespace weaver;
using namespace weaver::core;
using baselines::BackendKind;

namespace {

/// Small enough that the exponential/quadratic baselines (Geyser, DPQA)
/// finish in milliseconds; the paper's own evaluation caps them at 20
/// variables.
std::vector<sat::CnfFormula> smallGrid() {
  std::vector<sat::CnfFormula> Grid;
  for (uint64_t Seed : {7u, 21u, 42u})
    Grid.push_back(sat::RandomSatGenerator(Seed).generate(8, 16));
  return Grid;
}

/// The SATLIB sizes the scalable backends (superconducting, Atomique,
/// Weaver) are differentially checked on.
std::vector<sat::CnfFormula> satlibGrid() {
  std::vector<sat::CnfFormula> Grid;
  for (int Vars : {20, 50})
    for (int Index : {1, 2})
      Grid.push_back(sat::satlibInstance(Vars, Index));
  return Grid;
}

void expectStructurallyValid(const baselines::BaselineResult &R,
                             const sat::CnfFormula &F, BackendKind Kind,
                             bool AllowEpsUnderflow = false) {
  SCOPED_TRACE(std::string("backend ") + baselines::backendKindName(Kind) +
               ", " + std::to_string(F.numVariables()) + " vars");
  EXPECT_TRUE(R.usable()) << R.Diagnostic;
  if (!R.usable())
    return;
  EXPECT_EQ(R.Compiler, baselines::backendKindName(Kind));
  EXPECT_GE(R.CompileSeconds, 0.0);
  EXPECT_GT(R.Pulses, 0u);
  // Every QAOA compilation of a non-trivial formula needs entangling
  // structure somewhere.
  EXPECT_GT(R.TwoQubitGates + R.ThreeQubitGates + R.SwapGates, 0u);
  EXPECT_GT(R.ExecutionSeconds, 0.0);
  if (R.EpsMeaningful) {
    // The success probability is a product of thousands of per-gate
    // fidelities; on large instances it legitimately underflows to 0 for
    // the gate-heavy baselines (the paper plots it at 1e-60 and below).
    if (AllowEpsUnderflow) {
      EXPECT_GE(R.Eps, 0.0);
    } else {
      EXPECT_GT(R.Eps, 0.0);
    }
    EXPECT_LE(R.Eps, 1.0);
  }
  if (Kind == BackendKind::Weaver) {
    EXPECT_GT(R.Colors, 0);
  }
}

/// Dumps two mismatching programs for post-mortem diffing; returns the
/// directory used.
std::string dumpMismatch(const std::string &Name, const std::string &Got,
                         const std::string &Want) {
  std::string Dir = testTempDir();
  std::ofstream(Dir + "/" + Name + ".got.wqasm") << Got;
  std::ofstream(Dir + "/" + Name + ".want.wqasm") << Want;
  return Dir;
}

/// The printed program of \p Out, or "" for metric-only backends —
/// printed from a materialized copy, never spliced, so it checks served
/// splices independently.
std::string printed(const baselines::CompileOutput &Out) {
  return Out.Program ? qasm::printWqasm(Out.Program->materialize())
                     : std::string();
}

} // namespace

// --- Structural validity across all five backends ------------------------

TEST(Differential, AllBackendsProduceStructurallyValidResults) {
  qaoa::QaoaParams Qaoa;
  for (const sat::CnfFormula &F : smallGrid())
    for (BackendKind Kind : baselines::AllBackendKinds) {
      std::unique_ptr<baselines::Backend> B = baselines::createBackend(Kind);
      ASSERT_NE(B, nullptr);
      baselines::CompileOutput Out = B->compile(F, Qaoa);
      expectStructurallyValid(Out.Metrics, F, Kind);
      EXPECT_FALSE(Out.Cancelled);
      // Weaver is the only backend with a pulse-level program format.
      EXPECT_EQ(Out.Program.has_value(), Kind == BackendKind::Weaver);
    }
}

TEST(Differential, ScalableBackendsHandleSatlibSizes) {
  qaoa::QaoaParams Qaoa;
  for (const sat::CnfFormula &F : satlibGrid())
    for (BackendKind Kind :
         {BackendKind::Superconducting, BackendKind::Atomique,
          BackendKind::Weaver}) {
      std::unique_ptr<baselines::Backend> B = baselines::createBackend(Kind);
      expectStructurallyValid(B->compile(F, Qaoa).Metrics, F, Kind,
                              /*AllowEpsUnderflow=*/true);
    }
}

TEST(Differential, WeaverProgramMatchesFormulaRegister) {
  for (const sat::CnfFormula &F : satlibGrid()) {
    auto R = compileWeaver(F, WeaverOptions());
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_EQ(R->Program.NumQubits, F.numVariables());
    EXPECT_FALSE(R->Program.Statements.empty());
  }
}

// --- Weaver byte identity: service vs direct, cache on and off -----------

TEST(Differential, ServiceWqasmByteIdenticalToDirectCacheOnAndOff) {
  std::vector<sat::CnfFormula> Grid = satlibGrid();

  // Round 2 runs at another (gamma, beta), so its cached compiles are
  // template hits that must splice new angles, negative and zero ones
  // included.
  qaoa::QaoaParams Points[2];
  Points[1].Gamma = -0.0;
  Points[1].Beta = -0.615;

  // Direct, cache off: the reference programs of both rounds.
  baselines::WeaverBackend Direct;
  std::vector<std::string> Reference[2];
  for (int Round = 0; Round < 2; ++Round)
    for (const sat::CnfFormula &F : Grid)
      Reference[Round].push_back(printed(Direct.compile(F, Points[Round])));

  for (bool UseCache : {false, true}) {
    SCOPED_TRACE(UseCache ? "service cache on" : "service cache off");
    ServiceOptions Opt;
    Opt.NumThreads = 2;
    Opt.UseCache = UseCache;
    CompileService Service(Opt);

    // Two rounds so the cached run serves round 2 from the template tier.
    for (int Round = 0; Round < 2; ++Round) {
      std::vector<CompileService::JobHandle> Handles;
      for (const sat::CnfFormula &F : Grid) {
        CompileRequest R;
        R.Formula = F;
        R.Qaoa = Points[Round];
        Handles.push_back(Service.submit(R));
      }
      for (size_t I = 0; I < Handles.size(); ++I) {
        JobOutcome Out;
        ASSERT_TRUE(Handles[I].waitFor(120.0, Out));
        ASSERT_EQ(Out.State, JobState::Completed) << Out.Diagnostic;
        if (Out.Wqasm != Reference[Round][I]) {
          std::string Dir = dumpMismatch(
              "grid" + std::to_string(I) + "_round" + std::to_string(Round),
              Out.Wqasm, Reference[Round][I]);
          FAIL() << "service output differs from direct compile for grid "
                 << I << " round " << Round << "; programs dumped to "
                 << Dir;
        }
      }
    }
    if (UseCache) {
      // Round 2 must have come from the cache, proving the byte identity
      // above covered the template-instantiation path.
      EXPECT_GE(Service.stats().ProgramTierHits,
                static_cast<uint64_t>(Grid.size()));
    } else {
      EXPECT_EQ(Service.cache(), nullptr);
    }
  }
}

TEST(Differential, BatchCompilerMatchesServiceMetrics) {
  std::vector<sat::CnfFormula> Grid = satlibGrid();
  baselines::WeaverBackend Backend;
  std::vector<baselines::BaselineResult> Batch =
      BatchCompiler(Backend).compileAll(Grid);

  ServiceOptions Opt;
  Opt.NumThreads = 2;
  CompileService Service(Opt);
  std::vector<CompileService::JobHandle> Handles;
  for (const sat::CnfFormula &F : Grid) {
    CompileRequest R;
    R.Formula = F;
    Handles.push_back(Service.submit(R));
  }
  for (size_t I = 0; I < Grid.size(); ++I) {
    JobOutcome Out;
    ASSERT_TRUE(Handles[I].waitFor(120.0, Out));
    ASSERT_EQ(Out.State, JobState::Completed);
    EXPECT_EQ(Out.Metrics.Pulses, Batch[I].Pulses) << I;
    EXPECT_EQ(Out.Metrics.TwoQubitGates, Batch[I].TwoQubitGates) << I;
    EXPECT_EQ(Out.Metrics.ThreeQubitGates, Batch[I].ThreeQubitGates) << I;
    EXPECT_EQ(Out.Metrics.ExecutionSeconds, Batch[I].ExecutionSeconds) << I;
    EXPECT_EQ(Out.Metrics.Eps, Batch[I].Eps) << I;
    EXPECT_EQ(Out.Metrics.Colors, Batch[I].Colors) << I;
  }
}

// --- OpenQASM 2 ingest differential --------------------------------------

TEST(Differential, Oq2IngestedCircuitCompilesIdenticallyOnEveryBackend) {
  // The arbitrary-circuit front door must be invisible to the compilers:
  // a QAOA instance that detours through OpenQASM 2 text (build ->
  // export -> parse -> lower -> structure recovery) has to compile to
  // the same artefact as the programmatically built formula, on every
  // BackendKind, byte-identically where a program is emitted.
  for (const sat::CnfFormula &F : smallGrid()) {
    for (bool Compressed : {false, true}) {
      SCOPED_TRACE(std::string(Compressed ? "compressed" : "ladder") +
                   ", " + std::to_string(F.numVariables()) + " vars");
      qaoa::QaoaParams Qaoa;
      Qaoa.Layers = 2;
      Qaoa.UseCompressedClauses = Compressed;
      circuit::Circuit Built = qaoa::buildQaoaCircuit(F, Qaoa);
      Expected<circuit::Circuit> Ingested =
          oq2::parseOq2(oq2::printOpenQasm2(Built));
      ASSERT_TRUE(Ingested.ok()) << Ingested.message();
      Expected<oq2::RecoveredQaoa> R = oq2::recoverQaoa(*Ingested);
      ASSERT_TRUE(R.ok()) << R.message();
      for (BackendKind Kind : baselines::AllBackendKinds) {
        SCOPED_TRACE(baselines::backendKindName(Kind));
        std::unique_ptr<baselines::Backend> B =
            baselines::createBackend(Kind);
        baselines::CompileOutput Direct = B->compile(F, Qaoa);
        baselines::CompileOutput ViaQasm = B->compile(R->Formula, R->Params);
        EXPECT_EQ(Direct.Metrics.Pulses, ViaQasm.Metrics.Pulses);
        EXPECT_EQ(Direct.Metrics.TwoQubitGates,
                  ViaQasm.Metrics.TwoQubitGates);
        EXPECT_EQ(Direct.Metrics.ThreeQubitGates,
                  ViaQasm.Metrics.ThreeQubitGates);
        EXPECT_EQ(Direct.Metrics.SwapGates, ViaQasm.Metrics.SwapGates);
        EXPECT_EQ(Direct.Metrics.ExecutionSeconds,
                  ViaQasm.Metrics.ExecutionSeconds);
        EXPECT_EQ(Direct.Metrics.Eps, ViaQasm.Metrics.Eps);
        EXPECT_EQ(Direct.Metrics.Colors, ViaQasm.Metrics.Colors);
        if (printed(Direct) != printed(ViaQasm)) {
          std::string Dir =
              dumpMismatch("oq2_" + std::string(
                               baselines::backendKindName(Kind)),
                           printed(ViaQasm), printed(Direct));
          FAIL() << "oq2-ingested program differs; dumped to " << Dir;
        }
      }
    }
  }
}
