//===- tests/pass_cache_test.cpp - Pass-result memoisation tests ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The PassCache contract: compilations through a cache are byte-identical
/// to uncached compilations for every parameter point, hits and misses are
/// accounted per tier, any input change invalidates the affected tiers,
/// and one cache may be shared by every worker of a compileBatch batch
/// without changing any result.
///
//===----------------------------------------------------------------------===//

#include "TestPaths.h"

#include "baselines/Backend.h"
#include "core/CompileBatch.h"
#include "core/WeaverCompiler.h"
#include "core/pipeline/PassCache.h"
#include "core/pipeline/PassManager.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;
using sat::Clause;
using sat::CnfFormula;

namespace {

CnfFormula testFormula(uint64_t Seed = 1, int Vars = 14, size_t Clauses = 50) {
  return sat::RandomSatGenerator(Seed).generate(Vars, Clauses);
}

WeaverOptions sweepPoint(double Gamma, double Beta, int Layers = 1,
                         PassCache *Cache = nullptr) {
  WeaverOptions Opt;
  Opt.Qaoa.Gamma = Gamma;
  Opt.Qaoa.Beta = Beta;
  Opt.Qaoa.Layers = Layers;
  Opt.Cache = Cache;
  return Opt;
}

/// WEAVER_STRESS_LIGHT=1 (the sanitizer CI jobs) shrinks the oracle grid.
bool lightMode() {
  const char *Env = std::getenv("WEAVER_STRESS_LIGHT");
  return Env && std::string(Env) == "1";
}

/// Compiles and returns the printed program, asserting success.
std::string compileToText(const CnfFormula &F, const WeaverOptions &Opt,
                          WeaverResult *Out = nullptr) {
  auto R = compileWeaver(F, Opt);
  EXPECT_TRUE(R.ok()) << R.message();
  if (Out)
    *Out = *R;
  return qasm::printWqasm(R->Program);
}

} // namespace

// --- Hit/miss accounting -------------------------------------------------

TEST(PassCache, CountsMissThenProgramHits) {
  CnfFormula F = testFormula();
  PassCache Cache;
  WeaverResult First, Second;
  compileToText(F, sweepPoint(0.7, 0.3, 1, &Cache), &First);
  EXPECT_FALSE(First.FrontHalfFromCache);
  EXPECT_FALSE(First.ProgramFromCache);
  compileToText(F, sweepPoint(0.5, 0.2, 1, &Cache), &Second);
  EXPECT_TRUE(Second.FrontHalfFromCache);
  EXPECT_TRUE(Second.ProgramFromCache);

  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramMisses, 1u);
  EXPECT_EQ(S.ProgramHits, 1u);
  EXPECT_EQ(S.FrontMisses, 1u); // consulted only on the program miss
  EXPECT_EQ(S.FrontHits, 0u);
  EXPECT_EQ(Cache.size(), 2u); // one front entry + one template
}

TEST(PassCache, LayersChangeReusesFrontHalfOnly) {
  CnfFormula F = testFormula();
  PassCache Cache;
  compileToText(F, sweepPoint(0.7, 0.3, 1, &Cache));
  WeaverResult TwoLayers;
  compileToText(F, sweepPoint(0.7, 0.3, 2, &Cache), &TwoLayers);
  EXPECT_TRUE(TwoLayers.FrontHalfFromCache);
  EXPECT_FALSE(TwoLayers.ProgramFromCache);

  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramMisses, 2u);
  EXPECT_EQ(S.FrontHits, 1u);
  EXPECT_EQ(S.FrontMisses, 1u);
}

TEST(PassCache, TimingsKeepOneEntryPerPassOnHits) {
  CnfFormula F = testFormula();
  PassCache Cache;
  compileToText(F, sweepPoint(0.7, 0.3, 1, &Cache));
  WeaverResult Hit;
  compileToText(F, sweepPoint(0.6, 0.25, 1, &Cache), &Hit);
  ASSERT_EQ(Hit.PassTimings.size(), 5u);
  EXPECT_EQ(Hit.PassTimings[0].PassName, "clause-coloring");
  EXPECT_EQ(Hit.PassTimings[4].PassName, "pulse-emission");
  double Sum = 0;
  for (const PassTiming &T : Hit.PassTimings)
    if (T.PassName != "pulse-emission")
      Sum += T.Seconds;
  EXPECT_DOUBLE_EQ(Hit.CompileSeconds, Sum);
}

// --- Byte identity across a sweep ---------------------------------------

TEST(PassCache, SweepProgramsAreByteIdenticalWithCacheOnOrOff) {
  CnfFormula F = testFormula(3, 12, 45);
  PassCache Cache;
  for (int Layers = 1; Layers <= 2; ++Layers)
    for (int I = 0; I < 5; ++I) {
      double Gamma = 0.3 + 0.11 * I, Beta = 0.15 + 0.07 * I;
      WeaverResult Plain, Cached;
      std::string Off =
          compileToText(F, sweepPoint(Gamma, Beta, Layers), &Plain);
      std::string On =
          compileToText(F, sweepPoint(Gamma, Beta, Layers, &Cache), &Cached);
      ASSERT_EQ(Off, On) << "layers " << Layers << " point " << I;
      // Metrics come out of the cache bit-identically too.
      EXPECT_EQ(Plain.Stats.totalPulses(), Cached.Stats.totalPulses());
      EXPECT_EQ(Plain.Stats.CzGates, Cached.Stats.CzGates);
      EXPECT_EQ(Plain.Stats.CczGates, Cached.Stats.CczGates);
      EXPECT_EQ(Plain.Stats.Duration, Cached.Stats.Duration);
      EXPECT_EQ(Plain.Stats.Eps, Cached.Stats.Eps);
      EXPECT_EQ(Plain.Coloring.ColorOf, Cached.Coloring.ColorOf);
    }
  // 10 points over 2 layer counts: every non-first point per layer count
  // is a template hit.
  EXPECT_EQ(Cache.stats().ProgramHits, 8u);
  EXPECT_EQ(Cache.stats().ProgramMisses, 2u);
}

TEST(PassCache, MeasuredAndLadderVariantsStayByteIdentical) {
  CnfFormula Mixed(5, {Clause{1}, Clause{-2, 3}, Clause{-3, -4, -5},
                       Clause{2, 4}, Clause{-1, 4, 5}});
  PassCache Cache;
  for (bool Measure : {false, true})
    for (auto Mode : {WeaverOptions::CompressionMode::On,
                      WeaverOptions::CompressionMode::Off})
      for (double Gamma : {0.7, 0.41}) {
        WeaverOptions Off = sweepPoint(Gamma, 0.3, 2);
        Off.Measure = Measure;
        Off.Compression = Mode;
        WeaverOptions On = Off;
        On.Cache = &Cache;
        ASSERT_EQ(compileToText(Mixed, Off), compileToText(Mixed, On));
      }
}

// --- Invalidation --------------------------------------------------------

TEST(PassCache, FormulaGeometryAndOptionChangesMiss) {
  PassCache Cache;
  CnfFormula A = testFormula(1), B = testFormula(2);
  compileToText(A, sweepPoint(0.7, 0.3, 1, &Cache));

  // Different formula: both tiers miss.
  compileToText(B, sweepPoint(0.7, 0.3, 1, &Cache));
  EXPECT_EQ(Cache.stats().ProgramHits, 0u);
  EXPECT_EQ(Cache.stats().FrontHits, 0u);

  // Different geometry: both tiers miss (zone plan depends on it).
  WeaverOptions Wide = sweepPoint(0.7, 0.3, 1, &Cache);
  Wide.Geometry.SiteSpacing = 25.0;
  auto R = compileWeaver(A, Wide);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_FALSE(R->FrontHalfFromCache);

  // Different colouring heuristic: both tiers miss.
  WeaverOptions FirstFit = sweepPoint(0.7, 0.3, 1, &Cache);
  FirstFit.UseDSatur = false;
  R = compileWeaver(A, FirstFit);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_FALSE(R->FrontHalfFromCache);

  // Different hardware: the front half (no hardware inputs) is reused,
  // the program/stats tier is not (EPS depends on fidelities).
  WeaverOptions Noisy = sweepPoint(0.7, 0.3, 1, &Cache);
  Noisy.Hw.CzFidelity = 0.9;
  R = compileWeaver(A, Noisy);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->FrontHalfFromCache);
  EXPECT_FALSE(R->ProgramFromCache);
}

TEST(PassCache, SuppliedColoringBypassesTheCache) {
  CnfFormula F = testFormula();
  PassCache Cache;
  CompilationContext Ctx;
  Ctx.Formula = &F;
  Ctx.Cache = &Cache;
  Ctx.Coloring = colorClausesDSatur(F);
  Ctx.HasColoring = true;
  ASSERT_TRUE(PassManager::standardFpqaPipeline().run(Ctx).ok());
  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramHits + S.ProgramMisses + S.FrontHits + S.FrontMisses,
            0u);
  EXPECT_EQ(Cache.size(), 0u);
}

TEST(PassCache, CapFlushesInsteadOfGrowingUnbounded) {
  PassCache Cache(/*MaxEntries=*/2);
  compileToText(testFormula(1), sweepPoint(0.7, 0.3, 1, &Cache));
  EXPECT_EQ(Cache.size(), 2u); // front + template for formula 1
  compileToText(testFormula(2), sweepPoint(0.7, 0.3, 1, &Cache));
  EXPECT_LE(Cache.size(), 2u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
}

// --- Sharing across compileBatch workers ---------------------------------

TEST(PassCache, BatchCompilerWorkersShareOneCache) {
  // A sweep-style batch: few distinct formulas, each repeated.
  std::vector<CnfFormula> Batch;
  for (int Rep = 0; Rep < 4; ++Rep)
    for (uint64_t Seed : {11u, 12u, 13u})
      Batch.push_back(testFormula(Seed));

  PoolOptions PoolOpt;
  PoolOpt.NumThreads = 4;
  WorkerPool Pool(PoolOpt);
  baselines::WeaverBackend Plain;
  std::vector<baselines::BaselineResult> Reference =
      compileBatch(Plain, Batch, {}, Pool);

  PassCache Cache;
  WeaverOptions WOpt;
  WOpt.Cache = &Cache;
  baselines::WeaverBackend CachedBackend(WOpt);
  std::vector<baselines::BaselineResult> Cached =
      compileBatch(CachedBackend, Batch, {}, Pool);

  ASSERT_EQ(Reference.size(), Cached.size());
  for (size_t I = 0; I < Reference.size(); ++I) {
    EXPECT_EQ(Reference[I].Pulses, Cached[I].Pulses) << I;
    EXPECT_EQ(Reference[I].TwoQubitGates, Cached[I].TwoQubitGates) << I;
    EXPECT_EQ(Reference[I].ThreeQubitGates, Cached[I].ThreeQubitGates) << I;
    EXPECT_EQ(Reference[I].ExecutionSeconds, Cached[I].ExecutionSeconds)
        << I;
    EXPECT_EQ(Reference[I].Eps, Cached[I].Eps) << I;
    EXPECT_EQ(Reference[I].Colors, Cached[I].Colors) << I;
  }
  // Whatever the interleaving, a (formula, params) pair is built at most
  // once per worker (concurrent first touches may race before the first
  // insert lands, so the exact hit count is scheduler-dependent)...
  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramHits + S.ProgramMisses, Batch.size());
  EXPECT_LE(S.ProgramMisses, static_cast<uint64_t>(3 * Pool.numThreads()));
  // ...and once the entries exist, a second pass is deterministically
  // pure hits.
  std::vector<baselines::BaselineResult> Second =
      compileBatch(CachedBackend, Batch, {}, Pool);
  ASSERT_EQ(Second.size(), Cached.size());
  PassCache::CacheStats S2 = Cache.stats();
  EXPECT_EQ(S2.ProgramMisses, S.ProgramMisses);
  EXPECT_EQ(S2.ProgramHits, S.ProgramHits + Batch.size());
}

TEST(PassCache, ConcurrentCompilesStayByteIdentical) {
  CnfFormula F = testFormula(21, 12, 40);
  const double Gammas[4] = {0.3, 0.45, 0.6, 0.75};

  // Uncached reference per gamma.
  std::string Reference[4];
  for (int I = 0; I < 4; ++I)
    Reference[I] = compileToText(F, sweepPoint(Gammas[I], 0.3));

  // Four threads race the same cache over the same sweep points.
  PassCache Cache;
  std::string Got[4][4];
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T]() {
      for (int I = 0; I < 4; ++I) {
        auto R = compileWeaver(F, sweepPoint(Gammas[I], 0.3, 1, &Cache));
        if (R.ok())
          Got[T][I] = qasm::printWqasm(R->Program);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < 4; ++T)
    for (int I = 0; I < 4; ++I)
      EXPECT_EQ(Got[T][I], Reference[I]) << "thread " << T << " point " << I;
}

// --- Text templates: spliced printing of program-tier hits ---------------

namespace {

/// One (gamma, beta) point of the splice oracle. Zero, negative zero and
/// negative angles print as "0", "-0" and "-..." — the splice must agree.
struct AnglePoint {
  double Gamma, Beta;
};

std::vector<AnglePoint> oraclePoints(uint64_t Seed) {
  std::vector<AnglePoint> Points = {{0.0, -0.0}, {-0.0, 0.0}, {-0.83, -0.21}};
  SplitMix64 Rng(Seed);
  for (int I = 0; I < 3; ++I) {
    double G = (double(Rng.next() % 20001) - 10000) / 1637.0;
    double B = (double(Rng.next() % 20001) - 10000) / 4099.0;
    Points.push_back({G, B});
  }
  return Points;
}

baselines::CompileOutput backendCompile(const CnfFormula &F,
                                        const WeaverOptions &Base,
                                        AnglePoint P) {
  qaoa::QaoaParams Q = Base.Qaoa;
  Q.Gamma = P.Gamma;
  Q.Beta = P.Beta;
  return baselines::WeaverBackend(Base).compile(F, Q);
}

/// Compares two printed programs. On a mismatch it reports the first
/// differing byte with some context instead of gtest's line diff, which
/// on megabyte texts costs far more memory than the texts themselves.
void expectSameText(const std::string &Got, const std::string &Want,
                    const std::string &Where) {
  if (Got == Want)
    return;
  size_t At = std::mismatch(Got.begin(),
                            Got.begin() + std::min(Got.size(), Want.size()),
                            Want.begin())
                  .first -
              Got.begin();
  size_t From = At < 80 ? 0 : At - 80;
  ADD_FAILURE() << Where << ": texts differ at byte " << At << " (sizes "
                << Got.size() << " vs " << Want.size() << ")\n got: ..."
                << Got.substr(From, 160) << "\nwant: ..."
                << Want.substr(From, 160);
}

/// The three-way oracle for one compile: the served text (a splice on a
/// hit), an independent print of the materialized program, and an
/// uncached compile at the same point.
void expectSpliceOracle(const CnfFormula &F, const WeaverOptions &Base,
                        AnglePoint P, const std::string &Where) {
  baselines::CompileOutput Out = backendCompile(F, Base, P);
  ASSERT_TRUE(Out.Program.has_value()) << Where << Out.Metrics.Diagnostic;
  WeaverOptions Plain = Base;
  Plain.Cache = nullptr;
  Plain.Qaoa.Gamma = P.Gamma;
  Plain.Qaoa.Beta = P.Beta;
  std::string Uncached = compileToText(F, Plain);
  expectSameText(qasm::printWqasm(Out.Program->materialize()), Uncached,
                 Where + " (materialized)");
  expectSameText(Out.Program->print(), Uncached, Where + " (printed)");
}

} // namespace

TEST(TextTemplate, SpliceMatchesIndependentPrintAcrossTheGrid) {
  const bool Light = lightMode();
  const int NumFormulas = Light ? 2 : 4;
  const int MaxLayers = Light ? 2 : 3;
  std::string Dir = testTempDir();
  for (int FI = 0; FI < NumFormulas; ++FI) {
    SplitMix64 Rng(1000 + FI);
    int Vars = 20 + static_cast<int>(Rng.next() % 81); // 20..100
    CnfFormula F = testFormula(77 + FI, Vars,
                               static_cast<size_t>(Vars * 4.26));
    std::vector<AnglePoint> Points = oraclePoints(FI);
    if (Light)
      Points.resize(4);
    for (int Layers = 1; Layers <= MaxLayers; ++Layers)
      for (bool Measure : {false, true}) {
        PassCache Cache;
        WeaverOptions Base = sweepPoint(0.7, 0.3, Layers, &Cache);
        Base.Measure = Measure;
        std::string Cell = "formula " + std::to_string(FI) + " (" +
                           std::to_string(Vars) + " vars) layers " +
                           std::to_string(Layers) +
                           (Measure ? " measured" : "");
        // The first point builds the template; the rest are hits.
        for (size_t PI = 0; PI < Points.size(); ++PI)
          expectSpliceOracle(F, Base, Points[PI],
                             Cell + " point " + std::to_string(PI));
        EXPECT_EQ(Cache.stats().ProgramHits, Points.size() - 1) << Cell;

        // A template that went through a snapshot renders and splices the
        // same.
        std::string Path = Dir + "/oracle.bin";
        ASSERT_FALSE(Cache.saveSnapshot(Path));
        PassCache Loaded;
        ASSERT_FALSE(Loaded.loadSnapshot(Path));
        Base.Cache = &Loaded;
        for (size_t PI = 1; PI < Points.size(); PI += 2)
          expectSpliceOracle(F, Base, Points[PI],
                             Cell + " after snapshot, point " +
                                 std::to_string(PI));
        // Both cells (front and program) came from the mapped file.
        EXPECT_EQ(Loaded.stats().Materializations, 2u) << Cell;
      }
  }
}

TEST(TextTemplate, ConcurrentFirstPrintsRenderOnce) {
  CnfFormula F = testFormula(31, 40, 170);
  PassCache Cache;
  WeaverOptions Base = sweepPoint(0.7, 0.3, 2, &Cache);
  ASSERT_TRUE(compileWeaver(F, Base).ok()); // builds the template
  const AnglePoint P = {-0.45, 0.125};
  baselines::CompileOutput Hit = backendCompile(F, Base, P);
  ASSERT_TRUE(Hit.ProgramFromCache);
  ASSERT_EQ(Hit.Program->Sections->textRenders(), 0u);

  constexpr int NumThreads = 8;
  std::string Got[NumThreads];
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      // Each thread prints its own instance of the one shared template.
      baselines::CompileOutput Mine = backendCompile(F, Base, P);
      if (Mine.Program)
        Got[T] = Mine.Program->print();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Hit.Program->Sections->textRenders(), 1u);
  std::string Want = qasm::printWqasm(Hit.Program->materialize());
  for (int T = 0; T < NumThreads; ++T)
    expectSameText(Got[T], Want, "thread " + std::to_string(T));
}

TEST(TextTemplate, MissesNeverRender) {
  // A cold compile-and-print (every lookup misses) prints the program it
  // just emitted and leaves the new entry's template unrendered.
  PassCache Cache;
  for (uint64_t Seed = 41; Seed < 44; ++Seed) {
    CnfFormula F = testFormula(Seed);
    baselines::CompileOutput Out =
        backendCompile(F, sweepPoint(0.7, 0.3, 1, &Cache), {0.6, 0.2});
    ASSERT_TRUE(Out.Program.has_value());
    EXPECT_FALSE(Out.ProgramFromCache);
    expectSameText(Out.Program->print(),
                   compileToText(F, sweepPoint(0.6, 0.2)),
                   "seed " + std::to_string(Seed));
    EXPECT_EQ(Out.Program->Sections->textRenders(), 0u);
  }
  EXPECT_EQ(Cache.stats().ProgramHits, 0u);
}
