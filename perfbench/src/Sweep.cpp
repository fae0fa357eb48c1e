//===- perfbench/src/Sweep.cpp - QAOA parameter-sweep workload ------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// `sweep`: one caller thread, closed loop, one shared PassCache. Each
/// epoch draws four seeded SATLIB-shaped formulas (three at 100 variables,
/// one at 250) and sweeps each, at 1 and 2 layers, over a seeded 4x4
/// gamma/beta grid. Requests rotate over the eight templates, so every short
/// window sees the same size mix. Each template moves on to its next
/// formula two points after the template before it, so after the first 16
/// requests (every template's first point) each further 16 hold exactly
/// one template's first point: a miss, paid by the user. A request is
/// compileWeaver + printWqasm; after the first point every compile is a
/// program-tier hit, so the printer and the template splice do almost all
/// the work. The program behind every output also passes the structural
/// wChecker, outside the measured time and CPU.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/pipeline/PassCache.h"
#include "qasm/Printer.h"
#include "core/WChecker.h"
#include "support/Rng.h"

using namespace weaver;

namespace perfbench {

namespace {

// Three 100-variable formulas to one 250: the median then falls inside the
// 100-variable 2-layer class and the p95 inside the 250-variable 2-layer
// class, not on a boundary between two classes.
constexpr int FormulaVars[] = {100, 100, 100, 250};
constexpr int NumFormulas = std::size(FormulaVars);
constexpr int NumTemplates = 2 * NumFormulas; // x {1, 2} layers
constexpr int GridSide = 4;
constexpr int GridPoints = GridSide * GridSide;
constexpr int EpochRequests = NumTemplates * GridPoints;
// Template T starts each epoch Stagger * T points early, so the templates'
// first points are spread evenly over the run: after the first
// NumTemplates * Stagger requests, each further 16 hold exactly one.
constexpr int Stagger = GridPoints / NumTemplates;

struct Epoch {
  std::vector<sat::CnfFormula> Formulas;
  std::vector<double> Gammas, Betas;
};

class Sweep : public Workload {
public:
  explicit Sweep(uint64_t Seed) : Seed(Seed) {}

  WorkloadShape shape() const override {
    WorkloadShape S;
    S.QualityWindow = 2 * NumTemplates; // every template's miss and a hit
    S.RssMark = EpochRequests;
    S.TailPercentile = 95;
    return S;
  }

  void setup(double, Tracer &) override {
    Cache = std::make_unique<core::pipeline::PassCache>();
    Epochs.clear();
    // The epochs a 20-second phase uses at the seed's speed.
    ensureEpoch(3);
  }

  Phase run(double Seconds, Tracer &T, GateLog &Gate) override;
  Quality replayQuality() override;

private:
  Epoch makeEpoch(uint64_t E) const {
    Epoch Ep;
    for (int F = 0; F < NumFormulas; ++F)
      Ep.Formulas.push_back(
          randomFormula(mixSeed(Seed, 1, E, F), FormulaVars[F]));
    Xoshiro256 Rng(mixSeed(Seed, 2, E));
    for (int K = 0; K < GridSide; ++K) {
      Ep.Gammas.push_back(0.1 + 2.9 * Rng.nextDouble());
      Ep.Betas.push_back(0.1 + 1.4 * Rng.nextDouble());
    }
    return Ep;
  }

  void ensureEpoch(uint64_t E) {
    while (Epochs.size() <= E)
      Epochs.push_back(makeEpoch(Epochs.size()));
  }

  /// The epoch request \p I draws its formula and grid from.
  static uint64_t epochOf(uint64_t I) {
    return (I / NumTemplates + Stagger * (I % NumTemplates)) / GridPoints;
  }

  /// Formula and QAOA point of request \p I; its epoch must exist.
  std::pair<const sat::CnfFormula *, qaoa::QaoaParams>
  request(uint64_t I) const {
    uint64_t Tmpl = I % NumTemplates;
    uint64_t Point = (I / NumTemplates + Stagger * Tmpl) % GridPoints;
    const Epoch &Ep = Epochs[epochOf(I)];
    qaoa::QaoaParams Q;
    Q.Layers = 1 + static_cast<int>(Tmpl % 2);
    Q.Gamma = Ep.Gammas[Point % GridSide];
    Q.Beta = Ep.Betas[Point / GridSide];
    return {&Ep.Formulas[Tmpl / 2], Q};
  }

  uint64_t Seed;
  std::unique_ptr<core::pipeline::PassCache> Cache;
  std::vector<Epoch> Epochs;
};

Phase Sweep::run(double Seconds, Tracer &T, GateLog &Gate) {
  Phase P;
  const WorkloadShape S = shape();
  const uint64_t MinRequests = S.minRequests();
  Tracer::Buffer *B = T.buffer();
  core::pipeline::PassCache::CacheStats C0 = Cache->stats();
  double Busy = 0, PrintBytes = 0;
  const double Cpu0 = processCpuSeconds();
  double PausedCpu = 0;

  for (uint64_t I = 0; Busy < Seconds || I < MinRequests; ++I) {
    ensureEpoch(epochOf(I));
    auto [F, Q] = request(I);
    ++P.Attempted;
    Clock::time_point Start = Clock::now();
    Expected<core::WeaverResult> R =
        Expected<core::WeaverResult>::error("not run");
    std::string Text;
    {
      ScopedSpan Req(T, B, "request", I);
      {
        int64_t At = T.ns(Clock::now());
        ScopedSpan Compile(T, B, "pipeline.compile", I);
        R = core::compileWeaver(*F, directOptions(Q, Cache.get()));
        if (R)
          addPassSpans(B, I, Compile.id(), At, R->PassTimings);
      }
      if (R) {
        ScopedSpan Print(T, B, "qasm.print", I);
        Text = qasm::printWqasm(R->Program);
      }
    }
    double Ms = msBetween(Start, Clock::now());
    Busy += Ms / 1e3;

    // Gate and bookkeeping, outside the measured time and CPU.
    double PauseStart = processCpuSeconds();
    if (!R) {
      ++P.Failed;
      Gate.fail("sweep compile", R.message());
    } else {
      P.LatencyMs.push_back(Ms);
        PrintBytes += Text.size();
      core::CheckReport Rep =
          core::checkWqasm(R->Program, fpqa::HardwareParams());
      if (Rep.passed())
        Gate.pass("sweep output passes wChecker (structural)");
      else
        Gate.fail("sweep output " + std::to_string(I), Rep.Diagnostic);
      if (I < S.QualityWindow)
        P.Q.add(Text.size(), R->Stats);
    }
    if (P.LatencyMs.size() == S.RssMark)
      P.RssMb = peakRssMb();
    PausedCpu += processCpuSeconds() - PauseStart;
  }
  P.WindowSeconds = Busy;
  P.CpuSeconds = processCpuSeconds() - Cpu0 - PausedCpu;
  addCacheLayers(P.Layers, *Cache, C0);
  P.Layers.add("aux.print_bytes", PrintBytes, "B");
  P.Layers.add("qasm.bytes",
               P.LatencyMs.empty() ? 0 : PrintBytes / P.LatencyMs.size(), "B");
  return P;
}

Quality Sweep::replayQuality() {
  core::pipeline::PassCache Fresh;
  Quality Q;
  for (uint64_t I = 0; I < shape().QualityWindow; ++I) {
    auto [F, Params] = request(I);
    auto R = core::compileWeaver(*F, directOptions(Params, &Fresh));
    if (!R)
      return Quality();
    Q.add(qasm::printWqasm(R->Program).size(), R->Stats);
  }
  return Q;
}

} // namespace

std::unique_ptr<Workload> makeSweep(uint64_t Seed) {
  return std::make_unique<Sweep>(Seed);
}

} // namespace perfbench
