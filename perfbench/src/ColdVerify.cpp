//===- perfbench/src/ColdVerify.cpp - Cold compile-and-verify workload ----===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// `cold_verify`: one caller thread, closed loop. Every request is a
/// never-repeated seeded random 3-SAT formula at ratio 4.26, compiled
/// through a default-sized PassCache (what the service attaches), printed,
/// parsed back and wChecked — the client-side verify path. Sizes come in
/// shuffled blocks of {50, 50, 100, 100, 100, 150, 250} variables, so
/// every window sees the same mix. Every lookup misses, so the passes,
/// the parser and the checker dominate, and the cache's entries pile up.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/WChecker.h"
#include "core/pipeline/PassCache.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "support/Rng.h"

#include <algorithm>

using namespace weaver;

namespace perfbench {

namespace {

// As many requests lie below the 100-variable class as above it, so the
// median falls at the middle of that class, where latencies are densest,
// and the p95 inside the 250-variable class: neither on a boundary
// between two classes.
constexpr int BlockVars[] = {50, 50, 100, 100, 100, 150, 250};
constexpr uint64_t BlockSize = std::size(BlockVars);

class ColdVerify : public Workload {
public:
  explicit ColdVerify(uint64_t Seed) : Seed(Seed) {}

  WorkloadShape shape() const override {
    WorkloadShape S;
    S.QualityWindow = 4 * BlockSize;
    S.RssMark = 16 * BlockSize;
    S.TailPercentile = 95;
    return S;
  }

  void setup(double, Tracer &) override {
    Cache = std::make_unique<core::pipeline::PassCache>();
    Formulas.clear();
    while (Formulas.size() < 32 * BlockSize)
      generateBlock();
  }

  Phase run(double Seconds, Tracer &T, GateLog &Gate) override;
  Quality replayQuality() override;

private:
  void generateBlock() {
    uint64_t Block = Formulas.size() / BlockSize;
    std::vector<int> Vars(std::begin(BlockVars), std::end(BlockVars));
    Xoshiro256 Rng(mixSeed(Seed, 3, Block));
    for (size_t I = Vars.size(); I > 1; --I)
      std::swap(Vars[I - 1], Vars[Rng.nextBelow(I)]);
    for (int V : Vars)
      Formulas.push_back(randomFormula(mixSeed(Seed, 4, Formulas.size()), V));
  }

  const sat::CnfFormula &formula(uint64_t I) {
    while (Formulas.size() <= I)
      generateBlock();
    return Formulas[I];
  }

  qaoa::QaoaParams params(uint64_t I) const {
    Xoshiro256 Rng(mixSeed(Seed, 5, I));
    qaoa::QaoaParams Q;
    Q.Gamma = 0.1 + 2.9 * Rng.nextDouble();
    Q.Beta = 0.1 + 1.4 * Rng.nextDouble();
    return Q;
  }

  uint64_t Seed;
  std::unique_ptr<core::pipeline::PassCache> Cache;
  std::vector<sat::CnfFormula> Formulas;
};

Phase ColdVerify::run(double Seconds, Tracer &T, GateLog &Gate) {
  Phase P;
  const WorkloadShape S = shape();
  const uint64_t MinRequests = S.minRequests();
  Tracer::Buffer *B = T.buffer();
  core::pipeline::PassCache::CacheStats C0 = Cache->stats();
  double PrintBytes = 0;
  uint64_t CheckFailures = 0;
  const Clock::time_point Begin = Clock::now();
  const double Cpu0 = processCpuSeconds();

  for (uint64_t I = 0; secondsSince(Begin) < Seconds || I < MinRequests;
       ++I) {
    const sat::CnfFormula &F = formula(I);
    qaoa::QaoaParams Q = params(I);
    ++P.Attempted;
    Clock::time_point Start = Clock::now();
    std::string Failure;
    std::string Text;
    fpqa::PulseStats Stats;
    {
      ScopedSpan Req(T, B, "request", I);
      Expected<core::WeaverResult> R =
          Expected<core::WeaverResult>::error("not run");
      {
        int64_t At = T.ns(Clock::now());
        ScopedSpan Compile(T, B, "pipeline.compile", I);
        R = core::compileWeaver(F, directOptions(Q, Cache.get()));
        if (R)
          addPassSpans(B, I, Compile.id(), At, R->PassTimings);
      }
      if (!R) {
        Failure = "compile: " + R.message();
      } else {
        Stats = R->Stats;
        {
          ScopedSpan Print(T, B, "qasm.print", I);
          Text = qasm::printWqasm(R->Program);
        }
        Expected<qasm::WqasmProgram> Parsed = qasm::WqasmProgram();
        {
          ScopedSpan Parse(T, B, "qasm.parse", I);
          Parsed = qasm::parseWqasm(Text);
        }
        if (!Parsed) {
          Failure = "parse: " + Parsed.message();
        } else {
          ScopedSpan Check(T, B, "checker.check", I);
          core::CheckReport Rep =
              core::checkWqasm(*Parsed, fpqa::HardwareParams());
          if (!Rep.passed()) {
            Failure = "wchecker: " + Rep.Diagnostic;
            ++CheckFailures;
          }
        }
      }
    }
    Clock::time_point End = Clock::now();
    double Ms = msBetween(Start, End);
    if (!Failure.empty()) {
      ++P.Failed;
      Gate.fail("cold_verify request " + std::to_string(I), Failure);
    } else {
      Gate.pass("cold_verify output passes wChecker (structural)");
      P.LatencyMs.push_back(Ms);
      PrintBytes += Text.size();
      if (I < S.QualityWindow)
        P.Q.add(Text.size(), Stats);
      if (P.LatencyMs.size() == S.RssMark)
        P.RssMb = peakRssMb();
    }
  }
  P.WindowSeconds = secondsSince(Begin);
  P.CpuSeconds = processCpuSeconds() - Cpu0;

  addCacheLayers(P.Layers, *Cache, C0);
  P.Layers.add("checker.failures", CheckFailures, "count");
  P.Layers.add("aux.print_bytes", PrintBytes, "B");
  P.Layers.add("qasm.bytes",
               P.LatencyMs.empty() ? 0 : PrintBytes / P.LatencyMs.size(), "B");
  return P;
}

Quality ColdVerify::replayQuality() {
  core::pipeline::PassCache Fresh;
  Quality Q;
  for (uint64_t I = 0; I < shape().QualityWindow; ++I) {
    auto R = core::compileWeaver(formula(I), directOptions(params(I), &Fresh));
    if (!R)
      return Quality();
    Q.add(qasm::printWqasm(R->Program).size(), R->Stats);
  }
  return Q;
}

} // namespace

std::unique_ptr<Workload> makeColdVerify(uint64_t Seed) {
  return std::make_unique<ColdVerify>(Seed);
}

} // namespace perfbench
