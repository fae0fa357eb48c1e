//===- bench/bench_batch_compile.cpp - Batch compilation throughput -------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Measures core::compileBatch's multi-threaded speedup on a 16-formula
/// SATLIB-style batch (the production-scale direction of the ROADMAP:
/// batched compilation across a thread pool). Prints a wall-clock scaling
/// table, then runs the google-benchmark registrations.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/CompileBatch.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

using namespace weaver;

namespace {

constexpr int BatchSize = 16;
constexpr int BatchVariables = 75;

std::vector<sat::CnfFormula> makeBatch() {
  std::vector<sat::CnfFormula> Batch;
  for (int I = 1; I <= BatchSize; ++I)
    Batch.push_back(sat::satlibInstance(BatchVariables, I));
  return Batch;
}

double timeBatch(const std::vector<sat::CnfFormula> &Batch, int Threads) {
  baselines::WeaverBackend Backend;
  core::PoolOptions Opt;
  Opt.NumThreads = Threads;
  core::WorkerPool Pool(Opt);
  auto Start = std::chrono::steady_clock::now();
  auto Results = core::compileBatch(Backend, Batch, {}, Pool);
  benchmark::DoNotOptimize(Results);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void printTable() {
  std::vector<sat::CnfFormula> Batch = makeBatch();
  unsigned MaxThreads =
      std::max(1u, std::thread::hardware_concurrency());
  double Baseline = timeBatch(Batch, 1);
  Table T({"threads", "wall [s]", "speedup"});
  for (unsigned N = 1; N <= MaxThreads; N *= 2) {
    double Wall = N == 1 ? Baseline : timeBatch(Batch, static_cast<int>(N));
    T.addRow({std::to_string(N), formatf("%.3f", Wall),
              formatf("%.2fx", Baseline / Wall)});
  }
  std::printf("== compileBatch: %d x uf%d instances, weaver backend ==\n%s\n",
              BatchSize, BatchVariables, T.render().c_str());
}

void BM_BatchCompile(benchmark::State &State) {
  std::vector<sat::CnfFormula> Batch = makeBatch();
  baselines::WeaverBackend Backend;
  core::PoolOptions Opt;
  Opt.NumThreads = static_cast<int>(State.range(0));
  core::WorkerPool Pool(Opt);
  for (auto _ : State) {
    auto Results = core::compileBatch(Backend, Batch, {}, Pool);
    benchmark::DoNotOptimize(Results);
  }
  State.SetItemsProcessed(State.iterations() * BatchSize);
}
BENCHMARK(BM_BatchCompile)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

} // namespace

int main(int argc, char **argv) {
  if (weaver::bench::tablesEnabled())
    printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
