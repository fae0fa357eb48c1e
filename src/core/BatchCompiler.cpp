//===- core/BatchCompiler.cpp - Multi-threaded batch compilation ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/BatchCompiler.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace weaver;
using namespace weaver::core;

BatchCompiler::BatchCompiler(const baselines::Backend &BackendImpl,
                             BatchOptions Options)
    : BackendImpl(BackendImpl), Options(Options) {}

int BatchCompiler::effectiveThreads(size_t BatchSize) const {
  int Threads = Options.Pool
                    ? Options.Pool->numThreads()
                    : (Options.NumThreads > 0
                           ? Options.NumThreads
                           : static_cast<int>(
                                 std::thread::hardware_concurrency()));
  Threads = std::max(1, Threads);
  return static_cast<int>(
      std::min<size_t>(static_cast<size_t>(Threads), BatchSize));
}

std::vector<baselines::BaselineResult> BatchCompiler::compileAll(
    const std::vector<sat::CnfFormula> &Formulas) const {
  std::vector<baselines::BaselineResult> Results(Formulas.size());
  if (Formulas.empty())
    return Results;

  if (Options.Pool) {
    // Shared-pool path: one task per batch slot, completion tracked by a
    // counter + condvar latch. Posting can block on a bounded queue, so
    // tasks already posted make progress while we enqueue the rest.
    std::mutex M;
    std::condition_variable Done;
    size_t Remaining = Formulas.size();
    for (size_t I = 0; I < Formulas.size(); ++I) {
      bool Posted = Options.Pool->post([&, I]() {
        Results[I] = BackendImpl.compile(Formulas[I], Options.Qaoa).Metrics;
        std::lock_guard<std::mutex> Lock(M);
        if (--Remaining == 0)
          Done.notify_all();
      });
      if (!Posted) {
        // Pool shut down mid-batch: run the remainder inline so every
        // slot still gets a result.
        Results[I] = BackendImpl.compile(Formulas[I], Options.Qaoa).Metrics;
        std::lock_guard<std::mutex> Lock(M);
        if (--Remaining == 0)
          Done.notify_all();
      }
    }
    std::unique_lock<std::mutex> Lock(M);
    Done.wait(Lock, [&]() { return Remaining == 0; });
    return Results;
  }

  int Threads = effectiveThreads(Formulas.size());
  if (Threads == 1) {
    for (size_t I = 0; I < Formulas.size(); ++I)
      Results[I] = BackendImpl.compile(Formulas[I], Options.Qaoa).Metrics;
    return Results;
  }

  // Dynamic work stealing over the shared index: instance sizes vary
  // wildly (satlib sweeps mix 20- and 250-variable formulas), so static
  // partitioning would leave workers idle.
  std::atomic<size_t> Next{0};
  auto Worker = [&]() {
    for (size_t I = Next.fetch_add(1); I < Formulas.size();
         I = Next.fetch_add(1))
      Results[I] = BackendImpl.compile(Formulas[I], Options.Qaoa).Metrics;
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  return Results;
}
