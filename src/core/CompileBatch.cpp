//===- core/CompileBatch.cpp - Batch compilation on a WorkerPool ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/CompileBatch.h"

#include <condition_variable>
#include <mutex>

using namespace weaver;

std::vector<baselines::BaselineResult>
core::compileBatch(const baselines::Backend &Backend,
                   const std::vector<sat::CnfFormula> &Formulas,
                   const qaoa::QaoaParams &Qaoa, WorkerPool &Pool) {
  std::vector<baselines::BaselineResult> Results(Formulas.size());
  // Completion latch over the slots. Posting can block on a bounded
  // queue, so tasks already posted make progress while the rest enqueue.
  std::mutex M;
  std::condition_variable Done;
  size_t Remaining = Formulas.size();
  auto Fill = [&](size_t I) {
    Results[I] = Backend.compile(Formulas[I], Qaoa).Metrics;
    // Notify under the lock: the waiter destroys M and Done as soon as
    // it can observe zero.
    std::lock_guard<std::mutex> Lock(M);
    if (--Remaining == 0)
      Done.notify_all();
  };
  for (size_t I = 0; I < Formulas.size(); ++I)
    if (!Pool.post([&Fill, I]() { Fill(I); }))
      Fill(I);
  std::unique_lock<std::mutex> Lock(M);
  Done.wait(Lock, [&]() { return Remaining == 0; });
  return Results;
}
