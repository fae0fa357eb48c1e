//===- tests/service_test.cpp - CompileService unit tests -----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The CompileService contract: jobs resolve exactly once to a terminal
/// state; cancellation works before dequeue, between pipeline passes, and
/// is a no-op after completion, never leaking cache entries; identical
/// in-flight requests coalesce onto one compile and only cancel when every
/// waiter votes; shutdown drains or cancels but always resolves; and the
/// WorkerPool underneath honours priorities, its queue bound, and both
/// shutdown modes. Service output is pinned byte-identical to direct
/// compiles (the full grid lives in tests/differential_test.cpp).
///
//===----------------------------------------------------------------------===//

#include "core/CompileBatch.h"
#include "core/WorkerPool.h"
#include "core/service/CompileService.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>

using namespace weaver;
using namespace weaver::core;

namespace {

/// Wait bound for anything asynchronous; far above any real compile so a
/// hit means a lost wakeup or deadlock, not a slow machine.
constexpr double WaitSeconds = 120.0;

sat::CnfFormula uf(int Vars, int Index) {
  return sat::satlibInstance(Vars, Index);
}

CompileRequest weaverJob(int Vars, int Index, int Priority = 0) {
  CompileRequest R;
  R.Formula = uf(Vars, Index);
  R.Kind = baselines::BackendKind::Weaver;
  R.Priority = Priority;
  return R;
}

JobOutcome waitOrDie(const CompileService::JobHandle &H) {
  std::shared_ptr<const JobOutcome> Out = H.waitFor(WaitSeconds);
  EXPECT_TRUE(Out) << "job did not resolve";
  return Out ? *Out : JobOutcome();
}

/// A single-worker service whose worker is pinned on a long job, so
/// everything submitted afterwards is deterministically still queued.
/// The blocker is a uf150 compile (tens of milliseconds); the queue
/// operations behind it take microseconds.
class BlockedService {
public:
  explicit BlockedService(ServiceOptions Opt = ServiceOptions()) {
    Opt.NumThreads = 1;
    Service.emplace(Opt);
    Blocker = Service->submit(weaverJob(150, 1, /*Priority=*/100));
  }
  CompileService &operator*() { return *Service; }
  CompileService *operator->() { return &*Service; }
  JobOutcome finishBlocker() { return waitOrDie(Blocker); }

private:
  std::optional<CompileService> Service;
  CompileService::JobHandle Blocker;
};

} // namespace

// --- WorkerPool ----------------------------------------------------------

TEST(WorkerPool, PrioritiesRunHighFirstTiesInSubmissionOrder) {
  PoolOptions Opt;
  Opt.NumThreads = 1;
  WorkerPool Pool(Opt);

  // Gate the single worker so the queue orders deterministically.
  std::promise<void> Gate;
  std::shared_future<void> Opened = Gate.get_future().share();
  ASSERT_TRUE(Pool.post([Opened]() { Opened.wait(); }));

  std::mutex M;
  std::vector<int> Order;
  auto Record = [&](int Tag) {
    std::lock_guard<std::mutex> Lock(M);
    Order.push_back(Tag);
  };
  ASSERT_TRUE(Pool.post([&]() { Record(1); }, /*Priority=*/0));
  ASSERT_TRUE(Pool.post([&]() { Record(2); }, /*Priority=*/5));
  ASSERT_TRUE(Pool.post([&]() { Record(3); }, /*Priority=*/5));
  ASSERT_TRUE(Pool.post([&]() { Record(4); }, /*Priority=*/-1));
  ASSERT_TRUE(Pool.post([&]() { Record(5); }, /*Priority=*/0));

  Gate.set_value();
  Pool.shutdown(/*Drain=*/true);
  EXPECT_EQ(Order, (std::vector<int>{2, 3, 1, 5, 4}));
}

TEST(WorkerPool, BoundedQueueBlocksPostUntilSpace) {
  PoolOptions Opt;
  Opt.NumThreads = 1;
  Opt.QueueCapacity = 1;
  WorkerPool Pool(Opt);

  std::promise<void> Gate;
  std::shared_future<void> Opened = Gate.get_future().share();
  ASSERT_TRUE(Pool.post([Opened]() { Opened.wait(); })); // occupies worker
  ASSERT_TRUE(Pool.post([]() {}));                       // fills the queue

  std::atomic<bool> ThirdPosted{false};
  std::thread Poster([&]() {
    EXPECT_TRUE(Pool.post([]() {}));
    ThirdPosted.store(true);
  });
  // The third post must block on the full queue while the gate is shut.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(ThirdPosted.load());

  Gate.set_value();
  Poster.join();
  EXPECT_TRUE(ThirdPosted.load());
  Pool.shutdown(/*Drain=*/true);
}

TEST(WorkerPool, ShutdownDrainRunsQueuedDiscardDropsThem) {
  for (bool Drain : {true, false}) {
    PoolOptions Opt;
    Opt.NumThreads = 1;
    WorkerPool Pool(Opt);
    std::promise<void> Gate;
    std::shared_future<void> Opened = Gate.get_future().share();
    ASSERT_TRUE(Pool.post([Opened]() { Opened.wait(); }));
    std::atomic<int> Ran{0};
    for (int I = 0; I < 4; ++I)
      ASSERT_TRUE(Pool.post([&]() { ++Ran; }));
    // Open the gate only after shutdown has latched its mode, so the
    // worker deterministically sees Stopping/Discarding when it returns
    // to the queue.
    std::thread Opener([&]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      Gate.set_value();
    });
    Pool.shutdown(Drain);
    Opener.join();
    EXPECT_EQ(Ran.load(), Drain ? 4 : 0);
    EXPECT_FALSE(Pool.post([]() {})); // post after shutdown is refused
  }
}

TEST(WorkerPool, BatchCompilerSharesAnInjectedPool) {
  std::vector<sat::CnfFormula> Batch;
  for (int I = 1; I <= 6; ++I)
    Batch.push_back(uf(20, I));

  baselines::WeaverBackend Backend;
  std::vector<baselines::BaselineResult> Direct;
  for (const sat::CnfFormula &F : Batch)
    Direct.push_back(Backend.compile(F, {}).Metrics);

  // Batch slots and service jobs interleave on the service's own pool.
  ServiceOptions Opt;
  Opt.NumThreads = 2;
  CompileService Service(Opt);
  std::vector<CompileService::JobHandle> Jobs;
  for (int I = 1; I <= 3; ++I)
    Jobs.push_back(Service.submit(weaverJob(20, I)));
  std::vector<baselines::BaselineResult> Pooled =
      compileBatch(Backend, Batch, {}, Service.pool());
  for (const CompileService::JobHandle &H : Jobs)
    EXPECT_EQ(waitOrDie(H).State, JobState::Completed);

  // Once the pool refuses tasks, every slot is compiled inline.
  Service.shutdown();
  std::vector<baselines::BaselineResult> Inline =
      compileBatch(Backend, Batch, {}, Service.pool());

  for (const auto *Results : {&Pooled, &Inline}) {
    ASSERT_EQ(Results->size(), Direct.size());
    for (size_t I = 0; I < Direct.size(); ++I) {
      EXPECT_EQ((*Results)[I].Pulses, Direct[I].Pulses) << I;
      EXPECT_EQ((*Results)[I].ExecutionSeconds, Direct[I].ExecutionSeconds)
          << I;
      EXPECT_EQ((*Results)[I].Eps, Direct[I].Eps) << I;
    }
  }
}

// --- Basic service lifecycle ---------------------------------------------

TEST(CompileService, CompletesJobByteIdenticalToDirectCompile) {
  ServiceOptions Opt;
  Opt.NumThreads = 2;
  CompileService Service(Opt);
  CompileService::JobHandle H = Service.submit(weaverJob(20, 1));
  JobOutcome Out = waitOrDie(H);
  EXPECT_EQ(Out.State, JobState::Completed);
  EXPECT_TRUE(Out.Metrics.usable());
  EXPECT_GT(Out.Metrics.Pulses, 0u);
  EXPECT_FALSE(Out.Wqasm.empty());

  baselines::WeaverBackend Direct;
  baselines::CompileOutput Ref = Direct.compile(uf(20, 1), qaoa::QaoaParams());
  ASSERT_TRUE(Ref.Program.has_value());
  EXPECT_EQ(Out.Wqasm, qasm::printWqasm(Ref.Program->materialize()));
  EXPECT_EQ(Out.Metrics.Pulses, Ref.Metrics.Pulses);
  EXPECT_EQ(Out.Metrics.Eps, Ref.Metrics.Eps);
}

TEST(CompileService, CallbackFiresExactlyOnce) {
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  CompileService Service(Opt);
  std::promise<JobOutcome> Delivered;
  std::atomic<int> Fired{0};
  Service.submit(weaverJob(20, 2), [&](const JobOutcome &O) {
    if (++Fired == 1)
      Delivered.set_value(O);
  });
  auto Future = Delivered.get_future();
  ASSERT_EQ(Future.wait_for(std::chrono::duration<double>(WaitSeconds)),
            std::future_status::ready);
  EXPECT_EQ(Future.get().State, JobState::Completed);
  Service.shutdown();
  EXPECT_EQ(Fired.load(), 1);
}

TEST(CompileService, PriorityJobsOvertakeTheQueue) {
  BlockedService Service;
  // Queued behind the blocker: low priority submitted first, then high.
  // The single worker resolves jobs one at a time, so the completion
  // order it produces is deterministic: high must beat low.
  std::mutex M;
  std::vector<int> Order;
  auto Tag = [&](int T) {
    return [&, T](const JobOutcome &) {
      std::lock_guard<std::mutex> Lock(M);
      Order.push_back(T);
    };
  };
  CompileService::JobHandle Low =
      Service->submit(weaverJob(20, 1, 0), Tag(0));
  CompileService::JobHandle High =
      Service->submit(weaverJob(20, 2, 10), Tag(1));
  EXPECT_EQ(waitOrDie(High).State, JobState::Completed);
  EXPECT_EQ(waitOrDie(Low).State, JobState::Completed);
  Service->shutdown();
  std::lock_guard<std::mutex> Lock(M);
  EXPECT_EQ(Order, (std::vector<int>{1, 0}));
}

// --- Cancellation --------------------------------------------------------

TEST(CompileService, CancelBeforeDequeueResolvesCancelledAndLeaksNothing) {
  BlockedService Service;
  size_t CacheBefore = Service->cache()->size();
  // Priority -1 pins the victim behind everything else in the queue.
  CompileService::JobHandle Victim = Service->submit(weaverJob(20, 3, -1));
  CompileService::JobHandle Bystander = Service->submit(weaverJob(20, 4));
  Victim.cancel();

  JobOutcome Out = waitOrDie(Victim);
  EXPECT_EQ(Out.State, JobState::Cancelled);
  EXPECT_EQ(Out.Diagnostic.rfind(CancelledDiagnostic, 0), 0u);
  EXPECT_TRUE(Out.Wqasm.empty());

  // Later jobs are unaffected and the cancelled job inserted nothing.
  EXPECT_EQ(waitOrDie(Bystander).State, JobState::Completed);
  Service.finishBlocker();
  Service->shutdown();
  CompileService::ServiceStats S = Service->stats();
  EXPECT_EQ(S.Cancelled, 1u);
  EXPECT_EQ(S.Completed, 2u); // blocker + bystander
  // The victim never started: only the blocker and the bystander compiled
  // (and touched the cache).
  EXPECT_EQ(S.CompilesStarted, 2u);
  EXPECT_GE(Service->cache()->size(), CacheBefore);
}

TEST(CompileService, CancelMidPipelineAbortsBetweenPassesWithoutCacheEntries) {
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  CompileService Service(Opt);

  // Self-cancel at the 4th checkpoint: colouring, zone planning, and
  // shuttle scheduling run; the job dies before gate lowering.
  CompileRequest R = weaverJob(50, 1);
  R.CancelAtCheckpoint = 4;
  JobOutcome Out = waitOrDie(Service.submit(R));
  EXPECT_EQ(Out.State, JobState::Cancelled);
  EXPECT_EQ(Out.Diagnostic.rfind(CancelledDiagnostic, 0), 0u);
  // The compile genuinely started (unlike a queue cancellation)...
  EXPECT_EQ(Service.stats().CompilesStarted, 1u);
  // ...but a cancelled pipeline publishes nothing into the cache.
  EXPECT_EQ(Service.cache()->size(), 0u);

  // Later jobs on the same formula are unaffected and repopulate it.
  JobOutcome Again = waitOrDie(Service.submit(weaverJob(50, 1)));
  EXPECT_EQ(Again.State, JobState::Completed);
  EXPECT_GT(Service.cache()->size(), 0u);
  EXPECT_EQ(Service.stats().Cancelled, 1u);
  EXPECT_EQ(Service.stats().Completed, 1u);
}

TEST(CompileService, CancelAfterCompletionIsANoOp) {
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  CompileService Service(Opt);
  CompileService::JobHandle H = Service.submit(weaverJob(20, 5));
  JobOutcome Out = waitOrDie(H);
  ASSERT_EQ(Out.State, JobState::Completed);
  H.cancel();
  H.cancel(); // idempotent per handle too
  EXPECT_EQ(H.state(), JobState::Completed);
  EXPECT_EQ(waitOrDie(H).State, JobState::Completed);
  EXPECT_EQ(Service.stats().Cancelled, 0u);
  EXPECT_EQ(Service.stats().Completed, 1u);
}

TEST(CompileService, InfeasibleCompileResolvesFailedWithDiagnostic) {
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  CompileService Service(Opt);
  // A clause wider than three literals is malformed for every compiler.
  CompileRequest R;
  R.Formula = sat::CnfFormula(5, {sat::Clause{1, 2, 3, 4}});
  JobOutcome Out = waitOrDie(Service.submit(R));
  EXPECT_EQ(Out.State, JobState::Failed);
  EXPECT_FALSE(Out.Diagnostic.empty());
  EXPECT_TRUE(Out.Wqasm.empty());
  EXPECT_EQ(Service.stats().Failed, 1u);
  EXPECT_EQ(Service.stats().Completed, 0u);
}

// --- Deduplication -------------------------------------------------------

TEST(CompileService, IdenticalInFlightRequestsCoalesce) {
  BlockedService Service;
  CompileService::JobHandle First = Service->submit(weaverJob(20, 6));
  CompileService::JobHandle Second = Service->submit(weaverJob(20, 6));
  CompileService::JobHandle Different = Service->submit(weaverJob(20, 7));
  EXPECT_FALSE(First.coalesced());
  EXPECT_TRUE(Second.coalesced());
  EXPECT_FALSE(Different.coalesced());
  EXPECT_EQ(First.id(), Second.id());

  JobOutcome A = waitOrDie(First), B = waitOrDie(Second);
  EXPECT_EQ(A.State, JobState::Completed);
  EXPECT_EQ(B.State, JobState::Completed);
  EXPECT_EQ(A.Wqasm, B.Wqasm);
  EXPECT_FALSE(First.coalesced());
  EXPECT_TRUE(Second.coalesced());
  EXPECT_EQ(waitOrDie(Different).State, JobState::Completed);

  Service.finishBlocker();
  CompileService::ServiceStats S = Service->stats();
  EXPECT_EQ(S.Coalesced, 1u);
  // blocker + uf20-6 (once) + uf20-7: the coalesced submit never compiled.
  EXPECT_EQ(S.CompilesStarted, 3u);
}

TEST(CompileService, CoalescedHandlesShareOneOutcome) {
  BlockedService Service;
  CompileService::JobHandle First = Service->submit(weaverJob(20, 12));
  CompileService::JobHandle Second = Service->submit(weaverJob(20, 12));
  ASSERT_TRUE(Second.coalesced());

  std::shared_ptr<const JobOutcome> A = First.waitFor(WaitSeconds);
  std::shared_ptr<const JobOutcome> B = Second.waitFor(WaitSeconds);
  ASSERT_TRUE(A && B) << "job did not resolve";
  EXPECT_EQ(A.get(), B.get()); // one object: no per-waiter text copy
  EXPECT_EQ(First.wait().get(), A.get());
  EXPECT_EQ(A->State, JobState::Completed);
  EXPECT_FALSE(A->Wqasm.empty());

  // The outcome outlives every handle on its job.
  std::shared_ptr<const JobOutcome> Kept =
      Service->submit(weaverJob(20, 13)).waitFor(WaitSeconds);
  ASSERT_TRUE(Kept) << "job did not resolve";
  EXPECT_EQ(Kept->State, JobState::Completed);
  EXPECT_FALSE(Kept->Wqasm.empty());

  // Invalid handles share one Failed outcome.
  CompileService::JobHandle Invalid;
  EXPECT_EQ(Invalid.wait()->State, JobState::Failed);
  EXPECT_EQ(Invalid.wait().get(), Invalid.waitFor(0).get());
}

TEST(CompileService, DifferentAnglesDoNotCoalesce) {
  BlockedService Service;
  CompileRequest A = weaverJob(20, 8);
  CompileRequest B = weaverJob(20, 8);
  B.Qaoa.Gamma = A.Qaoa.Gamma + 0.1;
  CompileService::JobHandle HA = Service->submit(A);
  CompileService::JobHandle HB = Service->submit(B);
  EXPECT_FALSE(HB.coalesced());
  EXPECT_NE(HA.id(), HB.id());
  EXPECT_EQ(waitOrDie(HA).State, JobState::Completed);
  EXPECT_EQ(waitOrDie(HB).State, JobState::Completed);
}

TEST(CompileService, CoalescedJobCancelsOnlyWhenEveryWaiterVotes) {
  BlockedService Service;
  // Pair 1: one of two waiters cancels -> the compile must survive.
  CompileService::JobHandle A1 = Service->submit(weaverJob(20, 9, -1));
  CompileService::JobHandle A2 = Service->submit(weaverJob(20, 9, -1));
  ASSERT_TRUE(A2.coalesced());
  A1.cancel();
  // Pair 2: both waiters cancel -> the job dies in the queue.
  CompileService::JobHandle B1 = Service->submit(weaverJob(20, 10, -1));
  CompileService::JobHandle B2 = Service->submit(weaverJob(20, 10, -1));
  ASSERT_TRUE(B2.coalesced());
  B1.cancel();
  B2.cancel();

  EXPECT_EQ(waitOrDie(A1).State, JobState::Completed);
  EXPECT_EQ(waitOrDie(A2).State, JobState::Completed);
  EXPECT_EQ(waitOrDie(B1).State, JobState::Cancelled);
  EXPECT_EQ(waitOrDie(B2).State, JobState::Cancelled);
}

TEST(CompileService, CancelRequestedJobLeavesTheDedupIndex) {
  BlockedService Service;
  CompileService::JobHandle Doomed = Service->submit(weaverJob(20, 11, -1));
  Doomed.cancel();
  ASSERT_EQ(waitOrDie(Doomed).State, JobState::Cancelled);
  // An identical new request must start fresh, not join the corpse.
  CompileService::JobHandle Fresh = Service->submit(weaverJob(20, 11, -1));
  EXPECT_FALSE(Fresh.coalesced());
  EXPECT_EQ(waitOrDie(Fresh).State, JobState::Completed);
}

// --- Shutdown ------------------------------------------------------------

TEST(CompileService, ShutdownDrainCompletesEverything) {
  ServiceOptions Opt;
  Opt.NumThreads = 2;
  CompileService Service(Opt);
  std::vector<CompileService::JobHandle> Handles;
  for (int I = 1; I <= 6; ++I)
    Handles.push_back(Service.submit(weaverJob(20, I)));
  Service.shutdown(/*Drain=*/true);
  for (CompileService::JobHandle &H : Handles)
    EXPECT_EQ(waitOrDie(H).State, JobState::Completed);
  EXPECT_EQ(Service.stats().Completed, 6u);
}

TEST(CompileService, ShutdownCancelResolvesQueuedJobsAsCancelled) {
  BlockedService Service;
  std::vector<CompileService::JobHandle> Queued;
  for (int I = 1; I <= 5; ++I)
    Queued.push_back(Service->submit(weaverJob(20, I, -1)));
  Service->shutdown(/*Drain=*/false);
  for (CompileService::JobHandle &H : Queued)
    EXPECT_EQ(waitOrDie(H).State, JobState::Cancelled);
  // The blocker either finished or aborted at a checkpoint, but resolved.
  JobOutcome B = Service.finishBlocker();
  EXPECT_TRUE(B.State == JobState::Completed ||
              B.State == JobState::Cancelled);

  // Submissions after shutdown are rejected but still resolve + call back.
  std::atomic<int> Fired{0};
  CompileService::JobHandle Late = Service->submit(
      weaverJob(20, 12), [&](const JobOutcome &) { ++Fired; });
  JobOutcome LateOut = waitOrDie(Late);
  EXPECT_EQ(LateOut.State, JobState::Failed);
  EXPECT_EQ(Fired.load(), 1);
  EXPECT_EQ(Service->stats().Failed, 1u);
}

// --- Reporting -----------------------------------------------------------

TEST(CompileService, StatsAndTablesReflectOutcomes) {
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  CompileService Service(Opt);
  JobOutcome First = waitOrDie(Service.submit(weaverJob(20, 1)));
  JobOutcome Second = waitOrDie(Service.submit(weaverJob(20, 1)));
  EXPECT_EQ(First.Tier, CacheTier::None);
  EXPECT_EQ(Second.Tier, CacheTier::Program);
  CompileService::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, 2u);
  EXPECT_EQ(S.Completed, 2u);
  EXPECT_GT(S.TotalCompileSeconds, 0.0);
  EXPECT_GE(S.MaxQueueSeconds, 0.0);
  // Identical request, sequential: the second run is a program-tier hit.
  EXPECT_EQ(S.ProgramTierHits, 1u);

  std::string Aggregate = Service.statsTable().render();
  EXPECT_NE(Aggregate.find("jobs submitted"), std::string::npos);
  EXPECT_NE(Aggregate.find("cache hits program tier"), std::string::npos);
}

// --- Watchdog and fault injection ----------------------------------------

namespace {
/// Guarantees the process-global fault engine is disabled on scope exit,
/// whatever the test body did (the engine outlives the test otherwise).
struct FaultGuard {
  ~FaultGuard() { fault::resetGlobal(); }
};
} // namespace

TEST(CompileService, WatchdogRescuesHungJobExactlyOnce) {
  // An injected hang (a worker stuck mid-job for far longer than the
  // budget) resolves Failed exactly once with the watchdog diagnostic —
  // and the worker thread survives to complete the next job.
  FaultGuard Guard;
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  CompileService Service(Opt);

  ASSERT_FALSE(fault::configureGlobal(
      "seed=1;service.job.hang:count=1,delay_ms=30000"));
  CompileRequest Hung = weaverJob(20, 1);
  Hung.WatchdogSeconds = 0.15; // per-job budget, well under the stall
  std::atomic<int> Fired{0};
  JobOutcome Out = waitOrDie(
      Service.submit(Hung, [&](const JobOutcome &) { ++Fired; }));

  EXPECT_EQ(Out.State, JobState::Failed);
  EXPECT_TRUE(Out.WatchdogTimedOut);
  EXPECT_TRUE(startsWith(Out.Diagnostic, "watchdog:")) << Out.Diagnostic;
  EXPECT_GE(Out.CompileSeconds, 0.15) << "rescue cannot beat the budget";

  // The rescued worker takes the next job (hang budget spent: count=1).
  JobOutcome Next = waitOrDie(Service.submit(weaverJob(20, 2)));
  EXPECT_EQ(Next.State, JobState::Completed);

  Service.shutdown();
  EXPECT_EQ(Fired.load(), 1) << "watchdog and compile double-resolved";
  CompileService::ServiceStats S = Service.stats();
  EXPECT_EQ(S.WatchdogTimeouts, 1u);
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.Submitted, S.Completed + S.Cancelled + S.Failed);
  EXPECT_NE(Service.statsTable().render().find("watchdog timeouts"),
            std::string::npos);
}

TEST(CompileService, WatchdogRescuesMidPipelineHang) {
  // Same rescue when the stall is between pipeline passes: the watchdog
  // cancels the job's token and the injected hang converts to a prompt
  // cooperative abort instead of sleeping out its cap.
  FaultGuard Guard;
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  Opt.WatchdogSeconds = 0.15; // service-wide default budget
  CompileService Service(Opt);

  ASSERT_FALSE(fault::configureGlobal(
      "seed=1;pipeline.hang:count=1,delay_ms=30000"));
  auto Begin = std::chrono::steady_clock::now();
  JobOutcome Out = waitOrDie(Service.submit(weaverJob(20, 1)));
  double Elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Begin)
                       .count();

  EXPECT_EQ(Out.State, JobState::Failed);
  EXPECT_TRUE(Out.WatchdogTimedOut);
  EXPECT_LT(Elapsed, 20.0) << "hang must not sleep out its 30 s cap";

  JobOutcome Next = waitOrDie(Service.submit(weaverJob(20, 2)));
  EXPECT_EQ(Next.State, JobState::Completed);
}

TEST(CompileService, WatchdogBudgetCountsCompileTimeNotQueueWait) {
  // The budget clock starts when the compile starts, not at submission:
  // a fast job that waited behind a hung one must still complete even
  // though its wall-clock wait exceeded the budget.
  FaultGuard Guard;
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  Opt.WatchdogSeconds = 0.2;
  CompileService Service(Opt);

  ASSERT_FALSE(fault::configureGlobal(
      "seed=1;service.job.hang:count=1,delay_ms=30000"));
  CompileService::JobHandle Hung = Service.submit(weaverJob(20, 1));
  // Queued behind the hang; its queue wait is ~the 0.2 s rescue budget.
  CompileService::JobHandle Fast = Service.submit(weaverJob(20, 2));

  EXPECT_EQ(waitOrDie(Hung).State, JobState::Failed);
  JobOutcome Out = waitOrDie(Fast);
  EXPECT_EQ(Out.State, JobState::Completed);
  EXPECT_FALSE(Out.WatchdogTimedOut);
}

TEST(CompileService, WatchdogIdleOnFastJobs) {
  // A generous budget never fires on healthy jobs.
  FaultGuard Guard;
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  Opt.WatchdogSeconds = 30.0;
  CompileService Service(Opt);
  JobOutcome Out = waitOrDie(Service.submit(weaverJob(20, 1)));
  EXPECT_EQ(Out.State, JobState::Completed);
  EXPECT_FALSE(Out.WatchdogTimedOut);
  EXPECT_EQ(Service.stats().WatchdogTimeouts, 0u);
}

TEST(CompileService, InjectedWorkerCrashResolvesFailedAndPoolSurvives) {
  // A simulated worker crash resolves the job Failed with the injected
  // diagnostic; the pool keeps serving and the accounting balances.
  FaultGuard Guard;
  ServiceOptions Opt;
  Opt.NumThreads = 1;
  CompileService Service(Opt);

  ASSERT_FALSE(fault::configureGlobal("seed=1;service.job.crash:count=1"));
  JobOutcome Out = waitOrDie(Service.submit(weaverJob(20, 1)));
  EXPECT_EQ(Out.State, JobState::Failed);
  EXPECT_EQ(Out.Diagnostic, "worker crashed (injected fault)");
  EXPECT_FALSE(Out.WatchdogTimedOut);

  JobOutcome Next = waitOrDie(Service.submit(weaverJob(20, 1)));
  EXPECT_EQ(Next.State, JobState::Completed);
  CompileService::ServiceStats S = Service.stats();
  EXPECT_EQ(S.Submitted, S.Completed + S.Cancelled + S.Failed);
  EXPECT_EQ(S.Failed, 1u);
  EXPECT_EQ(S.WatchdogTimeouts, 0u);
}

TEST(CompileService, ShutdownWithArmedWatchdogIsClean) {
  // Shutdown while watchdog deadlines are outstanding (healthy jobs,
  // generous budgets) must not fire spurious timeouts or deadlock.
  FaultGuard Guard;
  ServiceOptions Opt;
  Opt.NumThreads = 2;
  Opt.WatchdogSeconds = 60.0;
  CompileService Service(Opt);
  std::vector<CompileService::JobHandle> Handles;
  for (int I = 1; I <= 4; ++I)
    Handles.push_back(Service.submit(weaverJob(20, I)));
  Service.shutdown(/*Drain=*/true);
  for (const auto &H : Handles)
    EXPECT_EQ(waitOrDie(H).State, JobState::Completed);
  EXPECT_EQ(Service.stats().WatchdogTimeouts, 0u);
}
