//===- tools/chaos_sweep.cpp - Seeded chaos harness -----------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Randomized-but-reproducible fault campaigns over the whole stack. One
/// seed deterministically picks a fault family and a schedule, runs a
/// fixed SATLIB workload under injection, and asserts the global
/// robustness invariants the rest of the repo promises piecemeal:
///
///   * the process never crashes, hangs, or leaks a wedged worker;
///   * every submitted job resolves exactly once and the service
///     accounting balances (completed + cancelled + failed == submitted);
///   * snapshots on disk either load clean or degrade to cold misses —
///     a failed save never corrupts the previous snapshot;
///   * once the faults are lifted, outputs are byte-identical to a
///     fault-free baseline.
///
/// Families (seed % 4, or --family): disk (BinaryIO + persistence
/// faults around snapshot save/load/merge), crash (injected worker
/// crashes in the CompileService), hang (injected stuck compiles
/// rescued by the per-job watchdog), net (socket transport faults
/// through a real in-process server).
///
/// The stdout report is a pure function of the seed — same seed, same
/// schedule, same bytes — so CI can diff two runs; timings and other
/// nondeterministic chatter go to stderr. `--verify` is accepted for
/// symmetry with the other drivers; verification is always on.
///
//===----------------------------------------------------------------------===//

#include "baselines/Backend.h"
#include "core/WeaverCompiler.h"
#include "core/pipeline/PassCache.h"
#include "core/service/CompileService.h"
#include "net/Client.h"
#include "net/Server.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace weaver;

namespace {

/// One workload point: a SATLIB instance at one (gamma, beta) angle.
struct Point {
  int Vars = 20;
  int Index = 1;
  double Gamma = 0.3;
  double Beta = 0.2;
};

/// Fixed workload: small enough that a full chaos run stays in seconds,
/// varied enough that cache tiers, dedup, and angle patching all engage.
std::vector<Point> workload() {
  std::vector<Point> W;
  for (int Index = 1; Index <= 3; ++Index)
    for (int P = 0; P < 2; ++P)
      W.push_back(Point{20, Index, 0.30 + 0.10 * P, 0.20 + 0.05 * P});
  return W;
}

qaoa::QaoaParams qaoaFor(const Point &P) {
  qaoa::QaoaParams Q;
  Q.Gamma = P.Gamma;
  Q.Beta = P.Beta;
  return Q;
}

core::CompileRequest requestFor(const Point &P) {
  core::CompileRequest R;
  R.Formula = sat::satlibInstance(P.Vars, P.Index);
  R.Qaoa = qaoaFor(P);
  return R;
}

/// Fault-free reference wQASM for every workload point (direct compile,
/// no service, no cache — the strictest identity baseline).
std::vector<std::string> baselineWqasm(const std::vector<Point> &W) {
  baselines::WeaverBackend Direct;
  std::vector<std::string> Out;
  for (const Point &P : W)
    Out.push_back(qasm::printWqasm(
        Direct.compile(sat::satlibInstance(P.Vars, P.Index), qaoaFor(P))
            .Program->materialize()));
  return Out;
}

bool readFileBytes(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

bool writeFileBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  return static_cast<bool>(Out);
}

/// Deterministic uniform stream for schedule derivation.
struct Uniform {
  explicit Uniform(uint64_t Seed) : SM(Seed) {}
  double operator()() {
    return static_cast<double>(SM.next() >> 11) * 0x1.0p-53;
  }
  SplitMix64 SM;
};

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::printf("INVARIANT VIOLATED: %s\n", What.c_str());
  }
}

void installSpec(uint64_t Seed, const std::string &Sites) {
  std::string Spec = "seed=" + std::to_string(Seed) + ";" + Sites;
  std::printf("schedule: %s\n", Spec.c_str());
  if (Status S = fault::configureGlobal(Spec)) {
    std::fprintf(stderr, "internal error: bad schedule: %s\n",
                 S.message().c_str());
    std::exit(2);
  }
}

// --- disk family ----------------------------------------------------------
//
// Snapshot save/load/merge cycles under injected I/O failure. The file
// under attack starts as a valid snapshot of the full workload; every
// iteration loads it (maybe rejected -> cold), recompiles whatever is
// missing, and tries to save it back (maybe failing at any of the seven
// injected I/O steps). Invariant: with faults lifted, the file is ALWAYS
// a loadable snapshot of exactly the workload entries, byte-identical to
// the reference — a failed save must have left the previous bytes.

int runDisk(uint64_t Seed, const std::vector<Point> &W,
            const std::string &Dir) {
  std::string Target = Dir + "/chaos-disk-" + std::to_string(Seed) + ".bin";
  std::string Scratch = Target + ".scratch";

  // Reference snapshot: the workload compiled cold, saved fault-free.
  core::pipeline::PassCache Ref;
  {
    core::WeaverOptions WOpt;
    WOpt.Cache = &Ref;
    baselines::WeaverBackend B(WOpt);
    for (const Point &P : W)
      B.compile(sat::satlibInstance(P.Vars, P.Index), qaoaFor(P));
    Status S = Ref.saveSnapshot(Target);
    if (S) {
      std::fprintf(stderr, "error: reference save failed: %s\n",
                   S.message().c_str());
      return 1;
    }
  }
  std::string RefBytes;
  if (!readFileBytes(Target, RefBytes)) {
    std::fprintf(stderr, "error: cannot read %s\n", Target.c_str());
    return 1;
  }
  size_t RefEntries = Ref.size();

  Uniform U(Seed);
  auto P = [&U]() { return formatf("p=%.3f", 0.15 + 0.25 * U()); };
  installSpec(Seed, "binio.open:" + P() + ";binio.write.short:" + P() +
                        ";binio.write.enospc:" + P() + ";binio.fsync:" +
                        P() + ";binio.rename:" + P() + ";binio.dirfsync:" +
                        P() + ";binio.mmap.truncate:" + P() +
                        ";persist.save.abort:" + P() +
                        ";persist.load.reject:" + P());

  const int Cycles = 8;
  int SaveFailures = 0, ColdLoads = 0;
  for (int I = 0; I < Cycles; ++I) {
    core::pipeline::PassCache Cache;
    Status LS = Cache.loadSnapshot(Target);
    if (LS || Cache.size() != RefEntries)
      ++ColdLoads; // rejected or truncated: must degrade, not explode
    // Recompile: hits where the load survived, cold misses elsewhere.
    // Either way the cache ends up holding exactly the workload entries.
    core::WeaverOptions WOpt;
    WOpt.Cache = &Cache;
    baselines::WeaverBackend B(WOpt);
    for (const Point &Pt : W)
      B.compile(sat::satlibInstance(Pt.Vars, Pt.Index), qaoaFor(Pt));
    check(Cache.size() == RefEntries,
          "cycle cache holds the full workload entry set");
    if (Cache.saveSnapshot(Target))
      ++SaveFailures;
  }

  // The previous-snapshot-intact invariant, checked fault-free: whatever
  // mix of failed and successful saves ran, the file is a valid snapshot
  // with the reference bytes (every successful save wrote the same entry
  // set; every failed one left its predecessor).
  fault::resetGlobal();
  std::string After;
  check(readFileBytes(Target, After), "snapshot file exists after campaign");
  check(After == RefBytes, "snapshot bytes identical to fault-free run");
  core::pipeline::PassCache Fresh;
  Status FS = Fresh.loadSnapshot(Target);
  check(!FS, "snapshot loads clean once faults are lifted");
  check(Fresh.size() == RefEntries, "snapshot holds the full entry set");

  // Tolerant segment merge: one good segment + one corrupt one. The
  // merge must skip the corrupt input, report it, and still produce the
  // reference bytes from the good one.
  std::string Corrupt = RefBytes;
  Corrupt[Corrupt.size() / 2] ^= 0x40;
  check(writeFileBytes(Scratch, Corrupt), "corrupt segment written");
  std::vector<std::string> Skipped;
  std::string MergeOut = Target + ".merged";
  Status MS = core::pipeline::PassCache::mergeSnapshots(
      {Target, Scratch}, MergeOut, &Skipped);
  check(!MS, "tolerant merge succeeds past a corrupt segment");
  check(Skipped.size() == 1, "exactly the corrupt segment was skipped");
  std::string MergedBytes;
  check(readFileBytes(MergeOut, MergedBytes) && MergedBytes == RefBytes,
        "merged snapshot byte-identical to reference");

  std::printf("disk: %d cycles, %d save failures, %d degraded loads, "
              "%zu entries stable\n",
              Cycles, SaveFailures, ColdLoads, RefEntries);
  std::remove(Target.c_str());
  std::remove(Scratch.c_str());
  std::remove(MergeOut.c_str());
  return 0;
}

// --- crash family ---------------------------------------------------------
//
// Injected worker crashes inside the service. Jobs either complete
// byte-identical to baseline or fail with the injected-crash diagnostic;
// the accounting balances; a fault-free retry of every crashed job
// completes byte-identically — the worker pool survived.

int runCrash(uint64_t Seed, const std::vector<Point> &W,
             const std::vector<std::string> &Baseline) {
  Uniform U(Seed);
  installSpec(Seed, formatf("service.job.crash:p=%.3f", 0.25 + 0.35 * U()));

  core::ServiceOptions SOpt;
  SOpt.NumThreads = 1; // single worker: deterministic site-call order
  core::CompileService Service(SOpt);

  int Crashed = 0;
  std::vector<size_t> Retry;
  for (size_t I = 0; I < W.size(); ++I) {
    auto Out = Service.submit(requestFor(W[I])).wait();
    if (Out->State == core::JobState::Completed) {
      check(Out->Wqasm == Baseline[I],
            "completed job byte-identical under crash injection");
    } else {
      check(Out->State == core::JobState::Failed &&
                Out->Diagnostic == "worker crashed (injected fault)",
            "non-completed job carries the injected-crash diagnostic");
      ++Crashed;
      Retry.push_back(I);
    }
  }

  fault::resetGlobal();
  for (size_t I : Retry) {
    auto Out = Service.submit(requestFor(W[I])).wait();
    check(Out->State == core::JobState::Completed &&
              Out->Wqasm == Baseline[I],
          "crashed job retries to a byte-identical completion");
  }

  core::CompileService::ServiceStats S = Service.stats();
  check(S.Submitted == S.Completed + S.Cancelled + S.Failed,
        "accounting balances: every submission resolved exactly once");
  check(S.Failed == static_cast<uint64_t>(Crashed),
        "failed count equals injected crashes");
  std::printf("crash: %zu jobs, %d crashed, %zu retried, accounting "
              "%llu == %llu+%llu+%llu\n",
              W.size(), Crashed, Retry.size(),
              static_cast<unsigned long long>(S.Submitted),
              static_cast<unsigned long long>(S.Completed),
              static_cast<unsigned long long>(S.Cancelled),
              static_cast<unsigned long long>(S.Failed));
  return 0;
}

// --- hang family ----------------------------------------------------------
//
// Injected stuck compiles (in the service and between pipeline passes),
// rescued by the per-job watchdog: a hung job resolves Failed exactly
// once with the watchdog diagnostic, the worker survives to take the
// next job, and fault-free retries are byte-identical.

int runHang(uint64_t Seed, const std::vector<Point> &W,
            const std::vector<std::string> &Baseline) {
  Uniform U(Seed);
  int Every = 2 + static_cast<int>(U() * 2.0);     // hang every 2nd..3rd job
  int PipeAfter = static_cast<int>(U() * 6.0);     // one mid-pipeline hang
  installSpec(Seed,
              formatf("service.job.hang:every=%d,delay_ms=10000;"
                      "pipeline.hang:after=%d,count=1,delay_ms=10000",
                      Every, PipeAfter));

  core::ServiceOptions SOpt;
  SOpt.NumThreads = 1;
  SOpt.WatchdogSeconds = 0.15; // rescue budget well under the 10 s stall
  core::CompileService Service(SOpt);

  int TimedOut = 0;
  std::vector<size_t> Retry;
  for (size_t I = 0; I < W.size(); ++I) {
    auto Out = Service.submit(requestFor(W[I])).wait();
    if (Out->State == core::JobState::Completed) {
      check(Out->Wqasm == Baseline[I],
            "completed job byte-identical under hang injection");
    } else {
      check(Out->State == core::JobState::Failed && Out->WatchdogTimedOut &&
                startsWith(Out->Diagnostic, "watchdog:"),
            "hung job resolved Failed by the watchdog");
      ++TimedOut;
      Retry.push_back(I);
    }
  }

  // The worker survived every rescue: with faults lifted, the same
  // service completes every previously hung job byte-identically.
  fault::resetGlobal();
  for (size_t I : Retry) {
    auto Out = Service.submit(requestFor(W[I])).wait();
    check(Out->State == core::JobState::Completed &&
              Out->Wqasm == Baseline[I],
          "hung job retries to a byte-identical completion");
  }

  core::CompileService::ServiceStats S = Service.stats();
  check(S.Submitted == S.Completed + S.Cancelled + S.Failed,
        "accounting balances: every submission resolved exactly once");
  check(S.WatchdogTimeouts == static_cast<uint64_t>(TimedOut),
        "watchdog timeout counter matches observed rescues");
  std::printf("hang: %zu jobs, %d rescued by watchdog, %zu retried, "
              "accounting %llu == %llu+%llu+%llu\n",
              W.size(), TimedOut, Retry.size(),
              static_cast<unsigned long long>(S.Submitted),
              static_cast<unsigned long long>(S.Completed),
              static_cast<unsigned long long>(S.Cancelled),
              static_cast<unsigned long long>(S.Failed));
  return 0;
}

// --- net family -----------------------------------------------------------
//
// Transport faults through a real in-process server: partial writes,
// delayed and truncated reads, the occasional injected kill. The client
// reconnects and retries; every verified response must be byte-identical
// to the direct compile. Fault decisions interleave with real socket
// timing, so the report prints only the (deterministic) verification
// verdict, not fault counters.

int runNet(uint64_t Seed, const std::vector<Point> &W,
           const std::vector<std::string> &Baseline) {
  Uniform U(Seed);
  // Braced-list elements evaluate in order, so the three draws keep their
  // partial/delay/kill sequence.
  fault::Config Faults{Seed,
                       {{"net.write.partial", 0.30 + 0.30 * U()},
                        {"net.read.delay", 0.20 + 0.20 * U()},
                        {"net.kill", 0.02 * U()}}};
  std::printf("schedule: seed=%llu;net.write.partial:p=%.3f;"
              "net.read.delay:p=%.3f;net.kill:p=%.3f\n",
              static_cast<unsigned long long>(Seed),
              Faults.Sites[0].Probability, Faults.Sites[1].Probability,
              Faults.Sites[2].Probability);
  // Installed with full-precision probabilities, not the printed
  // three-digit ones; main() resets the global engine afterwards.
  fault::configureGlobal(std::move(Faults));

  net::ServerOptions SrvOpt;
  SrvOpt.Service.NumThreads = 1;
  net::Server Server(SrvOpt);
  if (Status S = Server.start()) {
    std::fprintf(stderr, "error: server start: %s\n", S.message().c_str());
    return 1;
  }
  Status RunStatus;
  std::thread Loop([&]() { RunStatus = Server.run(); });

  net::ClientOptions COpt;
  COpt.Port = Server.port();
  COpt.Seed = Seed;
  net::Client Client(COpt);

  size_t Verified = 0;
  for (size_t I = 0; I < W.size(); ++I) {
    net::CompileFrame F;
    F.RequestId = I + 1;
    F.NumVars = W[I].Vars;
    F.Index = W[I].Index;
    F.Gamma = W[I].Gamma;
    F.Beta = W[I].Beta;
    // An injected kill drops the connection mid-request; reconnect and
    // resubmit (the request is idempotent) a bounded number of times.
    bool Done = false;
    for (int Attempt = 0; Attempt < 10 && !Done; ++Attempt) {
      if (!Client.connected() && Client.connect())
        continue;
      Expected<net::ResultFrame> R = Client.compileSync(F);
      if (!R)
        continue; // transport fault: reconnect on the next attempt
      check(R->Code == net::ResponseCode::Ok,
            "response is Ok for a feasible request");
      if (R->Code == net::ResponseCode::Ok) {
        check(R->Wqasm == Baseline[I],
              "served wQASM byte-identical to direct compile");
        if (R->Wqasm == Baseline[I])
          ++Verified;
      }
      Done = true;
    }
    check(Done, "request eventually served despite transport faults");
  }

  Server.requestStop();
  Loop.join();
  check(!RunStatus, "server drained cleanly");
  std::printf("net: %zu/%zu responses verified byte-identical\n", Verified,
              W.size());
  return 0;
}

const char *Usage =
    "usage: chaos_sweep --seed S [--family disk|crash|hang|net] "
    "[--dir PATH] [--verify]\n";

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Seed = 1;
  std::string Family;
  std::string Dir = ".";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : "";
    };
    if (Arg == "--seed") {
      Expected<long long> V = parseInt(Next(), 0, (1LL << 62));
      if (!V) {
        std::fprintf(stderr, "error: --seed: %s\n%s", V.message().c_str(),
                     Usage);
        return 1;
      }
      Seed = static_cast<uint64_t>(*V);
    } else if (Arg == "--family")
      Family = Next();
    else if (Arg == "--dir")
      Dir = Next();
    else if (Arg == "--verify")
      ; // verification is always on; accepted for driver symmetry
    else {
      std::fprintf(stderr, "%s", Usage);
      return Arg == "--help" ? 0 : 1;
    }
  }

  static const char *const Families[] = {"disk", "crash", "hang", "net"};
  if (Family.empty())
    Family = Families[Seed % 4];

  std::vector<Point> W = workload();
  std::printf("chaos seed=%llu family=%s jobs=%zu\n",
              static_cast<unsigned long long>(Seed), Family.c_str(),
              W.size());
  std::vector<std::string> Baseline = baselineWqasm(W);

  fault::resetGlobal(); // chaos schedules only; ignore ambient WEAVER_FAULTS
  int Rc;
  if (Family == "disk")
    Rc = runDisk(Seed, W, Dir);
  else if (Family == "crash")
    Rc = runCrash(Seed, W, Baseline);
  else if (Family == "hang")
    Rc = runHang(Seed, W, Baseline);
  else if (Family == "net")
    Rc = runNet(Seed, W, Baseline);
  else {
    std::fprintf(stderr, "error: unknown family '%s'\n%s", Family.c_str(),
                 Usage);
    return 1;
  }
  fault::resetGlobal();
  if (Rc != 0)
    return Rc;
  if (Failures) {
    std::printf("CHAOS FAIL seed %llu: %d invariant violation(s)\n",
                static_cast<unsigned long long>(Seed), Failures);
    return 1;
  }
  std::printf("CHAOS OK seed %llu\n", static_cast<unsigned long long>(Seed));
  return 0;
}
