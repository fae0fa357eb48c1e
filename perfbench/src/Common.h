//===- perfbench/src/Common.h - Shared benchmark machinery -----*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the span
/// tracer, the metric report, the per-phase measurement record, the
/// correctness gate's log, and process probes (peak RSS, CPU time).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "core/WeaverCompiler.h"
#include "core/pipeline/PassCache.h"
#include "sat/Cnf.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}
inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

// --- Tracing ----------------------------------------------------------------

/// One recorded layer call. Times are nanoseconds since the tracer's
/// epoch; Parent indexes the same thread buffer (-1 for a root).
struct Span {
  const char *Name = "";
  uint64_t Request = 0;
  int32_t Parent = -1;
  int64_t Start = 0;
  int64_t End = 0;
};

/// In-memory span recorder. Each recording thread takes its own buffer
/// once (buffer()), so recording never locks. A disabled tracer hands out
/// no buffer and every recording call is a null check.
class Tracer {
public:
  struct Buffer {
    std::vector<Span> Spans;
    std::vector<int32_t> Open; ///< stack of open span indices
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled), Epoch(Clock::now()) {}

  bool enabled() const { return Enabled; }
  /// A fresh per-thread buffer, or null when tracing is off.
  Buffer *buffer();

  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }

  /// Opens a span whose parent is the innermost open span of \p B.
  static int32_t open(Buffer *B, const char *Name, uint64_t Request,
                      int64_t StartNs);
  static void close(Buffer *B, int32_t Id, int64_t EndNs);
  /// Records a finished span with an explicit parent.
  static int32_t add(Buffer *B, const char *Name, uint64_t Request,
                     int32_t Parent, int64_t StartNs, int64_t EndNs);

  const std::deque<Buffer> &buffers() const { return Buffers; }
  size_t numSpans() const;

  /// Writes every span as Chrome trace-event JSON.
  bool writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  Clock::time_point Epoch;
  std::mutex Mutex; ///< guards Buffers
  std::deque<Buffer> Buffers;
};

/// RAII span around one layer call; a no-op on a null buffer.
class ScopedSpan {
public:
  ScopedSpan(const Tracer &T, Tracer::Buffer *B, const char *Name,
             uint64_t Request)
      : T(T), B(B) {
    if (B)
      Id = Tracer::open(B, Name, Request, T.ns(Clock::now()));
  }
  ~ScopedSpan() {
    if (B)
      Tracer::close(B, Id, T.ns(Clock::now()));
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  int32_t id() const { return Id; }

private:
  const Tracer &T;
  Tracer::Buffer *B;
  int32_t Id = -1;
};

/// Records \p Timings as consecutive children of span \p Parent, starting
/// at \p StartNs (PassTimings carry durations only).
void addPassSpans(Tracer::Buffer *B, uint64_t Request, int32_t Parent,
                  int64_t StartNs,
                  const std::vector<weaver::core::pipeline::PassTiming> &T);

/// Per-name aggregate of a trace: call count, total and self time.
struct LayerRow {
  std::string Name;
  uint64_t Calls = 0;
  double TotalMs = 0;
  double SelfMs = 0;
};
/// Aggregates every span by name; self time is the span's duration minus
/// the union of its children's intervals. Rows keep first-seen order.
std::vector<LayerRow> layerTable(const Tracer &T);

// --- Metrics ------------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  std::string Note; ///< printed beside the value (bases, percentiles)
};

class Report {
public:
  void add(std::string Name, double Value, std::string Unit,
           std::string Note = "");
  const std::vector<Metric> &metrics() const { return Metrics; }
  double value(const std::string &Name) const;
  void print(const char *Title) const;

private:
  std::vector<Metric> Metrics;
};

/// Nearest-rank percentile of \p Sorted (ascending, non-empty).
double percentile(const std::vector<double> &Sorted, double P);

/// Process peak resident set (VmHWM) in MiB.
double peakRssMb();
/// Process user + system CPU seconds.
double processCpuSeconds();

// --- Workload measurement ----------------------------------------------------

/// Output-quality sums over a phase's quality window (WorkloadShape).
/// Deterministic for a seed, so two runs must agree exactly.
struct Quality {
  uint64_t Requests = 0;
  uint64_t Bytes = 0;
  uint64_t Pulses = 0;
  double ExecSeconds = 0;
  double Log10Eps = 0;

  void add(uint64_t OutBytes, const weaver::fpqa::PulseStats &S);
  bool operator==(const Quality &O) const {
    return Requests == O.Requests && Bytes == O.Bytes && Pulses == O.Pulses &&
           ExecSeconds == O.ExecSeconds && Log10Eps == O.Log10Eps;
  }
  std::string describe() const;
};

/// The correctness gate's verdict for one invocation. Any failed check
/// makes the whole run incorrect. Safe to call from several threads.
class GateLog {
public:
  void pass(const std::string &Check);
  void fail(const std::string &Check, const std::string &Why);
  bool ok() const;
  void print() const;

private:
  mutable std::mutex Mutex; ///< guards Passed and Failures
  std::map<std::string, uint64_t> Passed;
  std::vector<std::string> Failures;
};

/// One measured phase of a workload.
struct Phase {
  std::vector<double> LatencyMs; ///< completed requests
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  double WindowSeconds = 0; ///< time the request path was measured
  double CpuSeconds = 0;    ///< process CPU spent in that time
  double RssMb = 0;         ///< VmHWM once RssMark requests completed
  Quality Q;
  /// Per-layer counters gathered from the layers' own stats (cache,
  /// service, transport) plus workload-specific extras.
  Report Layers;
};

/// The fixed shape of a workload's measurement.
struct WorkloadShape {
  /// Leading requests whose outputs define the quality metrics; 0 when a
  /// workload's request set is fixed and all of it counts.
  uint64_t QualityWindow = 20;
  /// Completed-request count at which peak RSS is read, so memory that
  /// grows with request count is compared at equal work.
  uint64_t RssMark = 40;
  /// Tail percentile; the phase runs until at least ten of its requests
  /// lie beyond it.
  double TailPercentile = 90;

  /// Requests every phase completes, however long that takes.
  uint64_t minRequests() const;
};

/// A workload instance: set up (timed), one measured phase, gate checks.
class Workload {
public:
  virtual ~Workload() = default;
  virtual WorkloadShape shape() const = 0;
  /// Everything before the first request: inputs for a phase of
  /// \p Seconds, caches, servers.
  virtual void setup(double Seconds, Tracer &T) = 0;
  /// Runs the request loop for at least \p Seconds and at least the
  /// shape's minimum request count, checking every output as it goes.
  virtual Phase run(double Seconds, Tracer &T, GateLog &Gate) = 0;
  /// Recomputes the quality window afresh (fresh cache, direct
  /// compiles) for the same-seed determinism check.
  virtual Quality replayQuality() = 0;
  /// Extra per-layer metrics recorded during setup (e.g. persistence).
  virtual void setupLayers(Report &) const {}
};

std::unique_ptr<Workload> makeSweep(uint64_t Seed);
std::unique_ptr<Workload> makeColdVerify(uint64_t Seed);
/// \p Dir receives the set-up snapshot.
std::unique_ptr<Workload> makeServedMix(uint64_t Seed, const std::string &Dir);

// --- Shared request helpers --------------------------------------------------

/// 64-bit mix of a seed with stream coordinates; every generated input
/// derives its own seed through this.
uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B = 0, uint64_t C = 0);

/// SATLIB-shaped uniform random 3-SAT at the phase-transition ratio.
weaver::sat::CnfFormula randomFormula(uint64_t Seed, int NumVars);

/// Adds the PassCache per-layer counters accumulated since \p Before.
void addCacheLayers(Report &R, const weaver::core::pipeline::PassCache &C,
                    const weaver::core::pipeline::PassCache::CacheStats &Before);

/// The structural wChecker gate on a printed program: parse, then check.
/// Returns an empty string on success, else the reason. \p Parsed, when
/// given, receives the parsed program.
std::string checkPrinted(const std::string &Text,
                         weaver::qasm::WqasmProgram *Parsed = nullptr);

/// What the served-response gate keeps of a response: its length and a
/// 64-bit hash. The client side then holds no copy of multi-MB programs,
/// which would count towards the process's peak RSS.
struct Digest {
  uint64_t Size = 0;
  uint64_t Hash = 0;
  static Digest of(std::string_view Text);
  bool operator==(const Digest &O) const {
    return Size == O.Size && Hash == O.Hash;
  }
};

/// The served-response gate: an OK response must equal the direct
/// in-process compile (same length and hash). Returns an empty string on
/// success, else the reason.
std::string checkServed(const Digest &Served, const std::string &Direct);

/// The options a direct in-process compile uses for \p Qaoa: the same
/// defaults the service's Weaver backend applies.
weaver::core::WeaverOptions directOptions(const weaver::qaoa::QaoaParams &Qaoa,
                                          weaver::core::pipeline::PassCache *C);

/// Workload-independent gate checks: stage-2 unitary checks of a fixed
/// set of small formulas, and the negative self-test proving the gate
/// rejects a corrupted program and a forged served response.
void runFixedGate(GateLog &Gate);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
