//===- perfbench/src/Main.cpp - End-to-end benchmark main program --------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// weaver_perfbench --workload sweep|cold_verify|served_mix --seed N
///                  --seconds S --trace 0|1 --out-dir DIR
///
/// Sets the workload up 3 to 25 times, runs the workload-independent gate
/// checks, measures one untraced phase, replays the quality window afresh
/// and requires exact agreement, then sets up as often again (setup_s is
/// the median of both rounds). With --trace 1 both phases take half of S:
/// after the untraced phase it measures a second, traced phase on a fresh
/// set-up, prints the per-layer table and writes the spans as a Chrome
/// trace to DIR. The last stdout line is one JSON object: the end-to-end
/// metrics (--trace 0) or the per-layer metrics (--trace 1). Exit status
/// is 0 only when every gate check passed.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sys/stat.h>
#include <thread>

using namespace weaver;
using namespace perfbench;

namespace {

/// Set-ups come in two rounds, one before the measured phase and one after
/// it, so their median samples the host at two times. A round sets up at
/// least MinSetups times, then more while it took under SetupBudgetS, up
/// to MaxSetups. Cheap set-ups repeat more often, so their median is
/// steadier.
constexpr int MinSetups = 3, MaxSetups = 25;
constexpr double SetupBudgetS = 0.5;

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_out";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\nusage: weaver_perfbench --workload "
               "sweep|cold_verify|served_mix --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    if (Flag == "--workload") {
      A.Workload = Val;
    } else if (Flag == "--seed") {
      auto V = parseInt(Val, 0, (1LL << 62));
      if (!V)
        usage("bad --seed");
      A.Seed = static_cast<uint64_t>(*V);
    } else if (Flag == "--seconds") {
      auto V = parseDouble(Val, 0.1, 600);
      if (!V)
        usage("bad --seconds");
      A.Seconds = *V;
    } else if (Flag == "--trace") {
      if (Val != "0" && Val != "1")
        usage("--trace takes 0 or 1");
      A.Trace = Val == "1";
    } else if (Flag == "--out-dir") {
      A.OutDir = Val;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (A.Workload != "sweep" && A.Workload != "cold_verify" &&
      A.Workload != "served_mix")
    usage("unknown --workload");
  return A;
}

std::unique_ptr<Workload> make(const Args &A) {
  if (A.Workload == "sweep")
    return makeSweep(A.Seed);
  if (A.Workload == "cold_verify")
    return makeColdVerify(A.Seed);
  return makeServedMix(A.Seed, A.OutDir);
}

/// One round of set-ups, each timed into \p Runs. Returns the last
/// instance, set up and ready to run.
std::unique_ptr<Workload> setupRound(const Args &A, double Seconds, Tracer &T,
                                     std::vector<double> &Runs) {
  std::unique_ptr<Workload> W;
  const Clock::time_point RoundStart = Clock::now();
  for (int I = 0; I < MinSetups || (I < MaxSetups &&
                                    secondsSince(RoundStart) < SetupBudgetS);
       ++I) {
    W.reset();
    Clock::time_point Start = Clock::now();
    W = make(A);
    W->setup(Seconds, T);
    Runs.push_back(secondsSince(Start));
  }
  return W;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

/// The timing figures of one phase, over every completed request. Ratios
/// over the whole phase average out a host whose speed drifts within it.
struct Summary {
  double Rps = 0, CpuMs = 0, P50 = 0, Tail = 0;
  uint64_t Completed = 0;
};

Summary summarize(const Phase &P, const WorkloadShape &S) {
  Summary Sm;
  Sm.Completed = P.LatencyMs.size();
  std::vector<double> L = P.LatencyMs;
  std::sort(L.begin(), L.end());
  if (!L.empty()) {
    Sm.P50 = percentile(L, 50);
    Sm.Tail = percentile(L, S.TailPercentile);
    Sm.Rps = Sm.Completed / P.WindowSeconds;
    Sm.CpuMs = P.CpuSeconds * 1e3 / Sm.Completed;
  }
  return Sm;
}

Report endToEnd(const Phase &P, const WorkloadShape &S, double SetupS,
                const std::vector<double> &SetupRuns) {
  Summary Sm = summarize(P, S);
  double QN = P.Q.Requests ? double(P.Q.Requests) : 1.0;
  uint64_t Beyond =
      Sm.Completed - static_cast<uint64_t>(
                         std::ceil(S.TailPercentile / 100.0 * Sm.Completed));
  char Buf[200];
  Report R;
  std::snprintf(Buf, sizeof(Buf), "median of %zu set-ups", SetupRuns.size());
  R.add("setup_s", SetupS, "s", Buf);
  std::snprintf(Buf, sizeof(Buf),
                "%llu completed in %.2f s",
                static_cast<unsigned long long>(Sm.Completed),
                P.WindowSeconds);
  R.add("throughput_rps", Sm.Rps, "1/s", Buf);
  std::snprintf(Buf, sizeof(Buf), "of all %llu completed requests",
                static_cast<unsigned long long>(Sm.Completed));
  R.add("latency_p50_ms", Sm.P50, "ms", Buf);
  std::snprintf(Buf, sizeof(Buf), "p%g of %llu samples, %llu beyond",
                S.TailPercentile, static_cast<unsigned long long>(Sm.Completed),
                static_cast<unsigned long long>(Beyond));
  R.add("latency_tail_ms", Sm.Tail, "ms", Buf);
  std::snprintf(Buf, sizeof(Buf), "of %llu attempted; failed_frac %.6g",
                static_cast<unsigned long long>(P.Attempted),
                P.Attempted ? double(P.Failed) / P.Attempted : 0.0);
  R.add("completed_frac", P.Attempted ? Sm.Completed / double(P.Attempted) : 0,
        "fraction", Buf);
  std::snprintf(Buf, sizeof(Buf), "VmHWM after %llu requests",
                static_cast<unsigned long long>(S.RssMark));
  R.add("peak_rss_mb", P.RssMb, "MB", Buf);
  R.add("cpu_ms_per_req", Sm.CpuMs, "ms", "getrusage, over the measured time");
  std::snprintf(Buf, sizeof(Buf), "mean over %llu fixed requests",
                static_cast<unsigned long long>(P.Q.Requests));
  R.add("wqasm_bytes_per_req", P.Q.Bytes / QN, "B", Buf);
  R.add("pulses_per_req", P.Q.Pulses / QN, "count", Buf);
  R.add("exec_time_us", P.Q.ExecSeconds / QN * 1e6, "us", Buf);
  R.add("log10_eps", P.Q.Log10Eps / QN, "log10", Buf);
  return R;
}

/// The per-layer metrics, in BENCHMARK.json order. Layers a workload does
/// not exercise report 0.
Report perLayer(const Tracer &T, const Phase &P, const Workload &W,
                const Summary &Untraced, const Summary &Traced) {
  std::vector<LayerRow> Rows = layerTable(T);
  auto row = [&](const char *Name) {
    for (const LayerRow &R : Rows)
      if (R.Name == Name)
        return R;
    return LayerRow();
  };
  auto mean = [&](const char *Name) {
    LayerRow R = row(Name);
    return R.Calls ? R.TotalMs / R.Calls : 0.0;
  };
  Report Extra = P.Layers;
  W.setupLayers(Extra);
  auto extra = [&](const char *Name) { return Extra.value(Name); };
  auto noteOf = [&](const char *Name) {
    for (const Metric &M : Extra.metrics())
      if (M.Name == Name)
        return M.Note;
    return std::string();
  };

  Report R;
  LayerRow Compile = row("pipeline.compile");
  double Compiles = Compile.Calls ? double(Compile.Calls) : 1.0;
  R.add("pipeline.compile_ms", mean("pipeline.compile"), "ms");
  const char *Passes[][2] = {
      {"pipeline.clause_coloring_ms", "pipeline.clause-coloring"},
      {"pipeline.zone_planning_ms", "pipeline.zone-planning"},
      {"pipeline.shuttle_scheduling_ms", "pipeline.shuttle-scheduling"},
      {"pipeline.gate_lowering_ms", "pipeline.gate-lowering"},
      {"pipeline.pulse_emission_ms", "pipeline.pulse-emission"}};
  for (auto &[Metric, Span] : Passes)
    R.add(Metric, row(Span).TotalMs / Compiles, "ms", "per compile");
  R.add("pipeline.compiles", Compile.Calls, "count");
  for (const char *Name :
       {"cache.program_hits", "cache.front_hits", "cache.misses"})
    R.add(Name, extra(Name), "count");
  R.add("cache.program_hit_ratio", extra("cache.program_hit_ratio"), "ratio",
        noteOf("cache.program_hit_ratio"));
  R.add("cache.entries", extra("cache.entries"), "count");
  R.add("cache.materializations", extra("cache.materializations"), "count");
  R.add("persist.load_ms", extra("persist.load_ms"), "ms");
  R.add("persist.save_ms", extra("persist.save_ms"), "ms");
  R.add("persist.snapshot_bytes", extra("persist.snapshot_bytes"), "B");

  LayerRow Print = row("qasm.print"), Parse = row("qasm.parse");
  R.add("qasm.print_ms", mean("qasm.print"), "ms");
  R.add("qasm.print_mb_s",
        Print.TotalMs > 0 ? extra("aux.print_bytes") / 1e3 / Print.TotalMs : 0,
        "MB/s");
  R.add("qasm.parse_ms", mean("qasm.parse"), "ms");
  // Every program a workload parses is one it printed.
  R.add("qasm.parse_mb_s",
        Parse.TotalMs > 0 ? extra("aux.print_bytes") / 1e3 / Parse.TotalMs : 0,
        "MB/s");
  R.add("qasm.bytes", extra("qasm.bytes"), "B", "per output");

  R.add("checker.check_ms", mean("checker.check"), "ms");
  R.add("checker.checks", row("checker.check").Calls, "count");
  R.add("checker.failures", extra("checker.failures"), "count");

  R.add("service.queue_ms", extra("service.queue_ms"), "ms");
  R.add("service.serve_ms", extra("service.serve_ms"), "ms",
        "wire CompileSeconds: compile + print");
  for (const char *Name : {"service.completed", "service.failed",
                           "service.coalesced", "service.program_tier_hits"})
    R.add(Name, extra(Name), "count");
  R.add("net.encode_ms", extra("net.encode_ms"), "ms");
  R.add("net.decode_ms", extra("net.decode_ms"), "ms");
  R.add("net.transport_ms", extra("net.transport_ms"), "ms",
        "round trip - queue - serve");
  R.add("net.response_bytes", extra("net.response_bytes"), "B");
  R.add("net.shed", extra("net.shed"), "count");
  R.add("net.malformed", extra("net.malformed"), "count");
  R.add("loadgen.late_p99_ms", extra("loadgen.late_p99_ms"), "ms",
        "generator health");

  R.add("trace.spans", T.numSpans(), "count");
  R.add("trace.overhead_rps_pct",
        Traced.Rps > 0 ? (Untraced.Rps / Traced.Rps - 1) * 100 : 0, "%",
        "untraced vs traced throughput");
  R.add("trace.overhead_p50_pct",
        Untraced.P50 > 0 ? (Traced.P50 / Untraced.P50 - 1) * 100 : 0, "%",
        "traced vs untraced median latency");
  return R;
}

void printLayerTable(const Tracer &T, const char *Workload) {
  std::vector<LayerRow> Rows = layerTable(T);
  double RequestMs = 0;
  for (const LayerRow &R : Rows)
    if (R.Name == "request")
      RequestMs = R.TotalMs;
  std::printf("\nper-layer table (%s, traced phase; share = self time over "
              "all request time, %.1f ms)\n",
              Workload, RequestMs);
  std::printf("  %-30s %9s %12s %12s %8s\n", "span", "calls", "total_ms",
              "self_ms", "share");
  for (const LayerRow &R : Rows) {
    bool InRequest =
        R.Name.rfind("setup", 0) != 0 && R.Name.rfind("persist.", 0) != 0;
    char Share[32] = "-";
    if (InRequest && RequestMs > 0)
      std::snprintf(Share, sizeof(Share), "%.1f%%",
                    100 * R.SelfMs / RequestMs);
    std::printf("  %-30s %9llu %12.3f %12.3f %8s\n", R.Name.c_str(),
                static_cast<unsigned long long>(R.Calls), R.TotalMs,
                R.SelfMs, Share);
  }
}

void printJson(const Report &R, const GateLog &Gate, const Phase &P) {
  std::string Out = "{\"correct\": ";
  Out += Gate.ok() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(P.Attempted);
  Out += ", \"failed\": " + std::to_string(P.Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  char Buf[64];
  for (const Metric &M : R.metrics()) {
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(M.Value) ? M.Value : 0.0);
    Out += (First ? "\"" : ", \"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  std::printf("environment: nproc=%u compiler=\"%s\" build_type=%s "
              "NDEBUG=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE,
#ifdef NDEBUG
              "defined"
#else
              "undefined"
#endif
  );
#ifndef NDEBUG
  std::fprintf(stderr, "error: refusing to report timings from a build "
                       "without NDEBUG (configure with "
                       "-DCMAKE_BUILD_TYPE=Release)\n");
  return 3;
#endif
  ::mkdir(A.OutDir.c_str(), 0755);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Seconds, A.Trace ? 1 : 0);

  // A traced run splits its time between the untraced phase, which the
  // tracing overhead is measured against, and the traced phase, so it
  // takes no longer than an untraced run.
  const double PhaseSeconds = A.Trace ? A.Seconds / 2 : A.Seconds;

  // The first round of set-ups; its last instance is the one measured.
  Tracer Off(false);
  std::vector<double> SetupRuns;
  std::unique_ptr<Workload> W = setupRound(A, PhaseSeconds, Off, SetupRuns);
  const WorkloadShape Shape = W->shape();
  std::printf("peak RSS after set-up: %.1f MB\n", peakRssMb());

  GateLog Gate;
  runFixedGate(Gate);
  Phase P = W->run(PhaseSeconds, Off, Gate);
  Quality Replay = W->replayQuality();
  if (P.Q == Replay)
    Gate.pass("quality repeats exactly for the seed");
  else
    Gate.fail("quality determinism",
              "run " + P.Q.describe() + " vs replay " + Replay.describe());
  if (P.Q.Requests == 0 ||
      (Shape.QualityWindow && P.Q.Requests != Shape.QualityWindow))
    Gate.fail("quality window", std::to_string(P.Q.Requests) +
                                    " requests in the quality window");
  // The second round of set-ups, after the phase and its peak-RSS reading.
  W.reset();
  setupRound(A, PhaseSeconds, Off, SetupRuns).reset();

  Report E2E = endToEnd(P, Shape, median(SetupRuns), SetupRuns);
  E2E.print("end-to-end metrics (untraced)");

  if (!A.Trace) {
    Gate.print();
    printJson(E2E, Gate, P);
    return Gate.ok() ? 0 : 1;
  }

  Tracer T(true);
  Clock::time_point SetupStart = Clock::now();
  std::unique_ptr<Workload> WT = make(A);
  WT->setup(PhaseSeconds, T);
  const double TracedSetupS = secondsSince(SetupStart);
  Phase PT = WT->run(PhaseSeconds, T, Gate);
  if (!(PT.Q == P.Q))
    Gate.fail("quality determinism", "traced run " + PT.Q.describe() +
                                         " vs untraced " + P.Q.describe());
  Report Traced = endToEnd(PT, Shape, TracedSetupS, {TracedSetupS});
  Traced.print("end-to-end metrics (traced phase; compare for overhead)");
  Report Layers = perLayer(T, PT, *WT, summarize(P, Shape),
                           summarize(PT, Shape));
  printLayerTable(T, A.Workload.c_str());
  Layers.print("per-layer metrics (traced phase)");
  std::string TracePath = A.OutDir + "/trace-" + A.Workload + "-seed" +
                          std::to_string(A.Seed) + ".json";
  if (T.writeChromeTrace(TracePath))
    std::printf("spans written to %s\n", TracePath.c_str());
  Gate.print();
  printJson(Layers, Gate, PT);
  return Gate.ok() ? 0 : 1;
}
