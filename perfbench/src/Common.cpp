//===- perfbench/src/Common.cpp - Shared benchmark machinery --------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "core/WChecker.h"
#include "qasm/Parser.h"
#include "sat/Generator.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sys/resource.h>

using namespace weaver;

namespace perfbench {

// --- Tracer -------------------------------------------------------------------

Tracer::Buffer *Tracer::buffer() {
  if (!Enabled)
    return nullptr;
  std::lock_guard<std::mutex> Lock(Mutex);
  Buffers.emplace_back();
  Buffers.back().Spans.reserve(1 << 14);
  return &Buffers.back();
}

int32_t Tracer::open(Buffer *B, const char *Name, uint64_t Request,
                     int64_t StartNs) {
  int32_t Parent = B->Open.empty() ? -1 : B->Open.back();
  int32_t Id = add(B, Name, Request, Parent, StartNs, StartNs);
  B->Open.push_back(Id);
  return Id;
}

void Tracer::close(Buffer *B, int32_t Id, int64_t EndNs) {
  B->Spans[Id].End = EndNs;
  if (!B->Open.empty() && B->Open.back() == Id)
    B->Open.pop_back();
}

int32_t Tracer::add(Buffer *B, const char *Name, uint64_t Request,
                    int32_t Parent, int64_t StartNs, int64_t EndNs) {
  B->Spans.push_back({Name, Request, Parent, StartNs, EndNs});
  return static_cast<int32_t>(B->Spans.size() - 1);
}

size_t Tracer::numSpans() const {
  size_t N = 0;
  for (const Buffer &B : Buffers)
    N += B.Spans.size();
  return N;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\":[\n";
  bool First = true;
  int Tid = 0;
  char Line[512];
  for (const Buffer &B : Buffers) {
    ++Tid;
    for (size_t I = 0; I < B.Spans.size(); ++I) {
      const Span &S = B.Spans[I];
      std::snprintf(Line, sizeof(Line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                    "\"id\":%zu,\"parent\":%d}}",
                    First ? "" : ",\n", S.Name, Tid, S.Start / 1e3,
                    (S.End - S.Start) / 1e3,
                    static_cast<unsigned long long>(S.Request), I, S.Parent);
      Out << Line;
      First = false;
    }
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

void addPassSpans(Tracer::Buffer *B, uint64_t Request, int32_t Parent,
                  int64_t StartNs,
                  const std::vector<core::pipeline::PassTiming> &Timings) {
  if (!B)
    return;
  static const char *const Names[] = {
      "pipeline.clause-coloring", "pipeline.zone-planning",
      "pipeline.shuttle-scheduling", "pipeline.gate-lowering",
      "pipeline.pulse-emission"};
  int64_t At = StartNs;
  for (const core::pipeline::PassTiming &T : Timings) {
    const char *Name = "pipeline.other-pass";
    for (const char *N : Names)
      if (T.PassName == N + 9)
        Name = N;
    int64_t End = At + static_cast<int64_t>(T.Seconds * 1e9);
    Tracer::add(B, Name, Request, Parent, At, End);
    At = End;
  }
}

std::vector<LayerRow> layerTable(const Tracer &T) {
  std::vector<LayerRow> Rows;
  std::map<std::string, size_t> Index;
  for (const Tracer::Buffer &B : T.buffers()) {
    std::vector<std::vector<int32_t>> Children(B.Spans.size());
    for (size_t I = 0; I < B.Spans.size(); ++I)
      if (B.Spans[I].Parent >= 0)
        Children[B.Spans[I].Parent].push_back(static_cast<int32_t>(I));
    for (size_t I = 0; I < B.Spans.size(); ++I) {
      const Span &S = B.Spans[I];
      std::vector<std::pair<int64_t, int64_t>> Iv;
      for (int32_t C : Children[I])
        Iv.emplace_back(std::max(S.Start, B.Spans[C].Start),
                        std::min(S.End, B.Spans[C].End));
      std::sort(Iv.begin(), Iv.end());
      int64_t Covered = 0, Reach = S.Start;
      for (auto [Lo, Hi] : Iv) {
        Lo = std::max(Lo, Reach);
        if (Hi > Lo) {
          Covered += Hi - Lo;
          Reach = Hi;
        }
      }
      auto [It, New] = Index.emplace(S.Name, Rows.size());
      if (New)
        Rows.push_back({S.Name});
      LayerRow &R = Rows[It->second];
      ++R.Calls;
      R.TotalMs += (S.End - S.Start) / 1e6;
      R.SelfMs += (S.End - S.Start - Covered) / 1e6;
    }
  }
  return Rows;
}

// --- Report -------------------------------------------------------------------

void Report::add(std::string Name, double Value, std::string Unit,
                 std::string Note) {
  Metrics.push_back({std::move(Name), Value, std::move(Unit), std::move(Note)});
}

double Report::value(const std::string &Name) const {
  for (const Metric &M : Metrics)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

void Report::print(const char *Title) const {
  std::printf("\n%s\n", Title);
  for (const Metric &M : Metrics)
    std::printf("  %-34s %16.6g %-8s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
}

double percentile(const std::vector<double> &Sorted, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * Sorted.size()));
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // kB
  return 0;
}

double processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_utime.tv_sec + U.ru_stime.tv_sec +
         (U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

// --- Quality and gate log -------------------------------------------------------

void Quality::add(uint64_t OutBytes, const fpqa::PulseStats &S) {
  ++Requests;
  Bytes += OutBytes;
  Pulses += S.totalPulses();
  ExecSeconds += S.Duration;
  Log10Eps += std::log10(S.Eps);
}

std::string Quality::describe() const {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "requests=%llu bytes=%llu pulses=%llu exec_s=%.17g "
                "log10_eps=%.17g",
                static_cast<unsigned long long>(Requests),
                static_cast<unsigned long long>(Bytes),
                static_cast<unsigned long long>(Pulses), ExecSeconds,
                Log10Eps);
  return Buf;
}

void GateLog::pass(const std::string &Check) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Passed[Check];
}

bool GateLog::ok() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Failures.empty();
}

void GateLog::fail(const std::string &Check, const std::string &Why) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Failures.size() < 20)
    Failures.push_back(Check + ": " + Why);
  else if (Failures.size() == 20)
    Failures.push_back("... further failures omitted");
}

void GateLog::print() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::printf("\ncorrectness gate: %s\n", Failures.empty() ? "PASS" : "FAIL");
  for (const auto &[Check, N] : Passed)
    std::printf("  pass  %-44s x%llu\n", Check.c_str(),
                static_cast<unsigned long long>(N));
  for (const std::string &F : Failures)
    std::printf("  FAIL  %s\n", F.c_str());
}

// --- Inputs and checks ------------------------------------------------------------

uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B, uint64_t C) {
  SplitMix64 M(Seed ^ 0x5eed0f3a11ce5ull);
  uint64_t H = M.next();
  for (uint64_t V : {A, B, C}) {
    SplitMix64 N(H ^ V);
    H = N.next();
  }
  return H;
}

sat::CnfFormula randomFormula(uint64_t Seed, int NumVars) {
  size_t Clauses =
      static_cast<size_t>(std::lround(NumVars * sat::SatlibClauseRatio));
  return sat::RandomSatGenerator(Seed).generate(NumVars, Clauses);
}

uint64_t WorkloadShape::minRequests() const {
  uint64_t Tail =
      static_cast<uint64_t>(std::ceil(10.0 / (1.0 - TailPercentile / 100.0)));
  return std::max({QualityWindow, RssMark, Tail});
}

void addCacheLayers(Report &R, const core::pipeline::PassCache &C,
                    const core::pipeline::PassCache::CacheStats &Before) {
  core::pipeline::PassCache::CacheStats Now = C.stats();
  uint64_t Hits = Now.ProgramHits - Before.ProgramHits;
  uint64_t Lookups = Hits + Now.ProgramMisses - Before.ProgramMisses;
  R.add("cache.program_hits", Hits, "count");
  R.add("cache.front_hits", Now.FrontHits - Before.FrontHits, "count");
  R.add("cache.misses", Now.FrontMisses - Before.FrontMisses, "count");
  R.add("cache.program_hit_ratio", Lookups ? double(Hits) / Lookups : 0,
        "ratio", "of " + std::to_string(Lookups) + " program-tier lookups");
  R.add("cache.entries", C.size(), "count");
  R.add("cache.materializations",
        Now.Materializations - Before.Materializations, "count");
}

std::string checkPrinted(const std::string &Text, qasm::WqasmProgram *Out) {
  auto Parsed = qasm::parseWqasm(Text);
  if (!Parsed)
    return "parse: " + Parsed.message();
  core::CheckReport R = core::checkWqasm(*Parsed, fpqa::HardwareParams());
  if (!R.passed())
    return "wchecker: " + R.Diagnostic;
  if (Out)
    *Out = std::move(*Parsed);
  return "";
}

Digest Digest::of(std::string_view Text) {
  return {Text.size(), std::hash<std::string_view>()(Text)};
}

std::string checkServed(const Digest &Served, const std::string &Direct) {
  Digest D = Digest::of(Direct);
  if (Served.Size != D.Size)
    return "length " + std::to_string(Served.Size) + " != direct " +
           std::to_string(D.Size);
  if (Served.Hash != D.Hash)
    return "same length as the direct compile, different bytes";
  return "";
}

core::WeaverOptions directOptions(const qaoa::QaoaParams &Qaoa,
                                  core::pipeline::PassCache *C) {
  core::WeaverOptions O;
  O.Qaoa = Qaoa;
  O.Cache = C;
  return O;
}

} // namespace perfbench
