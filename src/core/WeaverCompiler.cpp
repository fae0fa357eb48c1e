//===- core/WeaverCompiler.cpp - End-to-end Weaver pipeline ---------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/WeaverCompiler.h"

#include "baselines/Backend.h"
#include "core/pipeline/PassManager.h"
#include "qaoa/Builder.h"

using namespace weaver;
using namespace weaver::core;

namespace {

/// The one driver behind compileWeaver and WeaverBackend::compile: runs
/// the Fig. 3 pipeline and fills everything but the program and the
/// checker verdict. The program stays where the pipeline left it —
/// Ctx.Template when the compile ran through a cache, Ctx.Program
/// otherwise — so each caller takes it in the form it needs.
Status runPipeline(const sat::CnfFormula &Formula,
                   const WeaverOptions &Options,
                   pipeline::CompilationContext &Ctx, WeaverResult &Result) {
  // Gate-compression decision (§5.4): is CCZ compression profitable on
  // this hardware?
  switch (Options.Compression) {
  case WeaverOptions::CompressionMode::Auto:
    Result.CompressionUsed = Options.Hw.cczCompressionProfitable();
    break;
  case WeaverOptions::CompressionMode::On:
    Result.CompressionUsed = true;
    break;
  case WeaverOptions::CompressionMode::Off:
    Result.CompressionUsed = false;
    break;
  }

  Ctx.Formula = &Formula;
  Ctx.Hw = Options.Hw;
  Ctx.UseDSatur = Options.UseDSatur;
  Ctx.Cache = Options.Cache;
  Ctx.Cancel = Options.Cancel;
  Ctx.Options.Geometry = Options.Geometry;
  Ctx.Options.Qaoa = Options.Qaoa;
  Ctx.Options.UseCompression = Result.CompressionUsed;
  Ctx.Options.ReuseAodAtoms = Options.ReuseAodAtoms;
  Ctx.Options.Measure = Options.Measure;

  // Fig. 3 pipeline: colouring -> zone planning -> colour shuttling ->
  // gate lowering -> pulse emission (the replayed metrics of §8).
  if (Status S = pipeline::PassManager::standardFpqaPipeline().run(Ctx))
    return S;

  Result.Coloring = std::move(Ctx.Coloring);
  Result.Stats = Ctx.Stats;
  // The pulse-emission replay derives metrics; like the pre-pipeline
  // implementation, it does not count as compile time.
  Result.CompileSeconds = Ctx.elapsedSeconds("pulse-emission");
  Result.PassTimings = std::move(Ctx.Timings);
  Result.FrontHalfFromCache = Ctx.FrontHalfFromCache;
  Result.ProgramFromCache = Ctx.ProgramFromCache;
  return Status::success();
}

/// The compile's program as an instance at its own angles; takes the
/// program out of \p Ctx. Without a cache the instance owns a slot-less
/// sections object holding the moved program.
pipeline::ProgramInstance takeInstance(pipeline::CompilationContext &Ctx) {
  pipeline::ProgramInstance Instance;
  Instance.Gamma = Ctx.Options.Qaoa.Gamma;
  Instance.Beta = Ctx.Options.Qaoa.Beta;
  Instance.FromCache = Ctx.ProgramFromCache;
  if (Ctx.Template) {
    Instance.Sections = std::move(Ctx.Template);
  } else {
    auto Own = std::make_shared<pipeline::ProgramSections>();
    Own->Program = std::move(Ctx.Program);
    Own->Stats = Ctx.Stats;
    Instance.Sections = std::move(Own);
  }
  return Instance;
}

} // namespace

Expected<WeaverResult> core::compileWeaver(const sat::CnfFormula &Formula,
                                           const WeaverOptions &Options) {
  WeaverResult Result;
  pipeline::CompilationContext Ctx;
  if (Status S = runPipeline(Formula, Options, Ctx, Result))
    return Expected<WeaverResult>(S);
  // The result owns its program: one copy out of a cache entry (patched
  // on a hit), none without a cache.
  Result.Program = Ctx.Template ? takeInstance(Ctx).materialize()
                                : std::move(Ctx.Program);

  if (Options.RunChecker) {
    // Reference: the hardware-agnostic (uncompressed ladder) circuit.
    qaoa::QaoaParams RefParams = Options.Qaoa;
    RefParams.Measure = false;
    RefParams.UseCompressedClauses = false;
    circuit::Circuit Reference = qaoa::buildQaoaCircuit(Formula, RefParams);
    Result.Check =
        checkWqasm(Result.Program, Options.Hw, &Reference, Options.Checker);
  }
  return Result;
}

// WeaverBackend::compile lives here, next to the driver it shares with
// compileWeaver; it hands the program out as an instance and never
// materializes it (nor runs the checker, whose verdict the backend
// interface does not report).
baselines::CompileOutput
baselines::WeaverBackend::compile(const sat::CnfFormula &Formula,
                                  const qaoa::QaoaParams &Qaoa,
                                  const CancelToken *Cancel) const {
  WeaverOptions Opt = Options;
  Opt.Qaoa = Qaoa;
  Opt.Cancel = Cancel;
  CompileOutput Out;
  WeaverResult W;
  pipeline::CompilationContext Ctx;
  if (Status S = runPipeline(Formula, Opt, Ctx, W)) {
    Out.Metrics.Compiler = name();
    if (isCancelledStatus(S)) {
      Out.Cancelled = true;
      Out.Metrics.Diagnostic = CancelledDiagnostic;
    } else {
      // Malformed formulas (clause wider than three literals) and
      // pipeline failures both land here; keep the message so drivers
      // can tell a bad input from a compiler bug.
      Out.Metrics.Unsupported = true;
      Out.Metrics.Diagnostic = S.message();
    }
    return Out;
  }
  Out.Metrics = toBaselineResult(W);
  Out.FrontHalfFromCache = W.FrontHalfFromCache;
  Out.ProgramFromCache = W.ProgramFromCache;
  Out.Program = takeInstance(Ctx);
  return Out;
}
