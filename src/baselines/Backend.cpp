//===- baselines/Backend.cpp - Common compiler backend interface ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "baselines/Backend.h"

using namespace weaver;
using namespace weaver::baselines;

namespace {

/// Runs one baseline compile. The baselines have no between-pass
/// checkpoints, so \p Cancel is honoured at the only safe point: before
/// the compile starts.
template <typename CompileFn>
CompileOutput runBaseline(const Backend &B, const CancelToken *Cancel,
                          CompileFn Compile) {
  CompileOutput Out;
  if (Cancel && Cancel->checkpoint()) {
    Out.Cancelled = true;
    Out.Metrics.Unsupported = true;
    Out.Metrics.Diagnostic = CancelledDiagnostic;
  } else {
    Out.Metrics = Compile();
  }
  Out.Metrics.Compiler = B.name();
  return Out;
}

} // namespace

const char *baselines::backendKindName(BackendKind Kind) {
  switch (Kind) {
  case BackendKind::Superconducting:
    return "superconducting";
  case BackendKind::Atomique:
    return "atomique";
  case BackendKind::Weaver:
    return "weaver";
  case BackendKind::Dpqa:
    return "dpqa";
  case BackendKind::Geyser:
    return "geyser";
  }
  return "unknown";
}

std::unique_ptr<Backend> baselines::createBackend(BackendKind Kind) {
  switch (Kind) {
  case BackendKind::Superconducting:
    return std::make_unique<SuperconductingBackend>();
  case BackendKind::Atomique:
    return std::make_unique<AtomiqueBackend>();
  case BackendKind::Weaver:
    return std::make_unique<WeaverBackend>();
  case BackendKind::Dpqa:
    return std::make_unique<DpqaBackend>();
  case BackendKind::Geyser:
    return std::make_unique<GeyserBackend>();
  }
  return nullptr;
}

Expected<BackendKind> baselines::backendKindFromName(const std::string &Name) {
  for (BackendKind Kind : AllBackendKinds)
    if (Name == backendKindName(Kind))
      return Kind;
  return Expected<BackendKind>::error("unknown backend '" + Name + "'");
}

BaselineResult baselines::toBaselineResult(const core::WeaverResult &W) {
  BaselineResult R;
  R.Compiler = "weaver";
  R.CompileSeconds = W.CompileSeconds;
  R.Pulses = W.Stats.totalPulses();
  R.TwoQubitGates = W.Stats.CzGates;
  R.ThreeQubitGates = W.Stats.CczGates;
  R.ExecutionSeconds = W.Stats.Duration;
  R.Eps = W.Stats.Eps;
  R.Colors = W.Coloring.numColors();
  return R;
}

CompileOutput
SuperconductingBackend::compile(const sat::CnfFormula &Formula,
                                const qaoa::QaoaParams &Qaoa,
                                const CancelToken *Cancel) const {
  return runBaseline(*this, Cancel, [&] {
    return compileSuperconducting(Formula, Qaoa, Params);
  });
}

CompileOutput AtomiqueBackend::compile(const sat::CnfFormula &Formula,
                                       const qaoa::QaoaParams &Qaoa,
                                       const CancelToken *Cancel) const {
  return runBaseline(*this, Cancel,
                     [&] { return compileAtomique(Formula, Qaoa, Params); });
}

// WeaverBackend::compile is defined in core/WeaverCompiler.cpp, next to
// the pipeline driver it shares with compileWeaver.

CompileOutput DpqaBackend::compile(const sat::CnfFormula &Formula,
                                   const qaoa::QaoaParams &Qaoa,
                                   const CancelToken *Cancel) const {
  return runBaseline(*this, Cancel,
                     [&] { return compileDpqa(Formula, Qaoa, Params); });
}

CompileOutput GeyserBackend::compile(const sat::CnfFormula &Formula,
                                     const qaoa::QaoaParams &Qaoa,
                                     const CancelToken *Cancel) const {
  return runBaseline(*this, Cancel,
                     [&] { return compileGeyser(Formula, Qaoa, Params); });
}
