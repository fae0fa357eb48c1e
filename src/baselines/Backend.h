//===- baselines/Backend.h - Common compiler backend interface -*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retargeting interface of Fig. 3: every compiler in the repository —
/// the Weaver FPQA path and the four baselines (superconducting/SABRE,
/// Atomique, DPQA, Geyser) — is invocable through one \c Backend API that
/// takes a MAX-3SAT formula plus QAOA parameters and returns the uniform
/// \c BaselineResult metric record (plus the emitted program, for Weaver).
/// Drivers (benches, examples, the batch compiler, the compile service)
/// retarget by swapping the backend object, not the call site.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_BASELINES_BACKEND_H
#define WEAVER_BASELINES_BACKEND_H

#include "baselines/Atomique.h"
#include "baselines/Dpqa.h"
#include "baselines/Geyser.h"
#include "baselines/Result.h"
#include "baselines/Superconducting.h"
#include "core/WeaverCompiler.h"
#include "core/pipeline/PassCache.h"
#include "qaoa/Builder.h"
#include "qasm/Program.h"
#include "sat/Cnf.h"
#include "support/CancelToken.h"
#include "support/Status.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace weaver {
namespace baselines {

/// The full artefact of one compile: uniform metrics, the emitted wQASM
/// program for backends that produce one (only Weaver today), and the
/// cache/cancellation disposition. The program is returned unprinted and
/// uncopied, as an instance of the compile's program sections; callers
/// that want text call print() (CompileService, which splices cached
/// templates), verifying drivers materialize() and print independently,
/// metric-only callers just drop it.
struct CompileOutput {
  BaselineResult Metrics;
  /// Emitted program; empty for backends without a pulse-level output
  /// format and for failed or cancelled compiles.
  std::optional<core::pipeline::ProgramInstance> Program;
  /// The compile observed its CancelToken and aborted.
  bool Cancelled = false;
  /// PassCache tier diagnostics (Weaver only; see WeaverResult).
  bool FrontHalfFromCache = false;
  bool ProgramFromCache = false;
};

/// A compiler backend: formula + QAOA parameters in, uniform metrics out.
/// Implementations must be safe to call concurrently from multiple
/// threads on distinct formulas (core::compileBatch relies on it).
class Backend {
public:
  virtual ~Backend() = default;

  /// Stable lower-case backend name ("weaver", "superconducting", ...).
  virtual std::string name() const = 0;

  /// Compiles the QAOA program for \p Formula. Infeasible instances are
  /// reported through the metrics' TimedOut/Unsupported flags, never by
  /// crashing. \p Cancel (may be null) aborts the compile: the baselines
  /// honour it only before they start; WeaverBackend threads it through
  /// the pass pipeline and aborts between passes.
  virtual CompileOutput compile(const sat::CnfFormula &Formula,
                                const qaoa::QaoaParams &Qaoa,
                                const CancelToken *Cancel = nullptr) const = 0;
};

/// The five compilers of the paper's evaluation, in its plot order.
enum class BackendKind { Superconducting, Atomique, Weaver, Dpqa, Geyser };

inline constexpr BackendKind AllBackendKinds[] = {
    BackendKind::Superconducting, BackendKind::Atomique, BackendKind::Weaver,
    BackendKind::Dpqa, BackendKind::Geyser};

/// Returns the stable name of \p Kind ("superconducting", ...).
const char *backendKindName(BackendKind Kind);

/// Resolves a stable name back to its kind; fails on unknown names.
Expected<BackendKind> backendKindFromName(const std::string &Name);

/// Constructs the backend for \p Kind with default parameters.
std::unique_ptr<Backend> createBackend(BackendKind Kind);

/// Adapts a WeaverResult into the shared metric record.
BaselineResult toBaselineResult(const core::WeaverResult &W);

// --- Concrete backends (constructible with custom knobs) ----------------

class SuperconductingBackend : public Backend {
public:
  explicit SuperconductingBackend(SuperconductingParams Params = {})
      : Params(Params) {}
  std::string name() const override { return "superconducting"; }
  CompileOutput compile(const sat::CnfFormula &Formula,
                        const qaoa::QaoaParams &Qaoa,
                        const CancelToken *Cancel = nullptr) const override;

private:
  SuperconductingParams Params;
};

class AtomiqueBackend : public Backend {
public:
  explicit AtomiqueBackend(AtomiqueParams Params = {}) : Params(Params) {}
  std::string name() const override { return "atomique"; }
  CompileOutput compile(const sat::CnfFormula &Formula,
                        const qaoa::QaoaParams &Qaoa,
                        const CancelToken *Cancel = nullptr) const override;

private:
  AtomiqueParams Params;
};

/// The Weaver FPQA path behind the common interface. The per-call QAOA
/// parameters override the ones embedded in the options.
class WeaverBackend : public Backend {
public:
  explicit WeaverBackend(core::WeaverOptions Options = {})
      : Options(std::move(Options)) {}
  std::string name() const override { return "weaver"; }
  CompileOutput compile(const sat::CnfFormula &Formula,
                        const qaoa::QaoaParams &Qaoa,
                        const CancelToken *Cancel = nullptr) const override;

private:
  core::WeaverOptions Options;
};

class DpqaBackend : public Backend {
public:
  explicit DpqaBackend(DpqaParams Params = {}) : Params(Params) {}
  std::string name() const override { return "dpqa"; }
  CompileOutput compile(const sat::CnfFormula &Formula,
                        const qaoa::QaoaParams &Qaoa,
                        const CancelToken *Cancel = nullptr) const override;

private:
  DpqaParams Params;
};

class GeyserBackend : public Backend {
public:
  explicit GeyserBackend(GeyserParams Params = {}) : Params(Params) {}
  std::string name() const override { return "geyser"; }
  CompileOutput compile(const sat::CnfFormula &Formula,
                        const qaoa::QaoaParams &Qaoa,
                        const CancelToken *Cancel = nullptr) const override;

private:
  GeyserParams Params;
};

} // namespace baselines
} // namespace weaver

#endif // WEAVER_BASELINES_BACKEND_H
