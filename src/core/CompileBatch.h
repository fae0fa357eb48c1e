//===- core/CompileBatch.h - Batch compilation on a WorkerPool --*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles a batch of formulas through one \c Backend on a caller-owned
/// WorkerPool. Compilations are independent (each runs its own pass
/// pipeline over its own CompilationContext), so the batch posts one task
/// per formula; the pool's FIFO queue hands them out as workers free up,
/// which balances mixed instance sizes, and results come back in input
/// order regardless of scheduling.
///
/// Sweeps that recompile the same formulas under varying QAOA parameters
/// should construct their WeaverBackend with a WeaverOptions::Cache: the
/// PassCache is mutex-guarded, so one cache is safely shared by every
/// worker of the pool, and results remain byte-identical to the uncached
/// batch regardless of which worker populates an entry first (see
/// tests/pass_cache_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_COMPILEBATCH_H
#define WEAVER_CORE_COMPILEBATCH_H

#include "baselines/Backend.h"
#include "core/WorkerPool.h"
#include "qaoa/Builder.h"
#include "sat/Cnf.h"

#include <vector>

namespace weaver {
namespace core {

/// Compiles every formula at the QAOA point \p Qaoa on \p Pool and blocks
/// until all are done; Results[i] corresponds to Formulas[i]. \p Backend
/// must be thread-safe for concurrent compile() calls (all repository
/// backends are). A slot whose task the pool refuses (shutdown has begun)
/// is compiled inline, so every slot still gets a result. Must not be
/// called from a task of \p Pool: a bounded queue could deadlock.
std::vector<baselines::BaselineResult>
compileBatch(const baselines::Backend &Backend,
             const std::vector<sat::CnfFormula> &Formulas,
             const qaoa::QaoaParams &Qaoa, WorkerPool &Pool);

} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_COMPILEBATCH_H
