//===- core/pipeline/PulseEmissionPass.cpp - Pulse stream + stats ---------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/PulseEmissionPass.h"

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

Status PulseEmissionPass::run(CompilationContext &Ctx) {
  // Replay straight off the program (qasm::AnnotationView) — no copied
  // or indexed stream.
  auto Stats = fpqa::analyzePulseProgram(Ctx.Program, Ctx.Hw);
  if (!Stats)
    return Stats.status();
  Ctx.Stats = *Stats;
  Ctx.HasStats = true;
  return Status::success();
}

void PulseEmissionPass::saveSections(const CompilationContext &Ctx,
                                     PassCacheEntryBuilder &Builder) const {
  Builder.Stats = Ctx.Stats;
  Builder.SavedStats = true;
}

bool PulseEmissionPass::restoreSections(const PassCacheEntry &Entry,
                                        CompilationContext &Ctx) const {
  if (!Entry.Back)
    return false;
  Ctx.Stats = Entry.Back->Stats;
  Ctx.HasStats = true;
  return true;
}
