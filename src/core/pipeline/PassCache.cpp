//===- core/pipeline/PassCache.cpp - Pass-result memoisation --------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/PassCache.h"

#include "qasm/Printer.h"

#include <algorithm>
#include <cstring>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

// --- Keys ----------------------------------------------------------------

void PassCacheKey::add(uint64_t Word) { Words.push_back(Word); }

void PassCacheKey::add(double Value) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "double is not 64-bit");
  std::memcpy(&Bits, &Value, sizeof(Bits));
  Words.push_back(Bits);
}

void PassCacheKey::finish() {
  // FNV-1a over the payload words.
  uint64_t H = 1469598103934665603ull;
  for (uint64_t W : Words)
    for (int B = 0; B < 8; ++B) {
      H ^= (W >> (8 * B)) & 0xff;
      H *= 1099511628211ull;
    }
  Hash = H;
}

// The key serializers below enumerate every field of Layout and
// HardwareParams by hand. These asserts fail the build when a field is
// added to either struct, forcing the new field into the key (or an
// explicit exemption here) — a forgotten field would mean silent stale
// hits.
static_assert(sizeof(core::Layout) == 13 * sizeof(double),
              "Layout changed: update PassCacheKey::frontHalf");
static_assert(sizeof(fpqa::HardwareParams) == 15 * sizeof(double),
              "HardwareParams changed: update PassCacheKey::program");

PassCacheKey PassCacheKey::frontHalf(const CompilationContext &Ctx) {
  PassCacheKey K;
  const sat::CnfFormula &F = *Ctx.Formula;
  K.add(static_cast<uint64_t>(F.numVariables()));
  K.add(static_cast<uint64_t>(F.numClauses()));
  for (const sat::Clause &C : F.clauses()) {
    for (sat::Literal L : C)
      K.add(static_cast<uint64_t>(static_cast<int64_t>(L.dimacs())));
    // DIMACS-style clause terminator keeps clause boundaries unambiguous.
    K.add(uint64_t{0});
  }
  const Layout &G = Ctx.Options.Geometry;
  K.add(G.HomeSpacing);
  K.add(G.PickupRowY);
  K.add(G.TriangleHalfWidth);
  K.add(G.TriangleHeight);
  K.add(G.SiteSpacing);
  K.add(G.ZoneBaseY);
  K.add(G.ZoneStepY);
  K.add(G.ZoneStepX);
  K.add(static_cast<uint64_t>(G.ZoneCycle));
  K.add(G.CzLift);
  K.add(G.PairShift);
  K.add(G.BumpGap);
  K.add(G.ParkSpacing);
  K.add(static_cast<uint64_t>(Ctx.UseDSatur));
  K.finish();
  return K;
}

PassCacheKey PassCacheKey::program(const PassCacheKey &FrontKey,
                                   const CompilationContext &Ctx) {
  PassCacheKey K = FrontKey;
  K.add(static_cast<uint64_t>(Ctx.Options.Qaoa.Layers));
  K.add(static_cast<uint64_t>(Ctx.Options.UseCompression));
  K.add(static_cast<uint64_t>(Ctx.Options.ReuseAodAtoms));
  K.add(static_cast<uint64_t>(Ctx.Options.Measure));
  K.add(static_cast<uint64_t>(Ctx.Options.Qaoa.Measure));
  K.add(static_cast<uint64_t>(Ctx.Options.Qaoa.UseCompressedClauses));
  const fpqa::HardwareParams &Hw = Ctx.Hw;
  K.add(Hw.MinSlmSeparation);
  K.add(Hw.MinAodSeparation);
  K.add(Hw.MaxTransferDistance);
  K.add(Hw.RydbergRadius);
  K.add(Hw.EquidistanceTolerance);
  K.add(Hw.ShuttleSpeedUmPerSec);
  K.add(Hw.TransferTime);
  K.add(Hw.RamanLocalTime);
  K.add(Hw.RamanGlobalTime);
  K.add(Hw.RydbergTime);
  K.add(Hw.RamanFidelity);
  K.add(Hw.CzFidelity);
  K.add(Hw.CczFidelity);
  K.add(Hw.TransferFidelity);
  K.add(Hw.T2);
  K.finish();
  return K;
}

// --- Store ---------------------------------------------------------------

namespace {

template <typename T, typename MapT>
const T *findExact(MapT &Map, const PassCacheKey &Key) {
  auto It = Map.find(Key.hash());
  if (It == Map.end())
    return nullptr;
  for (const std::pair<PassCacheKey, T> &Entry : It->second)
    if (Entry.first == Key)
      return &Entry.second;
  return nullptr;
}

} // namespace

PassCacheEntry PassCache::lookupProgram(const PassCacheKey &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const auto *Cell =
          findExact<std::shared_ptr<ProgramCell>>(ProgramMap, Key))
    if (materializeProgramLocked(**Cell)) {
      ++Counts.ProgramHits;
      return {(*Cell)->Front->Value, (*Cell)->Value};
    }
  ++Counts.ProgramMisses;
  return {};
}

std::shared_ptr<const FrontHalfSections>
PassCache::lookupFront(const PassCacheKey &Key) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const auto *Cell = findExact<std::shared_ptr<FrontCell>>(FrontMap, Key))
    if (materializeFrontLocked(**Cell)) {
      ++Counts.FrontHits;
      return (*Cell)->Value;
    }
  ++Counts.FrontMisses;
  return nullptr;
}

void PassCache::evictForInsertLocked() {
  if (MaxEntries && NumEntries + 1 > MaxEntries) {
    FrontMap.clear();
    ProgramMap.clear(); // also drops any mapped snapshot references
    NumEntries = 0;
  }
}

std::shared_ptr<const FrontHalfSections>
PassCache::insertFront(const PassCacheKey &Key, FrontHalfSections Sections) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const auto *Cell =
          findExact<std::shared_ptr<FrontCell>>(FrontMap, Key)) {
    // Another worker compiled the same formula first — or the slot came
    // from a snapshot whose payload failed to parse; refill it then.
    if (!(*Cell)->Value)
      (*Cell)->Value =
          std::make_shared<const FrontHalfSections>(std::move(Sections));
    return (*Cell)->Value;
  }
  evictForInsertLocked();
  auto Cell = std::make_shared<FrontCell>();
  Cell->Value = std::make_shared<const FrontHalfSections>(std::move(Sections));
  FrontMap[Key.hash()].push_back({Key, Cell});
  ++NumEntries;
  return Cell->Value;
}

void PassCache::insertProgram(const PassCacheKey &Key,
                              const PassCacheKey &FrontKey,
                              std::shared_ptr<const FrontHalfSections> Front,
                              std::shared_ptr<const ProgramSections> Sections) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (const auto *Cell =
          findExact<std::shared_ptr<ProgramCell>>(ProgramMap, Key)) {
    if ((*Cell)->Value)
      return;
    // Unparseable snapshot slot: refill it in place.
    (*Cell)->Value = std::move(Sections);
    if (!(*Cell)->Front->Value)
      (*Cell)->Front->Value = std::move(Front);
    return;
  }
  evictForInsertLocked();
  // Link the template to the front cell stored under FrontKey so one
  // front payload serves both tiers (in memory and in a snapshot).
  std::shared_ptr<FrontCell> FCell;
  if (const auto *Existing =
          findExact<std::shared_ptr<FrontCell>>(FrontMap, FrontKey)) {
    FCell = *Existing;
    if (!FCell->Value)
      FCell->Value = std::move(Front);
  } else {
    FCell = std::make_shared<FrontCell>();
    FCell->Value = std::move(Front);
    evictForInsertLocked();
    FrontMap[FrontKey.hash()].push_back({FrontKey, FCell});
    ++NumEntries;
  }
  auto PCell = std::make_shared<ProgramCell>();
  PCell->Front = std::move(FCell);
  PCell->Value = std::move(Sections);
  ProgramMap[Key.hash()].push_back({Key, std::move(PCell)});
  ++NumEntries;
}

PassCache::CacheStats PassCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counts;
}

size_t PassCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return NumEntries;
}

void PassCache::clear() {
  std::lock_guard<std::mutex> Lock(Mutex);
  FrontMap.clear();
  ProgramMap.clear();
  NumEntries = 0;
}

// --- Template instantiation ----------------------------------------------

void pipeline::patchProgramAngles(qasm::WqasmProgram &Program,
                                  const std::vector<AngleSlot> &Slots,
                                  double Gamma, double Beta) {
  for (const AngleSlot &S : Slots) {
    double Value = S.valueAt(Gamma, Beta);
    qasm::GateStatement &Stmt = Program.Statements[S.Statement];
    switch (S.Where) {
    case AngleSlot::Field::GateParam0:
      Stmt.Gate.setParam(0, Value);
      break;
    case AngleSlot::Field::AnnotationX:
      Stmt.Annotations[S.Annotation].AngleX = Value;
      break;
    case AngleSlot::Field::AnnotationZ:
      Stmt.Annotations[S.Annotation].AngleZ = Value;
      break;
    }
  }
}

const ProgramSections::TextTemplate &ProgramSections::textTemplate() const {
  std::call_once(TextOnce, [this] {
    std::vector<qasm::AngleRef> Refs;
    Refs.reserve(AngleSlots.size());
    for (const AngleSlot &S : AngleSlots)
      Refs.push_back(S.ref());
    std::vector<TextSpan> Spans;
    Text.Text = qasm::printWqasm(Program, Refs, Spans);

    // Bind every slot's hole to its distinct (Dep, Coeff) value; equal
    // coefficients compare bitwise, like the cache keys. A slot whose
    // field is never printed (a snapshot may name one, e.g. the AngleX of
    // a non-Raman annotation) changes no text, so it gets no hole.
    std::vector<TextTemplate::Hole> Holes;
    Holes.reserve(AngleSlots.size());
    for (size_t I = 0; I < AngleSlots.size(); ++I) {
      const AngleSlot &S = AngleSlots[I];
      if (Spans[I].Len == 0)
        continue;
      uint32_t V = 0;
      while (V < Text.Values.size() &&
             !(Text.Values[V].Dep == S.Dep &&
               std::memcmp(&Text.Values[V].Coeff, &S.Coeff,
                           sizeof(double)) == 0))
        ++V;
      if (V == Text.Values.size())
        Text.Values.push_back(S);
      Holes.push_back({Spans[I].Offset, Spans[I].Len, V});
    }
    // Sort by offset; distinct fields print to disjoint ranges. A field
    // named by two slots keeps the later one, as patchProgramAngles' last
    // write wins.
    std::stable_sort(Holes.begin(), Holes.end(),
                     [](const TextTemplate::Hole &A,
                        const TextTemplate::Hole &B) {
                       return A.Offset < B.Offset;
                     });
    for (size_t I = 0; I < Holes.size(); ++I)
      if (I + 1 == Holes.size() || Holes[I + 1].Offset != Holes[I].Offset)
        Text.Holes.push_back(Holes[I]);
    Text.Uses.assign(Text.Values.size(), 0);
    Text.LiteralBytes = Text.Text.size();
    for (const TextTemplate::Hole &H : Text.Holes) {
      ++Text.Uses[H.Value];
      Text.LiteralBytes -= H.Len;
    }
    Renders.fetch_add(1, std::memory_order_release);
  });
  return Text;
}

std::string ProgramSections::printAt(double Gamma, double Beta) const {
  const TextTemplate &T = textTemplate();
  // Format each distinct value once, exactly as the printer would.
  std::vector<std::string> Values(T.Values.size());
  size_t Bytes = T.LiteralBytes;
  for (size_t V = 0; V < T.Values.size(); ++V) {
    appendDouble(Values[V], T.Values[V].valueAt(Gamma, Beta));
    Bytes += T.Uses[V] * Values[V].size();
  }
  std::string Out;
  Out.reserve(Bytes);
  size_t Pos = 0;
  for (const TextTemplate::Hole &H : T.Holes) {
    Out.append(T.Text, Pos, H.Offset - Pos);
    Out += Values[H.Value];
    Pos = H.Offset + H.Len;
  }
  Out.append(T.Text, Pos, std::string::npos);
  return Out;
}

std::string ProgramInstance::print() const {
  return FromCache ? Sections->printAt(Gamma, Beta)
                   : qasm::printWqasm(Sections->Program);
}

qasm::WqasmProgram ProgramInstance::materialize() const {
  qasm::WqasmProgram Program = Sections->Program;
  if (FromCache)
    patchProgramAngles(Program, Sections->AngleSlots, Gamma, Beta);
  return Program;
}
