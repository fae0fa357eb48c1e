//===- core/pipeline/PassCache.h - Pass-result memoisation -----*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memoisation of pass results across compilations that share inputs — the
/// ROADMAP "Per-pass caching" item. A QAOA parameter sweep recompiles the
/// same (formula, geometry) under varying gamma/beta/layers; the cache
/// lets the pipeline skip everything those parameters do not influence.
///
/// Two tiers, under two keys:
///
///  * Front half — the clause colouring and zone plan depend only on
///    (formula, geometry, colouring options). Keyed on exactly those; a
///    hit skips straight to ShuttleSchedulingPass.
///  * Program template — at fixed layers the emitted program differs
///    across gamma/beta only in angle values, each an exact power-of-two
///    multiple of one parameter (AngleSlot). The tier caches the program
///    with its recorded angle slots plus the angle-independent pulse
///    stats, keyed on every pipeline input except gamma/beta. A hit skips
///    gate lowering and the pulse-emission replay and copies nothing: the
///    compile hands out a ProgramInstance (shared template + gamma/beta).
///    Printing it splices the template's text — rendered once per entry,
///    on the first hit that asks for text, as literal runs with one hole
///    per angle slot — with the few distinct angle values formatted once;
///    materializing it copies the program and patches the slots. Both are
///    byte-identical to direct emission. A miss moves its freshly emitted
///    program into the new entry instead of copying it.
///
/// Keys hash the full input payload and compare it exactly on lookup, so
/// hash collisions cannot alias entries. All operations are mutex-guarded:
/// one cache may be shared by every worker of a compileBatch sweep.
///
/// The cache is also durable: saveSnapshot() serializes both tiers to a
/// versioned, checksummed file keyed by the key payloads plus a compiler
/// fingerprint (git hash + format/schema versions), and loadSnapshot()
/// mmaps such a file back. Loading deserializes only the key index; the
/// section payloads stay in the mapping and are materialized lazily on
/// the first hit, so a warm start costs index deserialization, not
/// template re-materialization. Any defect in a cache file — truncation,
/// checksum mismatch, wrong version or fingerprint — fails the load and
/// leaves the cache to compile cold; a hostile file can never crash the
/// process or alias a wrong entry. Multi-process sweeps persist one
/// segment file per shard (same format) and compact them with
/// mergeSnapshots(); see tools/shard_sweep.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_PASSCACHE_H
#define WEAVER_CORE_PIPELINE_PASSCACHE_H

#include "core/pipeline/CompilationContext.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace weaver {

class MappedFile;

namespace core {
namespace pipeline {

/// Exact-match cache key: a flat word payload (formula, options, hardware)
/// plus its hash. Lookups compare the payload, never just the hash.
class PassCacheKey {
public:
  /// Key of the front half: formula + geometry + colouring options.
  static PassCacheKey frontHalf(const CompilationContext &Ctx);
  /// Key of the program template: every pipeline input except gamma/beta.
  /// Extends an already-built front-half key so the formula payload is
  /// serialized and hashed only once per compile.
  static PassCacheKey program(const PassCacheKey &FrontKey,
                              const CompilationContext &Ctx);

  uint64_t hash() const { return Hash; }
  friend bool operator==(const PassCacheKey &A, const PassCacheKey &B) {
    return A.Hash == B.Hash && A.Words == B.Words;
  }

  /// The exact payload; what the snapshot format persists per entry.
  const std::vector<uint64_t> &words() const { return Words; }
  /// Rebuilds a key from a persisted payload (the hash is recomputed, so
  /// a corrupted payload simply becomes a key that matches nothing).
  static PassCacheKey fromWords(std::vector<uint64_t> W) {
    PassCacheKey K;
    K.Words = std::move(W);
    K.finish();
    return K;
  }

private:
  void add(uint64_t Word);
  void add(double Value);
  void finish();

  std::vector<uint64_t> Words;
  uint64_t Hash = 0;
};

/// Context sections produced by ClauseColoringPass and ZonePlanningPass.
struct FrontHalfSections {
  ClauseColoring Coloring;
  std::vector<ColorPlan> Plans;
  std::vector<Vec2> SlmTraps;
  std::map<std::pair<int, int>, int> ZoneSiteTrap;
  int NumColumns = 0;
};

/// Context sections produced by GateLoweringPass and PulseEmissionPass:
/// the program template with its parameterised angle slots, and the
/// gamma/beta-independent pulse statistics. Immutable once shared, apart
/// from the text template, which renders lazily and thread-safely.
struct ProgramSections {
  qasm::WqasmProgram Program;
  std::vector<AngleSlot> AngleSlots;
  fpqa::PulseStats Stats;

  /// printWqasm of Program with every angle slot set to its value at
  /// (\p Gamma, \p Beta): a splice of the text template. The first call
  /// renders the template (through printWqasm's span recording); later
  /// and concurrent calls wait for that one render and share it.
  std::string printAt(double Gamma, double Beta) const;
  /// How often the text template was rendered: 0 until the first
  /// printAt, then 1.
  unsigned textRenders() const {
    return Renders.load(std::memory_order_acquire);
  }

private:
  /// Program's printed text with one hole per printed angle slot, sorted
  /// by offset. Each hole is bound to one distinct (Dep, Coeff) value.
  struct TextTemplate {
    struct Hole {
      size_t Offset = 0;
      size_t Len = 0;
      uint32_t Value = 0; ///< index into Values
    };
    std::string Text;
    std::vector<Hole> Holes;
    /// The distinct (Dep, Coeff) pairs the holes take their value from.
    std::vector<AngleSlot> Values;
    /// How many holes each value fills (sizes the splice buffer).
    std::vector<size_t> Uses;
    /// Text bytes outside every hole.
    size_t LiteralBytes = 0;
  };
  const TextTemplate &textTemplate() const;

  mutable std::once_flag TextOnce;
  mutable TextTemplate Text;
  mutable std::atomic<unsigned> Renders{0};
};

/// A compiled program at one parameter point, without a private copy of
/// it: the shared program sections plus the point's angles. On a
/// program-tier hit the sections are the cached template; on a miss they
/// hold the compile's own program (with a cache they are the new entry,
/// without one they carry no angle slots), which already has this point's
/// angles.
struct ProgramInstance {
  std::shared_ptr<const ProgramSections> Sections;
  double Gamma = 0;
  double Beta = 0;
  /// The sections came from a program-tier hit.
  bool FromCache = false;

  /// printWqasm of the program; a template splice on a hit.
  std::string print() const;
  /// A private copy of the program (the template patched to this point's
  /// angles on a hit).
  qasm::WqasmProgram materialize() const;
};

/// A cache hit handed to Pass::restoreSections. Front is set on both
/// tiers; Back only on a program-template hit.
struct PassCacheEntry {
  std::shared_ptr<const FrontHalfSections> Front;
  std::shared_ptr<const ProgramSections> Back;
};

/// Mutable entry under construction: passes fill their sections via
/// Pass::saveSections as they run; PassManager inserts the finished tiers.
/// The program itself is not copied here: PassManager moves it out of the
/// context after the last pass.
struct PassCacheEntryBuilder {
  FrontHalfSections Front;
  fpqa::PulseStats Stats;
  bool SavedColoring = false;
  bool SavedPlan = false;
  bool SavedProgram = false;
  bool SavedStats = false;
};

// --- Persistence constants (on-disk snapshot format v1) ------------------
//
// Layout: a 40-byte header followed by the payload.
//   [0]  u64 magic ("WVRCACHE", little-endian)
//   [8]  u32 format version
//   [12] u32 reserved (0)
//   [16] u64 compiler fingerprint (see compilerFingerprint())
//   [24] u64 payload byte count
//   [32] u64 FNV-1a checksum of the payload
//   [40] payload: front-section pool, front-tier index, program-tier
//        index (see PassCachePersist.cpp)
// Tests patch these offsets directly to forge hostile headers.
inline constexpr uint64_t SnapshotMagic = 0x4548434143525657ull; // "WVRCACHE"
inline constexpr uint32_t SnapshotFormatVersion = 1;
inline constexpr size_t SnapshotHeaderBytes = 40;

/// Identity of the compiler that wrote a snapshot: git hash baked in at
/// configure time, the snapshot format version, and the option-schema
/// sizes the cache keys enumerate. Any mismatch invalidates a cache file
/// wholesale — a stale template from another compiler build must never
/// be instantiated.
uint64_t compilerFingerprint();

/// Thread-safe two-tier memoisation store. See file comment.
class PassCache {
public:
  /// Hit/miss counters. A program-tier hit does not consult (or count)
  /// the front tier; a program-tier miss falls through to a counted
  /// front-tier lookup.
  struct CacheStats {
    uint64_t FrontHits = 0;
    uint64_t FrontMisses = 0;
    uint64_t ProgramHits = 0;
    uint64_t ProgramMisses = 0;
    /// Sections parsed on demand out of a mapped snapshot — how many
    /// hits were served from disk rather than from in-process inserts.
    uint64_t Materializations = 0;
  };

  /// \p MaxEntries bounds the total entry count across both tiers; the
  /// cache is flushed when an insertion would exceed it (sweep working
  /// sets are far smaller). 0 means unbounded.
  explicit PassCache(size_t MaxEntries = 1024) : MaxEntries(MaxEntries) {}

  /// Program-template lookup; on a hit both Front and Back are set.
  PassCacheEntry lookupProgram(const PassCacheKey &Key);
  /// Front-half lookup (counted only after a program-tier miss).
  std::shared_ptr<const FrontHalfSections> lookupFront(const PassCacheKey &Key);

  /// Inserts the front sections; returns the stored copy (the previously
  /// cached one when another worker raced the insertion).
  std::shared_ptr<const FrontHalfSections>
  insertFront(const PassCacheKey &Key, FrontHalfSections Sections);
  /// Inserts a program template linked to the front sections stored under
  /// \p FrontKey (inserting \p Front there first when absent — the link
  /// is what lets a snapshot share one front payload between tiers). When
  /// another worker inserted the key first, its entry is kept.
  void insertProgram(const PassCacheKey &Key, const PassCacheKey &FrontKey,
                     std::shared_ptr<const FrontHalfSections> Front,
                     std::shared_ptr<const ProgramSections> Sections);

  // --- Persistence (implemented in PassCachePersist.cpp) ----------------

  /// Serializes both tiers to \p Path atomically (temp + rename). Entries
  /// that were loaded from a snapshot and never materialized are copied
  /// byte-for-byte, so a load-then-save round trip (the shard merge path)
  /// never parses section payloads. \p Fingerprint defaults to this
  /// build's compilerFingerprint(); tests override it to forge mismatches.
  Status saveSnapshot(const std::string &Path) const;
  Status saveSnapshot(const std::string &Path, uint64_t Fingerprint) const;

  /// Maps \p Path and merges its entries into this cache (keys already
  /// present are kept, not overwritten — first writer wins). Only the key
  /// index is deserialized here; section payloads materialize lazily on
  /// first hit. On any validation failure (unreadable, truncated, bad
  /// magic/version/checksum, fingerprint != \p ExpectFingerprint) nothing
  /// is inserted and the error is returned — callers fall back to a cold
  /// compile.
  Status loadSnapshot(const std::string &Path);
  Status loadSnapshot(const std::string &Path, uint64_t ExpectFingerprint);

  /// Compacts shard segment files into one snapshot: loads every input
  /// (first file wins on duplicate keys) and saves the union to
  /// \p Output. Fails on the first unreadable/invalid input.
  static Status mergeSnapshots(const std::vector<std::string> &Inputs,
                               const std::string &Output);
  /// Tolerant variant for crash-recovery paths: when \p Skipped is
  /// non-null, an unreadable/invalid input is recorded there ("path:
  /// reason") and skipped instead of failing the merge — its entries
  /// simply recompute as cold misses on the next run.
  static Status mergeSnapshots(const std::vector<std::string> &Inputs,
                               const std::string &Output,
                               std::vector<std::string> *Skipped);

  CacheStats stats() const;
  /// Total entries across both tiers.
  size_t size() const;
  void clear();

private:
  /// Byte range of a section payload inside a mapped snapshot; File is
  /// null for entries inserted in-process.
  struct LazyBlob {
    std::shared_ptr<MappedFile> File;
    size_t Offset = 0;
    size_t Len = 0;
  };
  /// One stored front-half section set: either materialized (Value set),
  /// or still a byte range of the snapshot it was loaded from. Shared by
  /// the front tier and every program entry built on it.
  struct FrontCell {
    std::shared_ptr<const FrontHalfSections> Value;
    LazyBlob Blob;
  };
  /// One stored program template, linked to its front cell.
  struct ProgramCell {
    std::shared_ptr<FrontCell> Front;
    std::shared_ptr<const ProgramSections> Value;
    LazyBlob Blob;
  };

  template <typename T>
  using KeyedMap =
      std::unordered_map<uint64_t, std::vector<std::pair<PassCacheKey, T>>>;

  /// Parse-on-demand of a loaded cell; return false (a miss) on a parse
  /// failure — insertFront/insertProgram then refill the slot. Callers
  /// hold Mutex.
  bool materializeFrontLocked(FrontCell &Cell);
  bool materializeProgramLocked(ProgramCell &Cell);
  /// Flushes both tiers when an insertion would exceed MaxEntries;
  /// caller holds Mutex.
  void evictForInsertLocked();

  mutable std::mutex Mutex;
  KeyedMap<std::shared_ptr<FrontCell>> FrontMap;
  KeyedMap<std::shared_ptr<ProgramCell>> ProgramMap;
  CacheStats Counts;
  size_t MaxEntries;
  size_t NumEntries = 0;
};

/// Writes every recorded slot's valueAt(Gamma, Beta) into \p Program.
/// Bit-identical to direct emission because every coefficient is an exact
/// power of two (see AngleSlot).
void patchProgramAngles(qasm::WqasmProgram &Program,
                        const std::vector<AngleSlot> &Slots, double Gamma,
                        double Beta);

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_PASSCACHE_H
