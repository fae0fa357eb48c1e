//===- fpqa/Analysis.cpp - Pulse program timing and EPS -------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "fpqa/Analysis.h"

#include <cmath>
#include <cstdint>
#include <vector>

using namespace weaver;
using namespace weaver::fpqa;
using qasm::Annotation;
using qasm::AnnotationKind;

namespace {

/// Groups consecutive shuttle/transfer instructions into parallel batches
/// (Algorithm 2's parallel shuttle sets): a batch extends while
/// instructions of the same kind touch pairwise-distinct rows/columns.
/// Axis membership uses epoch-stamped per-axis arrays — O(1) per
/// instruction, no per-batch tree set.
struct BatchTracker {
  enum class Kind { None, Shuttle, Transfer };

  Kind Batch = Kind::None;
  double MaxDistance = 0; ///< max |offset| inside the open shuttle batch

  /// True when the axis already shuttled inside the open batch (which
  /// then has to close first).
  bool axisSeen(bool Row, int Index) { return stamps(Row, Index) == Epoch; }

  void markAxis(bool Row, int Index) { stamps(Row, Index) = Epoch; }

  /// Closes the open batch (the caller accounts for it first).
  void reset() {
    Batch = Kind::None;
    ++Epoch;
    MaxDistance = 0;
  }

private:
  /// Self-sizing per-axis stamp access — no call-order contract between
  /// axisSeen and markAxis.
  uint64_t &stamps(bool Row, int Index) {
    std::vector<uint64_t> &Stamps = Row ? RowStamps : ColStamps;
    if (static_cast<size_t>(Index) >= Stamps.size())
      Stamps.resize(Index + 1, 0);
    return Stamps[Index];
  }

  uint64_t Epoch = 1; ///< stamps start at 0, so 1 = "not in this batch"
  std::vector<uint64_t> RowStamps, ColStamps;
};

/// Streaming replay accumulator: feed annotations in execution order via
/// step(), then read the totals with finish(). Works over any range —
/// the zero-copy qasm::AnnotationView or a materialised vector.
class PulseReplayer {
public:
  explicit PulseReplayer(const HardwareParams &Params)
      : Params(Params), Device(Params) {}

  Status step(const Annotation &A) {
    if (Status S = Device.apply(A))
      return S;
    switch (A.Kind) {
    case AnnotationKind::Slm:
    case AnnotationKind::Aod:
    case AnnotationKind::Bind:
      closeBatch();
      break; // setup: no pulse, no time
    case AnnotationKind::Shuttle: {
      Stats.ShuttleInstructions++;
      Stats.ShuttleAnnotations++;
      if (Batches.Batch != BatchTracker::Kind::Shuttle ||
          Batches.axisSeen(A.ShuttleRow, A.ShuttleIndex)) {
        closeBatch();
        Batches.Batch = BatchTracker::Kind::Shuttle;
      }
      Batches.markAxis(A.ShuttleRow, A.ShuttleIndex);
      Batches.MaxDistance = std::max(Batches.MaxDistance, std::abs(A.Offset));
      break;
    }
    case AnnotationKind::ShuttleParallel: {
      // One annotation == one AOD step == exactly one batch; no
      // reconstruction needed and no merging with neighbouring shuttles.
      closeBatch();
      Stats.ShuttleAnnotations++;
      Stats.ShuttleInstructions += A.ShuttleIndices.size();
      Stats.MaxParallelShuttleWidth =
          std::max(Stats.MaxParallelShuttleWidth, A.ShuttleIndices.size());
      Stats.ShuttleBatches++;
      double MaxOffset = 0;
      for (double Offset : A.ShuttleOffsets)
        MaxOffset = std::max(MaxOffset, std::abs(Offset));
      Stats.Duration += MaxOffset / Params.ShuttleSpeedUmPerSec;
      break;
    }
    case AnnotationKind::Transfer: {
      Stats.TransferInstructions++;
      if (Batches.Batch != BatchTracker::Kind::Transfer) {
        closeBatch();
        Batches.Batch = BatchTracker::Kind::Transfer;
      }
      EpsLog += std::log(Params.TransferFidelity);
      break;
    }
    case AnnotationKind::RamanLocal:
      closeBatch();
      Stats.RamanLocalPulses++;
      Stats.Duration += Params.RamanLocalTime;
      EpsLog += std::log(Params.RamanFidelity);
      break;
    case AnnotationKind::RamanGlobal:
      closeBatch();
      Stats.RamanGlobalPulses++;
      Stats.Duration += Params.RamanGlobalTime;
      EpsLog += static_cast<double>(Device.numAtoms()) *
                std::log(Params.RamanFidelity);
      break;
    case AnnotationKind::Rydberg: {
      closeBatch();
      Stats.RydbergPulses++;
      Stats.Duration += Params.RydbergTime;
      // The device memoised the cluster decomposition while validating
      // the pulse in apply(), so this query is a copy-free cache hit.
      auto Clusters = Device.rydbergClustersRef();
      if (!Clusters)
        return Clusters.status();
      for (const RydbergCluster &C : **Clusters) {
        if (C.Qubits.size() == 2) {
          Stats.CzGates++;
          EpsLog += std::log(Params.CzFidelity);
        } else {
          Stats.CczGates++;
          EpsLog += std::log(Params.CczFidelity);
        }
      }
      break;
    }
    }
    return Status::success();
  }

  PulseStats finish() {
    closeBatch();
    Stats.NumAtoms = Device.numAtoms();
    // Decoherence: every atom idles for the program duration (§8.3: longer
    // circuit duration -> higher chance of decoherence errors).
    EpsLog -= static_cast<double>(Stats.NumAtoms) * Stats.Duration / Params.T2;
    Stats.Eps = std::exp(EpsLog);
    return Stats;
  }

private:
  void closeBatch() {
    if (Batches.Batch == BatchTracker::Kind::Shuttle) {
      Stats.ShuttleBatches++;
      Stats.Duration += Batches.MaxDistance / Params.ShuttleSpeedUmPerSec;
    } else if (Batches.Batch == BatchTracker::Kind::Transfer) {
      Stats.TransferBatches++;
      Stats.Duration += Params.TransferTime;
    }
    Batches.reset();
  }

  const HardwareParams &Params;
  FpqaDevice Device;
  PulseStats Stats;
  double EpsLog = 0; // accumulate log-fidelity for numerical stability
  BatchTracker Batches;
};

template <typename Range>
Expected<PulseStats> analyzeRange(const Range &Program,
                                  const HardwareParams &Params) {
  PulseReplayer Replay(Params);
  for (const Annotation &A : Program)
    if (Status S = Replay.step(A))
      return Expected<PulseStats>(S);
  return Replay.finish();
}

} // namespace

Expected<PulseStats>
fpqa::analyzePulseProgram(const std::vector<Annotation> &Program,
                          const HardwareParams &Params) {
  return analyzeRange(Program, Params);
}

Expected<PulseStats>
fpqa::analyzePulseProgram(const qasm::WqasmProgram &Program,
                          const HardwareParams &Params) {
  return analyzeRange(qasm::AnnotationView(Program), Params);
}
