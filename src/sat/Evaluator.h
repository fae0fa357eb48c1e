//===- sat/Evaluator.h - MAX-SAT assignment evaluation ---------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Brute-force MAX-SAT optimum and assignment scoring. Used by tests to
/// validate that the compiled QAOA phase separation reproduces the
/// clause-counting objective, and by examples to interpret measured
/// bitstrings (paper Fig. 1d).
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_SAT_EVALUATOR_H
#define WEAVER_SAT_EVALUATOR_H

#include "sat/Cnf.h"

#include <cstdint>
#include <vector>

namespace weaver {
namespace sat {

/// Result of a brute-force MAX-SAT search.
struct MaxSatOptimum {
  /// Maximum number of simultaneously satisfiable clauses.
  size_t BestSatisfied = 0;
  /// One optimal assignment (bit i = variable i+1).
  std::vector<bool> BestAssignment;
};

/// Converts bitmask \p Bits (bit i = variable i+1) into an assignment vector.
std::vector<bool> assignmentFromBits(uint64_t Bits, int NumVariables);

/// Exhaustively searches all 2^N assignments; requires N <= 24.
MaxSatOptimum bruteForceMaxSat(const CnfFormula &Formula);

} // namespace sat
} // namespace weaver

#endif // WEAVER_SAT_EVALUATOR_H
