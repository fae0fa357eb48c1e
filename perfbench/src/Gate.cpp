//===- perfbench/src/Gate.cpp - Workload-independent gate checks ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Checks every invocation runs besides the per-output ones: the stage-2
/// unitary check on small formulas (the structural check alone cannot see
/// a wrong angle that the pulses reproduce consistently), and the negative
/// self-test — a gate that never fires is not a gate.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "net/Protocol.h"
#include "qaoa/Builder.h"
#include "qasm/Printer.h"

#include <cstdio>

using namespace weaver;

namespace perfbench {

namespace {

void stageTwo(GateLog &Gate) {
  // Fixed formulas, independent of the run seed: (variables, layers).
  const std::pair<int, int> Set[] = {{4, 1}, {5, 2}, {6, 1}, {7, 2}};
  for (auto [Vars, Layers] : Set) {
    sat::CnfFormula F =
        randomFormula(mixSeed(0x57a6e2, static_cast<uint64_t>(Vars)), Vars);
    qaoa::QaoaParams Q;
    Q.Gamma = 0.41 + 0.05 * Vars;
    Q.Beta = 0.23;
    Q.Layers = Layers;
    auto R = core::compileWeaver(F, directOptions(Q, nullptr));
    std::string Name = "stage-2 unitary uf" + std::to_string(Vars);
    if (!R) {
      Gate.fail(Name, "compile failed: " + R.message());
      continue;
    }
    circuit::Circuit Ref = qaoa::buildQaoaCircuit(F, Q);
    core::CheckReport Rep =
        core::checkWqasm(R->Program, fpqa::HardwareParams(), &Ref);
    if (!Rep.UnitaryChecked)
      Gate.fail(Name, "unitary check did not run");
    else if (!Rep.passed())
      Gate.fail(Name, Rep.Diagnostic);
    else
      Gate.pass("stage-2 unitary check (<=10 vars)");
  }
}

/// Flips one digit of the first local Raman angle: the program still
/// parses, but the pulse no longer implements its gate statement.
bool flipRamanDigit(std::string &Text) {
  size_t At = Text.find("@raman local q[");
  if (At == std::string::npos)
    return false;
  At = Text.find("] ", At);
  if (At == std::string::npos || At + 2 >= Text.size())
    return false;
  char &C = Text[At + 2];
  if (C < '0' || C > '9')
    return false;
  C = C == '9' ? '1' : static_cast<char>(C + 1);
  return true;
}

void negativeSelfTest(GateLog &Gate) {
  sat::CnfFormula F = randomFormula(mixSeed(0xbadb17e, 20), 20);
  qaoa::QaoaParams Q;
  auto R = core::compileWeaver(F, directOptions(Q, nullptr));
  if (!R) {
    Gate.fail("negative self-test", "compile failed: " + R.message());
    return;
  }
  const std::string Printed = qasm::printWqasm(R->Program);
  if (std::string Why = checkPrinted(Printed); !Why.empty())
    Gate.fail("negative self-test", "clean program rejected: " + Why);

  std::string Flipped = Printed;
  if (!flipRamanDigit(Flipped))
    Gate.fail("negative self-test", "no Raman angle to corrupt");
  else if (checkPrinted(Flipped).empty())
    Gate.fail("negative self-test",
              "program with one flipped byte passed the wChecker gate");
  else
    Gate.pass("negative: flipped byte trips wChecker gate");

  // A forged served response: a well-formed OK frame whose program
  // differs from the direct compile in one byte.
  net::ResultFrame Forged;
  Forged.RequestId = 1;
  Forged.Wqasm = Printed;
  Forged.Wqasm[Forged.Wqasm.size() / 2] ^= 0x01;
  std::string Wire = net::encodeResult(Forged);
  auto Decoded = net::decodeResult(
      std::string_view(Wire).substr(net::FrameHeaderBytes));
  if (!Decoded)
    Gate.fail("negative self-test", "forged frame did not decode");
  else if (checkServed(Digest::of(Decoded->Wqasm), Printed).empty())
    Gate.fail("negative self-test",
              "forged served response passed the served-response gate");
  else if (!checkServed(Digest::of(Printed), Printed).empty())
    Gate.fail("negative self-test", "identical bytes rejected");
  else
    Gate.pass("negative: forged response trips served-response gate");
}

} // namespace

void runFixedGate(GateLog &Gate) {
  stageTwo(Gate);
  negativeSelfTest(Gate);
}

} // namespace perfbench
