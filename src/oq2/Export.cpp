//===- oq2/Export.cpp - Circuit to OpenQASM 2 text export -----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "oq2/Export.h"

#include "support/StringUtils.h"

using namespace weaver;
using namespace weaver::circuit;

std::string oq2::printOpenQasm2(const Circuit &C) {
  std::string Out;
  Out += "OPENQASM 2.0;\n";
  Out += "include \"qelib1.inc\";\n";
  Out += "qreg q[";
  appendInt(Out, C.numQubits());
  Out += "];\n";
  if (C.count(GateKind::Measure) > 0) {
    Out += "creg c[";
    appendInt(Out, C.numQubits());
    Out += "];\n";
  }
  for (const Gate &G : C) {
    if (G.kind() == GateKind::Barrier) {
      Out += "barrier q;\n";
      continue;
    }
    if (G.kind() == GateKind::Measure) {
      Out += "measure q[";
      appendInt(Out, G.qubit(0));
      Out += "] -> c[";
      appendInt(Out, G.qubit(0));
      Out += "];\n";
      continue;
    }
    Out += gateName(G.kind());
    if (G.numParams() > 0) {
      Out += "(";
      for (unsigned I = 0, E = G.numParams(); I < E; ++I) {
        if (I)
          Out += ",";
        appendDouble(Out, G.param(I));
      }
      Out += ")";
    }
    for (unsigned I = 0, E = G.numQubits(); I < E; ++I) {
      Out += I ? ",q[" : " q[";
      appendInt(Out, G.qubit(I));
      Out += ']';
    }
    Out += ";\n";
  }
  return Out;
}
