//===- machine/IsaTable.cpp - Table 1: latency and energy -------------------===//

#include "machine/IsaTable.h"

#include <stdexcept>

using namespace hcvliw;

IsaTable::IsaTable() {
  set(OpCategory::Memory, /*IsFloat=*/false, {2, 1.0});
  set(OpCategory::Memory, /*IsFloat=*/true, {2, 1.0});
  set(OpCategory::Arith, /*IsFloat=*/false, {1, 1.0});
  set(OpCategory::Arith, /*IsFloat=*/true, {3, 1.2});
  set(OpCategory::Mul, /*IsFloat=*/false, {2, 1.1});
  set(OpCategory::Mul, /*IsFloat=*/true, {6, 1.5});
  set(OpCategory::Div, /*IsFloat=*/false, {6, 1.4});
  set(OpCategory::Div, /*IsFloat=*/true, {18, 2.0});
}

LatencyEnergy IsaTable::get(Opcode Op) const {
  OpCategory Cat = categoryOf(Op);
  if (Cat == OpCategory::Copy) {
    // Copies execute on the bus; their energy is charged through the
    // communication term of the energy model, not per-instruction.
    return {1, 0.0};
  }
  return Table[static_cast<unsigned>(Cat)][isFloatOpcode(Op) ? 1 : 0];
}

void IsaTable::set(OpCategory Cat, bool IsFloat, LatencyEnergy LE) {
  // The recMII search relies on every latency being >= 1.
  if (Cat == OpCategory::Copy)
    throw std::invalid_argument("IsaTable::set: copy latency is fixed");
  if (LE.Latency == 0)
    throw std::invalid_argument(
        "IsaTable::set: zero-latency operations unsupported");
  Table[static_cast<unsigned>(Cat)][IsFloat ? 1 : 0] = LE;
}

std::vector<unsigned> IsaTable::nodeLatencies(const Loop &L) const {
  std::vector<unsigned> Lat;
  nodeLatenciesInto(Lat, L);
  return Lat;
}

void IsaTable::nodeLatenciesInto(std::vector<unsigned> &Lat,
                                 const Loop &L) const {
  Lat.resize(L.size());
  for (unsigned I = 0; I < L.size(); ++I)
    Lat[I] = latency(L.Ops[I].Op);
}

double IsaTable::meanInstructionEnergy(const Loop &L) const {
  if (L.Ops.empty())
    return 1.0;
  double Sum = 0;
  for (const Operation &O : L.Ops)
    Sum += energy(O.Op);
  return Sum / static_cast<double>(L.Ops.size());
}
