//===- configsel/DesignSpace.h - Candidate grids and designs -----*- C++ -*-===//
///
/// \file
/// The heterogeneous design space of Section 3.3 / Section 5 — the
/// frequency-factor and voltage grids a search enumerates — and the
/// record describing one evaluated design. The ExplorationEngine
/// (src/explore/) searches these grids and returns SelectedDesigns.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_CONFIGSEL_DESIGNSPACE_H
#define HCVLIW_CONFIGSEL_DESIGNSPACE_H

#include "mcd/HeteroConfig.h"
#include "power/EnergyModel.h"

#include <vector>

namespace hcvliw {

struct DesignSpaceOptions {
  std::vector<Rational> FastFactors;
  std::vector<Rational> SlowRatios;
  unsigned NumFastClusters = 1;
  std::vector<double> ClusterVddGrid;
  std::vector<double> IcnVddGrid;
  std::vector<double> CacheVddGrid;
  std::vector<Rational> HomogFactors;
  std::vector<double> HomogVddGrid;

  /// The paper's evaluation grids (Section 5).
  static DesignSpaceOptions paperDefault();

  /// Heterogeneous candidates in the grid (|FastFactors| x |SlowRatios|).
  size_t numHeteroCandidates() const {
    return FastFactors.size() * SlowRatios.size();
  }
};

struct SelectedDesign {
  bool Valid = false;
  HeteroConfig Config;
  HeteroScaling Scaling;
  double EstTexecNs = 0;
  double EstEnergy = 0;
  double EstED2 = 0;
};

} // namespace hcvliw

#endif // HCVLIW_CONFIGSEL_DESIGNSPACE_H
