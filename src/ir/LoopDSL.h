//===- ir/LoopDSL.h - Textual loop format -----------------------*- C++ -*-===//
///
/// \file
/// A small textual format for writing loops in tests, examples and the
/// synthetic workload suite. Grammar (one statement per line, '#' starts
/// a comment):
///
/// \code
///   loop NAME [trip=N] [weight=W]
///     arrays A B S
///     livein c = 2.5
///     t1 = load A [off=K] [scale=K]
///     m  = fmul t1 c
///     s  = fadd s@1 m init=0 step=1    # s@1: value of s one iter ago
///     store S s [off=K] [scale=K]
///   endloop
/// \endcode
///
/// Operands are a defined name (`t1`), a loop-carried use (`s@2`), a
/// live-in name, or an immediate (`#1.5`). A `#` followed by a digit is
/// always an immediate; any other `#` at line start or after a space
/// starts a comment. A distance is a whole unsigned decimal and an
/// immediate a whole number: `x@-3`, `x@4294967297` and `#1.0zz` are
/// refused, not read as something else. Several loops may appear in one
/// string. parseLoops never throws; errors carry line numbers.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_IR_LOOPDSL_H
#define HCVLIW_IR_LOOPDSL_H

#include "ir/Loop.h"

#include <string>
#include <string_view>
#include <vector>

namespace hcvliw {

struct ParsedLoops {
  std::vector<Loop> Loops;
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Parses every loop in \p Text. On error, ParsedLoops::Error holds a
/// "line N: ..." diagnostic and Loops is empty.
ParsedLoops parseLoops(std::string_view Text);

/// Convenience for tests and tools: parses exactly one loop; throws
/// std::invalid_argument (carrying the parse error) otherwise.
Loop parseSingleLoop(std::string_view Text);

} // namespace hcvliw

#endif // HCVLIW_IR_LOOPDSL_H
