// Custom signal diagnosis (paper §3.2.B): user-supplied checks on the
// output of a chosen actor — "detecting sudden signal changes, monitoring
// the output value of a specified actor, etc."
//
// A custom diagnostic is data-driven (Range / SuddenChange) so it can be
// both interpreted and compiled into generated code, or fully custom:
// a C++ callback for the in-process engines plus an equivalent C++ source
// snippet woven into the generated simulation code.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace accmos {

struct CustomDiagnostic {
  enum class Kind {
    Range,         // fire when output leaves [minValue, maxValue]
    SuddenChange,  // fire when |out - prev| > maxDelta between steps
    Expression,    // user callback / C++ snippet
  };

  std::string actorPath;  // flat path of the monitored actor
  std::string name;       // label shown in the diagnostic record
  Kind kind = Kind::Range;

  double minValue = 0.0;  // Range
  double maxValue = 0.0;
  double maxDelta = 0.0;  // SuddenChange

  // Expression (in-process engines): return true to fire. `cur` is the
  // current output element 0 as double, `prev` the previous step's value
  // (0.0 on the first step), `step` the step index.
  std::function<bool(double cur, double prev, uint64_t step)> callback;

  // Expression (generated code): a C++ boolean expression over the
  // variables `cur`, `prev` (double) and `step` (uint64_t). Beyond those
  // it may use the names of <cmath> (`std::fabs`, `sqrt`, ...): the
  // generated source includes <cmath> for it, and no other C++ header.
  // When empty the generated code skips this check.
  std::string cppCondition;
};

// Convenience constructors.
CustomDiagnostic rangeDiagnostic(std::string actorPath, std::string name,
                                 double minValue, double maxValue);
CustomDiagnostic suddenChangeDiagnostic(std::string actorPath,
                                        std::string name, double maxDelta);

}  // namespace accmos
