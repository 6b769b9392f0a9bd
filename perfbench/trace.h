// Span accounting shared by the two campaign drivers.
//
// campaign_bench links trace_off.cpp (no spans); campaign_bench_traced
// links trace.cpp, whose `ld --wrap` wrappers time every call into a
// layer's public entry points.  A span's self time is its wall time minus
// the wall time of the spans nested inside it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct SpanTotal {
  std::string name;  ///< "Class::method" of the wrapped entry point
  std::uint64_t calls = 0;
  double self_s = 0.0;
};

/// True in the traced driver.
[[nodiscard]] bool tracing();
/// Zero every span's totals (set-up calls are not part of the run).
void trace_reset();
/// Totals per wrapped entry point, in declaration order.
[[nodiscard]] std::vector<SpanTotal> trace_totals();

}  // namespace perfbench
