// The untraced driver: no wrappers, no spans.
#include "trace.h"

namespace perfbench {

bool tracing() { return false; }
void trace_reset() {}
std::vector<SpanTotal> trace_totals() { return {}; }

}  // namespace perfbench
