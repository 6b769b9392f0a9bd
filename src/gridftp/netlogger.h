// NetLogger-style instrumentation (paper section 4.7): events are
// generated at program start, end, and on errors.  (The paper's optional
// per-I/O events are not modelled.)  The data-transfer study benches read
// these events back to report reliability.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/units.h"

namespace grid3::gridftp {

struct NetLogEvent {
  Time t;
  std::string program;  ///< e.g. "gridftp-server", "url-copy"
  std::string event;    ///< e.g. "transfer.start", "transfer.error"
  std::string detail;
  double value = 0.0;  ///< bytes, rate, etc. depending on event
};

class NetLogger {
 public:
  void log(Time t, std::string program, std::string event,
           std::string detail = {}, double value = 0.0);

  [[nodiscard]] const std::vector<NetLogEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t count(const std::string& event) const;
  [[nodiscard]] std::map<std::string, std::size_t> counts_by_event() const;

  void clear() { events_.clear(); }

 private:
  std::vector<NetLogEvent> events_;
};

}  // namespace grid3::gridftp
