#include "serving/metrics.h"

#include <sstream>

#include "common/fnv.h"

namespace pw::serving {

std::uint64_t ServingTrace::Checksum() const {
  Fnv1a h;
  h.AddI64(static_cast<std::int64_t>(events_.size()));
  for (const Event& e : events_) {
    h.AddI64(e.at_ns);
    h.AddStr(e.kind);
    h.AddI64(e.request);
    h.AddI64(e.detail);
  }
  return h.value();
}

std::string ServingTrace::ToString() const {
  std::ostringstream os;
  for (const Event& e : events_) {
    os << e.at_ns << "ns " << e.kind << " req=" << e.request
       << " detail=" << e.detail << "\n";
  }
  return os.str();
}

}  // namespace pw::serving
