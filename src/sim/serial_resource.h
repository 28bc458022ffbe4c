// SerialResource models an execution resource that processes work items one
// at a time in FIFO order: a host CPU thread, an RPC dispatch thread, a DMA
// engine. Work submitted while the resource is busy queues behind earlier
// work.
//
// This is the mechanism behind the paper's single-controller overheads: the
// coordinator's dispatch thread is a SerialResource, so sending one gang-
// dispatch message per device executor serializes (~17 µs each in our
// calibration), which is exactly what Figure 6 measures (2048 devices ×
// per-message cost ≈ 35 ms of host-side work per step).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/units.h"
#include "sim/simulator.h"

namespace pw::sim {

class SerialResource {
 public:
  SerialResource(Simulator* sim, std::string name)
      : sim_(sim), name_(std::move(name)) {}

  SerialResource(const SerialResource&) = delete;
  SerialResource& operator=(const SerialResource&) = delete;

  // Submits a work item costing `cost` of this resource's time. `fn` runs
  // when the work *completes* (at the timestamp the resource frees up).
  // Returns the completion time.
  TimePoint Submit(Duration cost, std::function<void()> fn) {
    const TimePoint start = std::max(sim_->now(), busy_until_);
    const TimePoint done = start + cost;
    busy_until_ = done;
    busy_accum_ += cost;
    ++jobs_;
    sim_->ScheduleAt(done, std::move(fn));
    return done;
  }

  // Submits work with no completion callback.
  TimePoint Submit(Duration cost) {
    return Submit(cost, [] {});
  }

  TimePoint busy_until() const { return busy_until_; }
  bool idle() const { return busy_until_ <= sim_->now(); }
  Duration total_busy() const { return busy_accum_; }
  std::int64_t jobs_processed() const { return jobs_; }
  const std::string& name() const { return name_; }

 private:
  Simulator* sim_;
  std::string name_;
  TimePoint busy_until_;
  Duration busy_accum_;
  std::int64_t jobs_ = 0;
};

}  // namespace pw::sim
