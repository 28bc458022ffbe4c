#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/future.h"
#include "sim/serial_resource.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace pw::sim {
namespace {

// ------------------------------------------------------------ Simulator --

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Duration::Micros(30), [&] { order.push_back(3); });
  sim.Schedule(Duration::Micros(10), [&] { order.push_back(1); });
  sim.Schedule(Duration::Micros(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), TimePoint() + Duration::Micros(30));
}

TEST(SimulatorTest, EqualTimestampsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Micros(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Micros(1), [&] {
    sim.Schedule(Duration::Micros(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ToMicros(), 2.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(Duration::Micros(10), [&] { ++ran; });
  sim.Schedule(Duration::Micros(30), [&] { ++ran; });
  sim.RunUntil(TimePoint() + Duration::Micros(20));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now().ToMicros(), 20.0);
  sim.Run();
  EXPECT_EQ(ran, 2);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.Schedule(Duration::Micros(5), [] {});
  sim.RunFor(Duration::Micros(3));
  EXPECT_EQ(sim.now().ToMicros(), 3.0);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, RunUntilPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Micros(i + 1), [&] { ++count; });
  }
  const bool hit = sim.RunUntilPredicate([&] { return count == 4; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(count, 4);
}

TEST(SimulatorTest, RunUntilPredicateFalseWhenQueueDrains) {
  Simulator sim;
  sim.Schedule(Duration::Micros(1), [] {});
  EXPECT_FALSE(sim.RunUntilPredicate([] { return false; }));
}

TEST(SimulatorTest, BlockedProbesReportDeadlock) {
  Simulator sim;
  bool blocked = true;
  sim.RegisterBlockedProbe([&]() -> std::string {
    return blocked ? "devA waiting at collective" : "";
  });
  sim.Run();
  EXPECT_TRUE(sim.Deadlocked());
  ASSERT_EQ(sim.BlockedEntities().size(), 1u);
  blocked = false;
  EXPECT_FALSE(sim.Deadlocked());
}

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.Schedule(Duration::Nanos(100 * (i % 7)), [&order, i] { order.push_back(i); });
    }
    sim.Run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

// -------------------------------------------------------------- Futures --

TEST(FutureTest, ThenRunsAfterSet) {
  Simulator sim;
  SimPromise<int> p(&sim);
  int got = 0;
  p.future().Then([&](const int& v) { got = v; });
  p.Set(42);
  EXPECT_EQ(got, 0);  // callbacks are events, not inline calls
  sim.Run();
  EXPECT_EQ(got, 42);
}

TEST(FutureTest, ThenOnAlreadyReadyFuture) {
  Simulator sim;
  auto fut = ReadyFuture(&sim, std::string("hello"));
  std::string got;
  fut.Then([&](const std::string& v) { got = v; });
  sim.Run();
  EXPECT_EQ(got, "hello");
}

TEST(FutureTest, MultipleCallbacksAllFire) {
  Simulator sim;
  SimPromise<int> p(&sim);
  int sum = 0;
  for (int i = 0; i < 5; ++i) p.future().Then([&](const int& v) { sum += v; });
  p.Set(10);
  sim.Run();
  EXPECT_EQ(sum, 50);
}

TEST(FutureTest, ReadyAndValueObservable) {
  Simulator sim;
  SimPromise<int> p(&sim);
  auto f = p.future();
  EXPECT_TRUE(f.valid());
  EXPECT_FALSE(f.ready());
  p.Set(5);
  EXPECT_TRUE(f.ready());
  EXPECT_EQ(f.value(), 5);
}

TEST(FutureTest, WhenAllEmptyCompletesImmediately) {
  Simulator sim;
  auto all = WhenAll(&sim, {});
  sim.Run();
  EXPECT_TRUE(all.ready());
}

TEST(FutureTest, WhenAllWaitsForEveryInput) {
  Simulator sim;
  SimPromise<Unit> a(&sim), b(&sim), c(&sim);
  auto all = WhenAll(&sim, {a.future(), b.future(), c.future()});
  a.Set(Unit{});
  b.Set(Unit{});
  sim.Run();
  EXPECT_FALSE(all.ready());
  c.Set(Unit{});
  sim.Run();
  EXPECT_TRUE(all.ready());
}

TEST(CountdownLatchTest, FiresAtZero) {
  Simulator sim;
  CountdownLatch latch(&sim, 3);
  latch.CountDown();
  latch.CountDown();
  sim.Run();
  EXPECT_FALSE(latch.done().ready());
  latch.CountDown();
  sim.Run();
  EXPECT_TRUE(latch.done().ready());
}

TEST(CountdownLatchTest, ZeroCountIsImmediatelyDone) {
  Simulator sim;
  CountdownLatch latch(&sim, 0);
  EXPECT_TRUE(latch.done().ready());
}

// ------------------------------------------------------- SerialResource --

TEST(SerialResourceTest, SerializesWork) {
  Simulator sim;
  SerialResource cpu(&sim, "cpu0");
  std::vector<double> completion_us;
  for (int i = 0; i < 3; ++i) {
    cpu.Submit(Duration::Micros(10),
               [&] { completion_us.push_back(sim.now().ToMicros()); });
  }
  sim.Run();
  EXPECT_EQ(completion_us, (std::vector<double>{10, 20, 30}));
  EXPECT_EQ(cpu.jobs_processed(), 3);
  EXPECT_EQ(cpu.total_busy().ToMicros(), 30.0);
}

TEST(SerialResourceTest, IdleGapsDoNotAccumulate) {
  Simulator sim;
  SerialResource cpu(&sim, "cpu0");
  double done2 = 0;
  cpu.Submit(Duration::Micros(5));
  sim.Schedule(Duration::Micros(100), [&] {
    cpu.Submit(Duration::Micros(5), [&] { done2 = sim.now().ToMicros(); });
  });
  sim.Run();
  EXPECT_EQ(done2, 105.0);  // starts fresh at t=100, not queued behind t=5
}

// ----------------------------------------------------------------- Trace --

TEST(TraceTest, UtilizationSingleResource) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 0, "step", t0, t0 + Duration::Micros(50));
  tr.Record("dev0", 0, "step", t0 + Duration::Micros(75), t0 + Duration::Micros(100));
  EXPECT_DOUBLE_EQ(tr.Utilization("dev0", t0, t0 + Duration::Micros(100)), 0.75);
}

TEST(TraceTest, BusyPerClientShares) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 1, "a", t0, t0 + Duration::Micros(10));
  tr.Record("dev0", 2, "b", t0 + Duration::Micros(10), t0 + Duration::Micros(30));
  tr.Record("dev1", 2, "b", t0, t0 + Duration::Micros(20));
  auto busy = tr.BusyPerClient(t0, t0 + Duration::Micros(30));
  EXPECT_EQ(busy[1].ToMicros(), 10.0);
  EXPECT_EQ(busy[2].ToMicros(), 40.0);
}

TEST(TraceTest, ClipsSpansToWindow) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 0, "x", t0, t0 + Duration::Micros(100));
  EXPECT_DOUBLE_EQ(
      tr.Utilization("dev0", t0 + Duration::Micros(40), t0 + Duration::Micros(60)),
      1.0);
}

TEST(TraceTest, AsciiRenderShowsClients) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 1, "a", t0, t0 + Duration::Micros(50));
  tr.Record("dev0", 2, "b", t0 + Duration::Micros(50), t0 + Duration::Micros(100));
  const std::string art = tr.RenderAscii(t0, t0 + Duration::Micros(100), 10);
  EXPECT_NE(art.find("1111122222"), std::string::npos);
  EXPECT_NE(art.find("dev0"), std::string::npos);
}

TEST(TraceTest, MeanUtilizationAcrossResources) {
  TraceRecorder tr;
  const TimePoint t0;
  tr.Record("dev0", 0, "x", t0, t0 + Duration::Micros(100));
  tr.Record("dev1", 0, "x", t0, t0 + Duration::Micros(50));
  EXPECT_DOUBLE_EQ(tr.MeanUtilization(t0, t0 + Duration::Micros(100)), 0.75);
}

}  // namespace
}  // namespace pw::sim
