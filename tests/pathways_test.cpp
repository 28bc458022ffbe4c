#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "pathways/pathways.h"
#include "sim/simulator.h"

namespace pw::pathways {
namespace {

using xlasim::CompiledFunction;

struct World {
  explicit World(int hosts = 4, int devices_per_host = 2, int islands = 1,
                 PathwaysOptions options = {},
                 hw::SystemParams params = hw::SystemParams::TpuDefault()) {
    params.host_jitter_frac = 0;  // deterministic timing in unit tests
    cluster = std::make_unique<hw::Cluster>(&sim, params, islands, hosts,
                                            devices_per_host);
    runtime = std::make_unique<PathwaysRuntime>(cluster.get(), options);
  }

  sim::Simulator sim;
  std::unique_ptr<hw::Cluster> cluster;
  std::unique_ptr<PathwaysRuntime> runtime;
};

// -------------------------------------------------------- ResourceManager --

TEST(ResourceManagerTest, AllocatesLeastLoadedDevices) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  auto s1 = rm.AllocateSlice(ClientId(0), 4);
  ASSERT_TRUE(s1.ok());
  auto s2 = rm.AllocateSlice(ClientId(0), 4);
  ASSERT_TRUE(s2.ok());
  // 8 devices total: the two slices must not share devices.
  for (const auto& v1 : s1->devices) {
    for (const auto& v2 : s2->devices) {
      EXPECT_NE(rm.Lookup(v1.id), rm.Lookup(v2.id));
    }
  }
}

TEST(ResourceManagerTest, OversizedSliceFails) {
  World w(/*hosts=*/2, /*devices_per_host=*/2);
  auto s = w.runtime->resource_manager().AllocateSlice(ClientId(0), 5);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
}

TEST(ResourceManagerTest, IslandConstraintHonored) {
  World w(/*hosts=*/2, /*devices_per_host=*/2, /*islands=*/3);
  auto s = w.runtime->resource_manager().AllocateSlice(ClientId(0), 2,
                                                       hw::IslandId(2));
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->island, hw::IslandId(2));
  for (const auto& v : s->devices) {
    EXPECT_EQ(w.cluster->device(
                  w.runtime->resource_manager().Lookup(v.id)).island(),
              hw::IslandId(2));
  }
}

TEST(ResourceManagerTest, PicksEmptiestIslandByDefault) {
  World w(2, 2, /*islands=*/2);
  ResourceManager& rm = w.runtime->resource_manager();
  auto s1 = rm.AllocateSlice(ClientId(0), 3);
  ASSERT_TRUE(s1.ok());
  auto s2 = rm.AllocateSlice(ClientId(0), 3);
  ASSERT_TRUE(s2.ok());
  EXPECT_NE(s1->island, s2->island);
}

TEST(ResourceManagerTest, ReleaseSliceFreesLoad) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 8);
  ASSERT_TRUE(s.ok());
  rm.ReleaseSlice(*s);
  for (int d = 0; d < w.cluster->num_devices(); ++d) {
    EXPECT_EQ(rm.load(w.cluster->device(d).id()), 0);
  }
}

TEST(ResourceManagerTest, RemoveDeviceRemapsVirtualDevices) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 2);
  ASSERT_TRUE(s.ok());
  const hw::DeviceId before = rm.Lookup(s->devices[0].id);
  ASSERT_TRUE(rm.RemoveDevice(before).ok());
  const hw::DeviceId after = rm.Lookup(s->devices[0].id);
  EXPECT_NE(before, after);
  EXPECT_EQ(rm.num_available_devices(), w.cluster->num_devices() - 1);
  ASSERT_TRUE(rm.AddDevice(before).ok());
  EXPECT_EQ(rm.num_available_devices(), w.cluster->num_devices());
}

TEST(ResourceManagerTest, RemoveTwiceFails) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  const hw::DeviceId dev = w.cluster->device(0).id();
  ASSERT_TRUE(rm.RemoveDevice(dev).ok());
  EXPECT_EQ(rm.RemoveDevice(dev).code(), StatusCode::kFailedPrecondition);
}

TEST(ResourceManagerTest, RemapKeepsSliceOnDistinctDevices) {
  // Shards of one slice must never share a physical device after a remap
  // (two gang members on one single-threaded device deadlock at their
  // collective), so the remap target set excludes the slice's own devices.
  World w(/*hosts=*/1, /*devices_per_host=*/3);
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 2);
  ASSERT_TRUE(s.ok());
  const hw::DeviceId d0 = rm.Lookup(s->devices[0].id);
  const hw::DeviceId d1 = rm.Lookup(s->devices[1].id);
  ASSERT_TRUE(rm.MarkDeviceFailed(d0).ok());
  const hw::DeviceId remapped = rm.Lookup(s->devices[0].id);
  EXPECT_NE(remapped, d0);
  EXPECT_NE(remapped, d1) << "remap collapsed two gang members onto one core";
  EXPECT_EQ(rm.vdevs_remapped(), 1);
  EXPECT_EQ(rm.vdevs_stranded(), 0);
}

TEST(ResourceManagerTest, CrashWithNoViableSpareStrandsVdev) {
  World w(/*hosts=*/1, /*devices_per_host=*/2);
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 2);  // slice covers the island
  ASSERT_TRUE(s.ok());
  const hw::DeviceId d0 = rm.Lookup(s->devices[0].id);
  // A crash always takes the device out of service, even with nowhere to
  // remap: the vdev stays pointed at the dead device (stranded).
  ASSERT_TRUE(rm.MarkDeviceFailed(d0).ok());
  EXPECT_FALSE(rm.in_service(d0));
  EXPECT_EQ(rm.Lookup(s->devices[0].id), d0);
  EXPECT_EQ(rm.vdevs_stranded(), 1);
  // Unlike a crash, a *drain* of the remaining device must refuse and roll
  // back (it would strand the other shard).
  const hw::DeviceId d1 = rm.Lookup(s->devices[1].id);
  EXPECT_EQ(rm.RemoveDevice(d1).code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(rm.in_service(d1));
  // Recovery restores service and future allocations.
  ASSERT_TRUE(rm.MarkDeviceRecovered(d0).ok());
  EXPECT_TRUE(rm.in_service(d0));
  EXPECT_EQ(rm.num_available_devices(), 2);
}

TEST(ResourceManagerTest, MarkFailedTwiceIsFailedPrecondition) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  const hw::DeviceId dev = w.cluster->device(0).id();
  ASSERT_TRUE(rm.MarkDeviceFailed(dev).ok());
  EXPECT_EQ(rm.MarkDeviceFailed(dev).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rm.MarkDeviceFailed(hw::DeviceId(9999)).code(),
            StatusCode::kNotFound);
}

TEST(ResourceManagerTest, ReleaseSliceAfterRemapFreesRemappedLoad) {
  World w(/*hosts=*/1, /*devices_per_host=*/3);
  ResourceManager& rm = w.runtime->resource_manager();
  auto s = rm.AllocateSlice(ClientId(0), 1);
  ASSERT_TRUE(s.ok());
  const hw::DeviceId before = rm.Lookup(s->devices[0].id);
  ASSERT_TRUE(rm.MarkDeviceFailed(before).ok());
  const hw::DeviceId after = rm.Lookup(s->devices[0].id);
  ASSERT_NE(before, after);
  rm.ReleaseSlice(*s);
  // Load accounting followed the remap: the spare's load drops to zero and
  // the dead device never went negative.
  EXPECT_EQ(rm.load(after), 0);
  EXPECT_EQ(rm.load(before), 0);
}

TEST(ResourceManagerTest, ReleaseClientDropsAllItsSlices) {
  World w;
  ResourceManager& rm = w.runtime->resource_manager();
  ASSERT_TRUE(rm.AllocateSlice(ClientId(7), 4).ok());
  ASSERT_TRUE(rm.AllocateSlice(ClientId(7), 2).ok());
  ASSERT_TRUE(rm.AllocateSlice(ClientId(8), 2).ok());
  rm.ReleaseClient(ClientId(7));
  int total_load = 0;
  for (int d = 0; d < w.cluster->num_devices(); ++d) {
    total_load += rm.load(w.cluster->device(d).id());
  }
  EXPECT_EQ(total_load, 2);  // only client 8's slice remains
}

// ------------------------------------------------------------ ObjectStore --

TEST(ObjectStoreTest, LogicalRefcountCoversAllShards) {
  World w;
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices;
  for (int d = 0; d < 8; ++d) devices.push_back(w.cluster->device(d).id());
  ShardedBuffer buf = store.CreateBuffer(ClientId(0), ExecutionId(), devices,
                                         MiB(100));
  w.sim.Run();
  EXPECT_TRUE(buf.ready.ready());
  EXPECT_EQ(buf.num_shards(), 8);
  EXPECT_EQ(store.hbm_used(devices[0]), MiB(100));
  store.AddRef(buf.id);
  store.Release(buf.id);
  EXPECT_TRUE(store.Contains(buf.id));  // refcount was 2
  store.Release(buf.id);
  EXPECT_FALSE(store.Contains(buf.id));
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
}

TEST(ObjectStoreTest, GarbageCollectsFailedClientsBuffers) {
  World w;
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  store.CreateBuffer(ClientId(1), ExecutionId(), devices, MiB(10));
  store.CreateBuffer(ClientId(1), ExecutionId(), devices, MiB(20));
  ShardedBuffer keep = store.CreateBuffer(ClientId(2), ExecutionId(), devices, MiB(5));
  w.sim.Run();
  EXPECT_EQ(w.runtime->FailClient(ClientId(1)), 2);
  EXPECT_TRUE(store.Contains(keep.id));
  EXPECT_EQ(store.hbm_used(devices[0]), MiB(5));
}

TEST(ObjectStoreTest, DeferredBufferReservesPerShardLazily) {
  World w;
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id(),
                                    w.cluster->device(1).id()};
  ShardedBuffer buf =
      store.CreateBufferDeferred(ClientId(0), ExecutionId(5), devices, MiB(10));
  w.sim.Run();
  // Deferred: handle exists, ready immediately, but no HBM held yet.
  EXPECT_TRUE(buf.ready.ready());
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
  auto r0 = store.ReserveShard(buf.id, 0);
  w.sim.Run();
  EXPECT_TRUE(r0.ready());
  EXPECT_EQ(store.hbm_used(devices[0]), MiB(10));
  EXPECT_EQ(store.hbm_used(devices[1]), 0);  // shard 1 still unreserved
  // Releasing frees only what was actually reserved.
  store.Release(buf.id);
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
  EXPECT_EQ(store.hbm_used(devices[1]), 0);
}

TEST(ObjectStoreTest, ReservationGrantedAfterReleaseReturnsMemory) {
  // A deferred shard reservation that is still queued behind HBM
  // back-pressure when its buffer is released must hand the grant straight
  // back instead of leaking it.
  hw::SystemParams params;
  params.hbm_capacity = MiB(100);
  World w(1, 1, 1, {}, params);
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  ShardedBuffer hog = store.CreateBuffer(ClientId(0), ExecutionId(), devices,
                                         MiB(90));
  ShardedBuffer deferred =
      store.CreateBufferDeferred(ClientId(0), ExecutionId(7), devices, MiB(50));
  w.sim.Run();
  auto grant = store.ReserveShard(deferred.id, 0);
  w.sim.Run();
  EXPECT_FALSE(grant.ready());  // parked behind the hog
  store.Release(deferred.id);   // released while the reservation queues
  store.Release(hog.id);        // frees capacity; the stale grant fires...
  w.sim.Run();
  // ...and the memory must be back: nothing holds HBM now.
  EXPECT_EQ(store.hbm_used(devices[0]), 0);
  EXPECT_FALSE(store.Contains(deferred.id));
}

TEST(ObjectStoreTest, ReleaseAllForProducerFreesRegardlessOfRefcount) {
  World w;
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  ShardedBuffer a = store.CreateBuffer(ClientId(0), ExecutionId(3), devices,
                                       MiB(4));
  ShardedBuffer b = store.CreateBuffer(ClientId(0), ExecutionId(3), devices,
                                       MiB(8));
  ShardedBuffer other = store.CreateBuffer(ClientId(0), ExecutionId(4), devices,
                                           MiB(16));
  w.sim.Run();
  store.AddRef(a.id);  // refcount 2: an abort must still collect it
  EXPECT_EQ(store.ReleaseAllForProducer(ExecutionId(3)), 2);
  EXPECT_FALSE(store.Contains(a.id));
  EXPECT_FALSE(store.Contains(b.id));
  EXPECT_TRUE(store.Contains(other.id));
  EXPECT_EQ(store.hbm_used(devices[0]), MiB(16));
}

TEST(ObjectStoreTest, BackPressureDelaysReservation) {
  hw::SystemParams params;
  params.hbm_capacity = MiB(100);
  World w(1, 1, 1, {}, params);
  ObjectStore& store = w.runtime->object_store();
  std::vector<hw::DeviceId> devices{w.cluster->device(0).id()};
  ShardedBuffer big = store.CreateBuffer(ClientId(0), ExecutionId(), devices, MiB(80));
  ShardedBuffer blocked = store.CreateBuffer(ClientId(0), ExecutionId(), devices, MiB(50));
  w.sim.Run();
  EXPECT_TRUE(big.ready.ready());
  EXPECT_FALSE(blocked.ready.ready());  // stalled: back-pressure
  store.Release(big.id);
  w.sim.Run();
  EXPECT_TRUE(blocked.ready.ready());
}

// -------------------------------------------------------------- Program IR --

TEST(ProgramTest, TracerBuildsFig2StyleDag) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  auto a = CompiledFunction::Synthetic("a", 2, Duration::Micros(10));
  auto b = CompiledFunction::Synthetic("b", 2, Duration::Micros(10));
  auto c = CompiledFunction::Synthetic("c", 2, Duration::Micros(10));

  ProgramBuilder pb("f");
  const ValueRef v = pb.Argument();
  const ValueRef x = pb.Call(a, slice, {v});
  const ValueRef y = pb.Call(b, slice, {x});
  const ValueRef z = pb.Call(a, slice, {pb.Call(c, slice, {x})});
  pb.Result(y);
  pb.Result(z);
  PathwaysProgram prog = std::move(pb).Build();

  EXPECT_EQ(prog.num_nodes(), 4);
  EXPECT_EQ(prog.num_arguments(), 1);
  EXPECT_EQ(prog.results().size(), 2u);
  // x (node 0) feeds b (node 1) and c (node 2).
  EXPECT_EQ(prog.ConsumersOf(0), (std::vector<int>{1, 2}));
  EXPECT_TRUE(prog.IsResult(y));
  EXPECT_FALSE(prog.IsResult(x));
}

TEST(ProgramTest, DefaultResultIsLastNode) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(1).value();
  auto f = CompiledFunction::Synthetic("f", 1, Duration::Micros(1));
  ProgramBuilder pb("p");
  pb.Call(f, slice, {});
  PathwaysProgram prog = std::move(pb).Build();
  ASSERT_EQ(prog.results().size(), 1u);
  EXPECT_TRUE(prog.IsResult(ValueRef::Node(0)));
}

TEST(ProgramTest, CompactRepresentationIndependentOfShardCount) {
  // Paper §4.3: Arg -> A -> B -> Result is two computation nodes and two
  // input edges whether each slice has 16 or 2048 virtual devices.
  for (const int shards : {16, 256, 2048}) {
    VirtualSlice slice;
    slice.devices.resize(static_cast<std::size_t>(shards));
    auto f = CompiledFunction::Synthetic("f", shards, Duration::Micros(10));
    ProgramBuilder pb("chain");
    const ValueRef a = pb.Call(f, slice, {pb.Argument()}, "A");
    pb.Result(pb.Call(f, slice, {a}, "B"));
    const PathwaysProgram prog = std::move(pb).Build();
    std::size_t input_edges = 0;
    for (const ComputationNode& node : prog.nodes()) {
      input_edges += node.inputs.size();
    }
    EXPECT_EQ(prog.num_nodes(), 2) << shards << " shards";
    EXPECT_EQ(input_edges, 2u) << shards << " shards";
    EXPECT_EQ(prog.num_arguments(), 1);
    EXPECT_EQ(prog.results().size(), 1u);
  }
}

// ------------------------------------------------------------- End-to-end --

TEST(ExecutionTest, SingleNodeProgramCompletes) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(4).value();
  auto fn = CompiledFunction::Synthetic("step", 4, Duration::Millis(1),
                                        net::CollectiveKind::kAllReduce, 1024);
  auto result = client->RunFunction(fn, slice);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_EQ(result.value().outputs.size(), 1u);
  EXPECT_EQ(result.value().outputs[0].num_shards(), 4);
  // Sanity: total time covers RPC + dispatch + 1ms kernel.
  EXPECT_GT(w.sim.now().ToMillis(), 1.0);
  EXPECT_LT(w.sim.now().ToMillis(), 3.0);
  EXPECT_FALSE(w.sim.Deadlocked());
}

TEST(ExecutionTest, ChainRunsInDataflowOrder) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  auto fn = CompiledFunction::Synthetic("stage", 2, Duration::Millis(1));
  ProgramBuilder pb("chain");
  ValueRef v = pb.Call(fn, slice, {});
  for (int i = 0; i < 3; ++i) v = pb.Call(fn, slice, {v});
  pb.Result(v);
  PathwaysProgram prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  // 4 chained 1ms kernels on the same devices: >= 4ms of simulated time.
  EXPECT_GE(w.sim.now().ToMillis(), 4.0);
  EXPECT_EQ(w.cluster->device(0).kernels_completed(), 4);
}

TEST(ExecutionTest, ArgumentsFlowIntoPrograms) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  ShardedBuffer input = client->TransferToDevice(slice, MiB(1));
  auto fn = CompiledFunction::Synthetic("consume", 2, Duration::Micros(100));
  auto result = client->RunFunction(fn, slice, {input});
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_FALSE(w.sim.Deadlocked());
}

TEST(ExecutionTest, IntermediateBuffersAreReleased) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  auto fn = CompiledFunction::Synthetic("stage", 2, Duration::Micros(100),
                                        std::nullopt, 0, MiB(8));
  ProgramBuilder pb("chain");
  ValueRef v = pb.Call(fn, slice, {});
  for (int i = 0; i < 9; ++i) v = pb.Call(fn, slice, {v});
  pb.Result(v);
  PathwaysProgram prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  // Only the program result should survive; 9 intermediates were collected.
  EXPECT_EQ(w.runtime->object_store().live_buffers(), 1);
}

TEST(ExecutionTest, ReshardingEdgePerformsScatterGather) {
  World w(/*hosts=*/4, /*devices_per_host=*/2);
  Client* client = w.runtime->CreateClient();
  auto slice4 = client->AllocateSlice(4).value();
  auto slice2 = client->AllocateSlice(2).value();
  auto wide = CompiledFunction::Synthetic("wide", 4, Duration::Micros(100),
                                          std::nullopt, 0, MiB(4));
  auto narrow = CompiledFunction::Synthetic("narrow", 2, Duration::Micros(100));
  ProgramBuilder pb("reshard");
  pb.Result(pb.Call(narrow, slice2, {pb.Call(wide, slice4, {})}));
  PathwaysProgram prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_FALSE(w.sim.Deadlocked());
}

TEST(ExecutionTest, MultiIslandPipelineCrossesDcn) {
  World w(/*hosts=*/2, /*devices_per_host=*/2, /*islands=*/2);
  Client* client = w.runtime->CreateClient();
  auto s0 = client->AllocateSlice(2, hw::IslandId(0)).value();
  auto s1 = client->AllocateSlice(2, hw::IslandId(1)).value();
  auto fn = CompiledFunction::Synthetic("stage", 2, Duration::Micros(500),
                                        std::nullopt, 0, MiB(1));
  ProgramBuilder pb("xisland");
  pb.Result(pb.Call(fn, s1, {pb.Call(fn, s0, {})}));
  PathwaysProgram prog = std::move(pb).Build();
  const Bytes dcn_before = w.cluster->dcn().bytes_sent();
  auto result = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  // The stage outputs crossed the DCN (2 shards x 1 MiB, plus control).
  EXPECT_GT(w.cluster->dcn().bytes_sent() - dcn_before, MiB(2) - 1);
}

TEST(ExecutionTest, ReLoweringPicksUpDeviceRemap) {
  World w;
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(1).value();
  auto fn = CompiledFunction::Synthetic("f", 1, Duration::Micros(100));
  ProgramBuilder pb("p");
  pb.Call(fn, slice, {});
  PathwaysProgram prog = std::move(pb).Build();

  auto r1 = client->Run(&prog);
  w.sim.Run();
  ASSERT_TRUE(r1.ready());
  const hw::DeviceId original =
      w.runtime->resource_manager().Lookup(slice.devices[0].id);
  const std::int64_t kernels_before =
      w.cluster->device(original).kernels_completed();

  ASSERT_TRUE(w.runtime->resource_manager().RemoveDevice(original).ok());
  auto r2 = client->Run(&prog);  // re-lowered against the new mapping
  w.sim.Run();
  ASSERT_TRUE(r2.ready());
  EXPECT_EQ(w.cluster->device(original).kernels_completed(), kernels_before);
}

// -------------------------------------------------- Gang scheduling safety --

// The core paper claim: concurrent programs with collectives from multiple
// clients never deadlock under the centralized gang scheduler, at any
// interleaving.
class GangSafetyProperty : public ::testing::TestWithParam<int> {};

TEST_P(GangSafetyProperty, ConcurrentCollectiveProgramsNeverDeadlock) {
  const int num_clients = GetParam();
  World w(/*hosts=*/2, /*devices_per_host=*/4);
  std::vector<sim::SimFuture<ExecutionResult>> results;
  std::vector<std::unique_ptr<PathwaysProgram>> programs;
  for (int c = 0; c < num_clients; ++c) {
    Client* client = w.runtime->CreateClient();
    auto slice = client->AllocateSlice(8).value();  // all devices: full overlap
    auto fn = CompiledFunction::Synthetic(
        "ar" + std::to_string(c), 8, Duration::Micros(50 + 13 * c),
        net::CollectiveKind::kAllReduce, 256);
    ProgramBuilder pb("prog" + std::to_string(c));
    ValueRef v = pb.Call(fn, slice, {});
    for (int i = 0; i < 4; ++i) v = pb.Call(fn, slice, {v});
    pb.Result(v);
    programs.push_back(std::make_unique<PathwaysProgram>(std::move(pb).Build()));
    results.push_back(client->Run(programs.back().get()));
  }
  w.sim.Run();
  EXPECT_FALSE(w.sim.Deadlocked()) << "gang scheduler must prevent deadlock";
  for (auto& r : results) EXPECT_TRUE(r.ready());
}

INSTANTIATE_TEST_SUITE_P(Clients, GangSafetyProperty,
                         ::testing::Values(2, 3, 4, 8));

// ------------------------------------------------------ Dispatch modes ----

TEST(DispatchModeTest, ParallelBeatsSequentialOnPipelines) {
  auto run_pipeline = [](DispatchMode mode) {
    PathwaysOptions options;
    options.dispatch = mode;
    World w(/*hosts=*/8, /*devices_per_host=*/1, 1, options);
    Client* client = w.runtime->CreateClient();
    auto fn = CompiledFunction::Synthetic("tiny", 1, Duration::Micros(20));
    ProgramBuilder pb("pipeline");
    ValueRef v = pb.Call(fn, client->AllocateSlice(1).value(), {});
    for (int i = 0; i < 7; ++i) {
      v = pb.Call(fn, client->AllocateSlice(1).value(), {v});
    }
    pb.Result(v);
    PathwaysProgram prog = std::move(pb).Build();
    auto result = client->Run(&prog);
    w.sim.Run();
    EXPECT_TRUE(result.ready());
    return w.sim.now();
  };
  const TimePoint parallel = run_pipeline(DispatchMode::kParallel);
  const TimePoint sequential = run_pipeline(DispatchMode::kSequential);
  // Sequential serializes host-side work behind each enqueue (Fig. 4a);
  // parallel overlaps it (Fig. 4b).
  EXPECT_LT(parallel.nanos(), sequential.nanos());
}

// ------------------------------------------- Data-dependent control flow --

TEST(IrregularDispatchTest, IrregularNodeWaitsForProducers) {
  // Paper §4.5: parallel scheduling is an optimization; nodes whose
  // resource requirements depend on predecessor *values* fall back to the
  // traditional model. The irregular chain must therefore be strictly
  // slower than the regular one (no overlapped host-side work).
  auto run_chain = [](bool irregular) {
    World w(/*hosts=*/4, /*devices_per_host=*/1);
    Client* client = w.runtime->CreateClient();
    auto fn = CompiledFunction::Synthetic("stage", 1, Duration::Micros(20));
    ProgramBuilder pb("chain");
    ValueRef v = pb.Call(fn, client->AllocateSlice(1).value(), {});
    for (int i = 0; i < 3; ++i) {
      auto slice = client->AllocateSlice(1).value();
      v = irregular ? pb.CallIrregular(fn, slice, {v})
                    : pb.Call(fn, slice, {v});
    }
    pb.Result(v);
    PathwaysProgram prog = std::move(pb).Build();
    auto result = client->Run(&prog);
    w.sim.Run();
    EXPECT_TRUE(result.ready());
    EXPECT_FALSE(w.sim.Deadlocked());
    return w.sim.now();
  };
  const TimePoint regular = run_chain(false);
  const TimePoint data_dependent = run_chain(true);
  EXPECT_LT(regular.nanos(), data_dependent.nanos());
}

TEST(IrregularDispatchTest, OtherTenantsProceedWhileParked) {
  // While an irregular node waits for its producer, the scheduler must keep
  // serving other clients' gangs.
  World w(/*hosts=*/2, /*devices_per_host=*/2);
  Client* sparse_client = w.runtime->CreateClient();
  Client* dense_client = w.runtime->CreateClient();

  auto slow = CompiledFunction::Synthetic("slow", 2, Duration::Millis(5));
  auto routed = CompiledFunction::Synthetic("routed", 2, Duration::Micros(50));
  auto s1 = sparse_client->AllocateSlice(2).value();
  ProgramBuilder pb1("moe");
  pb1.Result(pb1.CallIrregular(routed, s1, {pb1.Call(slow, s1, {})}));
  PathwaysProgram moe = std::move(pb1).Build();

  auto s2 = dense_client->AllocateSlice(2).value();
  ProgramBuilder pb2("dense");
  pb2.Call(CompiledFunction::Synthetic("quick", 2, Duration::Micros(100)), s2, {});
  PathwaysProgram dense = std::move(pb2).Build();

  auto moe_result = sparse_client->Run(&moe);
  auto dense_result = dense_client->Run(&dense);
  // The dense program must finish long before the 5 ms producer does.
  w.sim.RunUntilPredicate([&dense_result] { return dense_result.ready(); });
  EXPECT_LT(w.sim.now().ToMillis(), 5.0);
  w.sim.Run();
  EXPECT_TRUE(moe_result.ready());
}

// --------------------------------------------------------------- Fairness --

TEST(FairnessTest, WeightedStrideApproximatesProportionalShare) {
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  // Shallow in-flight window so the policy has a backlog to arbitrate.
  options.max_inflight_gangs = 2;
  World w(/*hosts=*/2, /*devices_per_host=*/2, 1, options);
  Client* c1 = w.runtime->CreateClient(/*weight=*/1.0);
  Client* c2 = w.runtime->CreateClient(/*weight=*/3.0);

  auto submit_loop = [&w](Client* client, const PathwaysProgram* prog,
                          auto&& self) -> void {
    client->Run(prog).Then(
        [&w, client, prog, self](const ExecutionResult&) {
          if (w.sim.now() < TimePoint() + Duration::Millis(50)) {
            self(client, prog, self);
          }
        });
  };

  auto slice1 = c1->AllocateSlice(4).value();
  auto slice2 = c2->AllocateSlice(4).value();
  auto fn = CompiledFunction::Synthetic("work", 4, Duration::Micros(330),
                                        net::CollectiveKind::kAllReduce, 64);
  ProgramBuilder pb1("p1");
  pb1.Call(fn, slice1, {});
  PathwaysProgram prog1 = std::move(pb1).Build();
  ProgramBuilder pb2("p2");
  pb2.Call(fn, slice2, {});
  PathwaysProgram prog2 = std::move(pb2).Build();

  // Keep 4 programs in flight per client so the scheduler always has a
  // choice to make.
  for (int i = 0; i < 4; ++i) {
    submit_loop(c1, &prog1, submit_loop);
    submit_loop(c2, &prog2, submit_loop);
  }
  w.sim.RunUntil(TimePoint() + Duration::Millis(60));

  auto busy = w.cluster->trace().BusyPerClient(
      TimePoint() + Duration::Millis(10), TimePoint() + Duration::Millis(50));
  const double ratio = busy[c2->id().value()] / busy[c1->id().value()];
  EXPECT_GT(ratio, 2.0) << "weight-3 client should get ~3x the device time";
  EXPECT_LT(ratio, 4.5);
}

// Keeps resubmitting `prog` on `client` — releasing outputs through the
// Client::Submit path — until the simulated clock passes `until`.
void SubmitLoop(World& w, Client* client, const PathwaysProgram* prog,
                TimePoint until) {
  client->Submit(prog, [&w, client, prog, until](const ExecutionResult&) {
    if (w.sim.now() < until) SubmitLoop(w, client, prog, until);
  });
}

TEST(FairnessTest, AgedPassesKeepProportionalShare) {
  // Long-run pass-drift regression (the stride-rebase fix). Passes grow by
  // one stride per pick, so after enough gangs pass/stride crosses 2^52 and
  // `pass += stride` rounds to a no-op: the affected queue's virtual time
  // freezes and tie-breaking hands it the whole island. Simulating years of
  // traffic is not an option, so AgePassesForTesting advances every queue's
  // pass by 2^53 — a relative no-op that lands the scheduler exactly in the
  // degenerate regime. Without RebasePasses (revert the fix to check) the
  // weight-3 client starves and this test fails; with it, the first pick
  // rebases the passes back to zero and the shares recover.
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  options.max_inflight_gangs = 2;
  World w(/*hosts=*/2, /*devices_per_host=*/2, 1, options);
  Client* c1 = w.runtime->CreateClient(/*weight=*/1.0);
  Client* c2 = w.runtime->CreateClient(/*weight=*/3.0);

  auto slice1 = c1->AllocateSlice(4).value();
  auto slice2 = c2->AllocateSlice(4).value();
  auto fn = CompiledFunction::Synthetic("work", 4, Duration::Micros(330),
                                        net::CollectiveKind::kAllReduce, 64);
  ProgramBuilder pb1("p1");
  pb1.Call(fn, slice1, {});
  PathwaysProgram prog1 = std::move(pb1).Build();
  ProgramBuilder pb2("p2");
  pb2.Call(fn, slice2, {});
  PathwaysProgram prog2 = std::move(pb2).Build();
  const TimePoint until = TimePoint() + Duration::Millis(55);
  for (int i = 0; i < 4; ++i) {
    SubmitLoop(w, c1, &prog1, until);
    SubmitLoop(w, c2, &prog2, until);
  }
  // Let both queues come into existence, then age the scheduler as if it
  // had already served ~2^53 units of virtual time.
  w.sim.RunUntil(TimePoint() + Duration::Millis(2));
  w.runtime->scheduler(hw::IslandId(0)).AgePassesForTesting(9007199254740992.0);
  w.sim.RunUntil(TimePoint() + Duration::Millis(60));

  auto busy = w.cluster->trace().BusyPerClient(
      TimePoint() + Duration::Millis(10), TimePoint() + Duration::Millis(50));
  ASSERT_GT(busy[c1->id().value()].nanos(), 0)
      << "weight-1 client starved: pass drift un-rebased";
  const double ratio = busy[c2->id().value()] / busy[c1->id().value()];
  EXPECT_GT(ratio, 2.0) << "weight-3 client starved: pass drift un-rebased";
  EXPECT_LT(ratio, 4.5);
  EXPECT_GT(w.runtime->scheduler(hw::IslandId(0)).pass_rebases(), 0);
}

TEST(FairnessTest, IdleClientReEntryGetsNoCatchUpBurst) {
  // A client that sat idle while another served (and the rebase anchored
  // passes near zero) must re-enter at the current virtual time, not claim
  // a catch-up monopoly for the time it was away.
  PathwaysOptions options;
  options.policy = SchedulerPolicy::kWeightedStride;
  options.max_inflight_gangs = 2;
  World w(/*hosts=*/2, /*devices_per_host=*/2, 1, options);
  Client* steady = w.runtime->CreateClient(/*weight=*/1.0);
  Client* late = w.runtime->CreateClient(/*weight=*/1.0);

  auto slice1 = steady->AllocateSlice(4).value();
  auto slice2 = late->AllocateSlice(4).value();
  auto fn = CompiledFunction::Synthetic("work", 4, Duration::Micros(330),
                                        net::CollectiveKind::kAllReduce, 64);
  ProgramBuilder pb1("steady");
  pb1.Call(fn, slice1, {});
  PathwaysProgram prog1 = std::move(pb1).Build();
  ProgramBuilder pb2("late");
  pb2.Call(fn, slice2, {});
  PathwaysProgram prog2 = std::move(pb2).Build();

  const TimePoint until = TimePoint() + Duration::Millis(55);
  // `late` touches the scheduler once at t=0 (creating its queue at pass
  // ~0), then goes idle while `steady` accrues 20ms of virtual time.
  late->Submit(&prog2, {});
  w.sim.ScheduleAt(TimePoint() + Duration::Millis(2), [&] {
    for (int i = 0; i < 4; ++i) SubmitLoop(w, steady, &prog1, until);
  });
  // `late` re-enters at t=20ms with 4 programs in flight.
  w.sim.ScheduleAt(TimePoint() + Duration::Millis(20), [&] {
    for (int i = 0; i < 4; ++i) SubmitLoop(w, late, &prog2, until);
  });
  w.sim.RunUntil(TimePoint() + Duration::Millis(60));

  // In the window right after re-entry both clients are backlogged with
  // equal weights: the late client must share ~50/50, not monopolize.
  auto busy = w.cluster->trace().BusyPerClient(
      TimePoint() + Duration::Millis(22), TimePoint() + Duration::Millis(50));
  const double total = (busy[steady->id().value()] + busy[late->id().value()])
                           .ToSeconds();
  ASSERT_GT(total, 0);
  const double late_share = busy[late->id().value()].ToSeconds() / total;
  EXPECT_GT(late_share, 0.35);
  EXPECT_LT(late_share, 0.65) << "idle re-entry claimed a catch-up burst";
}

// ----------------------------------------------------------- Retry policy --

TEST(RetryPolicyTest, BackoffIsCappedAndMonotone) {
  RetryPolicy policy;
  policy.initial_backoff = Duration::Micros(500);
  policy.multiplier = 2.0;
  policy.max_backoff = Duration::Millis(10);
  EXPECT_EQ(policy.BackoffFor(1), Duration::Micros(500));
  EXPECT_EQ(policy.BackoffFor(2), Duration::Millis(1));
  EXPECT_EQ(policy.BackoffFor(3), Duration::Millis(2));
  // 500us * 2^5 = 16ms clamps to the 10ms cap...
  EXPECT_EQ(policy.BackoffFor(6), Duration::Millis(10));
  // ...and stays there for any attempt count, including ones where the
  // uncapped product overflows double and int64 alike.
  Duration prev = Duration::Zero();
  for (int k = 1; k <= 400; ++k) {
    const Duration b = policy.BackoffFor(k);
    EXPECT_GT(b.nanos(), 0);
    EXPECT_LE(b, policy.max_backoff);
    EXPECT_GE(b, prev);
    prev = b;
  }
  EXPECT_EQ(policy.BackoffFor(400), Duration::Millis(10));
}

TEST(RetryPolicyTest, ManyAttemptsDoNotOverflowSimulatedTime) {
  // Pre-fix, initial_backoff * pow(multiplier, k-1) overflowed Duration
  // around k=60 (4^k), producing a negative delay that died inside
  // Simulator::Schedule. Post-fix the total backoff is bounded by
  // max_attempts * max_backoff.
  World w(/*hosts=*/1, /*devices_per_host=*/2);
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  ProgramBuilder pb("train");
  pb.Call(CompiledFunction::Synthetic("step", 2, Duration::Micros(200),
                                      net::CollectiveKind::kAllReduce,
                                      KiB(64)),
          slice, {});
  PathwaysProgram prog = std::move(pb).Build();

  // Permanent failure with no spare devices: every attempt aborts.
  w.sim.Schedule(Duration::Micros(100), [&] {
    w.cluster->device(0).Fail();
    (void)w.runtime->resource_manager().MarkDeviceFailed(
        w.cluster->device(0).id());
    w.runtime->AbortExecutionsUsing(w.cluster->device(0).id());
  });

  RetryPolicy policy;
  policy.max_attempts = 80;
  policy.multiplier = 4.0;
  policy.initial_backoff = Duration::Micros(500);
  policy.max_backoff = Duration::Millis(2);
  auto result = client->RunWithRetry(&prog, {}, policy);
  w.sim.Run();
  ASSERT_TRUE(result.ready());
  EXPECT_TRUE(result.value().failed);
  EXPECT_EQ(result.value().attempts, 80);
  // 80 attempts x (2ms cap + per-attempt work) stays well under a second.
  EXPECT_LT(w.sim.now().ToSeconds(), 1.0);
}

// ------------------------------------------------- Back-pressure liveness --

TEST(BackPressureTest, HbmPressureStallsButCompletes) {
  hw::SystemParams params;
  params.hbm_capacity = MiB(64);
  World w(1, 2, 1, {}, params);
  Client* client = w.runtime->CreateClient();
  auto slice = client->AllocateSlice(2).value();
  // Each step's working set is 24 MiB (in+out+scratch): three programs in
  // flight exceed HBM, forcing back-pressure.
  auto fn = CompiledFunction::Synthetic("big", 2, Duration::Micros(200),
                                        std::nullopt, 0, MiB(8));
  ProgramBuilder pb("mem");
  ValueRef v = pb.Call(fn, slice, {});
  v = pb.Call(fn, slice, {v});
  pb.Result(v);
  PathwaysProgram prog = std::move(pb).Build();
  std::vector<sim::SimFuture<ExecutionResult>> results;
  std::vector<ShardedBuffer> outputs;
  for (int i = 0; i < 6; ++i) {
    auto r = client->Run(&prog);
    r.Then([&w, &outputs](const ExecutionResult& res) {
      // Hold results briefly, then release (frees HBM for waiters).
      for (const auto& out : res.outputs) {
        w.runtime->object_store().Release(out.id);
      }
    });
    results.push_back(r);
  }
  w.sim.Run();
  EXPECT_FALSE(w.sim.Deadlocked());
  for (auto& r : results) EXPECT_TRUE(r.ready());
}

// ----------------------------------------------------- Failure injection --

TEST(FailureTest, ClientFailureReclaimsEverything) {
  World w;
  Client* doomed = w.runtime->CreateClient();
  Client* survivor = w.runtime->CreateClient();
  auto ds = doomed->AllocateSlice(4).value();
  auto ss = survivor->AllocateSlice(4).value();
  ShardedBuffer d1 = doomed->TransferToDevice(ds, MiB(32));
  ShardedBuffer s1 = survivor->TransferToDevice(ss, MiB(16));
  w.sim.Run();
  const int collected = w.runtime->FailClient(doomed->id());
  EXPECT_EQ(collected, 1);
  EXPECT_FALSE(w.runtime->object_store().Contains(d1.id));
  EXPECT_TRUE(w.runtime->object_store().Contains(s1.id));
  // Survivor can still run programs.
  auto fn = CompiledFunction::Synthetic("ok", 4, Duration::Micros(50));
  auto r = survivor->RunFunction(fn, ss, {s1});
  w.sim.Run();
  EXPECT_TRUE(r.ready());
}

}  // namespace
}  // namespace pw::pathways
