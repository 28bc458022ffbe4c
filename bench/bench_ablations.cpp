// Ablations over the design choices DESIGN.md calls out:
//   A. parallel asynchronous dispatch (vs sequential)         — §4.5
//   B. sharded-buffer client bookkeeping (vs per-shard)       — §4.2
//   C. centralized gang scheduling (vs uncoordinated enqueue) — §4.4
//   D. compact sharded dataflow representation (vs M x N)     — §4.3
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "pathways/pathways.h"
#include "xlasim/compiled_function.h"

namespace {

using namespace pw;
using namespace pw::pathways;

// --- A: dispatch mode on an 8-stage pipeline of small computations ---
double PipelineLatencyMs(DispatchMode mode) {
  sim::Simulator sim;
  auto cluster =
      std::make_unique<hw::Cluster>(&sim, hw::SystemParams::TpuDefault(), 1, 8, 4);
  PathwaysOptions options;
  options.dispatch = mode;
  PathwaysRuntime runtime(cluster.get(), options);
  Client* client = runtime.CreateClient();
  ProgramBuilder pb("pipe");
  ValueRef v{};
  for (int s = 0; s < 8; ++s) {
    auto fn = xlasim::CompiledFunction::Synthetic("st", 4, Duration::Micros(20));
    std::vector<ValueRef> in;
    if (s > 0) in.push_back(v);
    v = pb.Call(fn, client->AllocateSlice(4).value(), std::move(in));
  }
  pb.Result(v);
  auto prog = std::move(pb).Build();
  auto result = client->Run(&prog);
  sim.RunUntilPredicate([&result] { return result.ready(); });
  return sim.now().ToMillis();
}

// --- B: client bookkeeping cost at 2048 shards ---
double CompletionRateAt2048Shards(bool sharded_bookkeeping) {
  sim::Simulator sim;
  auto cluster = hw::Cluster::ConfigA(&sim, 512);  // 2048 devices
  PathwaysOptions options;
  options.sharded_buffer_bookkeeping = sharded_bookkeeping;
  PathwaysRuntime runtime(cluster.get(), options);
  Client* client = runtime.CreateClient();
  auto slice = client->AllocateSlice(2048).value();
  // Gang-synchronized kernel (collective): all 2048 completion messages
  // burst at once, putting client bookkeeping on the critical path.
  auto fn = xlasim::CompiledFunction::Synthetic(
      "big", 2048, Duration::Millis(5), net::CollectiveKind::kAllReduce, 4);
  ProgramBuilder pb("p");
  pb.Call(fn, slice, {});
  auto prog = std::move(pb).Build();
  const TimePoint start = sim.now();
  const int kRuns = 3;
  for (int i = 0; i < kRuns; ++i) {
    auto r = client->Run(&prog);
    sim.RunUntilPredicate([&r] { return r.ready(); });
    runtime.object_store().Release(r.value().outputs[0].id);
  }
  return kRuns / (sim.now() - start).ToSeconds();
}

// --- C: gang scheduling vs uncoordinated multi-program enqueue ---
// Returns {uncoordinated_deadlocked, gang_completed_programs}.
std::pair<bool, int> GangSchedulingAblation() {
  // Uncoordinated: two programs' collectives enqueued in opposite orders on
  // two devices (what uncoordinated clients can produce).
  sim::Simulator sim;
  net::CollectiveModel model;
  hw::Device d0(&sim, hw::DeviceId(0), hw::IslandId(0), GiB(16), Duration::Zero());
  hw::Device d1(&sim, hw::DeviceId(1), hw::IslandId(0), GiB(16), Duration::Zero());
  auto groupA = std::make_shared<hw::CollectiveGroup>(
      &sim, &model, net::CollectiveKind::kAllReduce, 2, "progA");
  auto groupB = std::make_shared<hw::CollectiveGroup>(
      &sim, &model, net::CollectiveKind::kAllReduce, 2, "progB");
  auto mk = [](std::shared_ptr<hw::CollectiveGroup> g) {
    hw::KernelDesc k;
    k.pre_time = Duration::Micros(1);
    k.collective = std::move(g);
    k.collective_bytes = 4;
    return k;
  };
  d0.Enqueue(mk(groupA));
  d0.Enqueue(mk(groupB));
  d1.Enqueue(mk(groupB));
  d1.Enqueue(mk(groupA));
  sim.Run();
  std::printf("  uncoordinated enqueue: %s\n",
              sim.Deadlocked() ? "DEADLOCK (detected by probes)" : "ok");

  // Coordinated: the same two programs through the gang scheduler.
  sim::Simulator sim2;
  auto cluster = std::make_unique<hw::Cluster>(
      &sim2, hw::SystemParams::TpuDefault(), 1, 1, 2);
  PathwaysRuntime runtime(cluster.get(), PathwaysOptions{});
  Client* c1 = runtime.CreateClient();
  Client* c2 = runtime.CreateClient();
  auto fn = xlasim::CompiledFunction::Synthetic(
      "ar", 2, Duration::Micros(10), net::CollectiveKind::kAllReduce, 4);
  ProgramBuilder pb1("p1"), pb2("p2");
  pb1.Call(fn, c1->AllocateSlice(2).value(), {});
  pb2.Call(fn, c2->AllocateSlice(2).value(), {});
  auto prog1 = std::move(pb1).Build();
  auto prog2 = std::move(pb2).Build();
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    c1->Run(&prog1).Then([&](const ExecutionResult&) { ++completed; });
    c2->Run(&prog2).Then([&](const ExecutionResult&) { ++completed; });
  }
  sim2.Run();
  std::printf("  gang-scheduled:        %d/100 programs completed, %s\n",
              completed, sim2.Deadlocked() ? "DEADLOCK" : "no deadlock");
  return {sim.Deadlocked(), completed};
}

// --- D: compact representation ---
struct CompactCounts {
  int nodes = 0;
  int edges = 0;
};

// Traces Argument -> Call(A) -> Call(B) -> Result with every computation on
// an n-device virtual slice, and counts the compact form the runtime
// executes: nodes are arguments, calls and results; edges are call inputs
// and results. A TF1-style materialized graph instead stores per-shard
// nodes and M x N edges between sharded computations.
CompactCounts CompactChain(int n) {
  VirtualSlice slice;
  slice.devices.resize(static_cast<std::size_t>(n));
  const auto fn = xlasim::CompiledFunction::Synthetic("op", n, Duration::Micros(10));
  ProgramBuilder pb("chain");
  const ValueRef arg = pb.Argument();
  const ValueRef a = pb.Call(fn, slice, {arg}, "A");
  const ValueRef b = pb.Call(fn, slice, {a}, "B");
  pb.Result(b);
  const PathwaysProgram prog = std::move(pb).Build();
  const int results = static_cast<int>(prog.results().size());
  CompactCounts c;
  c.nodes = prog.num_arguments() + prog.num_nodes() + results;
  c.edges = results;
  for (const ComputationNode& node : prog.nodes()) {
    c.edges += static_cast<int>(node.inputs.size());
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Args args = bench::Args::Parse(argc, argv);
  bench::Header("Ablations: the design choices behind Pathways",
                "each mechanism removed in isolation");
  bench::Reporter report("ablations", args);

  std::printf("\n[A] parallel async dispatch (8-stage pipeline latency):\n");
  const double par = PipelineLatencyMs(DispatchMode::kParallel);
  const double seq = PipelineLatencyMs(DispatchMode::kSequential);
  std::printf("  parallel: %.3f ms   sequential: %.3f ms   (%.2fx faster)\n",
              par, seq, seq / par);
  report.AddRow({{"ablation", std::string("parallel_dispatch")}},
                {{"parallel_latency_ms", par},
                 {"sequential_latency_ms", seq},
                 {"speedup", seq / par}});

  std::printf("\n[B] sharded-buffer bookkeeping (2048-shard program rate):\n");
  const double with_sb = CompletionRateAt2048Shards(true);
  const double without_sb = CompletionRateAt2048Shards(false);
  std::printf("  logical-buffer refcounts: %.2f programs/s\n", with_sb);
  std::printf("  per-shard bookkeeping:    %.2f programs/s  (%.2fx slower)\n",
              without_sb, with_sb / without_sb);
  report.AddRow({{"ablation", std::string("sharded_bookkeeping")}},
                {{"with_programs_per_sec", with_sb},
                 {"without_programs_per_sec", without_sb},
                 {"speedup", with_sb / without_sb}});

  std::printf("\n[C] gang scheduling vs uncoordinated enqueue:\n");
  const auto [uncoordinated_deadlock, gang_completed] = GangSchedulingAblation();
  report.AddRow({{"ablation", std::string("gang_scheduling")}},
                {{"uncoordinated_deadlocked", uncoordinated_deadlock ? 1.0 : 0.0},
                 {"gang_completed_programs", static_cast<double>(gang_completed)}});

  std::printf("\n[D] compact sharded dataflow representation:\n");
  std::printf("  %-10s %22s %26s\n", "shards", "compact nodes(edges)",
              "materialized nodes(edges)");
  bool compact_constant = true;
  const CompactCounts first = CompactChain(16);
  for (const int n : {16, 256, 2048}) {
    const CompactCounts c = CompactChain(n);
    compact_constant = compact_constant && c.nodes == first.nodes &&
                       c.edges == first.edges;
    const long long mat_nodes = 4LL * n;
    const long long mat_edges = 2LL * n + 1LL * n * n;  // A->B is all-to-all
    std::printf("  %-10d %12d(%d) %20lld(%lld)\n", n, c.nodes, c.edges,
                mat_nodes, mat_edges);
    report.AddRow({{"ablation", std::string("compact_representation")},
                   {"shards", static_cast<std::int64_t>(n)}},
                  {{"compact_nodes", static_cast<double>(c.nodes)},
                   {"compact_edges", static_cast<double>(c.edges)},
                   {"materialized_nodes", static_cast<double>(mat_nodes)},
                   {"materialized_edges", static_cast<double>(mat_edges)}});
  }
  report.Write();

  // The paper's claims, one per ablation: removing the mechanism must hurt.
  std::vector<std::string> failures;
  if (!(seq / par > 1.0)) {
    failures.push_back("A: parallel dispatch is not faster than sequential");
  }
  if (!(with_sb / without_sb > 1.0)) {
    failures.push_back(
        "B: sharded bookkeeping is not faster than per-shard bookkeeping");
  }
  if (!uncoordinated_deadlock || gang_completed != 100) {
    failures.push_back(
        "C: uncoordinated enqueue must deadlock and gang scheduling must "
        "complete 100/100 programs");
  }
  if (!compact_constant) {
    failures.push_back(
        "D: compact node/edge counts change with the shard count");
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAIL: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}
