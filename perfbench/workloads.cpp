#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "hw/cluster.h"
#include "models/step_builder.h"
#include "pathways/pathways.h"
#include "serving/serving.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using pw::Bytes;
using pw::Duration;
using pw::TimePoint;
using pw::pathways::Client;
using pw::pathways::ExecutionResult;
using pw::pathways::PathwaysProgram;
using pw::pathways::PathwaysRuntime;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Linear-interpolated percentile, p in [0, 100]; 0 for no samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

// Shared harness. A subclass builds the world in Setup() and kicks it off
// in Start(); the base runs the simulator in fixed simulated slices until
// the event queue drains, then checks the outputs and reads every layer's
// public counters.
class Workload {
 public:
  Workload(const Options& options, SpanRecorder* rec)
      : opt_(options), rec_(rec) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  RepResult Run();

 protected:
  virtual void Setup() = 0;
  virtual void Start() = 0;
  // Simulated time per sim.run span.
  virtual Duration Slice() const = 0;
  // Simulated time by which the run must have drained.
  virtual Duration Limit() const = 0;
  // Sets attempted/completed/accounted; records workload-specific failures.
  virtual void Account(RepResult* r) = 0;
  // Serving latencies; 0 on workloads that serve no requests.
  virtual void AddModelMetrics(RepResult* r) {
    r->model.push_back({"serving.ttft_p99_us", 0, "us"});
    r->model.push_back({"serving.token_p99_us", 0, "us"});
  }

  pw::sim::SimFuture<ExecutionResult> Submit(Client* client,
                                        const PathwaysProgram* program) {
    Scope s(rec_, "pathways.submit");
    ++submits_;
    return client->Run(program);
  }

  void ReleaseOutputs(const ExecutionResult& result) {
    for (const auto& out : result.outputs) {
      if (opt_.skip_release && !release_skipped_) {
        release_skipped_ = true;
        continue;
      }
      Scope s(rec_, "pathways.release");
      runtime_->object_store().Release(out.id);
    }
  }

  static void Fail(RepResult* r, const std::string& why) {
    if (!r->failure.empty()) r->failure += "; ";
    r->failure += why;
  }

  const Options opt_;
  SpanRecorder* const rec_;
  pw::sim::Simulator sim_;
  std::unique_ptr<pw::hw::Cluster> cluster_;
  std::unique_ptr<PathwaysRuntime> runtime_;
  std::vector<Client*> clients_;
  std::int64_t submits_ = 0;
  // Serving-layer counters; stay 0 on the training and dispatch workloads.
  std::int64_t offers_ = 0;
  std::int64_t iterations_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t arrivals_ = 0;

 private:
  void Check(RepResult* r);
  void AddLayerMetrics(RepResult* r);

  bool release_skipped_ = false;
  std::size_t pending_peak_ = 0;
  int active_flows_peak_ = 0;
};

RepResult Workload::Run() {
  RepResult r;
  const Clock::time_point t0 = Clock::now();
  Setup();
  const Clock::time_point t1 = Clock::now();
  Start();
  const TimePoint limit = TimePoint() + Limit();
  const pw::net::FlowNetwork* flows = cluster_->dcn().flow_network();
  while (!sim_.empty() && sim_.now() < limit) {
    {
      Scope s(rec_, "sim.run");
      sim_.RunFor(Slice());
    }
    pending_peak_ = std::max(pending_peak_, sim_.pending_events());
    if (flows != nullptr) {
      active_flows_peak_ = std::max(active_flows_peak_, flows->active_flows());
    }
  }
  const Clock::time_point t2 = Clock::now();
  r.setup_s = SecondsBetween(t0, t1);
  r.run_s = SecondsBetween(t1, t2);
  Account(&r);
  Check(&r);

  const double units = static_cast<double>(r.completed);
  const double sim_s = sim_.now().ToSeconds();
  r.model = {{"model.units", units, "count"},
             {"model.sim_s", sim_s, "s"},
             {"model.units_per_sim_s", sim_s > 0 ? units / sim_s : 0, "1/s"}};
  AddModelMetrics(&r);
  AddLayerMetrics(&r);
  return r;
}

void Workload::Check(RepResult* r) {
  if (r->accounted != r->attempted) {
    Fail(r, std::to_string(r->attempted - r->accounted) +
                " units neither finished, aborted nor shed");
  }
  if (!sim_.empty()) {
    Fail(r, "event queue not drained by the simulated-time limit");
    return;
  }
  if (sim_.Deadlocked()) {
    Fail(r, "deadlocked: " + sim_.BlockedEntities().front());
  }
  // PW_CHECKs (aborting the process) on a stalled reservation.
  runtime_->object_store().CheckNoReservationWedge();
  const std::int64_t live = runtime_->object_store().live_buffers();
  if (live != 0) Fail(r, std::to_string(live) + " live buffers after drain");
}

void Workload::AddLayerMetrics(RepResult* r) {
  auto add = [r](const char* name, double value, const char* unit) {
    r->layers.push_back({name, value, unit});
  };
  const double sim_s = sim_.now().ToSeconds();
  const auto events = static_cast<double>(sim_.events_executed());
  add("sim.events", events, "count");
  add("sim.pending_peak", static_cast<double>(pending_peak_), "count");

  // hw: devices, ICI, HBM, the cluster's trace recorder.
  double kernels = 0, busy_s = 0, hbm_peak_frac = 0, ici_bytes = 0;
  for (int d = 0; d < cluster_->num_devices(); ++d) {
    pw::hw::Device& dev = cluster_->device(d);
    kernels += static_cast<double>(dev.kernels_completed());
    busy_s += dev.busy_time().ToSeconds();
    hbm_peak_frac = std::max(
        hbm_peak_frac, static_cast<double>(dev.hbm().peak_used()) /
                           static_cast<double>(dev.hbm().capacity()));
  }
  for (int i = 0; i < cluster_->num_islands(); ++i) {
    ici_bytes += static_cast<double>(cluster_->island(i).ici_bytes_transferred());
  }
  const double device_s = sim_s * cluster_->num_devices();
  add("hw.kernels", kernels, "count");
  add("hw.busy_frac", device_s > 0 ? busy_s / device_s : 0, "ratio");
  add("hw.trace_spans", static_cast<double>(cluster_->trace().spans().size()),
      "count");
  add("hw.ici_gb", ici_bytes / 1e9, "GB");
  add("hw.hbm_peak_frac", hbm_peak_frac, "ratio");

  // net: the DCN fabric (flow counters only exist in flow-level mode).
  pw::net::DcnFabric& dcn = cluster_->dcn();
  const pw::net::FlowNetwork* flows = dcn.flow_network();
  add("net.dcn_msgs", static_cast<double>(dcn.messages_sent()), "count");
  add("net.dcn_gb", static_cast<double>(dcn.bytes_sent()) / 1e9, "GB");
  add("net.flows",
      flows != nullptr ? static_cast<double>(flows->flows_started()) : 0,
      "count");
  add("net.active_flows_peak", active_flows_peak_, "count");

  // pathways: schedulers, executors, object store.
  double gangs = 0, dispatch_msgs = 0, sched_busy_s = 0, enqueued = 0;
  for (int i = 0; i < cluster_->num_islands(); ++i) {
    const auto& sched = runtime_->scheduler(pw::hw::IslandId(i));
    gangs += static_cast<double>(sched.gangs_dispatched());
    dispatch_msgs += static_cast<double>(sched.dispatch_messages());
    sched_busy_s += sched.scheduler_busy().ToSeconds();
  }
  for (int d = 0; d < cluster_->num_devices(); ++d) {
    enqueued += static_cast<double>(
        runtime_->executor(pw::hw::DeviceId(d)).kernels_enqueued());
  }
  double queue_wait_s = 0, waited_gangs = 0;
  for (Client* c : clients_) {
    const auto stats = runtime_->SchedStatsFor(c->id());
    queue_wait_s += stats.queue_wait.ToSeconds();
    waited_gangs += static_cast<double>(stats.gangs_dispatched);
  }
  const double sched_s = sim_s * cluster_->num_islands();
  pw::pathways::ObjectStore& store = runtime_->object_store();
  double programs = 0;
  for (Client* c : clients_) {
    programs += static_cast<double>(c->programs_submitted());
  }
  add("pathways.submits", programs, "count");
  add("pathways.gangs", gangs, "count");
  add("pathways.dispatch_msgs", dispatch_msgs, "count");
  add("pathways.kernels_enqueued", enqueued, "count");
  add("pathways.sched_busy_frac", sched_s > 0 ? sched_busy_s / sched_s : 0,
      "ratio");
  add("pathways.queue_wait_us",
      waited_gangs > 0 ? queue_wait_s * 1e6 / waited_gangs : 0, "us");
  add("pathways.aborted", static_cast<double>(runtime_->executions_aborted()),
      "count");
  add("pathways.live_buffers_end", static_cast<double>(store.live_buffers()),
      "count");

  // memory: spill engine and host-DRAM read-through.
  add("memory.spills", static_cast<double>(store.spills_completed()), "count");
  add("memory.spilled_mb", static_cast<double>(store.spilled_bytes_total()) / 1e6,
      "MB");
  add("memory.dram_reads", static_cast<double>(store.dram_reads()), "count");
  add("memory.fills", static_cast<double>(store.fills_completed()), "count");
  add("memory.stall_kicks", static_cast<double>(runtime_->spiller().stall_kicks()),
      "count");

  // serving / workload.
  add("serving.offers", static_cast<double>(offers_), "count");
  add("serving.iterations", static_cast<double>(iterations_), "count");
  add("serving.kv_grows", static_cast<double>(store.grows_completed()), "count");
  add("serving.shed", static_cast<double>(shed_), "count");
  add("workload.arrivals", static_cast<double>(arrivals_), "count");

  if (rec_ == nullptr) return;
  // Host time, from the benchmark's own spans.
  const auto totals = rec_->TotalsByName();
  auto total_s = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto mean_us = [&totals](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() || it->second.count == 0
               ? 0.0
               : it->second.total_s * 1e6 / static_cast<double>(it->second.count);
  };
  const auto loop = totals.find("sim.run");
  const std::vector<double> slices = rec_->DurationsOf("sim.run");
  add("sim.ns_per_event", events > 0 ? total_s("sim.run") * 1e9 / events : 0,
      "ns");
  add("sim.loop_self_s", loop == totals.end() ? 0 : loop->second.self_s, "s");
  add("sim.slice_ms_p50", Percentile(slices, 50) * 1e3, "ms");
  add("sim.slice_ms_p99", Percentile(slices, 99) * 1e3, "ms");
  add("hw.build_s", total_s("hw.build"), "s");
  add("xlasim.compile_s", total_s("xlasim.compile"), "s");
  add("models.lower_s", total_s("models.lower"), "s");
  add("pathways.setup_s", total_s("pathways.setup"), "s");
  add("pathways.submit_us", mean_us("pathways.submit"), "us");
  add("pathways.release_us", mean_us("pathways.release"), "us");
  add("serving.offer_us", mean_us("serving.offer"), "us");
}

// --- dispatch_2048 -----------------------------------------------------------
// Config A at 2048 TPUs; closed-loop clients each resubmit a one-node
// AllReduce+add program over every device as soon as the previous one
// finishes, until the horizon; then the loops stop and the run drains.
class Dispatch2048 final : public Workload {
 public:
  using Workload::Workload;

 private:
  int hosts() const { return opt_.quick ? 64 : 512; }
  int num_clients() const { return opt_.quick ? 8 : 64; }
  Duration horizon() const {
    return opt_.quick ? Duration::Millis(20) : Duration::Millis(100);
  }
  Duration Slice() const override { return Duration::Millis(1); }
  Duration Limit() const override { return horizon() + Duration::Seconds(10); }

  void Setup() override {
    pw::hw::SystemParams params = pw::hw::SystemParams::TpuDefault();
    params.seed = opt_.seed;
    {
      Scope s(rec_, "hw.build");
      cluster_ = pw::hw::Cluster::ConfigA(&sim_, hosts(), params);
    }
    const int devices = cluster_->num_devices();
    pw::xlasim::CompiledFunction fn;
    {
      Scope s(rec_, "xlasim.compile");
      fn = pw::xlasim::CompiledFunction::Synthetic(
          "allreduce_add", devices, Duration::Micros(40),
          pw::net::CollectiveKind::kAllReduce, 4);
    }
    Scope s(rec_, "pathways.setup");
    runtime_ = std::make_unique<PathwaysRuntime>(cluster_.get(),
                                                 pw::pathways::PathwaysOptions{});
    for (int c = 0; c < num_clients(); ++c) {
      Client* client = runtime_->CreateClient();
      clients_.push_back(client);
      const auto slice = client->AllocateSlice(devices).value();
      pw::pathways::ProgramBuilder pb("allreduce_add");
      pb.Result(pb.Call(fn, slice, {}));
      programs_.push_back(
          std::make_unique<PathwaysProgram>(std::move(pb).Build()));
    }
  }

  void Start() override {
    for (int c = 0; c < num_clients(); ++c) Loop(c);
  }

  void Loop(int c) {
    const auto i = static_cast<std::size_t>(c);
    Submit(clients_[i], programs_[i].get())
        .Then([this, c](const ExecutionResult& result) {
          ++(result.failed ? aborted_ : completed_);
          ReleaseOutputs(result);
          if (sim_.now() < TimePoint() + horizon()) Loop(c);
        });
  }

  void Account(RepResult* r) override {
    r->attempted = submits_;
    r->completed = completed_;
    r->accounted = completed_ + aborted_;
  }

  std::vector<std::unique_ptr<PathwaysProgram>> programs_;
  std::int64_t completed_ = 0;
  std::int64_t aborted_ = 0;
};

// --- train_2island_flow ------------------------------------------------------
// decoder64b data-parallel over two 512-TPU islands on the flow-level Clos
// DCN (8 hosts per leaf, one spine, R=1). One training step per
// repetition: more, shorter repetitions give a run's median more samples
// than fewer, longer ones.
class Train2IslandFlow final : public Workload {
 public:
  using Workload::Workload;

 private:
  int cores_per_island() const { return opt_.quick ? 64 : 512; }
  Duration Slice() const override { return Duration::Millis(100); }
  // A full-size step takes ~38 s simulated; the quick size's 8x fewer
  // cores take ~8x longer.
  Duration Limit() const override { return Duration::Seconds(3600); }

  void Setup() override {
    pw::hw::SystemParams params = pw::hw::SystemParams::TpuDefault();
    params.seed = opt_.seed;
    params.dcn.clos.enabled = true;
    params.dcn.clos.hosts_per_leaf = 8;
    params.dcn.clos.num_spines = 1;
    params.dcn.clos.oversubscription = 1.0;
    {
      Scope s(rec_, "hw.build");
      cluster_ = std::make_unique<pw::hw::Cluster>(
          &sim_, params, /*islands=*/2, cores_per_island() / 8,
          /*devices_per_host=*/8);
    }
    std::vector<pw::pathways::VirtualSlice> slices;
    {
      Scope s(rec_, "pathways.setup");
      runtime_ = std::make_unique<PathwaysRuntime>(
          cluster_.get(), pw::pathways::PathwaysOptions{});
      clients_.push_back(runtime_->CreateClient());
      for (int i = 0; i < 2; ++i) {
        slices.push_back(clients_[0]
                             ->AllocateSlice(cores_per_island(),
                                             pw::hw::IslandId(i))
                             .value());
      }
    }
    Scope s(rec_, "models.lower");
    const pw::models::StepBuilder builder(
        pw::models::TransformerConfig::Decoder64B(), cluster_->params());
    program_ = std::make_unique<PathwaysProgram>(builder.BuildMultiIslandStep(
        slices, /*chunks=*/8, cluster_->island(0).collectives()));
  }

  void Start() override {
    Submit(clients_[0], program_.get())
        .Then([this](const ExecutionResult& result) {
          ++(result.failed ? aborted_ : completed_);
          ReleaseOutputs(result);
        });
  }

  void Account(RepResult* r) override {
    r->attempted = submits_;
    r->completed = completed_;
    r->accounted = completed_ + aborted_;
  }

  std::unique_ptr<PathwaysProgram> program_;
  std::int64_t completed_ = 0;
  std::int64_t aborted_ = 0;
};

// --- serve_kv_spill ----------------------------------------------------------
// Colocated continuous batcher on 2 devices; two open-loop tenants (Poisson
// and uniform) offer 1500 requests/s in total. The KV budget is 0.5x the
// batch working set and HBM 0.2x, so KV grows, spills and reads through.
class ServeKvSpill final : public Workload {
 public:
  using Workload::Workload;

 private:
  static constexpr Bytes kKvBytesPerToken = 4096;
  static constexpr int kMaxBatch = 8;
  static constexpr int kMaxPrefill = 48;
  static constexpr int kMaxDecode = 32;
  static constexpr double kRatePerSec = 1500;

  Duration horizon() const {
    return opt_.quick ? Duration::Millis(500) : Duration::Seconds(4);
  }
  Duration Slice() const override { return Duration::Millis(10); }
  Duration Limit() const override { return horizon() + Duration::Seconds(10); }

  pw::serving::TenantSpec TenantFor(int t) const {
    pw::serving::TenantSpec ts;
    ts.arrivals.process = t == 0 ? pw::workload::ArrivalProcess::kPoisson
                                 : pw::workload::ArrivalProcess::kUniform;
    ts.arrivals.rate_per_sec = kRatePerSec / 2;
    ts.arrivals.horizon = horizon();
    ts.arrivals.seed = opt_.seed * 1000 + 11 + 17 * static_cast<std::uint64_t>(t);
    ts.min_prefill_tokens = 8;
    ts.max_prefill_tokens = kMaxPrefill;
    ts.min_decode_tokens = 2;
    ts.max_decode_tokens = kMaxDecode;
    ts.token_seed = opt_.seed * 1000 + 101 + static_cast<std::uint64_t>(t);
    return ts;
  }

  void Setup() override {
    // Projected KV of a full batch of worst-case sequences, per shard.
    const Bytes working_set = static_cast<Bytes>(kMaxBatch) *
                              (kMaxPrefill + kMaxDecode - 1) * kKvBytesPerToken;
    pw::serving::BatcherConfig cfg;
    cfg.policy = pw::serving::BatchPolicy::kContinuous;
    cfg.max_batch = kMaxBatch;
    cfg.token_budget = 256;
    // Poisson bursts near capacity overflow the default 64-deep queue for a
    // few seeds; the benchmark measures serving every request, not shedding.
    cfg.queue_capacity = 1024;
    cfg.kv_budget_per_device = working_set / 2;
    pw::hw::SystemParams params = pw::hw::SystemParams::TpuDefault();
    params.seed = opt_.seed;
    params.host_jitter_frac = 0;
    params.hbm_capacity = static_cast<Bytes>(0.2 * static_cast<double>(working_set)) +
                          cfg.activation_bytes_per_shard +
                          cfg.output_bytes_per_shard + pw::KiB(128);
    {
      Scope s(rec_, "hw.build");
      cluster_ = std::make_unique<pw::hw::Cluster>(&sim_, params, /*islands=*/1,
                                                   /*hosts_per_island=*/1,
                                                   /*devices_per_host=*/2);
    }
    pw::pathways::VirtualSlice slice;
    {
      Scope s(rec_, "pathways.setup");
      runtime_ = std::make_unique<PathwaysRuntime>(
          cluster_.get(), pw::pathways::PathwaysOptions{});
      clients_.push_back(runtime_->CreateClient());
      slice = clients_[0]->AllocateSlice(cluster_->num_devices()).value();
    }
    Scope s(rec_, "serving.setup");
    batcher_ = std::make_unique<pw::serving::Batcher>(
        clients_[0], slice, pw::serving::KvCacheConfig{kKvBytesPerToken}, cfg,
        &metrics_);
    for (int t = 0; t < 2; ++t) {
      tenants_.push_back(std::make_unique<pw::serving::ServingTenant>(
          t,
          [this](pw::serving::Request req) {
            Scope offer(rec_, "serving.offer");
            ++offers_;
            return batcher_->Offer(std::move(req));
          },
          &sim_, TenantFor(t)));
    }
  }

  void Start() override {
    for (auto& t : tenants_) t->Start();
  }

  void Account(RepResult* r) override {
    iterations_ = batcher_->iterations();
    shed_ = batcher_->shed();
    for (const auto& t : tenants_) arrivals_ += t->arrivals_generated();
    r->attempted = metrics_.arrivals();
    r->completed = batcher_->finished();
    r->accounted = batcher_->finished() + batcher_->shed();
    if (!batcher_->idle()) Fail(r, "batcher not idle after drain");
  }

  void AddModelMetrics(RepResult* r) override {
    r->model.push_back({"serving.ttft_p99_us", metrics_.TtftUs(99), "us"});
    r->model.push_back({"serving.token_p99_us", metrics_.TokenLatencyUs(99), "us"});
  }

  pw::serving::ServingMetrics metrics_;
  std::unique_ptr<pw::serving::Batcher> batcher_;
  std::vector<std::unique_ptr<pw::serving::ServingTenant>> tenants_;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "dispatch_2048", "train_2island_flow", "serve_kv_spill"};
  return names;
}

RepResult RunWorkload(const Options& options, SpanRecorder* rec) {
  std::unique_ptr<Workload> w;
  if (options.workload == "dispatch_2048") {
    w = std::make_unique<Dispatch2048>(options, rec);
  } else if (options.workload == "train_2island_flow") {
    w = std::make_unique<Train2IslandFlow>(options, rec);
  } else {
    w = std::make_unique<ServeKvSpill>(options, rec);
  }
  return w->Run();
}

}  // namespace perfbench
