#include "scenario/family_common.h"

#include <cstdarg>
#include <cstdio>

namespace pw::scenario {

hw::SystemParams BaseSystemParams(const ClusterSpec& c) {
  hw::SystemParams p = c.preset == "gpu_vm" ? hw::SystemParams::GpuVmDefault()
                                            : hw::SystemParams::TpuDefault();
  if (c.host_jitter_frac) p.host_jitter_frac = *c.host_jitter_frac;
  if (c.hbm_capacity_mib) p.hbm_capacity = MiB(*c.hbm_capacity_mib);
  if (c.host_dram_capacity_mib) {
    p.host_dram_capacity = MiB(*c.host_dram_capacity_mib);
  }
  p.ici_flow.enabled = c.ici_flow;
  p.ici_flow.dims = c.ici_flow_dims;
  p.dcn.clos.enabled = c.dcn_clos;
  p.dcn.clos.hosts_per_leaf = c.clos_hosts_per_leaf;
  p.dcn.clos.num_spines = c.clos_num_spines;
  p.dcn.clos.oversubscription = c.clos_oversubscription;
  return p;
}

std::unique_ptr<hw::Cluster> BuildCluster(sim::Simulator* sim,
                                          const ClusterSpec& c,
                                          const hw::SystemParams& params) {
  if (c.preset == "config_a") {
    return hw::Cluster::ConfigA(sim, c.hosts_per_island, params);
  }
  if (c.preset == "config_b") {
    return hw::Cluster::ConfigB(sim, c.hosts_per_island, params);
  }
  if (c.preset == "gpu_vm") {
    return hw::Cluster::GpuVm(sim, c.hosts_per_island, params);
  }
  return std::make_unique<hw::Cluster>(sim, params, c.islands,
                                       c.hosts_per_island, c.devices_per_host);
}

double MetricOf(const sweep::ResultRow& row, const std::string& name) {
  for (const auto& [k, v] : row.metrics) {
    if (k == name) return v;
  }
  return 0.0;
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

}  // namespace pw::scenario
