#include "perfbench/check.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "src/common/strings.h"

namespace perfbench {

namespace {

constexpr size_t kMaxErrors = 8;

}  // namespace

int Geometry::RackOfDevice(udc::DeviceId device) const {
  return static_cast<int>(device.value() /
                          static_cast<uint64_t>(devices_per_rack));
}

int Geometry::RegionOfRack(int rack) const {
  if (regions <= 0 || cells <= 0) {
    return -1;
  }
  const int cell_size = (racks + cells - 1) / cells;
  const int cell_count = (racks + cell_size - 1) / cell_size;
  const int region_size = (cell_count + regions - 1) / regions;
  return rack / cell_size / region_size;
}

void Checker::Fail(const std::string& message) {
  ++failures_;
  if (errors_.size() < kMaxErrors) {
    errors_.push_back(message);
  }
}

void Checker::CheckAdmitted(udc::UdcCloud& cloud, udc::Deployment& deployment,
                            const GeneratedApp& app) {
  const udc::AppSpec& spec = deployment.spec();
  if (deployment.placements().size() != app.modules.size()) {
    Fail(udc::StrFormat("%s: %zu placements for %zu modules",
                        spec.graph.app_name().c_str(),
                        deployment.placements().size(), app.modules.size()));
    return;
  }
  for (const ModuleRecord& m : app.modules) {
    const udc::ModuleId id = spec.graph.IdOf(m.name);
    const udc::Placement* placement = deployment.PlacementOf(id);
    const udc::ResourceUnit* unit =
        placement == nullptr ? nullptr : deployment.FindUnit(placement->unit);
    if (unit == nullptr) {
      Fail(spec.graph.app_name() + "/" + m.name + ": not placed");
      continue;
    }
    const udc::ResourceVector held = unit->TotalResources();
    const bool enough =
        held.Get(udc::ResourceKind::kCpu) >= m.cpu_milli &&
        held.Get(udc::ResourceKind::kGpu) >= m.gpu_milli &&
        held.Get(udc::ResourceKind::kDram) >= m.dram_bytes &&
        held.Get(udc::ResourceKind::kSsd) >= m.ssd_bytes * m.replicas;
    if (!enough) {
      Fail(spec.graph.app_name() + "/" + m.name + ": holds less than declared");
    }
    if (m.is_data) {
      std::vector<udc::DeviceId> devices = placement->replica_devices;
      std::sort(devices.begin(), devices.end());
      if (static_cast<int>(devices.size()) != m.replicas ||
          std::adjacent_find(devices.begin(), devices.end()) != devices.end()) {
        Fail(spec.graph.app_name() + "/" + m.name +
             ": replicas not on distinct devices");
      }
    }
    for (const udc::PoolAllocation& alloc : unit->allocations) {
      const bool compute = udc::IsComputeKind(alloc.kind);
      for (const udc::AllocationSlice& slice : alloc.slices) {
        const int region =
            geometry_.RegionOfRack(geometry_.RackOfDevice(slice.device));
        if ((m.region >= 0 && region != m.region) ||
            (m.avoid_region >= 0 && region == m.avoid_region)) {
          Fail(udc::StrFormat("%s/%s: device in region %d breaks the pin",
                              spec.graph.app_name().c_str(), m.name.c_str(),
                              region));
        }
        if (m.single_tenant && compute) {
          const udc::Device* device =
              cloud.datacenter().PoolById(alloc.pool)->FindDevice(slice.device);
          if (device == nullptr || device->tenant_count() != 1) {
            Fail(spec.graph.app_name() + "/" + m.name +
                 ": single-tenant device is shared");
          }
        }
      }
    }
  }
}

void Checker::CheckOccupancy(udc::UdcCloud& cloud,
                             const std::vector<LiveDeployment>& live) {
  std::array<int64_t, udc::kNumDeviceKinds> expected{};
  // Device -> the tenants holding a slice on it, recounted from the live
  // deployments.
  std::unordered_map<uint64_t, std::vector<uint64_t>> holders;
  for (const auto& [deployment, app] : live) {
    for (udc::ResourceUnit* unit : deployment->units()) {
      for (const udc::PoolAllocation& alloc : unit->allocations) {
        for (const udc::AllocationSlice& slice : alloc.slices) {
          expected[alloc.pool.value()] += slice.amount;
          std::vector<uint64_t>& h = holders[slice.device.value()];
          if (std::find(h.begin(), h.end(), deployment->tenant().value()) ==
              h.end()) {
            h.push_back(deployment->tenant().value());
          }
        }
      }
    }
  }
  for (int k = 0; k < udc::kNumDeviceKinds; ++k) {
    const udc::ResourcePool& pool =
        cloud.datacenter().pool(static_cast<udc::DeviceKind>(k));
    if (pool.TotalAllocated() != expected[pool.id().value()]) {
      Fail(udc::StrFormat(
          "pool %s: allocated %lld, live deployments hold %lld",
          std::string(udc::DeviceKindName(pool.device_kind())).c_str(),
          static_cast<long long>(pool.TotalAllocated()),
          static_cast<long long>(expected[pool.id().value()])));
    }
  }
  for (const auto& [deployment, app] : live) {
    const udc::AppSpec& spec = deployment->spec();
    for (const ModuleRecord& m : app->modules) {
      if (!m.single_tenant) {
        continue;
      }
      const udc::Placement* placement =
          deployment->PlacementOf(spec.graph.IdOf(m.name));
      const udc::ResourceUnit* unit =
          placement == nullptr ? nullptr : deployment->FindUnit(placement->unit);
      if (unit == nullptr) {
        continue;  // reported at admission
      }
      for (const udc::PoolAllocation& alloc : unit->allocations) {
        if (!udc::IsComputeKind(alloc.kind)) {
          continue;
        }
        for (const udc::AllocationSlice& slice : alloc.slices) {
          if (holders[slice.device.value()].size() != 1) {
            Fail(spec.graph.app_name() + "/" + m.name +
                 ": single-tenant device carries another tenant");
          }
        }
      }
    }
  }
}

void Checker::CheckDrained(udc::UdcCloud& cloud) {
  for (int k = 0; k < udc::kNumDeviceKinds; ++k) {
    const udc::ResourcePool& pool =
        cloud.datacenter().pool(static_cast<udc::DeviceKind>(k));
    if (pool.TotalAllocated() != 0) {
      Fail(udc::StrFormat(
          "after drain pool %s still holds %lld",
          std::string(udc::DeviceKindName(pool.device_kind())).c_str(),
          static_cast<long long>(pool.TotalAllocated())));
    }
  }
  if (cloud.envs().live_count() != 0) {
    Fail(udc::StrFormat("after drain %zu environments live",
                        cloud.envs().live_count()));
  }
  if (cloud.envs().store() != nullptr &&
      cloud.envs().store()->live_env_refs() != 0) {
    Fail(udc::StrFormat(
        "after drain %lld env-store refs",
        static_cast<long long>(cloud.envs().store()->live_env_refs())));
  }
  if (cloud.attestation().provisioned_count() != 0) {
    Fail(udc::StrFormat("after drain %zu attestation identities",
                        cloud.attestation().provisioned_count()));
  }
}

}  // namespace perfbench
