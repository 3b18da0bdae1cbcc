#include "src/core/repair.h"

#include <algorithm>

#include "src/common/strings.h"

namespace udc {

RepairService::RepairService(Simulation* sim, Deployment* deployment,
                             EnvManager* env_manager,
                             CheckpointStore* checkpoints,
                             AttestationService* attestation)
    : sim_(sim), deployment_(deployment), env_manager_(env_manager),
      checkpoints_(checkpoints),
      engine_(sim, deployment->datacenter(), env_manager, attestation) {}

void RepairService::Attach(FailureInjector* injector) {
  injector->Subscribe([this](const FailureEvent& event) {
    if (event.failed) {
      (void)HandleDeviceFailure(event.device);
    }
  });
}

ResourcePool* RepairService::PoolOf(DeviceId device) {
  for (int i = 0; i < kNumDeviceKinds; ++i) {
    ResourcePool& pool =
        deployment_->datacenter()->pool(static_cast<DeviceKind>(i));
    if (pool.FindDevice(device) != nullptr) {
      return &pool;
    }
  }
  return nullptr;
}

int64_t RepairService::repairs_succeeded() const {
  return std::count_if(history_.begin(), history_.end(),
                       [](const RepairAction& a) { return a.success; });
}

RepairAction RepairService::RepairTask(const Placement& placement,
                                       DeviceId failed) {
  RepairAction action;
  action.module = placement.module;
  action.module_name = placement.name;
  action.failed_device = failed;

  const AspectSet aspects = deployment_->spec().AspectsFor(placement.module);
  action.handling = aspects.dist.failure_handling;

  ResourceUnit* unit = deployment_->FindUnit(placement.unit);
  ResourcePool* pool = PoolOf(failed);
  if (unit == nullptr || pool == nullptr) {
    action.detail = "unit or pool missing";
    return action;
  }

  // Find the dead slice, release its siblings on the failed device, and
  // re-acquire the same amount elsewhere in the same pool.
  for (PoolAllocation& alloc : unit->allocations) {
    for (AllocationSlice& slice : alloc.slices) {
      if (slice.device != failed) {
        continue;
      }
      const int64_t amount = slice.amount;
      // Release the dead slice unconditionally (no transaction: the device
      // is failed, the slice is gone either way). Device::Release still
      // works — health is orthogonal to the ledger — and keeps the ledger
      // truthful.
      PoolAllocation dead;
      dead.pool = alloc.pool;
      dead.kind = alloc.kind;
      dead.tenant = alloc.tenant;
      dead.slices.push_back(slice);
      (void)engine_.Release(dead);

      PlacementTxn txn = engine_.Begin("repair_task");
      AllocationConstraints constraints = ConstraintsFor(
          aspects, ModuleKind::kTask, alloc.kind, placement.rack);
      constraints.avoid.push_back(failed);
      auto replacement =
          txn.AllocateFrom(pool, alloc.tenant, amount, constraints);
      if (!replacement.ok()) {
        txn.Abort();
        slice.amount = 0;
        action.detail = "no healthy replacement: " +
                        std::string(replacement.status().message());
        return action;
      }
      slice = replacement->slices.front();
      action.replacement_device = slice.device;
      if (engine_.attestation() != nullptr) {
        txn.Provision(slice.device.value());
        deployment_->RecordProvisionedIdentity(slice.device.value());
      }

      // Restart the environment on the new home (cold start) and charge
      // recovery for the lost work per the module's failure handling.
      Placement* mutable_placement =
          deployment_->MutablePlacementOf(placement.module);
      mutable_placement->home = slice.node;
      mutable_placement->rack =
          deployment_->datacenter()->topology().RackOf(slice.node);

      DagRuntime runtime(sim_, deployment_);
      // Assume the failure caught the module mid-run at 50% progress.
      auto recovery = runtime.SimulateFailure(
          placement.module, /*fail_fraction=*/0.5,
          /*checkpoint_interval_fraction=*/0.25, checkpoints_);
      action.recovery_time =
          recovery.ok() ? *recovery
                        : EnvProfile::DefaultFor(placement.env_kind).cold_start;
      if (unit->env != nullptr) {
        LaunchOptions options;
        options.kind = unit->env->kind();
        options.tenancy = unit->env->tenancy();
        options.allow_warm = false;  // the warm pool died with the device
        // Stop the dead environment at commit (the old path leaked it) and
        // launch the replacement through the transaction.
        txn.StageStop(unit->env);
        unit->env = txn.Launch(alloc.tenant, slice.node, options, nullptr);
        mutable_placement->env_ready_at = unit->env->ready_at();
      }
      (void)txn.Commit();
      action.success = true;
      action.detail =
          StrFormat("re-placed %lld %s", static_cast<long long>(amount),
                    std::string(ResourceKindName(alloc.kind)).c_str());
      sim_->metrics().IncrementCounter("repair.tasks_replaced");
      return action;
    }
  }
  action.detail = "module had no slice on the failed device";
  return action;
}

RepairAction RepairService::RepairData(Placement& placement, DeviceId failed) {
  RepairAction action;
  action.module = placement.module;
  action.module_name = placement.name;
  action.failed_device = failed;
  action.handling = FailureHandling::kFailover;

  ReplicatedStore* store = deployment_->StoreOf(placement.module);
  ResourcePool* pool = PoolOf(failed);
  ResourceUnit* unit = deployment_->FindUnit(placement.unit);
  if (store == nullptr || pool == nullptr || unit == nullptr) {
    action.detail = "store/pool/unit missing";
    return action;
  }

  // 1. Fail the replica: readers fail over instantly.
  const auto replica_pos = std::find(placement.replica_devices.begin(),
                                     placement.replica_devices.end(), failed);
  if (replica_pos == placement.replica_devices.end()) {
    action.detail = "no replica on failed device";
    return action;
  }
  const size_t replica_index =
      static_cast<size_t>(replica_pos - placement.replica_devices.begin());
  store->MarkReplicaFailed(placement.replica_nodes[replica_index]);

  // 2. Re-establish the replication factor on a fresh device.
  for (PoolAllocation& alloc : unit->allocations) {
    for (AllocationSlice& slice : alloc.slices) {
      if (slice.device != failed) {
        continue;
      }
      const int64_t amount = slice.amount;
      PoolAllocation dead;
      dead.pool = alloc.pool;
      dead.kind = alloc.kind;
      dead.tenant = alloc.tenant;
      dead.slices.push_back(slice);
      (void)engine_.Release(dead);

      PlacementTxn txn = engine_.Begin("repair_data");
      AllocationConstraints constraints = ConstraintsFor(
          deployment_->spec().AspectsFor(placement.module), ModuleKind::kData,
          alloc.kind, placement.rack);
      constraints.avoid = placement.replica_devices;
      auto replacement =
          txn.AllocateFrom(pool, alloc.tenant, amount, constraints);
      if (!replacement.ok()) {
        txn.Abort();
        slice.amount = 0;
        action.detail = "replication degraded: " +
                        std::string(replacement.status().message());
        return action;
      }
      slice = replacement->slices.front();
      action.replacement_device = slice.device;
      placement.replica_devices[replica_index] = slice.device;
      placement.replica_nodes[replica_index] = slice.node;
      if (engine_.attestation() != nullptr) {
        txn.Provision(slice.device.value());
        deployment_->RecordProvisionedIdentity(slice.device.value());
      }
      (void)txn.Commit();

      // Re-silvering: copy the data from a healthy replica over the fabric.
      const Module* m = deployment_->spec().graph.Find(placement.module);
      NodeId source;
      for (const NodeId n : placement.replica_nodes) {
        if (n != slice.node && store->PlanRead(n, Bytes(0)).latency <
                                    SimTime::Max()) {
          source = n;
          break;
        }
      }
      action.recovery_time =
          source.valid()
              ? deployment_->datacenter()->topology().TransferTime(
                    source, slice.node, m->data_size)
              : SimTime::Max();
      action.success = true;
      action.detail = "replica rebuilt";
      sim_->metrics().IncrementCounter("repair.replicas_rebuilt");
      return action;
    }
  }
  action.detail = "failed replica slice not found";
  return action;
}

std::vector<RepairAction> RepairService::HandleDeviceFailure(DeviceId device) {
  std::vector<RepairAction> actions;
  std::vector<ModuleId> directly_affected;
  // Modules whose unit has a slice on `device`.
  for (const auto& [module, placement] : deployment_->placements()) {
    const ResourceUnit* unit = deployment_->FindUnit(placement.unit);
    if (unit == nullptr) {
      continue;
    }
    bool affected = false;
    for (const PoolAllocation& alloc : unit->allocations) {
      for (const AllocationSlice& slice : alloc.slices) {
        if (slice.device == device) {
          affected = true;
        }
      }
    }
    if (!affected) {
      continue;
    }
    directly_affected.push_back(module);
    Placement* mutable_placement = deployment_->MutablePlacementOf(module);
    RepairAction action = placement.kind == ModuleKind::kTask
                              ? RepairTask(*mutable_placement, device)
                              : RepairData(*mutable_placement, device);
    sim_->Trace("repair", StrFormat("%s module %s: %s",
                                    action.success ? "repaired" : "FAILED",
                                    action.module_name.c_str(),
                                    action.detail.c_str()));
    history_.push_back(action);
    actions.push_back(std::move(action));
  }

  // Co-failure (sec. 3.4): "code and data within a domain will fail as a
  // whole." Domain members of any directly-affected module are recovered
  // too, even when their own devices survived.
  std::vector<ModuleId> co_failing;
  for (const ModuleId module : directly_affected) {
    for (const ModuleId member : deployment_->spec().CoFailingWith(module)) {
      const bool already =
          std::find(directly_affected.begin(), directly_affected.end(),
                    member) != directly_affected.end() ||
          std::find(co_failing.begin(), co_failing.end(), member) !=
              co_failing.end();
      if (!already) {
        co_failing.push_back(member);
      }
    }
  }
  for (const ModuleId member : co_failing) {
    const Placement* placement = deployment_->PlacementOf(member);
    if (placement == nullptr || placement->kind != ModuleKind::kTask) {
      continue;
    }
    RepairAction action;
    action.module = member;
    action.module_name = placement->name;
    action.failed_device = device;
    const FailureDomainSpec* domain = deployment_->spec().DomainOf(member);
    action.handling = domain != nullptr ? domain->handling
                                        : FailureHandling::kReexecute;
    DagRuntime runtime(sim_, deployment_);
    auto recovery = runtime.SimulateFailure(member, /*fail_fraction=*/0.5,
                                            /*checkpoint_interval_fraction=*/
                                            0.25, checkpoints_);
    action.recovery_time =
        recovery.ok() ? *recovery
                      : EnvProfile::DefaultFor(placement->env_kind).cold_start;
    action.success = true;
    action.detail = "co-failure: domain '" +
                    (domain != nullptr ? domain->name : "?") + "'";
    sim_->metrics().IncrementCounter("repair.cofailures");
    history_.push_back(action);
    actions.push_back(std::move(action));
  }
  // Convergence for this failure event: the slowest recovery among every
  // triggered action (direct and co-failing). Sim-time, so deterministic —
  // safe to record unconditionally, and the SLO layer windows it
  // (slo.repair.convergence_p99).
  if (!actions.empty()) {
    SimTime worst = SimTime(0);
    for (const RepairAction& action : actions) {
      worst = std::max(worst, action.recovery_time);
    }
    sim_->metrics().Observe("repair.convergence_ms",
                            static_cast<double>(worst.millis()));
  }
  return actions;
}

}  // namespace udc
