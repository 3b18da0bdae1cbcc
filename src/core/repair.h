// Failure repair orchestrator.
//
// Wires the hardware failure injector to deployments: when a device dies,
// every module with a slice on it is repaired according to its distributed
// aspect (paper sec. 3.4) —
//
//   tasks:  re-place the compute slice on a healthy device, restart the
//           environment (cold), and charge re-execution or checkpoint
//           restore for the in-flight work;
//   data:   fail the replica in the module's store (readers fail over) and
//           re-establish the declared replication factor on a new device.
//
// Replacements are allocated under the same aspect-derived constraints as
// admission (ConstraintsFor, src/core/placement_engine.h), so a
// tenancy=single module stays on an exclusive device after repair.
//
// Every action is recorded so tests and benches can audit recovery.

#ifndef UDC_SRC_CORE_REPAIR_H_
#define UDC_SRC_CORE_REPAIR_H_

#include <string>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/placement_engine.h"
#include "src/core/runtime.h"
#include "src/dist/checkpoint.h"
#include "src/exec/env_manager.h"
#include "src/hw/failure.h"

namespace udc {

struct RepairAction {
  ModuleId module;
  std::string module_name;
  DeviceId failed_device;
  DeviceId replacement_device;
  FailureHandling handling = FailureHandling::kReexecute;
  SimTime recovery_time;       // downtime charged to this module
  bool success = false;
  std::string detail;
};

class RepairService {
 public:
  // `attestation` is optional: when set, replacement devices get attestation
  // identities provisioned (and recorded on the deployment for teardown).
  RepairService(Simulation* sim, Deployment* deployment,
                EnvManager* env_manager, CheckpointStore* checkpoints,
                AttestationService* attestation = nullptr);

  // Subscribes to the injector; failures are handled as they fire.
  void Attach(FailureInjector* injector);

  // Handles one device failure immediately (also used by Attach's callback).
  std::vector<RepairAction> HandleDeviceFailure(DeviceId device);

  const std::vector<RepairAction>& history() const { return history_; }
  int64_t repairs_attempted() const { return static_cast<int64_t>(history_.size()); }
  int64_t repairs_succeeded() const;

 private:
  RepairAction RepairTask(const Placement& placement, DeviceId failed);
  RepairAction RepairData(Placement& placement, DeviceId failed);

  // The pool owning `device`, or nullptr.
  ResourcePool* PoolOf(DeviceId device);

  Simulation* sim_;
  Deployment* deployment_;
  EnvManager* env_manager_;
  CheckpointStore* checkpoints_;
  PlacementEngine engine_;
  std::vector<RepairAction> history_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_REPAIR_H_
