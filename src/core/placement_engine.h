// The placement engine: the one factory for placement transactions.
//
// Owns the wiring (datacenter pools, env manager, attestation service) a
// PlacementTxn needs and the observability around transactions: interned
// core.txn_committed / core.txn_aborted / core.txn_ops_staged /
// core.txn_ops_undone counters and a sched.txn span per transaction whose
// labels carry the purpose and the staged/undone op counts — so abort
// storms under pool pressure show up directly in the Prometheus and
// Chrome-trace exports.
//
// Services that only mutate pools (defrag, tuner) construct an engine
// without an env manager or attestation service; transactions then simply
// have no launch/provision ops to stage.

#ifndef UDC_SRC_CORE_PLACEMENT_ENGINE_H_
#define UDC_SRC_CORE_PLACEMENT_ENGINE_H_

#include <map>
#include <string>
#include <string_view>

#include "src/aspects/aspects.h"
#include "src/attest/attestation_service.h"
#include "src/core/placement_txn.h"
#include "src/exec/env_manager.h"
#include "src/hw/datacenter.h"
#include "src/ir/module_graph.h"
#include "src/sim/simulation.h"

namespace udc {

// Releases `allocation` back to its owning pool, found by id. This is the
// one non-transactional release path — deployment teardown and
// failed-device cleanup, where the release is unconditional — and the
// helper the engine itself releases through. Everything conditional goes
// through PlacementTxn.
Status ReleasePoolAllocation(DisaggregatedDatacenter* datacenter,
                             const PoolAllocation& allocation);

// Whether `aspects` ask for a module's compute on devices no other tenant
// shares: tenancy=single, or isolation strong enough to rule out hardware
// side channels (paper sec. 3.3).
bool RequiresExclusiveCompute(const AspectSet& aspects);

// The one place a module's aspects become pool-allocation constraints, used
// at admission (the scheduler) and again whenever a slice is re-placed
// (repair), so a declared aspect holds for the deployment's whole life.
// `resource` is the slice's resource kind, `rack` the preferred rack, and
// `cell` >= 0 confines the slice to that control-plane cell. Compute slices
// and data replicas land on a single device; compute slices are exclusive
// when RequiresExclusiveCompute. Callers append their own avoid lists.
AllocationConstraints ConstraintsFor(const AspectSet& aspects,
                                     ModuleKind module_kind,
                                     ResourceKind resource, int rack,
                                     int cell = -1);

class PlacementEngine {
 public:
  PlacementEngine(Simulation* sim, DisaggregatedDatacenter* datacenter,
                  EnvManager* env_manager = nullptr,
                  AttestationService* attestation = nullptr);

  PlacementEngine(const PlacementEngine&) = delete;
  PlacementEngine& operator=(const PlacementEngine&) = delete;

  // Opens a transaction. `purpose` labels the sched.txn span ("deploy",
  // "repair_task", "defrag", ...); label sets are interned per purpose, so
  // the per-transaction span costs no label construction.
  PlacementTxn Begin(std::string_view purpose);

  // Unconditional release (no transaction): the caller has already decided
  // the allocation is gone (dead device, deployment teardown).
  Status Release(const PoolAllocation& allocation);

  Simulation* sim() { return sim_; }
  DisaggregatedDatacenter* datacenter() { return datacenter_; }
  EnvManager* env_manager() { return env_manager_; }
  AttestationService* attestation() { return attestation_; }

 private:
  friend class PlacementTxn;

  // Metrics + span close for a transaction reaching Commit or Abort.
  void NoteClosed(const PlacementTxn& txn, bool committed);
  uint32_t PurposeLabelSet(std::string_view purpose);

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  EnvManager* env_manager_;
  AttestationService* attestation_;

  // Interned span label sets, one per distinct purpose string.
  std::map<std::string, uint32_t, std::less<>> purpose_sets_;

  CounterHandle txn_committed_;
  CounterHandle txn_aborted_;
  CounterHandle txn_ops_staged_;
  CounterHandle txn_ops_undone_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_PLACEMENT_ENGINE_H_
