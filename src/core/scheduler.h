// The UDC runtime scheduler (paper sec. 3.2).
//
// "Our runtime scheduler would use the user-supplied resource aspect,
// execution environment aspect, and locality information from the
// application semantic aspect to decide the location(s) to execute a module
// and initialize it with the resource amount as user specified."
//
// UdcScheduler is the per-cell module placer: RegionRouter (the one deploy
// path, src/core/region_router.h) owns one per topology cell and calls
// PlaceModuleInTxn for each module of a deploy. Placing a module resolves
// its demand through the dry-run profiler, picks a rack inside the cell
// with the locality hints, stages slices out of the disaggregated pools,
// launches the execution environment the exec-env aspect calls for, wires
// replicated stores for data modules, and records resource units +
// high-level objects on the deployment.

#ifndef UDC_SRC_CORE_SCHEDULER_H_
#define UDC_SRC_CORE_SCHEDULER_H_

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "src/core/deployment.h"
#include "src/core/placement_engine.h"
#include "src/core/planner.h"
#include "src/net/fabric.h"
#include "src/net/switch_programs.h"
#include "src/obs/metrics.h"

namespace udc {

struct SchedulerConfig {
  // Ablation knob (bench E11): honour colocation/affinity hints.
  bool use_locality_hints = true;
  // Rack pick backed by the pools' incremental free-capacity totals
  // (O(racks)) instead of a full device scan per module (O(devices)).
  // Off = the legacy scan, kept as the deploy-churn benchmark baseline.
  bool use_placement_index = true;
  // Whether this deployment supports TEEs spanning GPUs/FPGAs (sec. 3.3
  // names Graviton-style hardware support as one option).
  bool tee_gpu_supported = false;
  // How conflicting consistency specs are settled (sec. 3.4).
  ConflictPolicy conflict_policy = ConflictPolicy::kStrictestWins;
  // Replication protocol for data modules; kInNetwork uses the switch
  // sequencer when available.
  ReplicationProtocol replication_protocol = ReplicationProtocol::kPrimaryBackup;
  // Record wall-clock (host) placement latency once per routed deploy:
  // RegionRouter observes it into the unlabelled
  // `sched.region_place_latency_us` aggregate and the home region's and
  // home cell's labelled series (`sched.region_place_latency_us{region}`,
  // `sched.cell_place_latency_us{cell}`). Off by default: wall-clock values
  // differ run to run, so the series would break the byte-identical
  // exposition guarantee differential tests rely on. The series are only
  // interned when this is set — even an empty histogram changes the
  // exposition text.
  bool record_place_latency = false;
};

class UdcScheduler {
 public:
  // A placer scoped to topology cell `cell` (control-plane shard): rack
  // picks scan only the cell's racks, locality hints outside the cell are
  // ignored, and every pool request carries strict_cell so placements never
  // leave the capacity partition this scheduler owns.
  UdcScheduler(Simulation* sim, DisaggregatedDatacenter* datacenter,
               Fabric* fabric, const PriceList* prices, int cell,
               SchedulerConfig config = SchedulerConfig());

  const SchedulerConfig& config() const { return config_; }
  DryRunProfiler& profiler() { return profiler_; }

  // Optional: attach a switch sequencer for in-network replication.
  void SetSequencer(SwitchSequencer* sequencer) { sequencer_ = sequencer; }

  // Per-batch caches for RegionRouter::DeployAll: rack free-capacity
  // vectors per device kind (maintained incrementally as allocations land)
  // and resolved module demands keyed by module identity (batches redeploy
  // the same specs). One context is shared across cell schedulers (demand
  // resolution is cell-independent; the rack debits are rack-exact).
  struct BatchContext {
    std::array<std::vector<int64_t>, kNumDeviceKinds> free_by_rack;
    std::array<bool, kNumDeviceKinds> free_by_rack_valid{};
    std::map<const Module*, ResolvedDemand> demands;
  };

  // Places one module of `spec` into an already-open transaction owned by
  // the caller (the router's deploy transaction). Stages allocations,
  // launch and provisions into `txn` and records the module on
  // `deployment`. On failure the txn is left open with this module's
  // partial sub-plan still staged; the caller unwinds it with
  // PlacementTxn::AbortTo (or aborts the whole txn).
  Status PlaceModuleInTxn(TenantId tenant, const AppSpec& spec,
                          ModuleId module, bool is_data,
                          Deployment* deployment, PlacementTxn& txn,
                          BatchContext* batch);

 private:
  // Picks the rack for `module`: the rack of an already-placed locality
  // partner when hints are on, else the rack with the most free capacity of
  // the module's dominant resource (served from `batch`'s cache when set).
  int PickRack(const AppSpec& spec, ModuleId module,
               const Deployment& deployment, ResourceKind dominant,
               BatchContext* batch);
  // Debits `allocation`'s slices from the batch's cached rack capacities so
  // later deploys in the batch score racks against up-to-date numbers.
  void NoteBatchAllocation(BatchContext* batch, DeviceKind kind,
                           const PoolAllocation& allocation);
  // ResolveDemand, cached per batch.
  Result<ResolvedDemand> DemandFor(const Module& module,
                                   const ResourceAspect& aspect,
                                   BatchContext* batch);

  Status PlaceTask(TenantId tenant, const AppSpec& spec, ModuleId module,
                   Deployment* deployment, PlacementTxn& txn,
                   BatchContext* batch);
  Status PlaceData(TenantId tenant, const AppSpec& spec, ModuleId module,
                   Deployment* deployment, PlacementTxn& txn,
                   BatchContext* batch);

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  Fabric* fabric_;
  const int cell_;
  SchedulerConfig config_;
  DryRunProfiler profiler_;
  SwitchSequencer* sequencer_ = nullptr;

  // Interned metric series: placement happens per module per deploy, so the
  // counters are bumped through pre-resolved handles instead of re-hashing
  // name+labels each time.
  CounterHandle tasks_placed_;
  CounterHandle data_placed_;
  CounterHandle modules_placed_task_;
  CounterHandle modules_placed_data_;
  CounterHandle conflicts_resolved_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_SCHEDULER_H_
