// The placement hierarchy: one router over regions, cells and racks.
//
// RegionRouter is the one deploy path — UdcCloud always builds it. The
// topology's racks are partitioned into cells (Topology::SetCellCount) and
// the cells into regions (Topology::SetRegionCount); an unpartitioned
// datacenter is one region holding one cell. Each cell gets its own
// UdcScheduler over a private slice of the FreeCapacityIndex, so every rack
// pick is O(racks/cells). The router above them:
//
//   * routes each deploy to a home region using the index's per-region
//     healthy free totals (FreeCapacityIndex::region_free — maintained by
//     commit/release deltas, never by rescans), then to a home cell inside
//     that region by the per-cell summaries;
//   * honors region affinity/anti-affinity from the udcl dist aspect
//     (`aspect m dist region=N` pins a module's candidate cells to region
//     N; `avoid_region=N` strikes region N from its candidate list);
//   * runs the whole deploy as ONE placement transaction. A module the
//     home cell rejects unwinds its partial sub-plan with
//     PlacementTxn::AbortTo and retries across the home region's other
//     cells, then across the remaining regions in free-capacity order —
//     a failed remote leg unwinds exactly, and a module no cell admits
//     aborts the full transaction in reverse staging order.
//
// Determinism contract: the candidate order is a pure function of the
// delta-maintained summaries (home cell = argmax free, ties low; fallbacks
// by free desc, index asc), so a deploy stream's admit/reject decisions are
// reproducible run to run. On specs whose admission is count-based (uniform
// demands), every cells x regions geometry makes the same decisions and
// ends with the same pool occupancy as the single whole-datacenter
// scheduler this router replaced; tests/region_router_test.cc pins that
// against golden hashes recorded from that scheduler.

#ifndef UDC_SRC_CORE_REGION_ROUTER_H_
#define UDC_SRC_CORE_REGION_ROUTER_H_

#include <memory>
#include <vector>

#include "src/core/scheduler.h"

namespace udc {

class RegionRouter {
 public:
  // `base` is every cell scheduler's configuration. Requires a topology
  // with at least one region and one cell.
  RegionRouter(Simulation* sim, DisaggregatedDatacenter* datacenter,
               Fabric* fabric, EnvManager* env_manager,
               AttestationService* attestation, const PriceList* prices,
               SchedulerConfig base = SchedulerConfig());

  // Routed deploy: picks a home region by free-capacity summary (or the
  // spec's region affinity), a home cell inside it, and places the DAG
  // through the per-cell schedulers inside one transaction, spilling
  // modules outward (home cell -> home region -> other regions) only on
  // rejection.
  Result<std::unique_ptr<Deployment>> Deploy(TenantId tenant,
                                             const AppSpec& spec);
  // Shared-spec overload: the deployment references the caller's immutable
  // spec instead of copying it (keep it unchanged while deployments use it).
  Result<std::unique_ptr<Deployment>> Deploy(
      TenantId tenant, std::shared_ptr<const AppSpec> spec);
  // Batched deploys share one demand/rack-score cache across the batch
  // (and across cells/regions). Results are positional.
  std::vector<Result<std::unique_ptr<Deployment>>> DeployAll(
      TenantId tenant, const std::vector<const AppSpec*>& specs);

  int region_count() const { return region_count_; }
  int cell_count() const { return static_cast<int>(cells_.size()); }
  UdcScheduler& cell(int c) { return *cells_[static_cast<size_t>(c)]; }
  PlacementEngine& engine() { return engine_; }

  void SetSequencer(SwitchSequencer* sequencer);

  // Per-region / per-cell healthy free capacity of `kind` — the routing
  // summaries (zero-copy views of the delta-maintained index vectors).
  const std::vector<int64_t>& RegionFreeSummary(DeviceKind kind) const;
  const std::vector<int64_t>& CellFreeSummary(DeviceKind kind) const;
  // Deploys homed to region `r` / deploys with a module outside the home
  // region / module placements that left their home region.
  int64_t RegionDeploys(int r) const;
  int64_t cross_region_deploys() const;
  int64_t region_fallbacks() const;
  // The same three counts one level down, for cells.
  int64_t CellDeploys(int c) const;
  int64_t cross_cell_deploys() const;
  int64_t cell_fallbacks() const;

 private:
  // Home region: the spec's first region affinity when one is declared,
  // else the region with the most healthy free capacity of the routing
  // kind; ties to the lowest region.
  int RouteRegion(const AppSpec& spec) const;
  // The cell with the most free capacity among `region`'s cells; ties low.
  int RouteCellInRegion(int region) const;
  // Candidate cells for one module: home cell, then the home region's
  // other cells (free desc, cell asc), then other regions in (free desc,
  // region asc) order, each region's cells in (free desc, cell asc) order.
  // Cells in the module's avoid_region are struck; a module affinity
  // restricts the list to that region's cells.
  std::vector<int> CandidateCells(int home_region, int home_cell,
                                  int affinity, int anti_affinity) const;

  Result<std::unique_ptr<Deployment>> DeployOneRouted(
      TenantId tenant, std::shared_ptr<const AppSpec> spec,
      UdcScheduler::BatchContext* batch);

  Simulation* sim_;
  DisaggregatedDatacenter* datacenter_;
  PlacementEngine engine_;
  std::vector<std::unique_ptr<UdcScheduler>> cells_;
  int region_count_;
  bool record_place_latency_;

  // Interned per-region and per-cell series/labels: the router is on the
  // per-deploy hot path, so nothing here formats strings per call.
  std::vector<CounterHandle> region_deploys_;
  CounterHandle cross_region_deploys_;
  CounterHandle region_fallbacks_;
  std::vector<CounterHandle> cell_deploys_;
  CounterHandle cross_cell_deploys_;
  CounterHandle cell_fallbacks_;
  // {{"region", r}, {"cell", c}} per cell, for the sched.deploy span.
  std::vector<uint32_t> cell_span_sets_;
  // Only interned when record_place_latency: the unlabelled aggregate
  // sched.region_place_latency_us plus per-region and per-cell sketches.
  HistogramHandle place_latency_us_;
  std::vector<HistogramHandle> region_place_latency_us_;
  std::vector<HistogramHandle> cell_place_latency_us_;
};

}  // namespace udc

#endif  // UDC_SRC_CORE_REGION_ROUTER_H_
