#include "src/core/region_router.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "src/common/logging.h"
#include "src/common/strings.h"

namespace udc {

namespace {

// Routing keys off cpu-blade headroom: every task DAG demands cpu, so the
// cpu partition tracks overall region and cell pressure. Specs dominated by
// another kind still land correctly — the home cell's rejection spills them
// through the candidate ladder.
constexpr DeviceKind kRoutingKind = DeviceKind::kCpuBlade;

}  // namespace

RegionRouter::RegionRouter(Simulation* sim, DisaggregatedDatacenter* datacenter,
                           Fabric* fabric, EnvManager* env_manager,
                           AttestationService* attestation,
                           const PriceList* prices, SchedulerConfig base)
    : sim_(sim), datacenter_(datacenter),
      engine_(sim, datacenter, env_manager, attestation),
      region_count_(datacenter->topology().region_count()),
      record_place_latency_(base.record_place_latency),
      cross_region_deploys_(
          sim->metrics().CounterSeries("sched.cross_region_deploys")),
      region_fallbacks_(
          sim->metrics().CounterSeries("sched.region_fallbacks")),
      cross_cell_deploys_(
          sim->metrics().CounterSeries("sched.cross_cell_deploys")),
      cell_fallbacks_(sim->metrics().CounterSeries("sched.cell_fallbacks")) {
  const Topology& topology = datacenter->topology();
  const int cells = topology.cell_count();
  assert(region_count_ > 0 && cells > 0 &&
         "RegionRouter needs at least one region and one cell");
  if (record_place_latency_) {
    // Sketch mode: SLOs window these series, and a bounded bucket array
    // keeps million-deploy runs at fixed memory.
    place_latency_us_ =
        sim->metrics().EnableSketchHistogram("sched.region_place_latency_us");
  }
  region_deploys_.reserve(static_cast<size_t>(region_count_));
  for (int r = 0; r < region_count_; ++r) {
    const MetricLabels labels = {{"region", StrFormat("%d", r)}};
    region_deploys_.push_back(
        sim->metrics().CounterSeries("sched.region_deploys", labels));
    if (record_place_latency_) {
      region_place_latency_us_.push_back(sim->metrics().EnableSketchHistogram(
          "sched.region_place_latency_us", labels));
    }
  }
  cells_.reserve(static_cast<size_t>(cells));
  cell_deploys_.reserve(static_cast<size_t>(cells));
  cell_span_sets_.reserve(static_cast<size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    cells_.push_back(
        std::make_unique<UdcScheduler>(sim, datacenter, fabric, prices, c, base));
    const MetricLabels labels = {{"cell", StrFormat("%d", c)}};
    cell_deploys_.push_back(
        sim->metrics().CounterSeries("sched.cell_deploys", labels));
    cell_span_sets_.push_back(sim->spans().InternLabelSet(
        {{"region", StrFormat("%d", topology.RegionOf(c))},
         {"cell", StrFormat("%d", c)}}));
    if (record_place_latency_) {
      cell_place_latency_us_.push_back(sim->metrics().EnableSketchHistogram(
          "sched.cell_place_latency_us", labels));
    }
  }
}

void RegionRouter::SetSequencer(SwitchSequencer* sequencer) {
  for (auto& cell : cells_) {
    cell->SetSequencer(sequencer);
  }
}

const std::vector<int64_t>& RegionRouter::RegionFreeSummary(
    DeviceKind kind) const {
  return datacenter_->pool(kind)
      .PlacementIndex(datacenter_->topology())
      .region_free();
}

const std::vector<int64_t>& RegionRouter::CellFreeSummary(
    DeviceKind kind) const {
  return datacenter_->pool(kind)
      .PlacementIndex(datacenter_->topology())
      .cell_free();
}

int64_t RegionRouter::RegionDeploys(int r) const {
  return sim_->metrics().value(region_deploys_[static_cast<size_t>(r)]);
}

int64_t RegionRouter::cross_region_deploys() const {
  return sim_->metrics().value(cross_region_deploys_);
}

int64_t RegionRouter::region_fallbacks() const {
  return sim_->metrics().value(region_fallbacks_);
}

int64_t RegionRouter::CellDeploys(int c) const {
  return sim_->metrics().value(cell_deploys_[static_cast<size_t>(c)]);
}

int64_t RegionRouter::cross_cell_deploys() const {
  return sim_->metrics().value(cross_cell_deploys_);
}

int64_t RegionRouter::cell_fallbacks() const {
  return sim_->metrics().value(cell_fallbacks_);
}

int RegionRouter::RouteRegion(const AppSpec& spec) const {
  // A declared affinity pins the home region (data sovereignty beats load
  // spreading); the first module with one wins, matching the per-module
  // candidate filter below.
  for (const auto& [module, aspects] : spec.aspects) {
    const int r = aspects.dist.region_affinity;
    if (r >= 0 && r < region_count_) {
      return r;
    }
  }
  const std::vector<int64_t>& free = RegionFreeSummary(kRoutingKind);
  int best = 0;
  for (size_t r = 1; r < free.size(); ++r) {
    if (free[r] > free[static_cast<size_t>(best)]) {
      best = static_cast<int>(r);
    }
  }
  return best;
}

int RegionRouter::RouteCellInRegion(int region) const {
  const Topology& topology = datacenter_->topology();
  const std::vector<int64_t>& free = CellFreeSummary(kRoutingKind);
  const int begin = topology.RegionCellBegin(region);
  const int end = topology.RegionCellEnd(region);
  int best = begin;
  for (int c = begin + 1; c < end; ++c) {
    if (static_cast<size_t>(c) < free.size() &&
        free[static_cast<size_t>(c)] > free[static_cast<size_t>(best)]) {
      best = c;
    }
  }
  return best;
}

std::vector<int> RegionRouter::CandidateCells(int home_region, int home_cell,
                                              int affinity,
                                              int anti_affinity) const {
  const Topology& topology = datacenter_->topology();
  const std::vector<int64_t>& cell_free = CellFreeSummary(kRoutingKind);
  const std::vector<int64_t>& region_free = RegionFreeSummary(kRoutingKind);

  const auto cell_order = [&](std::vector<int>& cells) {
    std::sort(cells.begin(), cells.end(), [&](int a, int b) {
      const int64_t fa = cell_free[static_cast<size_t>(a)];
      const int64_t fb = cell_free[static_cast<size_t>(b)];
      if (fa != fb) {
        return fa > fb;
      }
      return a < b;
    });
  };
  const auto admissible = [&](int region) {
    if (region == anti_affinity) {
      return false;
    }
    return affinity < 0 || region == affinity;
  };

  std::vector<int> out;
  out.reserve(static_cast<size_t>(topology.cell_count()));
  // Home region first: home cell, then its siblings by free capacity.
  if (admissible(home_region)) {
    if (affinity < 0 || affinity == home_region) {
      out.push_back(home_cell);
    }
    std::vector<int> siblings;
    for (int c = topology.RegionCellBegin(home_region);
         c < topology.RegionCellEnd(home_region); ++c) {
      if (c != home_cell) {
        siblings.push_back(c);
      }
    }
    cell_order(siblings);
    out.insert(out.end(), siblings.begin(), siblings.end());
  }
  // Remote regions by (free desc, region asc), each region's cells by
  // (free desc, cell asc).
  std::vector<int> regions;
  for (int r = 0; r < region_count_; ++r) {
    if (r != home_region && admissible(r)) {
      regions.push_back(r);
    }
  }
  std::sort(regions.begin(), regions.end(), [&](int a, int b) {
    const int64_t fa = region_free[static_cast<size_t>(a)];
    const int64_t fb = region_free[static_cast<size_t>(b)];
    if (fa != fb) {
      return fa > fb;
    }
    return a < b;
  });
  for (const int r : regions) {
    std::vector<int> cells;
    for (int c = topology.RegionCellBegin(r); c < topology.RegionCellEnd(r);
         ++c) {
      cells.push_back(c);
    }
    cell_order(cells);
    out.insert(out.end(), cells.begin(), cells.end());
  }
  return out;
}

Result<std::unique_ptr<Deployment>> RegionRouter::Deploy(TenantId tenant,
                                                         const AppSpec& spec) {
  return DeployOneRouted(tenant, std::make_shared<const AppSpec>(spec),
                         /*batch=*/nullptr);
}

Result<std::unique_ptr<Deployment>> RegionRouter::Deploy(
    TenantId tenant, std::shared_ptr<const AppSpec> spec) {
  return DeployOneRouted(tenant, std::move(spec), /*batch=*/nullptr);
}

std::vector<Result<std::unique_ptr<Deployment>>> RegionRouter::DeployAll(
    TenantId tenant, const std::vector<const AppSpec*>& specs) {
  ScopedSpan span = sim_->Scope(
      "sched", "sched.deploy_batch",
      {{"specs", StrFormat("%zu", specs.size())},
       {"tenant", StrFormat("%llu",
                            static_cast<unsigned long long>(tenant.value()))}});
  UdcScheduler::BatchContext batch;
  std::vector<Result<std::unique_ptr<Deployment>>> results;
  results.reserve(specs.size());
  for (const AppSpec* spec : specs) {
    results.push_back(
        DeployOneRouted(tenant, std::make_shared<const AppSpec>(*spec),
                        &batch));
  }
  return results;
}

Result<std::unique_ptr<Deployment>> RegionRouter::DeployOneRouted(
    TenantId tenant, std::shared_ptr<const AppSpec> shared_spec,
    UdcScheduler::BatchContext* batch) {
  const AppSpec& spec = *shared_spec;
  // Wall-clock routed-placement cost, observed once per deploy on every
  // exit path into the aggregate and the home region's and home cell's
  // sketches. Runs without record_place_latency never touch the host clock.
  struct LatencyScope {
    RegionRouter* router;
    int home_region = -1;
    int home_cell = -1;
    std::chrono::steady_clock::time_point start;
    explicit LatencyScope(RegionRouter* r) : router(r) {
      if (router->record_place_latency_) {
        start = std::chrono::steady_clock::now();
      }
    }
    ~LatencyScope() {
      if (!router->record_place_latency_) {
        return;
      }
      const auto elapsed = std::chrono::steady_clock::now() - start;
      const double us =
          std::chrono::duration<double, std::micro>(elapsed).count();
      MetricsRegistry& metrics = router->sim_->metrics();
      metrics.Observe(router->place_latency_us_, us);
      if (home_region >= 0) {
        metrics.Observe(
            router->region_place_latency_us_[static_cast<size_t>(home_region)],
            us);
        metrics.Observe(
            router->cell_place_latency_us_[static_cast<size_t>(home_cell)],
            us);
      }
    }
  } latency_scope(this);

  UDC_RETURN_IF_ERROR(spec.graph.Validate());
  for (const auto& [module, aspects] : spec.aspects) {
    UDC_RETURN_IF_ERROR(ValidateAspects(aspects));
  }

  const Topology& topology = datacenter_->topology();
  const int home_region = RouteRegion(spec);
  const int home_cell = RouteCellInRegion(home_region);
  latency_scope.home_region = home_region;
  latency_scope.home_cell = home_cell;

  // The per-deploy span (batched deploys ride the batch span) is pushed as
  // the current scope while modules are placed, so the txn and placement
  // spans parent under it. Interned labels and a reused scope stack: no
  // allocation per deploy.
  struct DeploySpan {
    SpanTracer& spans;
    uint64_t id = 0;
    ~DeploySpan() {
      if (id != 0) {
        spans.PopScope(id);
        spans.End(id);
      }
    }
  } deploy_span{sim_->spans()};
  if (batch == nullptr) {
    deploy_span.id = sim_->spans().BeginWithSet(
        "sched", "sched.deploy",
        cell_span_sets_[static_cast<size_t>(home_cell)]);
    sim_->spans().PushScope(deploy_span.id);
  }
  auto deployment = std::make_unique<Deployment>(
      tenant, std::move(shared_spec), datacenter_, sim_->now(),
      engine_.env_manager(), engine_.attestation());
  PlacementTxn txn = engine_.Begin("deploy");
  bool spanned_regions = false;
  bool spanned_cells = false;

  // On any failure: abort the transaction (undoing every staged
  // allocation, launch and provision across all modules and cells), then
  // abandon the partial deployment so its teardown does not double-release
  // what the abort already returned. A batch's cached rack capacities are
  // stale after an abort (the cached debits were undone), so drop them.
  const auto fail = [&](Status status) -> Status {
    txn.Abort();
    deployment->Abandon();
    if (batch != nullptr) {
      batch->free_by_rack_valid.fill(false);
    }
    return status;
  };

  // Places one module across the candidate cell ladder. Each cell attempt
  // stages into the shared root txn; a rejection unwinds exactly that
  // attempt's sub-plan (AbortTo) before the next cell — earlier modules'
  // staged sub-plans stay intact, so the deploy remains one transaction
  // even when its legs land in three regions.
  const auto place = [&](ModuleId module, bool is_data) -> Status {
    const AspectSet aspects = spec.AspectsFor(module);
    int affinity = aspects.dist.region_affinity;
    if (affinity >= region_count_) {
      affinity = -1;  // out-of-range affinity cannot be honored; any region
    }
    const std::vector<int> candidates = CandidateCells(
        home_region, home_cell, affinity, aspects.dist.region_anti_affinity);
    if (candidates.empty()) {
      return InvalidArgumentError(
          "region constraints leave no admissible region");
    }
    Status status = OkStatus();
    for (const int c : candidates) {
      const size_t mark = txn.staged_ops();
      status = cells_[static_cast<size_t>(c)]->PlaceModuleInTxn(
          tenant, spec, module, is_data, deployment.get(), txn, batch);
      if (status.ok()) {
        if (c != home_cell) {
          spanned_cells = true;
          sim_->metrics().Increment(cell_fallbacks_);
        }
        if (topology.RegionOf(c) != home_region) {
          spanned_regions = true;
          sim_->metrics().Increment(region_fallbacks_);
        }
        return status;
      }
      txn.AbortTo(mark);
      if (batch != nullptr) {
        // The failed attempt's cached rack debits were just undone.
        batch->free_by_rack_valid.fill(false);
      }
    }
    return status;  // the last candidate's rejection
  };

  // Data modules first (tasks want to land near their data), then tasks in
  // topological order so DAG-neighbour locality can chain.
  for (const ModuleId data : spec.graph.DataIds()) {
    Status status = place(data, /*is_data=*/true);
    if (!status.ok()) {
      return fail(std::move(status));
    }
  }
  const auto topo = spec.graph.TopoOrder();
  if (!topo.ok()) {
    return fail(topo.status());
  }
  for (const ModuleId task : *topo) {
    Status status = place(task, /*is_data=*/false);
    if (!status.ok()) {
      return fail(std::move(status));
    }
  }
  UDC_RETURN_IF_ERROR(txn.Commit());

  sim_->metrics().Increment(region_deploys_[static_cast<size_t>(home_region)]);
  sim_->metrics().Increment(cell_deploys_[static_cast<size_t>(home_cell)]);
  if (spanned_regions) {
    sim_->metrics().Increment(cross_region_deploys_);
  }
  if (spanned_cells) {
    sim_->metrics().Increment(cross_cell_deploys_);
  }
  UDC_LOG(Info) << "deployed " << spec.graph.app_name() << " for tenant "
                << tenant.value() << " in region " << home_region << " cell "
                << home_cell << (spanned_regions ? " (+remote leg)" : "")
                << (spanned_cells ? " (+spill)" : "");
  return deployment;
}

}  // namespace udc
