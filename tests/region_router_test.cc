// Placement-hierarchy tests: cell and region partitioning (topology
// mapping, per-cell and per-region free summaries), the router's balanced
// home-cell and home-region choice, the region-affinity aspect, deploys
// that span cells or regions inside one transaction, multi-cell and
// multi-region abort atomicity (snapshot pools/envs/attestation before and
// after, as in placement_txn_test), PlacementTxn::AbortTo partial rollback,
// span parenting under the routed deploy span, the env store's remote
// (cross-region) tier with exact CancelLaunch refunds, and a golden test
// that pins every cells x regions geometry to the decisions of the single
// whole-datacenter scheduler the router replaced.
//
// The specs have uniform explicit demands (every task is exactly a quarter
// of a cpu blade), so admission is count-based: whether a deploy fits
// cannot depend on WHERE previous modules landed, only on how many are
// live — which is what lets one set of golden hashes hold for every
// placement geometry.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/placement_engine.h"
#include "src/core/placement_txn.h"
#include "src/core/udc_cloud.h"
#include "src/crypto/hmac.h"
#include "src/exec/env_manager.h"
#include "src/exec/env_store.h"
#include "src/hw/topology.h"
#include "src/sim/simulation.h"
#include "src/workload/medical.h"

namespace udc {
namespace {

// One task = 8000 millicores = a quarter of a 32-core cpu blade.
AppSpec MakeUniformSpec(const std::string& name, int tasks) {
  AppSpec spec;
  spec.graph.set_app_name(name);
  for (int i = 0; i < tasks; ++i) {
    auto id = spec.graph.AddTask(name + "-t" + std::to_string(i),
                                 /*work_units=*/1.0);
    AspectSet aspects = ProviderDefaults();
    aspects.resource.defined = true;
    aspects.resource.objective = ResourceObjective::kExplicit;
    aspects.resource.demand.Set(ResourceKind::kCpu, 8000);
    aspects.resource.demand.Set(ResourceKind::kDram, Bytes::MiB(64).bytes());
    spec.aspects[*id] = aspects;
  }
  return spec;
}

AppSpec PinnedSpec(const std::string& name, int tasks, int region) {
  AppSpec spec = MakeUniformSpec(name, tasks);
  for (auto& [id, aspects] : spec.aspects) {
    aspects.dist.region_affinity = region;
  }
  return spec;
}

UdcCloudConfig RegionConfig(int racks, int cells, int regions) {
  UdcCloudConfig config;
  config.datacenter.racks = racks;
  config.datacenter.cells = cells;
  config.datacenter.regions = regions;
  config.scheduler.use_placement_index = true;
  return config;
}

using PoolOccupancy = std::array<int64_t, kNumDeviceKinds>;

PoolOccupancy OccupancyOf(UdcCloud& cloud) {
  PoolOccupancy occupancy{};
  for (int k = 0; k < kNumDeviceKinds; ++k) {
    occupancy[static_cast<size_t>(k)] =
        cloud.datacenter().pool(static_cast<DeviceKind>(k)).TotalAllocated();
  }
  return occupancy;
}

TEST(TopologyCellsTest, SetCellCountPartitionsRacksContiguously) {
  DisaggregatedDatacenter dc(DatacenterConfig{.racks = 7});
  Topology& topo = dc.topology();
  topo.SetCellCount(3);
  ASSERT_EQ(topo.cell_count(), 3);
  // Every rack maps to exactly one cell, cells are contiguous and
  // non-decreasing, and no cell is empty.
  std::vector<int> racks_per_cell(3, 0);
  int prev = 0;
  for (int rack = 0; rack < topo.rack_count(); ++rack) {
    const int cell = topo.CellOf(rack);
    ASSERT_GE(cell, 0);
    ASSERT_LT(cell, 3);
    ASSERT_GE(cell, prev);
    ASSERT_LE(cell - prev, 1);
    prev = cell;
    ++racks_per_cell[static_cast<size_t>(cell)];
    EXPECT_GE(rack, topo.CellRackBegin(cell));
    EXPECT_LT(rack, topo.CellRackEnd(cell));
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_GT(racks_per_cell[static_cast<size_t>(c)], 0);
  }
  // Out of range / unpartitioned.
  EXPECT_EQ(topo.CellOf(-1), -1);
  EXPECT_EQ(topo.CellOf(7), -1);
}

TEST(TopologyRegionsTest, SetRegionCountPartitionsCellsContiguously) {
  DisaggregatedDatacenter dc(DatacenterConfig{.racks = 10});
  Topology& topo = dc.topology();
  topo.SetCellCount(5);
  topo.SetRegionCount(3);
  ASSERT_EQ(topo.region_count(), 3);
  // Every cell maps to exactly one region, regions are contiguous and
  // non-decreasing, and no region is empty — the cell-partitioning
  // contract mirrored one level up.
  std::vector<int> cells_per_region(3, 0);
  int prev = 0;
  for (int cell = 0; cell < topo.cell_count(); ++cell) {
    const int region = topo.RegionOf(cell);
    ASSERT_GE(region, 0);
    ASSERT_LT(region, 3);
    ASSERT_GE(region, prev);
    ASSERT_LE(region - prev, 1);
    prev = region;
    ++cells_per_region[static_cast<size_t>(region)];
    EXPECT_GE(cell, topo.RegionCellBegin(region));
    EXPECT_LT(cell, topo.RegionCellEnd(region));
  }
  for (int r = 0; r < 3; ++r) {
    EXPECT_GT(cells_per_region[static_cast<size_t>(r)], 0);
  }
  // RegionOfRack composes the two partitions: each rack's region is its
  // cell's region.
  for (int rack = 0; rack < topo.rack_count(); ++rack) {
    EXPECT_EQ(topo.RegionOfRack(rack), topo.RegionOf(topo.CellOf(rack)));
  }
  // Out of range / unpartitioned.
  EXPECT_EQ(topo.RegionOf(-1), -1);
  EXPECT_EQ(topo.RegionOf(topo.cell_count()), -1);
}

TEST(CapacityIndexCellsTest, CellFreeSummaryTracksCommitDeltas) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/2, /*regions=*/0));
  const auto& cell_free =
      cloud.datacenter()
          .pool(DeviceKind::kCpuBlade)
          .PlacementIndex(cloud.datacenter().topology())
          .cell_free();
  ASSERT_EQ(cell_free.size(), 2u);
  // 2 racks x 4 blades x 32000 millicores per cell, all free and healthy.
  EXPECT_EQ(cell_free[0], 2 * 4 * 32000);
  EXPECT_EQ(cell_free[0], cell_free[1]);

  const int64_t before_0 = cell_free[0];
  const int64_t before_1 = cell_free[1];
  const AppSpec spec = MakeUniformSpec("one", 1);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), spec);
  ASSERT_TRUE(deployment.ok());
  cloud.sim()->RunToCompletion();
  // Exactly one cell's summary moved, by exactly the task's demand.
  EXPECT_EQ(before_0 + before_1 - cell_free[0] - cell_free[1], 8000);
  deployment->reset();  // teardown releases the slice
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cell_free[0], before_0);
  EXPECT_EQ(cell_free[1], before_1);
}

TEST(RegionRouterTest, RegionFreeSummaryTracksCommitDeltas) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/4, /*regions=*/2));
  const std::vector<int64_t>& free =
      cloud.region_router().RegionFreeSummary(DeviceKind::kCpuBlade);
  ASSERT_EQ(free.size(), 2u);
  // 2 racks x 4 blades x 32000 millicores per region, all free.
  EXPECT_EQ(free[0], 2 * 4 * 32000);
  EXPECT_EQ(free[0], free[1]);

  const int64_t before_0 = free[0];
  const int64_t before_1 = free[1];
  const AppSpec spec = MakeUniformSpec("one", 1);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("t"), spec);
  ASSERT_TRUE(deployment.ok());
  cloud.sim()->RunToCompletion();
  // Exactly one region's summary moved, by exactly the task's demand.
  EXPECT_EQ(before_0 + before_1 - free[0] - free[1], 8000);
  EXPECT_TRUE(free[0] == before_0 || free[1] == before_1);
  deployment->reset();  // teardown releases the slice
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(free[0], before_0);
  EXPECT_EQ(free[1], before_1);
}

TEST(RegionRouterTest, BalancesHomeRegionsByFreeCapacity) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/4, /*regions=*/2));
  const AppSpec spec = MakeUniformSpec("one", 1);
  std::vector<std::unique_ptr<Deployment>> live;
  for (int i = 0; i < 4; ++i) {
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("t" + std::to_string(i)), spec);
    ASSERT_TRUE(deployment.ok());
    live.push_back(std::move(*deployment));
    cloud.sim()->RunToCompletion();
  }
  // Equal capacity, equal demands: the router alternates home regions.
  EXPECT_EQ(cloud.region_router().RegionDeploys(0), 2);
  EXPECT_EQ(cloud.region_router().RegionDeploys(1), 2);
  EXPECT_EQ(cloud.region_router().cross_region_deploys(), 0);
}

TEST(RegionRouterTest, BalancesHomeCellsByFreeCapacity) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/2, /*regions=*/0));
  const AppSpec spec = MakeUniformSpec("one", 1);
  std::vector<std::unique_ptr<Deployment>> live;
  for (int i = 0; i < 4; ++i) {
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("t" + std::to_string(i)), spec);
    ASSERT_TRUE(deployment.ok());
    live.push_back(std::move(*deployment));
    cloud.sim()->RunToCompletion();
  }
  // Equal capacity, equal demands: the router alternates home cells.
  EXPECT_EQ(cloud.region_router().CellDeploys(0), 2);
  EXPECT_EQ(cloud.region_router().CellDeploys(1), 2);
  EXPECT_EQ(cloud.region_router().cross_cell_deploys(), 0);
}

TEST(RegionRouterTest, HonorsRegionAffinityAspect) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/4, /*regions=*/2));
  // Pinned to region 1: every deploy must land there even though region 0
  // is equally free (and would win ties for unpinned specs).
  const AppSpec spec = PinnedSpec("pin", 1, /*region=*/1);
  std::vector<std::unique_ptr<Deployment>> live;
  for (int i = 0; i < 3; ++i) {
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("p" + std::to_string(i)), spec);
    ASSERT_TRUE(deployment.ok());
    live.push_back(std::move(*deployment));
    cloud.sim()->RunToCompletion();
  }
  EXPECT_EQ(cloud.region_router().RegionDeploys(0), 0);
  EXPECT_EQ(cloud.region_router().RegionDeploys(1), 3);
}

// Fills a racks=2, cells=2 cloud until each cell (one rack, and one region
// when regions=2) has exactly `free_slots_per_cell` quarter-blade slots
// left.
std::vector<std::unique_ptr<Deployment>> FillAllBut(
    UdcCloud& cloud, int free_slots_per_cell) {
  // 4 blades x 4 slots = 16 slots per cell.
  const int fillers = 2 * (16 - free_slots_per_cell);
  const AppSpec spec = MakeUniformSpec("filler", 1);
  std::vector<std::unique_ptr<Deployment>> live;
  for (int i = 0; i < fillers; ++i) {
    auto deployment =
        cloud.Deploy(cloud.RegisterTenant("f" + std::to_string(i)), spec);
    EXPECT_TRUE(deployment.ok());
    if (deployment.ok()) {
      live.push_back(std::move(*deployment));
    }
    cloud.sim()->RunToCompletion();
  }
  return live;
}

TEST(RegionRouterTest, CrossRegionDeploySpansRegionsInOneTransaction) {
  UdcCloud cloud(RegionConfig(/*racks=*/2, /*cells=*/2, /*regions=*/2));
  auto fillers = FillAllBut(cloud, /*free_slots_per_cell=*/2);
  // 3 tasks against 2 free slots per region: no single region fits the
  // DAG, so the deploy must span — and still commit atomically.
  const AppSpec spec = MakeUniformSpec("span", 3);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("span"), spec);
  ASSERT_TRUE(deployment.ok());
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cloud.region_router().cross_region_deploys(), 1);
  EXPECT_GE(cloud.region_router().region_fallbacks(), 1);
  EXPECT_EQ(cloud.sim()->metrics().counter("core.txn_aborted"), 0);

  deployment->reset();
  fillers.clear();
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cloud.datacenter().TotalAllocated(), ResourceVector());
  EXPECT_EQ(cloud.envs().live_count(), 0u);
}

TEST(RegionRouterTest, MultiRegionAbortRestoresSnapshotState) {
  UdcCloud cloud(RegionConfig(/*racks=*/2, /*cells=*/2, /*regions=*/2));
  auto fillers = FillAllBut(cloud, /*free_slots_per_cell=*/2);

  const PoolOccupancy occupancy_before = OccupancyOf(cloud);
  const size_t envs_before = cloud.envs().live_count();
  const size_t attested_before = cloud.attestation().provisioned_count();
  const int64_t committed_before =
      cloud.sim()->metrics().counter("core.txn_committed");

  // 5 tasks against 4 free slots datacenter-wide: the home region admits
  // 2, 2 spill to the other region, the 5th fits nowhere — every staged
  // sub-plan (both regions') must unwind.
  const AppSpec spec = MakeUniformSpec("toobig", 5);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("toobig"), spec);
  EXPECT_FALSE(deployment.ok());
  cloud.sim()->RunToCompletion();

  EXPECT_EQ(OccupancyOf(cloud), occupancy_before);
  EXPECT_EQ(cloud.envs().live_count(), envs_before);
  EXPECT_EQ(cloud.attestation().provisioned_count(), attested_before);
  // The abort really staged work across regions before unwinding.
  EXPECT_GE(cloud.region_router().region_fallbacks(), 1);
  EXPECT_GE(cloud.sim()->metrics().counter("core.txn_aborted"), 1);
  EXPECT_EQ(cloud.sim()->metrics().counter("core.txn_committed"),
            committed_before);
}

TEST(RegionRouterTest, CrossCellDeploySpansCellsInOneTransaction) {
  UdcCloud cloud(RegionConfig(/*racks=*/2, /*cells=*/2, /*regions=*/0));
  auto fillers = FillAllBut(cloud, /*free_slots_per_cell=*/2);
  // 3 tasks against 2 free slots per cell: no single cell fits the DAG, so
  // the deploy must span — and still commit atomically.
  const AppSpec spec = MakeUniformSpec("span", 3);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("span"), spec);
  ASSERT_TRUE(deployment.ok());
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cloud.region_router().cross_cell_deploys(), 1);
  EXPECT_GE(cloud.region_router().cell_fallbacks(), 1);
  // Both cells are in the one region: nothing left the home region.
  EXPECT_EQ(cloud.region_router().cross_region_deploys(), 0);
  EXPECT_EQ(cloud.sim()->metrics().counter("core.txn_aborted"), 0);

  deployment->reset();
  fillers.clear();
  cloud.sim()->RunToCompletion();
  EXPECT_EQ(cloud.datacenter().TotalAllocated(), ResourceVector());
  EXPECT_EQ(cloud.envs().live_count(), 0u);
}

TEST(RegionRouterTest, MultiCellAbortRestoresSnapshotState) {
  UdcCloud cloud(RegionConfig(/*racks=*/2, /*cells=*/2, /*regions=*/0));
  auto fillers = FillAllBut(cloud, /*free_slots_per_cell=*/2);

  const PoolOccupancy occupancy_before = OccupancyOf(cloud);
  const size_t envs_before = cloud.envs().live_count();
  const size_t attested_before = cloud.attestation().provisioned_count();
  const int64_t committed_before =
      cloud.sim()->metrics().counter("core.txn_committed");

  // 5 tasks against 4 free slots datacenter-wide: the home cell admits 2,
  // 2 spill to the other cell, the 5th fits nowhere — every staged sub-plan
  // (both cells') must unwind.
  const AppSpec spec = MakeUniformSpec("toobig", 5);
  auto deployment = cloud.Deploy(cloud.RegisterTenant("toobig"), spec);
  EXPECT_FALSE(deployment.ok());
  cloud.sim()->RunToCompletion();

  EXPECT_EQ(OccupancyOf(cloud), occupancy_before);
  EXPECT_EQ(cloud.envs().live_count(), envs_before);
  EXPECT_EQ(cloud.attestation().provisioned_count(), attested_before);
  // The abort really staged work across cells before unwinding.
  EXPECT_GE(cloud.region_router().cell_fallbacks(), 1);
  EXPECT_GE(cloud.sim()->metrics().counter("core.txn_aborted"), 1);
  EXPECT_EQ(cloud.sim()->metrics().counter("core.txn_committed"),
            committed_before);
}

TEST(PlacementTxnAbortToTest, UnwindsOnlyTheSuffixAfterTheMark) {
  Simulation sim;
  DisaggregatedDatacenter dc(DatacenterConfig{.racks = 2});
  EnvManager envs(&sim);
  AttestationService attest(&sim, KeyFromString("cell-test-vendor"));
  PlacementEngine engine(&sim, &dc, &envs, &attest);

  PlacementTxn txn = engine.Begin("abort_to");
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 1000,
                           AllocationConstraints{})
                  .ok());
  const size_t mark = txn.staged_ops();
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 2000,
                           AllocationConstraints{})
                  .ok());
  ASSERT_TRUE(txn.Allocate(DeviceKind::kCpuBlade, TenantId(1), 4000,
                           AllocationConstraints{})
                  .ok());
  EXPECT_EQ(dc.pool(DeviceKind::kCpuBlade).TotalAllocated(), 7000);

  txn.AbortTo(mark);
  // The suffix is gone, the prefix is still staged and the txn still open.
  EXPECT_EQ(dc.pool(DeviceKind::kCpuBlade).TotalAllocated(), 1000);
  EXPECT_EQ(txn.staged_ops(), mark);
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_EQ(dc.pool(DeviceKind::kCpuBlade).TotalAllocated(), 1000);
}

TEST(RegionRouterTest, PlacementSpansParentUnderDeploySpan) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, /*cells=*/2, /*regions=*/2));
  auto spec = MedicalAppSpec();
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  auto deployment = cloud.Deploy(cloud.RegisterTenant("hospital"), *spec);
  ASSERT_TRUE(deployment.ok()) << deployment.status().ToString();

  const SpanTracer& spans = cloud.sim()->spans();
  int placements = 0;
  for (const Span& span : spans.spans()) {
    if (span.name != "sched.place_task" && span.name != "sched.place_data") {
      continue;
    }
    ++placements;
    const Span* parent = spans.SpanById(span.parent_span_id);
    ASSERT_NE(parent, nullptr) << span.Detail() << " is a root span";
    EXPECT_EQ(parent->name, "sched.deploy") << span.Detail();
    EXPECT_EQ(parent->trace_id, span.trace_id) << span.Detail();
  }
  EXPECT_EQ(placements, static_cast<int>(spec->graph.ModuleIds().size()));
  // The deploy span closed and left no scope behind.
  const Span* deploy = spans.Find("sched.deploy");
  ASSERT_NE(deploy, nullptr);
  EXPECT_FALSE(deploy->open);
  EXPECT_EQ(spans.CurrentScope(), 0u);
}

// --- The env store's remote (cross-region) tier, tested at unit level:
// a topology with one rack per region, a slot banked in region 0, and a
// launch in region 1 that must pay the WAN price, replicate the image,
// and refund exactly when cancelled.

TEST(EnvStoreRegionsTest, RemoteFetchAndRefundAreExact) {
  Simulation sim;
  Topology topology;
  const int rack0 = topology.AddRack();
  const int rack1 = topology.AddRack();
  const NodeId node0 = topology.AddNode(rack0, NodeRole::kDevice);
  const NodeId node1 = topology.AddNode(rack1, NodeRole::kDevice);
  topology.SetCellCount(2);
  topology.SetRegionCount(2);

  EnvStoreConfig store_config;
  store_config.enabled = true;
  store_config.share_across_tenants = true;
  EnvManager manager(&sim, store_config);
  manager.set_topology(&topology);  // builds the rack -> region map
  LaunchOptions options;
  options.kind = EnvKind::kTeeEnclave;
  options.image = "federated-model";
  EnvStore* store = manager.store();
  const Sha256Digest digest = store->KeyDigest(
      EnvKind::kTeeEnclave, TenancyMode::kShared, TenantId(1),
      "federated-model");

  // Bank a warm slot on rack 0 (region 0).
  ExecEnvironment* env = manager.Launch(TenantId(1), node0, options, nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());
  const int64_t slots_before = store->SlotsOnRack(digest, 0);
  ASSERT_GE(slots_before, 1);

  // Launch in region 1: the only slot is cross-region, so the start is
  // remote — strictly slower than a tepid fetch (it adds the WAN leg) but
  // still far below a cold build, and NextStartLatency predicts the tier.
  const SimTime predicted = manager.NextStartLatency(
      EnvKind::kTeeEnclave, TenantId(2), options, node1);
  const SimTime before = sim.now();
  env = manager.Launch(TenantId(2), node1, options, nullptr);
  sim.RunToCompletion();
  EXPECT_EQ(env->start_mode(), EnvStartMode::kRemote);
  EXPECT_EQ(env->ready_at() - before, predicted);
  const EnvProfile profile = EnvProfile::DefaultFor(EnvKind::kTeeEnclave);
  EXPECT_GT(predicted, profile.warm_start);
  EXPECT_LT(predicted, profile.cold_start);
  EXPECT_EQ(sim.metrics().counter("exec.remote_starts"), 1);
  EXPECT_EQ(store->remote_hits(), 1);
  // The slot was consumed at the source and the image pull-through
  // replicated into rack 1's cache.
  EXPECT_EQ(store->SlotsOnRack(digest, 0), slots_before - 1);
  const auto racks = store->PerRackStats();
  ASSERT_EQ(racks.size(), 2u);
  EXPECT_EQ(racks[1].entries, 1u);
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/false).ok());

  // Bank a fresh slot on rack 0 (the remote start above consumed the
  // first one), then remote launch + cancel: the slot returns to rack 0
  // (the source, in the other region) with its original provenance, refs
  // come back exactly.
  env = manager.Launch(TenantId(1), node0, options, nullptr);
  sim.RunToCompletion();
  ASSERT_TRUE(manager.Stop(env, /*keep_warm=*/true).ok());
  const int64_t rebanked = store->SlotsOnRack(digest, 0);
  const int64_t refs_rebanked = store->ContentRefs(digest);
  ASSERT_GE(rebanked, 1);
  env = manager.Launch(TenantId(2), node1, options, nullptr);
  EXPECT_EQ(env->start_mode(), EnvStartMode::kRemote);
  EXPECT_EQ(store->SlotsOnRack(digest, 0), rebanked - 1);
  ASSERT_TRUE(manager.CancelLaunch(env).ok());
  EXPECT_EQ(store->SlotsOnRack(digest, 0), rebanked);
  EXPECT_EQ(store->SlotsOnRack(digest, 1), 0);
  EXPECT_EQ(store->ContentRefs(digest), refs_rebanked);
  EXPECT_EQ(store->live_env_refs(), 0);
  sim.RunToCompletion();
}

// --- Randomized differentials against the single scheduler.
//
// One randomized deploy/teardown script per seed, run against every
// cells x regions geometry. The expected values are FNV-1a hashes of the
// admit/reject stream and of the final per-kind pool occupancy, plus the
// live environment count, recorded from the single whole-datacenter
// scheduler that preceded the region router (cells = regions = 0 on that
// code). A geometry that admits or rejects differently, or ends holding a
// different working set, changes a hash.

struct Action {
  bool deploy = false;
  uint64_t value = 0;  // teardown slot selector
};

struct LegOutcome {
  std::vector<bool> decisions;
  PoolOccupancy occupancy{};
  size_t live_envs = 0;
};

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t DecisionHash(const std::vector<bool>& decisions) {
  uint64_t hash = kFnvBasis;
  for (const bool decision : decisions) {
    hash ^= decision ? 1u : 0u;
    hash *= kFnvPrime;
  }
  return hash;
}

// FNV-1a over each kind's allocated total, little-endian bytes.
uint64_t OccupancyHash(const PoolOccupancy& occupancy) {
  uint64_t hash = kFnvBasis;
  for (const int64_t allocated : occupancy) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (static_cast<uint64_t>(allocated) >> (8 * byte)) & 0xffu;
      hash *= kFnvPrime;
    }
  }
  return hash;
}

LegOutcome RunLeg(int cells, int regions, const std::vector<Action>& script,
                  const std::shared_ptr<const AppSpec>& spec) {
  UdcCloud cloud(RegionConfig(/*racks=*/4, cells, regions));
  LegOutcome outcome;
  std::vector<std::unique_ptr<Deployment>> live;
  int tenant = 0;
  for (const Action& action : script) {
    if (action.deploy || live.empty()) {
      auto deployment = cloud.Deploy(
          cloud.RegisterTenant("d" + std::to_string(tenant++)), spec);
      outcome.decisions.push_back(deployment.ok());
      if (deployment.ok()) {
        live.push_back(std::move(*deployment));
      }
    } else {
      const size_t idx = action.value % live.size();
      live.erase(live.begin() + static_cast<long>(idx));
    }
    cloud.sim()->RunToCompletion();
  }
  outcome.occupancy = OccupancyOf(cloud);
  outcome.live_envs = cloud.envs().live_count();
  return outcome;
}

struct Golden {
  uint64_t seed;
  size_t decisions;
  uint64_t decision_hash;
  uint64_t occupancy_hash;
  size_t live_envs;
};

// Indexed [cells][regions], each in {0, 1, 2}.
using GeometryLegs = std::array<std::array<LegOutcome, 3>, 3>;

// Runs the golden's seeded script on every geometry and checks each leg
// against the single scheduler's hashes. 4 racks = 64 quarter-blade slots;
// 2-task deploys saturate at 32 live, and the 70/30 deploy/teardown mix
// keeps the run bouncing off the capacity ceiling, so both admits and
// rejects are exercised heavily.
void RunEveryGeometry(const Golden& golden, GeometryLegs* legs) {
  const auto spec =
      std::make_shared<const AppSpec>(MakeUniformSpec("diff", 2));
  Rng rng(golden.seed);
  std::vector<Action> script;
  for (int i = 0; i < 400; ++i) {
    script.push_back(Action{rng.NextUint64(100) < 70,
                            rng.NextUint64(1u << 30)});
  }
  for (const int cells : {0, 1, 2}) {
    for (const int regions : {0, 1, 2}) {
      LegOutcome& leg = (*legs)[cells][regions];
      leg = RunLeg(cells, regions, script, spec);
      const std::string where = "seed " + std::to_string(golden.seed) +
                                " cells " + std::to_string(cells) +
                                " regions " + std::to_string(regions);
      ASSERT_EQ(leg.decisions.size(), golden.decisions) << where;
      EXPECT_EQ(DecisionHash(leg.decisions), golden.decision_hash) << where;
      EXPECT_EQ(OccupancyHash(leg.occupancy), golden.occupancy_hash) << where;
      EXPECT_EQ(leg.live_envs, golden.live_envs) << where;
      // The scripts are tuned to hit exhaustion: a run with no rejects
      // would be vacuous.
      EXPECT_NE(std::find(leg.decisions.begin(), leg.decisions.end(), false),
                leg.decisions.end())
          << where << " never hit capacity";
    }
  }
}

TEST(CellRouterDifferentialTest, MatchesLegacySchedulerDecisionForDecision) {
  constexpr Golden kGoldens[] = {
      {0xCE11ull, 273, 0x9ae6b02106c35786ull, 0x1892d8a8c2ed22fbull, 64},
      {0xD1FFull, 292, 0xffb81411d843df4cull, 0xc8d28a280529ddbeull, 58},
      {0xF00Dull, 297, 0xad80ad31bb176264ull, 0x1892d8a8c2ed22fbull, 64},
  };
  for (const Golden& golden : kGoldens) {
    GeometryLegs legs;
    ASSERT_NO_FATAL_FAILURE(RunEveryGeometry(golden, &legs));
    // Two cells against one, decision for decision.
    const LegOutcome& one_cell = legs[0][0];
    const LegOutcome& two_cells = legs[2][0];
    EXPECT_EQ(one_cell.decisions, two_cells.decisions)
        << "seed " << golden.seed;
    EXPECT_EQ(one_cell.occupancy, two_cells.occupancy)
        << "seed " << golden.seed;
    EXPECT_EQ(one_cell.live_envs, two_cells.live_envs)
        << "seed " << golden.seed;
  }
}

TEST(RegionRouterDifferentialTest, OneRegionMatchesCellsOnlyRouter) {
  constexpr Golden kGoldens[] = {
      {0x12E610ull, 268, 0x98ba7f2b90ae8bccull, 0x1d881c8830d3e00dull, 62},
      {0xFEDE8ull, 271, 0xd682ac5511bd30dbull, 0x1d881c8830d3e00dull, 62},
      {0x0AB5ull, 294, 0x0aacc0c06314c87full, 0x6c5323168e05569bull, 60},
  };
  for (const Golden& golden : kGoldens) {
    GeometryLegs legs;
    ASSERT_NO_FATAL_FAILURE(RunEveryGeometry(golden, &legs));
    // Two cells with regions unset against the same cells in one region,
    // decision for decision.
    const LegOutcome& cells_only = legs[2][0];
    const LegOutcome& one_region = legs[2][1];
    EXPECT_EQ(cells_only.decisions, one_region.decisions)
        << "seed " << golden.seed;
    EXPECT_EQ(cells_only.occupancy, one_region.occupancy)
        << "seed " << golden.seed;
    EXPECT_EQ(cells_only.live_envs, one_region.live_envs)
        << "seed " << golden.seed;
  }
}

}  // namespace
}  // namespace udc
