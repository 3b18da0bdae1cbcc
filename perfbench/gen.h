// Seeded udcl generator for the repo benchmark.
//
// Produces a bounded catalog of application texts plus, for every module,
// the record of what the generator wrote: its resource demand, replication,
// tenancy and region steering. The output checker (check.h) compares the
// program's placements against this record, never against the parsed spec,
// so a parser or planner that drops a demand is caught.
//
// Module names come from small fixed vocabularies ("svc0".."svc15",
// "db0".."db7"), so identical images recur across apps and tenants and the
// content-addressed env store has something to share.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// splitmix64: the benchmark's own generator, independent of the program's.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

struct ModuleRecord {
  std::string name;
  bool is_data = false;
  // Demand as written: milli-cores / milli-GPUs, bytes. For data modules
  // `ssd_bytes` is one replica's size.
  int64_t cpu_milli = 0;
  int64_t gpu_milli = 0;
  int64_t dram_bytes = 0;
  int64_t ssd_bytes = 0;
  int replicas = 1;
  bool single_tenant = false;  // tenancy=single
  bool tee = false;            // tee_if_cpu on a CPU task
  int region = -1;             // dist region=N
  int avoid_region = -1;       // dist avoid_region=N
  // Indices (into GeneratedApp::modules) of this module's DAG predecessors.
  std::vector<int> preds;
};

struct GeneratedApp {
  std::string text;
  std::vector<ModuleRecord> modules;
};

// Apps in every catalog. Sessions cycle through the catalog, so block
// sizes (one pass over the catalog) and probe periods derive from it.
constexpr int kApps = 64;

struct GenOptions {
  // Region steering (0 regions = none): `pin_percent` of apps get every
  // module steered with region=/avoid_region=; a third of those pin region
  // 0, so demand is skewed toward it.
  int regions = 0;
  int pin_percent = 0;
};

std::vector<GeneratedApp> MakeCatalog(uint64_t seed, const GenOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
