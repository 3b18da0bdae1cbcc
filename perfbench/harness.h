// The benchmark's closed-loop client and the layer-by-layer traced client.
//
// A Lane is one cloud plus its front door (CloudFrontend) and one
// TenantClient per tenant. A single thread drives it: every operation
// waits for its reply before the next is issued. Session i deploys app
// order(i % apps) for tenant i % tenants; every `read_every`-th deployment
// (read_every coprime with apps, so the probe cycles the catalog) is then
// verified, run `runs_per_read` times and billed; the deployment joins a
// live window and the oldest one beyond `window` is torn down.
//
// Operations go down one of two paths:
//   - front door: udcl text over the fabric to CloudFrontend (deploy,
//     verify, bill, teardown RPCs), the path a tenant sees;
//   - direct: the layers' public functions, called in the order the front
//     door calls them (ParseAppSpec, UdcCloud::Deploy, RunToCompletion;
//     EnvManager::Stop + ~Deployment; UdcCloud::Verify; BillToNow). With a
//     SpanLog attached, each call is wrapped in a span.
// DagRuntime::RunOnce has no RPC and is always called directly.
//
// The benchmark times calls into the program and nothing else; the
// program is not modified.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/check.h"
#include "perfbench/gen.h"
#include "perfbench/stats.h"
#include "src/core/frontend.h"
#include "src/core/udc_cloud.h"

namespace perfbench {

struct WorkloadConfig {
  const char* name = "";
  int racks = 0;
  int cells = 0;
  int regions = 0;
  // Untraced path: the front door (true) or direct deploys of shared,
  // pre-parsed specs (false: the operator's bulk path).
  bool front_door = true;
  int tenants = 32;
  int window = 64;
  // Read probe: every `read_every`-th deployment is run `runs_per_read`
  // times and billed, and verified first when `verify` is set.
  int read_every = 0;
  int runs_per_read = 0;
  bool verify = true;
  // Traced runs only: live deployments verified after the measured loop
  // (for a workload whose loop does not verify).
  int final_verifies = 0;
  int pin_percent = 0;
  // Sessions run in setup, untimed, before measuring (fragmentation, warm
  // env store, retained spans).
  int age_sessions = 0;
  // When set, every `reage_every` measured sessions the program's span
  // buffer is cleared and the cloud aged again, untimed, so the retained
  // spans stay in a band just above the aged level.
  int reage_every = 0;
  // Drain the program's span buffer before each probed session, as a trace
  // exporter would; off, every span is kept and the buffer ages with the
  // cloud.
  bool export_spans = false;
  // Sessions per round: the run always stops on a round boundary, and one
  // round is one throughput block.
  int round = 64;
};

// Looks up a workload by name; `smoke` shrinks it to run in seconds.
bool FindWorkload(const std::string& name, bool smoke, WorkloadConfig* out);

enum Layer : uint8_t {
  kOpDeploy,
  kOpTeardown,
  kOpVerify,
  kOpRun,
  kOpBill,
  kParse,
  kCoreDeploy,
  kDrain,
  kCoreTeardown,
  kTeardownDrain,
  kVerify,
  kRun,
  kBill,
  kNumLayers,
};

const char* LayerName(Layer layer);

// The benchmark's own spans, kept in memory and written out at the end.
struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t op = 0;        // operation id: shared by an op and its children
  uint32_t parent = 0;    // index + 1 of the parent span; 0 = root
  uint32_t allocs = 0;    // heap allocations inside the span
  Layer layer = kOpDeploy;
};

class SpanLog {
 public:
  // Opens a span and returns its index + 1.
  uint32_t Open(Layer layer, uint64_t op, uint32_t parent);
  void Close(uint32_t id);
  const std::vector<SpanRecord>& spans() const { return spans_; }
  // Durations (us) of `layer`'s spans, in order.
  std::vector<double> Durations(Layer layer) const;
  double MeanAllocs(Layer layer) const;
  bool Write(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<uint64_t> open_allocs_;
};

// Per-operation samples of one lane and path, reduced block by block
// (stats.h).
struct OpSamples {
  Series deploy, teardown, verify, run, bill;
  RateSeries rate;
  // Traced runs: each front-door deploy's session and time, paired with
  // the direct lane's spans of the same session.
  bool keep_by_session = false;
  std::vector<std::pair<int64_t, double>> deploy_by_session;
  uint64_t deploy_allocs = 0;
  int64_t deploys = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

class Lane {
 public:
  Lane(const WorkloadConfig& config, uint64_t seed,
       const std::vector<GeneratedApp>* catalog, Checker* checker);

  // Parses the catalog once into shared specs (the direct bulk path).
  void ParseCatalog(SpanLog* log);
  // Runs sessions [first, first + count) as one round. `front_door` picks
  // the path; `log` (direct path only) records spans.
  // `reads` off skips the verify/run/bill probes (set-up ageing).
  void RunSessions(int64_t first, int64_t count, bool front_door, bool reads,
                   SpanLog* log, OpSamples* samples);
  // Switches every unlabelled histogram series to sketch mode, as the SLO
  // engine does for its sources. Exact-mode series keep every sample, so
  // without this the cloud's RSS grows with the number of operations a run
  // completes. Returns the series still in exact mode.
  int BoundHistograms();
  // Checks pool totals and tenancy against the live window.
  void CheckOccupancy();
  // Verifies up to `count` live deployments directly, recording spans.
  void VerifyLive(int count, SpanLog* log, OpSamples* samples);
  // Tears everything down (untimed) and checks the cloud reads empty.
  void DrainAndCheck();

  udc::UdcCloud& cloud() { return *cloud_; }
  uint64_t admit_hash() const { return admit_hash_; }
  int64_t sim_events_in_drains() const { return drain_events_; }
  // The program's retained spans before each traced run.
  const std::vector<double>& spans_retained() const { return spans_retained_; }

 private:
  struct Live {
    int64_t session = 0;
    size_t tenant = 0;    // index into tenants_ / clients_
    uint64_t rpc_id = 0;  // front-door deployment id, 0 for direct
    std::unique_ptr<udc::Deployment> owned;
    udc::Deployment* deployment = nullptr;
    const GeneratedApp* app = nullptr;
  };

  // Each operation's spans carry the session of the deployment it acts on
  // as their op id.
  udc::Deployment* Deploy(bool front_door, SpanLog* log, Live* live,
                          OpSamples* samples);
  void Teardown(Live& live, SpanLog* log, OpSamples* samples);
  void Reads(Live& live, bool front_door, SpanLog* log, OpSamples* samples);
  void Verify(Live& live, bool front_door, SpanLog* log, OpSamples* samples);
  void Drain(SpanLog* log, Layer layer, uint64_t op, uint32_t parent);

  const WorkloadConfig& config_;
  const std::vector<GeneratedApp>* catalog_;
  Checker* checker_;
  std::unique_ptr<udc::UdcCloud> cloud_;
  std::unique_ptr<udc::CloudFrontend> frontend_;
  std::vector<std::unique_ptr<udc::TenantClient>> clients_;
  std::vector<udc::TenantId> tenants_;
  std::vector<std::shared_ptr<const udc::AppSpec>> parsed_;
  // Session s deploys app order_[s % apps]: a seeded permutation, so every
  // `apps` consecutive sessions deploy each app once.
  std::vector<int> order_;
  // Declared after cloud_: live deployments are released before the cloud
  // they point into.
  std::deque<Live> live_;
  uint64_t admit_hash_ = 1469598103934665603ull;
  int64_t drain_events_ = 0;
  std::vector<double> spans_retained_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
