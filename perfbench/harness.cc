#include "perfbench/harness.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

#include "src/common/strings.h"
#include "src/core/runtime.h"

namespace perfbench {

namespace {

// The three workloads (see README.md). `smoke` variants keep the shape and
// shrink geometry and ageing so a whole run takes seconds.
WorkloadConfig Churn(bool smoke) {
  WorkloadConfig c;
  c.name = "churn";
  c.racks = smoke ? 48 : 480;  // 21 devices per rack: 10,080 devices
  c.cells = smoke ? 4 : 16;
  c.regions = 1;
  c.front_door = true;
  c.window = 64;
  c.read_every = 31;
  c.runs_per_read = 1;
  c.age_sessions = smoke ? 256 : 2048;
  c.export_spans = true;
  c.round = 64;
  return c;
}

WorkloadConfig Scale(bool smoke) {
  WorkloadConfig c;
  c.name = "scale";
  c.racks = smoke ? 800 : 40'000;  // 840,000 devices
  c.cells = smoke ? 16 : 400;
  c.regions = 4;
  c.front_door = false;
  c.tenants = 64;
  c.window = 64;
  // Verification builds a whole-pool ledger per allocation, so at this size
  // one verify costs as much as 40-80 deploys; the loop leaves it out.
  c.read_every = 3;
  c.runs_per_read = 1;
  c.verify = false;
  c.final_verifies = 8;
  c.pin_percent = 30;
  c.age_sessions = smoke ? 128 : 512;
  c.export_spans = true;
  c.round = 16;
  return c;
}

WorkloadConfig Sessions(bool smoke) {
  WorkloadConfig c;
  c.name = "sessions";
  c.racks = smoke ? 48 : 480;
  c.cells = smoke ? 4 : 16;
  c.regions = 1;
  c.front_door = true;
  c.window = 0;
  c.read_every = 1;
  c.runs_per_read = 4;
  c.age_sessions = smoke ? 1000 : 16'000;
  // ~85 spans per measured session: 256 sessions add ~22k spans, 7% of the
  // ~300k the ageing leaves.
  c.reage_every = smoke ? 32 : 256;
  c.round = 8;
  return c;
}

// Opens a span when tracing; closes it on scope exit.
class Scoped {
 public:
  Scoped(SpanLog* log, Layer layer, uint64_t op, uint32_t parent)
      : log_(log), id_(log != nullptr ? log->Open(layer, op, parent) : 0) {}
  ~Scoped() {
    if (log_ != nullptr) {
      log_->Close(id_);
    }
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  uint32_t id_;
};

// Issues one RPC and runs the simulation until its reply (and everything
// it triggered) has been delivered.
template <typename Issue>
std::string CallAndWait(udc::Simulation* sim, Issue&& issue) {
  std::string reply = "err:no reply";
  issue([&reply](udc::Result<std::string> r) {
    reply = r.ok() ? r.value() : "err:" + r.status().ToString();
  });
  sim->RunToCompletion();
  return reply;
}

double Micros(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e3;
}

// Longest chain of task -> task edges, weighting each task by the compute
// time the run reported for it: a lower bound on the makespan. Data modules
// hold state rather than run, so a chain through one does not order its
// tasks.
udc::SimTime CriticalPathCompute(const GeneratedApp& app,
                                 const udc::RunReport& report) {
  std::vector<udc::SimTime> best(app.modules.size());
  udc::SimTime longest;
  for (size_t i = 0; i < app.modules.size(); ++i) {
    if (app.modules[i].is_data) {
      continue;
    }
    udc::SimTime own;
    if (const udc::StageStats* s = report.StageOf(app.modules[i].name)) {
      own = s->compute_time;
    }
    udc::SimTime before;
    for (int p : app.modules[i].preds) {
      before = std::max(before, best[static_cast<size_t>(p)]);
    }
    best[i] = before + own;
    longest = std::max(longest, best[i]);
  }
  return longest;
}

}  // namespace

bool FindWorkload(const std::string& name, bool smoke, WorkloadConfig* out) {
  if (name == "churn") {
    *out = Churn(smoke);
  } else if (name == "scale") {
    *out = Scale(smoke);
  } else if (name == "sessions") {
    *out = Sessions(smoke);
  } else {
    return false;
  }
  return true;
}

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "op.deploy",      "op.teardown",   "op.verify",   "op.run",
      "op.bill",        "aspects.parse", "core.deploy", "sim.drain",
      "core.teardown",  "sim.teardown_drain",           "attest.verify",
      "core.run",       "core.bill"};
  return kNames[layer];
}

// --- SpanLog ---------------------------------------------------------------

uint32_t SpanLog::Open(Layer layer, uint64_t op, uint32_t parent) {
  SpanRecord span;
  span.layer = layer;
  span.op = op;
  span.parent = parent;
  spans_.push_back(span);
  open_allocs_.push_back(AllocCount());
  spans_.back().start_ns = NowNs();
  return static_cast<uint32_t>(spans_.size());
}

void SpanLog::Close(uint32_t id) {
  const int64_t end = NowNs();
  const uint64_t allocs = AllocCount();
  SpanRecord& span = spans_[id - 1];
  span.end_ns = end;
  span.allocs = static_cast<uint32_t>(allocs - open_allocs_.back());
  open_allocs_.pop_back();
}

std::vector<double> SpanLog::Durations(Layer layer) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (s.layer == layer) {
      out.push_back(Micros(s.start_ns, s.end_ns));
    }
  }
  return out;
}

double SpanLog::MeanAllocs(Layer layer) const {
  double sum = 0;
  double n = 0;
  for (const SpanRecord& s : spans_) {
    if (s.layer == layer) {
      sum += s.allocs;
      n += 1;
    }
  }
  return n > 0 ? sum / n : 0;
}

bool SpanLog::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "span,name,op,parent,start_ns,end_ns,allocs\n");
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f, "%zu,%s,%llu,%u,%lld,%lld,%u\n", i + 1, LayerName(s.layer),
                 static_cast<unsigned long long>(s.op), s.parent,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.allocs);
  }
  return std::fclose(f) == 0;
}

// --- Lane --------------------------------------------------------------------

Lane::Lane(const WorkloadConfig& config, uint64_t seed,
           const std::vector<GeneratedApp>* catalog, Checker* checker)
    : config_(config), catalog_(catalog), checker_(checker) {
  SplitMix rng(seed + 0x5851f42d4c957f2dull);
  for (size_t i = 0; i < catalog->size(); ++i) {
    const size_t j = static_cast<size_t>(rng.Below(i + 1));
    order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(j),
                  static_cast<int>(i));
  }
  udc::UdcCloudConfig cc;
  cc.seed = seed;
  cc.datacenter.racks = config.racks;
  cc.datacenter.cells = config.cells;
  cc.datacenter.regions = config.regions;
  cc.scheduler.use_placement_index = true;
  cc.env_store.enabled = true;
  cc.env_store.share_across_tenants = true;
  cloud_ = std::make_unique<udc::UdcCloud>(cc);
  udc::Topology& topology = cloud_->datacenter().topology();
  frontend_ = std::make_unique<udc::CloudFrontend>(
      cloud_.get(), topology.AddNode(0, udc::NodeRole::kServer));
  for (int t = 0; t < config.tenants; ++t) {
    const udc::TenantId tenant =
        cloud_->RegisterTenant("tenant-" + std::to_string(t));
    tenants_.push_back(tenant);
    clients_.push_back(std::make_unique<udc::TenantClient>(
        cloud_->sim(), &cloud_->fabric(),
        topology.AddNode(0, udc::NodeRole::kServer), frontend_->node(),
        tenant));
  }
}

void Lane::ParseCatalog(SpanLog* log) {
  parsed_.clear();
  for (size_t i = 0; i < catalog_->size(); ++i) {
    Scoped span(log, kParse, i, 0);
    auto spec = udc::ParseAppSpec((*catalog_)[i].text);
    if (!spec.ok()) {
      checker_->Fail("catalog app does not parse: " + spec.status().ToString());
      parsed_.push_back(std::make_shared<const udc::AppSpec>());
      continue;
    }
    parsed_.push_back(std::make_shared<const udc::AppSpec>(*std::move(spec)));
  }
}

void Lane::Drain(SpanLog* log, Layer layer, uint64_t op, uint32_t parent) {
  const uint64_t before = cloud_->sim()->events_executed();
  {
    Scoped span(log, layer, op, parent);
    cloud_->sim()->RunToCompletion();
  }
  if (layer == kDrain) {
    drain_events_ +=
        static_cast<int64_t>(cloud_->sim()->events_executed() - before);
  }
}

udc::Deployment* Lane::Deploy(bool front_door, SpanLog* log, Live* live,
                              OpSamples* samples) {
  const int64_t session = live->session;
  const auto op = static_cast<uint64_t>(session);
  const int app = order_[static_cast<size_t>(session) % order_.size()];
  const size_t tenant = live->tenant;
  live->app = &(*catalog_)[static_cast<size_t>(app)];

  const int64_t t0 = NowNs();
  const uint64_t a0 = AllocCount();
  if (front_door) {
    const std::string reply = CallAndWait(cloud_->sim(), [&](auto done) {
      clients_[tenant]->Deploy(live->app->text, std::move(done));
    });
    const int64_t t1 = NowNs();
    uint64_t id = 0;
    if (reply.rfind("ok:", 0) != 0 ||
        !udc::ParseUint64(std::string_view(reply).substr(3), &id)) {
      return nullptr;
    }
    samples->deploy.Add(Micros(t0, t1));
    if (samples->keep_by_session) {
      samples->deploy_by_session.emplace_back(session, Micros(t0, t1));
    }
    samples->deploy_allocs += AllocCount() - a0;
    live->rpc_id = id;
    live->deployment = frontend_->FindDeployment(id);
    return live->deployment;
  }

  udc::Result<std::unique_ptr<udc::Deployment>> result =
      udc::Status(udc::InternalError("not deployed"));
  {
    Scoped root(log, kOpDeploy, op, 0);
    if (!parsed_.empty()) {
      Scoped span(log, kCoreDeploy, op, root.id());
      result = cloud_->Deploy(tenants_[tenant], parsed_[static_cast<size_t>(app)]);
    } else {
      udc::Result<udc::AppSpec> spec =
          udc::Status(udc::InternalError("not parsed"));
      {
        Scoped span(log, kParse, op, root.id());
        spec = udc::ParseAppSpec(live->app->text);
      }
      if (spec.ok()) {
        Scoped span(log, kCoreDeploy, op, root.id());
        result = cloud_->Deploy(tenants_[tenant], *spec);
      }
    }
    Drain(log, kDrain, op, root.id());
  }
  const int64_t t1 = NowNs();
  if (!result.ok()) {
    return nullptr;
  }
  samples->deploy.Add(Micros(t0, t1));
  samples->deploy_allocs += AllocCount() - a0;
  live->owned = std::move(*result);
  live->deployment = live->owned.get();
  return live->deployment;
}

void Lane::Teardown(Live& live, SpanLog* log, OpSamples* samples) {
  const auto op = static_cast<uint64_t>(live.session);
  const int64_t t0 = NowNs();
  bool ok = true;
  if (live.rpc_id != 0) {
    const std::string reply = CallAndWait(cloud_->sim(), [&](auto done) {
      clients_[live.tenant]->Teardown(live.rpc_id, std::move(done));
    });
    ok = reply == "ok:released";
  } else {
    Scoped root(log, kOpTeardown, op, 0);
    {
      Scoped span(log, kCoreTeardown, op, root.id());
      for (udc::ResourceUnit* unit : live.owned->units()) {
        if (unit->env != nullptr) {
          ok = cloud_->envs().Stop(unit->env, /*keep_warm=*/false).ok() && ok;
          unit->env = nullptr;
        }
      }
      live.owned.reset();
    }
    Drain(log, kTeardownDrain, op, root.id());
  }
  const int64_t t1 = NowNs();
  ++samples->attempted;
  if (!ok) {
    ++samples->failed;
    return;
  }
  samples->teardown.Add(Micros(t0, t1));
}

void Lane::Verify(Live& live, bool front_door, SpanLog* log,
                  OpSamples* samples) {
  udc::Deployment* d = live.deployment;
  const auto op = static_cast<uint64_t>(live.session);
  const int64_t t0 = NowNs();
  bool ok = false;
  if (front_door) {
    const std::string reply = CallAndWait(cloud_->sim(), [&](auto done) {
      clients_[live.tenant]->Verify(live.rpc_id, std::move(done));
    });
    ok = reply.rfind("ok:", 0) == 0 &&
         reply.find("overall: ALL PASS") != std::string::npos;
  } else {
    Scoped root(log, kOpVerify, op, 0);
    Scoped span(log, kVerify, op, root.id());
    auto report = cloud_->Verify(d);
    ok = report.ok() && report->all_ok;
  }
  const int64_t t1 = NowNs();
  ++samples->attempted;
  if (ok) {
    samples->verify.Add(Micros(t0, t1));
  } else {
    ++samples->failed;
    checker_->Fail(d->spec().graph.app_name() + ": verification not all ok");
  }
}

void Lane::VerifyLive(int count, SpanLog* log, OpSamples* samples) {
  for (size_t i = 0; i < live_.size() && static_cast<int>(i) < count; ++i) {
    Verify(live_[i], /*front_door=*/false, log, samples);
  }
}

void Lane::Reads(Live& live, bool front_door, SpanLog* log,
                 OpSamples* samples) {
  udc::Deployment* d = live.deployment;
  const auto op = static_cast<uint64_t>(live.session);
  if (config_.verify) {
    Verify(live, front_door, log, samples);
  }

  for (int r = 0; r < config_.runs_per_read; ++r) {
    if (log != nullptr) {
      spans_retained_.push_back(
          static_cast<double>(cloud_->sim()->spans().size()));
    }
    const int64_t t0 = NowNs();
    udc::Result<udc::RunReport> report =
        udc::Status(udc::InternalError("not run"));
    {
      Scoped root(log, kOpRun, op, 0);
      Scoped span(log, kRun, op, root.id());
      udc::DagRuntime runtime(cloud_->sim(), d);
      report = runtime.RunOnce();
    }
    const int64_t t1 = NowNs();
    ++samples->attempted;
    if (!report.ok()) {
      ++samples->failed;
      continue;
    }
    samples->run.Add(Micros(t0, t1));
    if (report->end_to_end <= udc::SimTime(0) ||
        report->end_to_end < CriticalPathCompute(*live.app, *report) ||
        report->trace_id == 0) {
      checker_->Fail(udc::StrFormat(
          "%s: run makespan %s, trace %llu",
          d->spec().graph.app_name().c_str(),
          report->end_to_end.ToString().c_str(),
          static_cast<unsigned long long>(report->trace_id)));
    }
  }

  const int64_t t0 = NowNs();
  bool ok = false;
  if (front_door) {
    const std::string reply = CallAndWait(cloud_->sim(), [&](auto done) {
      clients_[live.tenant]->Bill(live.rpc_id, std::move(done));
    });
    ok = reply.rfind("ok:", 0) == 0 && reply.find("TOTAL") != std::string::npos;
  } else {
    Scoped root(log, kOpBill, op, 0);
    Scoped span(log, kBill, op, root.id());
    const udc::Bill bill = cloud_->billing().BillToNow(*d);
    // The deployment has been up since its environments started, so the
    // bill covers a non-empty window.
    ok = bill.total.micro_usd() > 0 && !bill.lines.empty();
  }
  const int64_t t1 = NowNs();
  ++samples->attempted;
  if (ok) {
    samples->bill.Add(Micros(t0, t1));
  } else {
    ++samples->failed;
    checker_->Fail(d->spec().graph.app_name() + ": bill malformed");
  }
}

void Lane::RunSessions(int64_t first, int64_t count, bool front_door,
                       bool reads, SpanLog* log, OpSamples* samples) {
  const int64_t t_start = NowNs();
  int64_t check_ns = 0;
  int64_t deploys = 0;
  for (int64_t s = first; s < first + count; ++s) {
    const bool probe = config_.read_every > 0 && s % config_.read_every == 0;
    if (probe && config_.export_spans) {
      const int64_t e0 = NowNs();
      cloud_->sim()->spans().Clear();
      check_ns += NowNs() - e0;
    }
    Live live;
    live.session = s;
    live.tenant = static_cast<size_t>(s % config_.tenants);
    udc::Deployment* d = Deploy(front_door, log, &live, samples);
    ++samples->attempted;
    admit_hash_ = (admit_hash_ ^ (d != nullptr ? 1u : 0u)) * 1099511628211ull;
    if (d == nullptr) {
      ++samples->failed;
      continue;
    }
    ++deploys;
    ++samples->deploys;
    const int64_t c0 = NowNs();
    checker_->CheckAdmitted(*cloud_, *d, *live.app);
    check_ns += NowNs() - c0;
    if (reads && probe) {
      Reads(live, front_door, log, samples);
    }
    live_.push_back(std::move(live));
    while (static_cast<int>(live_.size()) > config_.window) {
      Teardown(live_.front(), log, samples);
      live_.pop_front();
    }

  }
  samples->rate.Add(deploys,
                   static_cast<double>(NowNs() - t_start - check_ns) / 1e9);
}

int Lane::BoundHistograms() {
  udc::MetricsRegistry& metrics = cloud_->sim()->metrics();
  int exact = 0;
  for (const auto& [key, histogram] : metrics.HistogramsSorted()) {
    if (histogram->sketch_mode()) {
      continue;
    }
    if (key.find('{') == std::string::npos) {
      metrics.EnableSketchHistogram(key);
    } else {
      ++exact;
    }
  }
  return exact;
}

void Lane::CheckOccupancy() {
  std::vector<LiveDeployment> live;
  live.reserve(live_.size());
  for (const Live& l : live_) {
    live.emplace_back(l.deployment, l.app);
  }
  checker_->CheckOccupancy(*cloud_, live);
}

void Lane::DrainAndCheck() {
  OpSamples unused;
  while (!live_.empty()) {
    Teardown(live_.front(), nullptr, &unused);
    live_.pop_front();
  }
  cloud_->sim()->RunToCompletion();
  if (unused.failed != 0) {
    checker_->Fail("a teardown failed during the final drain");
  }
  if (frontend_->live_deployments() != 0) {
    checker_->Fail("front door still holds deployments after the drain");
  }
  checker_->CheckDrained(*cloud_);
}

}  // namespace perfbench
