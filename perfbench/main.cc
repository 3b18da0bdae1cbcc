// udcbench: runs one workload of the repo benchmark and prints its metrics.
//
//   udcbench --workload churn|scale|sessions --seed N --seconds S
//            --trace 0|1 [--smoke] [--trace-out FILE]
//
// --trace 0 times the untraced closed loop and prints the end-to-end
// metrics. --trace 1 runs two identical clouds over the same input
// stream: lane A through the front door (untimed layers), lane B through
// direct layer calls, alternating traced and untraced passes over the
// catalog. It prints the per-layer metrics and the tracing overhead, and
// checks that both lanes made the same admit decisions and ended with the
// same occupancy.
// The last line of standard output is the JSON result.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench/check.h"
#include "perfbench/gen.h"
#include "perfbench/harness.h"
#include "perfbench/stats.h"
#include "src/common/strings.h"

namespace perfbench {
namespace {

// Set during static initialisation, before main: set-up time is measured
// from here.
const int64_t kProcessStartNs = NowNs();

// SpanTracer's default cap (src/obs/span.h): past it RunOnce returns
// trace_id 0. A run stops with a failed check well before.
constexpr size_t kSpanLimit = (size_t{1} << 20) * 9 / 10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      o->smoke = true;
    } else if (arg == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o->trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      o->trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0 &&
         (o->trace == 0 || o->trace == 1);
}

// The block statistic over samples in operation order.
double P50(const std::vector<double>& samples) {
  Series series;
  for (double us : samples) {
    series.Add(us);
  }
  return series.P50();
}

double Seconds(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double PerDeploy(double count, int64_t deploys) {
  return deploys > 0 ? count / static_cast<double>(deploys) : 0;
}

// Set-up ageing: untimed sessions [first, first + age_sessions) without the
// read probes.
void Age(Lane& lane, const WorkloadConfig& config, int64_t first,
         bool front_door, Checker& checker) {
  OpSamples age;
  lane.RunSessions(first, config.age_sessions, front_door, /*reads=*/false,
                   nullptr, &age);
  if (age.failed != 0) {
    checker.Fail("an operation failed during set-up ageing");
  }
}

// Between rounds: on `reage_every` boundaries, clears the program's span
// buffer and ages the cloud again (untimed; returns the sessions used).
// Fails the run if the buffer nears the span cap.
int64_t Maintain(Lane& lane, const WorkloadConfig& config, int64_t measured,
                 int64_t next, bool front_door, Checker& checker) {
  const size_t spans = lane.cloud().sim()->spans().size();
  if (spans > kSpanLimit) {
    checker.Fail(udc::StrFormat(
        "%zu program spans retained, near the span cap; run stopped", spans));
  }
  if (config.reage_every == 0 || measured == 0 ||
      measured % config.reage_every != 0) {
    return 0;
  }
  lane.cloud().sim()->spans().Clear();
  Age(lane, config, next, front_door, checker);
  return config.age_sessions;
}

struct StoreCounters {
  int64_t hits = 0, tepid = 0, remote = 0, misses = 0;
};

StoreCounters ReadStore(Lane& lane) {
  StoreCounters c;
  if (const udc::EnvStore* store = lane.cloud().envs().store()) {
    c.hits = store->hits();
    c.tepid = store->tepid_hits();
    c.remote = store->remote_hits();
    c.misses = store->misses();
  }
  return c;
}

// Adds the env store's counter changes over `rounds` to `sum`.
template <typename Rounds>
void CountStarts(Lane& lane, StoreCounters* sum, Rounds&& rounds) {
  const StoreCounters before = ReadStore(lane);
  rounds();
  const StoreCounters after = ReadStore(lane);
  sum->hits += after.hits - before.hits;
  sum->tepid += after.tepid - before.tepid;
  sum->remote += after.remote - before.remote;
  sum->misses += after.misses - before.misses;
}

void PrintSamples(const char* what, const Series& v) {
  std::printf("  %-10s %8lld samples  p50 %10.2f us  p99 %10.2f us "
              "(whole run: p50 %.2f, p99 %.2f)\n",
              what, static_cast<long long>(v.count()), v.P50(), v.P99(),
              v.WholeRun(0.5), v.WholeRun(0.99));
}

std::vector<Metric> RunUntraced(const WorkloadConfig& config,
                                const Options& options,
                                const std::vector<GeneratedApp>& catalog,
                                Checker& checker, OpSamples& m) {
  Lane lane(config, options.seed, &catalog, &checker);
  if (!config.front_door) {
    lane.ParseCatalog(nullptr);
  }
  Age(lane, config, 0, config.front_door, checker);
  const int exact_histograms = lane.BoundHistograms();
  const double setup_s = Seconds(kProcessStartNs);
  const size_t aged_spans = lane.cloud().sim()->spans().size();

  const int64_t start = NowNs();
  int64_t next = config.age_sessions;
  int64_t measured = 0;
  while (Seconds(start) < options.seconds && checker.ok()) {
    lane.RunSessions(next, config.round, config.front_door, /*reads=*/true,
                     nullptr, &m);
    next += config.round;
    measured += config.round;
    lane.CheckOccupancy();
    next += Maintain(lane, config, measured, next, config.front_door, checker);
  }
  const double peak_rss = PeakRssMiB();
  const size_t end_spans = lane.cloud().sim()->spans().size();
  lane.DrainAndCheck();

  std::printf("%s: %lld sessions in %.1f s, setup %.2f s, program spans "
              "retained %zu after set-up, %zu at the end, %d exact-mode "
              "histograms\n",
              config.name, static_cast<long long>(measured), Seconds(start),
              setup_s, aged_spans, end_spans, exact_histograms);
  PrintSamples("deploy", m.deploy);
  PrintSamples("teardown", m.teardown);
  PrintSamples("verify", m.verify);
  PrintSamples("run", m.run);
  PrintSamples("bill", m.bill);
  // Timings are reported here, not in the result: this host's speed drifts
  // between runs by more than any bound a timing could carry (README).
  std::printf("  deploys/s  %.1f (fast quartile of per-round rates)\n",
              m.rate.Rate());

  return {
      {"setup_s", setup_s, "s"},
      {"allocs_per_deploy",
       PerDeploy(static_cast<double>(m.deploy_allocs), m.deploys), "count"},
      {"peak_rss_mib", peak_rss, "MiB"},
  };
}

// Per traced session: lane A's front-door deploy minus lane B's traced
// parse, deploy and drain of the same session. `parse_us` stands in for the
// parse when lane B deploys pre-parsed specs. Pairing by session cancels
// the app-to-app spread that would swamp a difference of medians.
std::vector<double> FrontDoorRemainder(const OpSamples& front,
                                       const SpanLog& log, double parse_us) {
  std::unordered_map<uint64_t, double> direct;
  const std::vector<SpanRecord>& spans = log.spans();
  for (const SpanRecord& s : spans) {
    if ((s.layer == kParse || s.layer == kCoreDeploy || s.layer == kDrain) &&
        s.parent != 0 && spans[s.parent - 1].layer == kOpDeploy) {
      direct[s.op] += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  std::vector<double> remainder;
  for (const auto& [session, us] : front.deploy_by_session) {
    const auto it = direct.find(static_cast<uint64_t>(session));
    if (it != direct.end()) {
      remainder.push_back(us - it->second - parse_us);
    }
  }
  return remainder;
}

// Both lanes must have admitted the same deploys and hold the same amount
// on every device.
void CheckLanesAgree(Lane& a, Lane& b, Checker& checker) {
  if (a.admit_hash() != b.admit_hash()) {
    checker.Fail("front-door and direct lanes made different admit decisions");
  }
  const std::vector<udc::Device*> da = a.cloud().datacenter().AllDevices();
  const std::vector<udc::Device*> db = b.cloud().datacenter().AllDevices();
  bool same = da.size() == db.size();
  for (size_t i = 0; same && i < da.size(); ++i) {
    same = da[i]->allocated() == db[i]->allocated();
  }
  if (!same) {
    checker.Fail("front-door and direct lanes ended with different occupancy");
  }
}

std::vector<Metric> RunTraced(const WorkloadConfig& config,
                              const Options& options,
                              const std::vector<GeneratedApp>& catalog,
                              Checker& checker, OpSamples& front,
                              OpSamples& traced, OpSamples& plain) {
  Lane a(config, options.seed, &catalog, &checker);
  Lane b(config, options.seed, &catalog, &checker);
  SpanLog log;
  if (!config.front_door) {
    b.ParseCatalog(&log);  // the bulk path parses once, in set-up
  }
  // Both lanes age the way the untraced run does (lane A through the front
  // door regardless), so lane B is measured on the same cloud state.
  Age(a, config, 0, /*front_door=*/true, checker);
  Age(b, config, 0, config.front_door, checker);
  a.BoundHistograms();
  b.BoundHistograms();
  front.keep_by_session = true;
  // Counted over lane B's measured rounds only, not its re-ageing.
  StoreCounters store;
  const int64_t events0 = b.sim_events_in_drains();

  const int64_t start = NowNs();
  int64_t next = config.age_sessions;
  int64_t measured = 0;
  while (Seconds(start) < options.seconds && checker.ok()) {
    a.RunSessions(next, config.round, /*front_door=*/true, /*reads=*/true,
                  nullptr, &front);
    // Traced and untraced rounds alternate per pass over the catalog, so
    // both see every app equally often.
    const bool trace = measured / kApps % 2 == 0;
    CountStarts(b, &store, [&] {
      b.RunSessions(next, config.round, /*front_door=*/false, /*reads=*/true,
                    trace ? &log : nullptr, trace ? &traced : &plain);
    });
    next += config.round;
    measured += config.round;
    a.CheckOccupancy();
    b.CheckOccupancy();
    Maintain(a, config, measured, next, /*front_door=*/true, checker);
    next += Maintain(b, config, measured, next, config.front_door, checker);
  }
  CheckLanesAgree(a, b, checker);
  if (config.final_verifies > 0) {
    b.VerifyLive(config.final_verifies, &log, &traced);
  }
  const int64_t deploys = traced.deploys + plain.deploys;
  const double events =
      static_cast<double>(b.sim_events_in_drains() - events0);
  a.DrainAndCheck();
  b.DrainAndCheck();
  if (!options.trace_out.empty() && !log.Write(options.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
  }

  const double parse = P50(log.Durations(kParse));
  const double core_deploy = P50(log.Durations(kCoreDeploy));
  const double drain = P50(log.Durations(kDrain));
  const auto hits = static_cast<double>(store.hits);
  const auto tepid = static_cast<double>(store.tepid);
  const auto remote = static_cast<double>(store.remote);
  const auto cold = static_cast<double>(store.misses);
  const double starts = hits + tepid + remote + cold;

  std::printf("%s traced: %lld sessions per lane in %.1f s, %zu spans, "
              "program spans retained %zu\n",
              config.name,
              static_cast<long long>(measured), Seconds(start),
              log.spans().size(),
              b.cloud().sim()->spans().size());
  PrintSamples("rpc deploy", front.deploy);
  PrintSamples("traced", traced.deploy);
  PrintSamples("untraced", plain.deploy);

  return {
      {"aspects.parse_us", parse, "us"},
      {"aspects.parse_allocs", log.MeanAllocs(kParse), "count"},
      {"core.deploy_us", core_deploy, "us"},
      {"core.deploy_allocs", log.MeanAllocs(kCoreDeploy), "count"},
      {"sim.drain_us", drain, "us"},
      {"sim.events_per_deploy", PerDeploy(events, deploys), "count"},
      {"core.teardown_us", P50(log.Durations(kCoreTeardown)), "us"},
      {"core.teardown_allocs", log.MeanAllocs(kCoreTeardown), "count"},
      {"frontend.rpc_us",
       Quantile(FrontDoorRemainder(front, log, config.front_door ? 0 : parse),
                0.5),
       "us"},
      {"exec.warm_hit_ratio", starts > 0 ? (hits + tepid + remote) / starts : 0,
       "ratio"},
      {"exec.tepid_per_deploy", PerDeploy(tepid, deploys), "count"},
      {"exec.remote_per_deploy", PerDeploy(remote, deploys), "count"},
      {"exec.cold_per_deploy", PerDeploy(cold, deploys), "count"},
      {"attest.verify_us", P50(log.Durations(kVerify)), "us"},
      {"core.run_us", P50(log.Durations(kRun)), "us"},
      {"obs.spans_retained", Quantile(b.spans_retained(), 0.5), "count"},
      {"core.bill_us", P50(log.Durations(kBill)), "us"},
      {"trace.overhead_ratio", traced.deploy.P50() / plain.deploy.P50(),
       "ratio"},
  };
}

int Main(int argc, char** argv) {
  Options options;
  WorkloadConfig config;
  if (!ParseOptions(argc, argv, &options) ||
      !FindWorkload(options.workload, options.smoke, &config)) {
    std::fprintf(stderr,
                 "usage: udcbench --workload churn|scale|sessions --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--trace-out FILE]\n");
    return 2;
  }
  GenOptions gen;
  gen.regions = config.regions > 1 ? config.regions : 0;
  gen.pin_percent = config.pin_percent;
  const std::vector<GeneratedApp> catalog = MakeCatalog(options.seed, gen);
  // Devices are laid out rack by rack, in the default rack population.
  const udc::RackConfig rack;
  const Geometry geometry{config.racks, config.cells, config.regions,
                          rack.cpu_blades + rack.gpu_boards + rack.fpga_cards +
                              rack.dram_modules + rack.nvm_modules +
                              rack.ssd_drives + rack.hdd_drives +
                              rack.soc_units};
  Checker checker(geometry);

  OpSamples a;
  OpSamples b;
  OpSamples c;
  const std::vector<Metric> metrics =
      options.trace == 0
          ? RunUntraced(config, options, catalog, checker, a)
          : RunTraced(config, options, catalog, checker, a, b, c);
  const int64_t attempted = a.attempted + b.attempted + c.attempted;
  const int64_t failed = a.failed + b.failed + c.failed;

  for (const std::string& e : checker.errors()) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("  %-24s %14.4f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += checker.ok() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
