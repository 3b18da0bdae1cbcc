#include "perfbench/gen.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

constexpr int kTaskNames = 16;
constexpr int kDataNames = 8;
constexpr int64_t kMiB = 1024 * 1024;

const char* const kConsistency[] = {"eventual", "causal", "sequential",
                                    "linearizable"};

// `count` distinct values from [0, n), in random order.
std::vector<int> Distinct(SplitMix& rng, int n, int count) {
  std::vector<int> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    all[static_cast<size_t>(i)] = i;
  }
  for (int i = 0; i < count; ++i) {
    const int j = i + static_cast<int>(rng.Below(static_cast<uint64_t>(n - i)));
    std::swap(all[static_cast<size_t>(i)], all[static_cast<size_t>(j)]);
  }
  all.resize(static_cast<size_t>(count));
  return all;
}

std::string Size(int64_t bytes) {
  char buf[32];
  if (bytes % (1024 * kMiB) == 0) {
    std::snprintf(buf, sizeof(buf), "%lldGiB",
                  static_cast<long long>(bytes / (1024 * kMiB)));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldMiB",
                  static_cast<long long>(bytes / kMiB));
  }
  return buf;
}

// A shuffled multiset: `Draw` deals its values in a seeded order. Features
// are dealt from decks sized to the whole catalog, so every seed's catalog
// has exactly the same feature counts and seeds differ only in which
// module gets what.
class Deck {
 public:
  // `shares` are the relative frequencies of values 0, 1, ...; the deck
  // holds `size` cards split in those proportions.
  Deck(SplitMix& rng, int size, const std::vector<int>& shares) {
    int total = 0;
    for (int s : shares) {
      total += s;
    }
    for (size_t v = 0; v < shares.size(); ++v) {
      const int count = size * shares[v] / total;
      cards_.insert(cards_.end(), static_cast<size_t>(count), static_cast<int>(v));
    }
    cards_.resize(static_cast<size_t>(size), 0);  // rounding remainder
    for (size_t i = cards_.size(); i > 1; --i) {
      std::swap(cards_[i - 1], cards_[static_cast<size_t>(rng.Below(i))]);
    }
  }
  int Draw() { return cards_[next_++ % cards_.size()]; }

 private:
  std::vector<int> cards_;
  size_t next_ = 0;
};

// Module and data counts are stratified by index, so every catalog has the
// same size mix: 3..10 modules, 1..n/3 of them data.
int ModulesOf(int index) { return 3 + index % 8; }
int DataOf(int index) { return 1 + (index / 8) % (ModulesOf(index) / 3); }

struct Decks {
  Decks(SplitMix& rng, int tasks, int data, int edges)
      : gpu(rng, tasks, {4, 1}),             // 20% GPU tasks
        cpu(rng, tasks, {1, 1, 1, 1}),       // 0.5, 1, 2, 4 cores
        gpus(rng, tasks, {1, 1}),            // 1 or 2 GPUs
        dram(rng, tasks, {1, 1, 1, 1}),      // 256MiB..2GiB
        single(rng, tasks, {11, 9}),         // 45% tenancy=single
        tee(rng, tasks, {1, 1}),             // half of single CPU tasks: TEE
        isolation(rng, tasks, {2, 1, 1}),    // none / weak / medium
        work(rng, tasks, {1, 1, 1, 1, 1, 1, 1, 1}),
        out(rng, tasks, {1, 1, 1, 1, 1, 1}),
        size(rng, data, {1, 1, 1, 1}),       // 256MiB..16GiB
        replicas(rng, data, {1, 1, 1}),      // 1..3
        consistency(rng, data, {1, 1, 1, 1}),
        preds(rng, edges, {1, 1}),           // one or two predecessors
        affinity(rng, edges, {7, 3}) {}
  Deck gpu, cpu, gpus, dram, single, tee, isolation, work, out;
  Deck size, replicas, consistency;
  Deck preds, affinity;
};

GeneratedApp MakeApp(SplitMix& rng, Decks& deck, int index,
                     const GenOptions& options) {
  GeneratedApp app;
  const int n = ModulesOf(index);
  const int data = DataOf(index);
  const std::vector<int> data_names = Distinct(rng, kDataNames, data);
  const std::vector<int> task_names = Distinct(rng, kTaskNames, n - data);

  // Random topological order: edges only run from earlier to later.
  std::vector<ModuleRecord>& mods = app.modules;
  for (int i = 0; i < data; ++i) {
    ModuleRecord m;
    m.name = "db" + std::to_string(data_names[static_cast<size_t>(i)]);
    m.is_data = true;
    mods.push_back(m);
  }
  for (int i = 0; i < n - data; ++i) {
    ModuleRecord m;
    m.name = "svc" + std::to_string(task_names[static_cast<size_t>(i)]);
    mods.push_back(m);
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(mods[static_cast<size_t>(i)],
              mods[static_cast<size_t>(rng.Below(static_cast<uint64_t>(i + 1)))]);
  }

  // Region steering: apps are picked for pinning by index, so the pinned
  // share is the same in every catalog. A third of them pin region 0 (the
  // hot region), a third a random region, a third avoid a random region.
  int pin = -1;
  int avoid = -1;
  if (options.regions > 0 && index * 37 % 100 < options.pin_percent) {
    const int region =
        static_cast<int>(rng.Below(static_cast<uint64_t>(options.regions)));
    switch (index % 3) {
      case 0:
        pin = 0;
        break;
      case 1:
        pin = region;
        break;
      default:
        avoid = region;
    }
  }

  std::string& t = app.text;
  t = "app a" + std::to_string(index) + "\n";
  std::string aspects;
  for (ModuleRecord& m : mods) {
    m.region = pin;
    m.avoid_region = avoid;
    std::string dist;
    if (m.is_data) {
      m.ssd_bytes = int64_t{256} * kMiB << (2 * deck.size.Draw());
      m.replicas = 1 + deck.replicas.Draw();
      t += "data " + m.name + " size=" + Size(m.ssd_bytes) + "\n";
      aspects += "aspect " + m.name + " resource ssd=" + Size(m.ssd_bytes) + "\n";
      dist = " replication=" + std::to_string(m.replicas) + " consistency=" +
             kConsistency[deck.consistency.Draw()];
    } else {
      const bool gpu = deck.gpu.Draw() == 1;
      m.cpu_milli = gpu ? 500 : int64_t{500} << deck.cpu.Draw();
      m.gpu_milli = gpu ? 1000 * (1 + static_cast<int64_t>(deck.gpus.Draw())) : 0;
      m.dram_bytes = int64_t{256} * kMiB << deck.dram.Draw();
      m.single_tenant = deck.single.Draw() == 1;
      m.tee = deck.tee.Draw() == 1 && m.single_tenant && !gpu;
      const int isolation = deck.isolation.Draw();
      t += "task " + m.name + " work=" + std::to_string(250 << deck.work.Draw()) +
           " out=" + std::to_string(64 << deck.out.Draw()) + "KiB\n";
      aspects += "aspect " + m.name + " resource cpu=" +
                 std::to_string(m.cpu_milli) + "m";
      if (gpu) {
        aspects += " gpu=" + std::to_string(m.gpu_milli) + "m";
      }
      aspects += " dram=" + Size(m.dram_bytes) + "\n";
      if (m.single_tenant) {
        aspects += "aspect " + m.name + " exec tenancy=single";
        aspects += m.tee ? " tee_if_cpu encrypt integrity\n" : "\n";
      } else if (isolation > 0) {
        aspects += "aspect " + m.name + " exec isolation=" +
                   (isolation == 1 ? "weak" : "medium") + "\n";
      }
    }
    if (pin >= 0) {
      dist += " region=" + std::to_string(pin);
    }
    if (avoid >= 0) {
      dist += " avoid_region=" + std::to_string(avoid);
    }
    if (!dist.empty()) {
      aspects += "aspect " + m.name + " dist" + dist + "\n";
    }
  }

  // Edges: every module after the first gets one or two predecessors among
  // the earlier ones (data -> data is not an edge udcl accepts).
  for (int i = 1; i < n; ++i) {
    ModuleRecord& m = mods[static_cast<size_t>(i)];
    const int wanted = 1 + deck.preds.Draw();
    for (int k = 0; k < wanted; ++k) {
      const int p = static_cast<int>(rng.Below(static_cast<uint64_t>(i)));
      const ModuleRecord& pred = mods[static_cast<size_t>(p)];
      if ((pred.is_data && m.is_data) ||
          std::find(m.preds.begin(), m.preds.end(), p) != m.preds.end()) {
        continue;
      }
      m.preds.push_back(p);
      t += "edge " + pred.name + " -> " + m.name + "\n";
      if (pred.is_data && deck.affinity.Draw() == 1) {
        t += "affinity " + m.name + " " + pred.name + "\n";
      }
    }
  }
  t += aspects;
  return app;
}

}  // namespace

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<GeneratedApp> MakeCatalog(uint64_t seed, const GenOptions& options) {
  SplitMix rng(seed * 0x2545f4914f6cdd1dull + 1);
  int tasks = 0;
  int data = 0;
  int edges = 0;
  for (int i = 0; i < kApps; ++i) {
    tasks += ModulesOf(i) - DataOf(i);
    data += DataOf(i);
    edges += ModulesOf(i) - 1;
  }
  Decks decks(rng, tasks, data, edges);
  std::vector<GeneratedApp> apps;
  apps.reserve(static_cast<size_t>(kApps));
  for (int i = 0; i < kApps; ++i) {
    apps.push_back(MakeApp(rng, decks, i, options));
  }
  return apps;
}

}  // namespace perfbench
