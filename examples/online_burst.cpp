// Online burst absorption: live popularity tracking + distributed
// partition splitting (Section 8 "Short-Term Popularity Variation").
//
// Scenario: mid-epoch, a previously lukewarm dataset goes viral (a
// dashboard everyone suddenly opens). Waiting for the next 12-hour
// re-balancing would leave its server as a hot spot for hours. Instead,
// the EWMA popularity tracker notices the burst within seconds and the
// online adjuster plans a split of the file's existing partitions; one
// delta move per file then ships only the bytes whose server changes,
// each at most once.
#include <iostream>

#include "cluster/client.h"
#include "cluster/online_adjust.h"
#include "common/table.h"
#include "core/sp_cache.h"
#include "workload/popularity_tracker.h"

using namespace spcache;

int main() {
  constexpr std::size_t kFiles = 80;
  constexpr Bytes kFileSize = 2 * kMB;
  constexpr FileId kViral = 25;

  Cluster cluster(30, gbps(1.0));
  Master master;
  ThreadPool pool(4);
  Rng rng(314);

  // Epoch start: steady Zipf workload, SP-Cache layout from Algorithm 1.
  auto catalog = make_uniform_catalog(kFiles, kFileSize, 1.05, 10.0);
  SpCacheScheme sp;
  sp.place(catalog, cluster.bandwidths(), rng);
  SpClient client(cluster, master, pool);
  std::vector<std::uint8_t> payload(kFileSize, 0x77);
  for (FileId f = 0; f < kFiles; ++f) client.write(f, payload, sp.placement(f).servers);
  std::cout << "Epoch layout: file " << kViral << " has "
            << master.peek(kViral)->partitions() << " partitions (rank-"
            << kViral + 1 << " lukewarm file).\n";

  // Live traffic: the tracker observes the steady mix for 10 minutes...
  PopularityTracker tracker(/*half_life=*/120.0);
  Seconds now = 0.0;
  while (now < 600.0) {
    now += rng.exponential(1.0 / catalog.total_rate());
    tracker.record(catalog.sample_file(rng), now);
  }
  const double before = tracker.rate(kViral, now);

  // ...then the viral burst: 25 req/s on one file for two minutes.
  while (now < 720.0) {
    now += rng.exponential(1.0 / 25.0);
    tracker.record(kViral, now);
  }
  std::cout << "Burst detected: tracked rate of file " << kViral << " jumped "
            << before << " -> " << tracker.rate(kViral, now) << " req/s.\n\n";

  // React online: Eq. 1 against the live snapshot at the epoch's scale
  // factor, each file moved to its target by one delta move.
  std::vector<Bytes> sizes(kFiles, kFileSize);
  const auto live = tracker.snapshot(sizes, now);
  const auto store = make_inproc_piece_store(cluster, nullptr);
  const auto layouts = make_inproc_layout_service(master, nullptr);
  OnlineAdjustConfig cfg;
  cfg.max_ops_per_file = 32;
  const auto applied = apply_adjust_targets(
      *store, *layouts, plan_online_adjust(live, *layouts, cluster.size(), sp.alpha(), cfg),
      cluster.size());

  Table t({"metric", "value"});
  t.add_row({std::string("splits executed"), static_cast<long long>(applied.splits)});
  t.add_row({std::string("merges executed"), static_cast<long long>(applied.merges)});
  t.add_row({std::string("data moved (MB)"),
             static_cast<double>(applied.bytes_moved) / static_cast<double>(kMB)});
  t.add_row({std::string("modelled reaction time (s)"),
             applied.nics.drain_time(cluster.bandwidths())});
  t.add_row({std::string("viral file partitions now"),
             static_cast<long long>(master.peek(kViral)->partitions())});
  t.print(std::cout);

  // The data path is untouched semantically: the file still reads back.
  if (client.read(kViral).bytes != payload) {
    std::cerr << "DATA LOSS after online adjustment!\n";
    return 1;
  }
  std::cout << "\nViral file verified bit-exact; its load is now spread across "
            << master.peek(kViral)->partitions()
            << " servers without waiting for the periodic re-balance.\n";
  return 0;
}
