// spcache_cli — run a custom cluster-caching experiment from the command
// line: pick a scheme, shape the workload, and get latency / balance /
// memory numbers without writing any code.
//
//   spcache_cli --scheme sp --files 500 --size-mb 100 --zipf 1.05 \
//               --rate 18 --servers 30 --requests 9000 --stragglers 0.05
//
// Options (defaults in brackets):
//   --scheme sp|ec|replication|chunk|simple|stock|hash   [sp]
//   --files N          catalog size                      [500]
//   --size-mb S        file size in MB                   [100]
//   --zipf Z           popularity exponent               [1.05]
//   --rate R           aggregate request rate, req/s     [18]
//   --servers N        cache servers                     [30]
//   --requests N       simulated requests                [9000]
//   --bandwidth-gbps B per-server link speed             [1.0]
//   --stragglers P     per-fetch straggler probability   [0]
//   --chunk-mb C       chunk size for --scheme chunk     [8]
//   --k K --n N        code geometry for --scheme ec     [10 14]
//   --replicas R       copies for --scheme replication   [4]
//   --simple-k K       partitions for --scheme simple    [9]
//   --alpha A          fix SP-Cache's scale factor (skip Algorithm 1)
//   --weighted         bandwidth-weighted SP placement
//   --hetero F         fraction of servers at half bandwidth [0]
//   --seed S           master seed                       [1]
//   --catalog F        replay a catalog CSV (overrides --files/--size-mb/
//                      --zipf/--rate; see workload/trace_io.h)
//   --arrivals F       replay an arrivals CSV (overrides --requests)
//   --csv              machine-readable output
//
// Multi-process mode — drive a real TCP cluster instead of the simulator:
//
//   spcache_cli --rpc --master 127.0.0.1:7070 \
//               --workers 127.0.0.1:7171,127.0.0.1:7172,127.0.0.1:7173 \
//               --files 24 --size-mb 0.25 --requests 48
//
//   --rpc              talk to spcache_masterd / spcache_serverd daemons
//   --master H:P       the master daemon's address
//   --workers LIST     comma-separated worker daemon addresses; the i-th
//                      entry must be the daemon started with --node i+1
//   --files/--size-mb/--zipf/--seed shape the dataset ([--size-mb 0.25]
//                      in this mode); --requests is the read count
//                      [2 x files]
//   --read-only        skip the write pass: regenerate the expected bytes
//                      from --seed and only read (the dataset must have
//                      been written by an earlier run with the same
//                      --files/--size-mb/--seed)
//   --scenario NAME    shape the read sequence from an adversarial
//                      scenario script (drift|flash|multi-tenant; see
//                      src/scenario/script.h) instead of round-robin:
//                      each phase samples reads from its phase catalog's
//                      rates and prints a per-phase line. The dataset is
//                      sized by the script (--files/--size-mb ignored);
//                      --requests overrides the per-phase read count.
//                      correlated-failure needs server kills, which the
//                      CLI can't do to live daemons — use bench_scenarios
//                      for that one.
//   --rpc-timeout-ms T per-RPC timeout / propagated deadline  [1000]
//   --chaos-seed S     arm seeded socket chaos on this client's transport
//   --chaos-partial P  per-flush partial-write probability    [0]
//   --chaos-reset P    per-flush connection-reset probability [0]
//   --chaos-delay P    per-flush loop-stall probability       [0]
//
// Writes every file through PUT + REGISTER (checkpointing each to the
// master's stable tier), reads them back over the sockets, and verifies
// each file bit-exact (whole-file CRC plus byte compare). Exits nonzero on
// any mismatch or if transport.framing_errors is nonzero; the final stdout
// line reports the transport counters (including backpressure/circuit
// state) and, with chaos armed, the fired-fault counts.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "core/ec_cache.h"
#include "fault/fault_injector.h"
#include "core/fixed_chunking.h"
#include "core/hash_placement.h"
#include "core/selective_replication.h"
#include "core/simple_partition.h"
#include "core/sp_cache.h"
#include "obs/metrics.h"
#include "rpc/cache_service.h"
#include "rpc/tcp_transport.h"
#include "scenario/script.h"
#include "sim/simulation.h"
#include "workload/arrivals.h"
#include "workload/trace_io.h"

using namespace spcache;

namespace {

struct Options {
  std::string scheme = "sp";
  std::size_t files = 500;
  double size_mb = 100.0;
  double zipf = 1.05;
  double rate = 18.0;
  std::size_t servers = 30;
  std::size_t requests = 9000;
  double bandwidth_gbps = 1.0;
  double stragglers = 0.0;
  double chunk_mb = 8.0;
  std::size_t k = 10, n = 14;
  std::size_t replicas = 4;
  std::size_t simple_k = 9;
  double alpha = 0.0;  // 0 = run Algorithm 1
  bool weighted = false;
  double hetero = 0.0;
  std::string catalog_file;
  std::string arrivals_file;
  std::uint64_t seed = 1;
  bool csv = false;

  // Multi-process mode (--rpc): real daemons instead of the simulator.
  bool rpc = false;
  std::string master_addr;
  std::vector<std::string> worker_addrs;
  bool size_set = false;      // was --size-mb given explicitly?
  bool requests_set = false;  // was --requests given explicitly?
  bool read_only = false;
  std::string scenario;  // --rpc only: adversarial script name
  std::size_t rpc_timeout_ms = 1000;
  // Seeded socket chaos (armed when any probability is nonzero).
  std::uint64_t chaos_seed = 1;
  double chaos_partial = 0.0;
  double chaos_reset = 0.0;
  double chaos_delay = 0.0;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "spcache_cli: " << message << "\nSee the header of tools/spcache_cli.cpp.\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need_value = [&](int i) {
    if (i + 1 >= argc) usage_error(std::string("missing value for ") + argv[i]);
    return std::string(argv[i + 1]);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto num = [&](double& out) { out = std::atof(need_value(i).c_str()); ++i; };
    auto unum = [&](std::size_t& out) {
      out = static_cast<std::size_t>(std::atoll(need_value(i).c_str()));
      ++i;
    };
    if (flag == "--scheme") {
      o.scheme = need_value(i);
      ++i;
    } else if (flag == "--files") {
      unum(o.files);
    } else if (flag == "--size-mb") {
      num(o.size_mb);
      o.size_set = true;
    } else if (flag == "--zipf") {
      num(o.zipf);
    } else if (flag == "--rate") {
      num(o.rate);
    } else if (flag == "--servers") {
      unum(o.servers);
    } else if (flag == "--requests") {
      unum(o.requests);
      o.requests_set = true;
    } else if (flag == "--bandwidth-gbps") {
      num(o.bandwidth_gbps);
    } else if (flag == "--stragglers") {
      num(o.stragglers);
    } else if (flag == "--chunk-mb") {
      num(o.chunk_mb);
    } else if (flag == "--k") {
      unum(o.k);
    } else if (flag == "--n") {
      unum(o.n);
    } else if (flag == "--replicas") {
      unum(o.replicas);
    } else if (flag == "--simple-k") {
      unum(o.simple_k);
    } else if (flag == "--alpha") {
      num(o.alpha);
    } else if (flag == "--weighted") {
      o.weighted = true;
    } else if (flag == "--hetero") {
      num(o.hetero);
    } else if (flag == "--seed") {
      std::size_t s = 0;
      unum(s);
      o.seed = s;
    } else if (flag == "--catalog") {
      o.catalog_file = need_value(i);
      ++i;
    } else if (flag == "--arrivals") {
      o.arrivals_file = need_value(i);
      ++i;
    } else if (flag == "--csv") {
      o.csv = true;
    } else if (flag == "--rpc") {
      o.rpc = true;
    } else if (flag == "--read-only") {
      o.read_only = true;
    } else if (flag == "--scenario") {
      o.scenario = need_value(i);
      ++i;
    } else if (flag == "--rpc-timeout-ms") {
      unum(o.rpc_timeout_ms);
    } else if (flag == "--chaos-seed") {
      std::size_t s = 0;
      unum(s);
      o.chaos_seed = s;
    } else if (flag == "--chaos-partial") {
      num(o.chaos_partial);
    } else if (flag == "--chaos-reset") {
      num(o.chaos_reset);
    } else if (flag == "--chaos-delay") {
      num(o.chaos_delay);
    } else if (flag == "--master") {
      o.master_addr = need_value(i);
      ++i;
    } else if (flag == "--workers") {
      std::string list = need_value(i);
      ++i;
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string addr =
            list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!addr.empty()) o.worker_addrs.push_back(addr);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (flag == "--help" || flag == "-h") {
      std::cout << "See the header comment of tools/spcache_cli.cpp for options.\n";
      std::exit(0);
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (o.files == 0 || o.servers == 0 || o.requests == 0) usage_error("zero-sized experiment");
  if (o.rpc) {
    if (o.master_addr.empty()) usage_error("--rpc needs --master HOST:PORT");
    if (o.worker_addrs.empty()) usage_error("--rpc needs --workers HOST:PORT[,HOST:PORT...]");
  }
  if (!o.scenario.empty() && !o.rpc) usage_error("--scenario requires --rpc");
  return o;
}

std::pair<std::string, std::uint16_t> parse_addr(const std::string& addr) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 == addr.size()) {
    usage_error("address '" + addr + "' is not HOST:PORT");
  }
  return {addr.substr(0, colon),
          static_cast<std::uint16_t>(std::atoi(addr.c_str() + colon + 1))};
}

// --scenario: resolve the named adversarial script, sized for this worker
// count. The correlated-failure script needs to kill servers, which the
// CLI cannot do to out-of-process daemons.
scenario::ScenarioScript resolve_scenario(const std::string& name, std::size_t n_workers) {
  for (auto& script : scenario::all_scenarios(n_workers)) {
    if (script.name != name) continue;
    if (script.phases.front().kill_hot_holders ||
        std::any_of(script.phases.begin(), script.phases.end(),
                    [](const scenario::PhaseSpec& p) { return p.kill_hot_holders; })) {
      usage_error("--scenario " + name +
                  " scripts server kills; drive it in-process via bench_scenarios instead");
    }
    return script;
  }
  usage_error("unknown --scenario '" + name + "' (drift|flash|multi-tenant)");
}

// --rpc: write a placed dataset into a live daemon cluster over TCP, read
// it all back, verify bit-exact. Returns the process exit code.
int run_rpc(const Options& o) {
  using namespace spcache::rpc;

  // Seeded socket chaos on this client's half of every connection. The
  // schedule is a pure function of (seed, site, decision index), so a
  // failing run replays from the command line alone.
  const bool chaos = o.chaos_partial > 0.0 || o.chaos_reset > 0.0 || o.chaos_delay > 0.0;
  fault::FaultConfig chaos_cfg;
  chaos_cfg.sock_partial_write_p = o.chaos_partial;
  chaos_cfg.sock_reset_p = o.chaos_reset;
  chaos_cfg.sock_delay_p = o.chaos_delay;
  // Declared before the transport, and so destroyed after it: its loop
  // thread records into the registry and consults the injector until the
  // transport's destructor joins it.
  fault::FaultInjector injector(o.chaos_seed, chaos_cfg);
  obs::MetricsRegistry registry;
  TcpTransport transport;
  if (chaos) transport.set_fault_injector(&injector);
  transport.start();
  const auto [master_host, master_port] = parse_addr(o.master_addr);
  transport.add_peer(kMasterNode, master_host, master_port);
  std::vector<NodeId> worker_nodes;
  for (std::size_t i = 0; i < o.worker_addrs.size(); ++i) {
    const auto [host, port] = parse_addr(o.worker_addrs[i]);
    const NodeId node = kFirstWorkerNode + static_cast<NodeId>(i);
    transport.add_peer(node, host, port);
    worker_nodes.push_back(node);
  }

  Bus bus(transport);
  bus.attach_observability(&registry);
  RpcSpClient client(bus, kFirstClientNode, kMasterNode, worker_nodes,
                     fault::RetryPolicy{},
                     std::chrono::milliseconds(o.rpc_timeout_ms));
  client.attach_observability(&registry);

  // Algorithm 1 decides each file's partition across the real workers.
  // Whole 100 MB defaults make no sense against localhost daemons; without
  // an explicit --size-mb the dataset drops to 0.25 MB files. With
  // --scenario, the script's phase-0 catalog is the layout baseline (the
  // same "yesterday's re-balance" the in-process driver starts from).
  const bool scenario_mode = !o.scenario.empty();
  scenario::ScenarioScript script;
  if (scenario_mode) script = resolve_scenario(o.scenario, o.worker_addrs.size());
  const std::size_t n_files = scenario_mode ? script.n_files : o.files;
  const double size_mb = o.size_set ? o.size_mb : 0.25;
  const auto catalog =
      scenario_mode ? scenario::phase_catalog(script, script.phases.front())
                    : make_uniform_catalog(o.files, megabytes(size_mb), o.zipf, o.rate);
  SpCacheScheme scheme;
  Rng rng(o.seed);
  scheme.place(catalog, std::vector<Bandwidth>(worker_nodes.size(), gbps(o.bandwidth_gbps)),
               rng);

  std::vector<std::vector<std::uint8_t>> originals(n_files);
  for (FileId f = 0; f < n_files; ++f) {
    const Bytes size = catalog.file(f).size;
    originals[f].resize(size);
    // Deterministic per-file content so a re-run (or another process) can
    // regenerate the expected bytes from --seed alone.
    std::uint64_t x = o.seed * 0x9E3779B97F4A7C15ull + f + 1;
    for (std::size_t i = 0; i < size; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      originals[f][i] = static_cast<std::uint8_t>(x);
    }
    if (!o.read_only) client.write(f, originals[f], scheme.placement(f).servers);
  }
  if (o.read_only) {
    std::cout << "read-only: expecting " << n_files << " files ("
              << static_cast<double>(catalog.total_bytes()) / static_cast<double>(kMB)
              << " MB) written by an earlier run with seed " << o.seed << "\n";
  } else {
    std::cout << "wrote " << n_files << " files ("
              << static_cast<double>(catalog.total_bytes()) / static_cast<double>(kMB)
              << " MB) across " << worker_nodes.size() << " workers\n";
  }

  // Read pass. Default: every file at least once, wrapping until the
  // request budget is spent. With --scenario, each phase instead samples
  // reads from its phase catalog's rates (the popularity shape the
  // in-process driver replays), so the daemons see the same adversarial
  // sequence of hot keys. read() CRC-verifies; the byte compare makes
  // bit-exactness explicit.
  std::size_t reads = 0;
  std::size_t mismatches = 0;
  const auto verified_read = [&](FileId f) {
    ++reads;
    try {
      if (client.read(f) != originals[f]) {
        std::cerr << "spcache_cli: file " << f << " read back different bytes\n";
        ++mismatches;
      }
    } catch (const std::exception& e) {
      std::cerr << "spcache_cli: read of file " << f << " failed: " << e.what() << "\n";
      ++mismatches;
    }
  };
  if (scenario_mode) {
    for (std::size_t p = 0; p < script.phases.size(); ++p) {
      const auto& spec = script.phases[p];
      const auto phase_cat = scenario::phase_catalog(script, spec);
      std::vector<double> cumulative(phase_cat.size(), 0.0);
      double total = 0.0;
      for (FileId f = 0; f < phase_cat.size(); ++f) {
        total += phase_cat.file(f).request_rate;
        cumulative[f] = total;
      }
      // Same per-phase stream derivation as the in-process driver: the
      // read sequence is a pure function of the script seed.
      Rng phase_rng(script.seed ^ (0x9E3779B97F4A7C15ull * (p + 1)));
      const std::size_t phase_reads = o.requests_set ? o.requests : spec.requests;
      const std::size_t mismatches_before = mismatches;
      for (std::size_t r = 0; r < phase_reads; ++r) {
        const double u = phase_rng.uniform() * total;
        const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
        verified_read(static_cast<FileId>(it == cumulative.end()
                                              ? phase_cat.size() - 1
                                              : static_cast<std::size_t>(
                                                    it - cumulative.begin())));
      }
      std::cout << "scenario=" << script.name << " phase=" << spec.name
                << " reads=" << phase_reads
                << " hot_file=" << scenario::phase_hot_file(script, spec)
                << " mismatches=" << (mismatches - mismatches_before) << "\n";
    }
  } else {
    const std::size_t budget = o.requests_set ? o.requests : 2 * n_files;
    for (std::size_t r = 0; r < budget; ++r) {
      verified_read(static_cast<FileId>(r % n_files));
    }
  }
  client.flush_access_reports();

  const auto c = transport.counters();
  std::cout << "reads=" << reads << " mismatches=" << mismatches
            << " transport.connects=" << c.connects
            << " transport.reconnects=" << c.reconnects
            << " transport.framing_errors=" << c.framing_errors
            << " transport.bytes_tx=" << c.bytes_tx << " transport.bytes_rx=" << c.bytes_rx
            << " transport.frames_dropped=" << c.frames_dropped
            << " transport.backpressure_events=" << c.backpressure_events
            << " transport.backpressure_rejects=" << c.backpressure_rejects
            << " transport.backpressure_drops=" << c.backpressure_drops
            << " transport.wqueue_peak=" << c.wqueue_peak
            << " transport.circuit_opens=" << c.circuit_opens
            << " transport.writev_calls=" << c.writev_calls
            << " transport.frames_per_writev=" << c.frames_per_writev;
  if (chaos) {
    const auto fs = injector.stats();
    std::cout << " chaos.partial_writes=" << fs.sock_partial_writes
              << " chaos.resets=" << fs.sock_resets << " chaos.delays=" << fs.sock_delays;
  }
  std::cout << std::endl;
  if (mismatches > 0 || c.framing_errors > 0) return 1;
  return 0;
}

std::unique_ptr<CachingScheme> make_scheme(const Options& o) {
  if (o.scheme == "sp") {
    SpCacheConfig cfg;
    if (o.alpha > 0.0) cfg.fixed_alpha = o.alpha;
    cfg.bandwidth_weighted_placement = o.weighted;
    return std::make_unique<SpCacheScheme>(cfg);
  }
  if (o.scheme == "ec") {
    EcCacheConfig cfg;
    cfg.k = o.k;
    cfg.n = o.n;
    return std::make_unique<EcCacheScheme>(cfg);
  }
  if (o.scheme == "replication") {
    return std::make_unique<SelectiveReplicationScheme>(
        SelectiveReplicationConfig{0.10, o.replicas});
  }
  if (o.scheme == "chunk") {
    return std::make_unique<FixedChunkingScheme>(FixedChunkingConfig{megabytes(o.chunk_mb)});
  }
  if (o.scheme == "simple") return std::make_unique<SimplePartitionScheme>(o.simple_k);
  if (o.scheme == "stock") return std::make_unique<StockScheme>();
  if (o.scheme == "hash") return std::make_unique<HashPlacementScheme>();
  usage_error("unknown scheme '" + o.scheme + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  if (o.rpc) return run_rpc(o);

  const auto catalog = o.catalog_file.empty()
                           ? make_uniform_catalog(o.files, megabytes(o.size_mb), o.zipf, o.rate)
                           : load_catalog_csv_file(o.catalog_file);
  std::vector<Bandwidth> bandwidth(o.servers, gbps(o.bandwidth_gbps));
  const auto slow = static_cast<std::size_t>(o.hetero * static_cast<double>(o.servers));
  for (std::size_t s = 0; s < slow; ++s) {
    bandwidth[o.servers - 1 - s] = gbps(o.bandwidth_gbps / 2.0);
  }

  auto scheme = make_scheme(o);
  Rng rng(o.seed);
  scheme->place(catalog, bandwidth, rng);

  SimConfig cfg;
  cfg.n_servers = o.servers;
  cfg.bandwidth = bandwidth;
  cfg.goodput = GoodputModel::calibrated(gbps(o.bandwidth_gbps));
  if (o.stragglers > 0.0) cfg.stragglers = StragglerModel::bing(o.stragglers);
  cfg.seed = o.seed + 1;
  Simulation sim(cfg);
  Rng arrival_rng(o.seed + 2);
  const auto arrivals = o.arrivals_file.empty()
                            ? generate_poisson_arrivals(catalog, o.requests, arrival_rng)
                            : load_arrivals_csv_file(o.arrivals_file);
  const auto r = sim.run(
      arrivals, [&scheme](FileId f, Rng& rr) { return scheme->plan_read(f, rr); });

  Table t({"scheme", "mean_s", "p50_s", "p95_s", "p99_s", "cv", "imbalance_eta",
           "memory_overhead_pct"});
  t.add_row({scheme->name(), r.mean_latency(), r.latencies.percentile(0.50), r.tail_latency(),
             r.latencies.percentile(0.99), r.cv(), r.imbalance(),
             scheme->memory_overhead(catalog) * 100.0});
  if (o.csv) {
    t.print_csv(std::cout);
  } else {
    std::cout << "Workload: " << catalog.size() << " files ("
              << static_cast<double>(catalog.total_bytes()) / static_cast<double>(kGB)
              << " GB), " << catalog.total_rate() << " req/s over " << o.servers << " servers @ "
              << o.bandwidth_gbps << " Gbps";
    if (slow > 0) std::cout << " (" << slow << " at half speed)";
    if (o.stragglers > 0) std::cout << ", stragglers p=" << o.stragglers;
    std::cout << ", " << arrivals.size() << " requests\n\n";
    t.print(std::cout);
  }
  return 0;
}
