// spcache_serverd — one cache worker as a standalone process.
//
// Binds a TcpTransport, hosts a CacheWorkerService (block put/get/erase,
// staged-assembly ops) on the given node id, and serves until
// SIGINT/SIGTERM or --max-seconds elapses. The first stdout line is
//
//   spcache_serverd node <id> listening on <host>:<port>
//
// so scripts that pass --port 0 (kernel-assigned) can parse the real port.
//
//   spcache_serverd --node N [--host H] [--port P] [--bandwidth-gbps B]
//                   [--max-seconds S] [--legacy-write-path]
//                   [--chaos-seed S] [--chaos-partial P] [--chaos-reset P]
//
//   --node N            bus node id (workers are 1..N)   [1]
//   --host H            bind address                     [127.0.0.1]
//   --port P            listen port, 0 = ephemeral       [0]
//   --bandwidth-gbps B  modelled link speed              [1.0]
//   --max-seconds S     auto-exit after S seconds, 0 = run forever  [0]
//   --legacy-write-path pre-batching write path (copy per send, one frame
//                       per syscall) — the bench baseline arm
//   --chaos-seed S      arm seeded socket chaos on this server's transport [1]
//   --chaos-partial P   per-flush partial-write probability    [0]
//   --chaos-reset P     per-flush connection-reset probability [0]
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "rpc/cache_service.h"
#include "rpc/tcp_transport.h"

using namespace spcache;
using namespace spcache::rpc;

namespace {

// Signal handlers may only touch lock-free sig_atomic_t state; teardown
// happens on the main thread once the flag is observed.
volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void install_signal_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupted syscalls return EINTR and
                    // their call sites retry, so shutdown stays prompt
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  struct sigaction ign = {};
  ign.sa_handler = SIG_IGN;
  sigemptyset(&ign.sa_mask);
  sigaction(SIGPIPE, &ign, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  NodeId node = kFirstWorkerNode;
  double bandwidth_gbps = 1.0;
  long max_seconds = 0;
  bool legacy_write_path = false;
  std::uint64_t chaos_seed = 1;
  double chaos_partial = 0.0;
  double chaos_reset = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&] {
      if (i + 1 >= argc) {
        std::cerr << "spcache_serverd: missing value for " << flag << "\n";
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (flag == "--host") {
      host = value();
    } else if (flag == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(value().c_str()));
    } else if (flag == "--node") {
      node = static_cast<NodeId>(std::atoi(value().c_str()));
    } else if (flag == "--bandwidth-gbps") {
      bandwidth_gbps = std::atof(value().c_str());
    } else if (flag == "--max-seconds") {
      max_seconds = std::atol(value().c_str());
    } else if (flag == "--legacy-write-path") {
      legacy_write_path = true;
    } else if (flag == "--chaos-seed") {
      chaos_seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--chaos-partial") {
      chaos_partial = std::atof(value().c_str());
    } else if (flag == "--chaos-reset") {
      chaos_reset = std::atof(value().c_str());
    } else if (flag == "--help" || flag == "-h") {
      std::cout << "spcache_serverd --node N [--host H] [--port P] [--bandwidth-gbps B] "
                   "[--max-seconds S] [--legacy-write-path] [--chaos-seed S] "
                   "[--chaos-partial P] [--chaos-reset P]\n";
      return 0;
    } else {
      std::cerr << "spcache_serverd: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (node < kFirstWorkerNode) {
    std::cerr << "spcache_serverd: --node must be >= " << kFirstWorkerNode << "\n";
    return 2;
  }

  install_signal_handlers();

  TcpTransportConfig config;
  config.batch_writes = !legacy_write_path;
  // Seeded socket chaos (armed when any probability is nonzero): the fault
  // schedule is a pure function of the seed, so a failing run replays from
  // the command line alone.
  const bool chaos = chaos_partial > 0.0 || chaos_reset > 0.0;
  fault::FaultConfig chaos_cfg;
  chaos_cfg.sock_partial_write_p = chaos_partial;
  chaos_cfg.sock_reset_p = chaos_reset;
  // Declared before the transport, and so destroyed after it: its loop
  // thread records into the registry and consults the injector until the
  // transport's destructor joins it.
  fault::FaultInjector injector(chaos_seed, chaos_cfg);
  obs::MetricsRegistry registry;
  TcpTransport transport(config);
  if (chaos) transport.set_fault_injector(&injector);
  const std::uint16_t bound = transport.listen(host, port);
  Bus bus(transport);
  bus.attach_observability(&registry);
  // server_id is the zero-based cache-server index behind this node.
  const auto server_id = static_cast<std::uint32_t>(node - kFirstWorkerNode);
  CacheWorkerService worker(bus, node, server_id, gbps(bandwidth_gbps));

  std::cout << "spcache_serverd node " << node << " listening on " << host << ":" << bound
            << std::endl;

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(max_seconds);
  while (g_stop == 0) {
    if (max_seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  const auto c = transport.counters();
  std::cout << "spcache_serverd node " << node
            << " exiting: blocks_stored=" << worker.store().blocks_stored()
            << " transport.connects=" << c.connects
            << " transport.framing_errors=" << c.framing_errors
            << " transport.bytes_rx=" << c.bytes_rx << " transport.bytes_tx=" << c.bytes_tx
            << " transport.writev_calls=" << c.writev_calls
            << " transport.frames_sent=" << c.frames_sent
            << " transport.frames_per_writev=" << c.frames_per_writev;
  if (chaos) {
    const auto f = injector.stats();
    std::cout << " chaos.sock_partial_writes=" << f.sock_partial_writes
              << " chaos.sock_resets=" << f.sock_resets;
  }
  std::cout << std::endl;
  return c.framing_errors == 0 ? 0 : 1;
}
