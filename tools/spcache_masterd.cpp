// spcache_masterd — the SP-Master as a standalone process.
//
// Binds a TcpTransport, hosts a MasterService on node 0 (metadata RPCs:
// REGISTER / LOOKUP / batch lookup / access reports, plus the deployment's
// StableStore checkpoint tier), and serves until SIGINT/SIGTERM or
// --max-seconds elapses. The first stdout line is
//
//   spcache_masterd listening on <host>:<port>
//
// so scripts that pass --port 0 (kernel-assigned) can parse the real port.
//
// With --workers the daemon also runs the deployment's health monitor: a
// monitor RpcNode (node 900) sends a kPing to every worker each heartbeat;
// a worker that misses K consecutive beats is declared dead and its pieces
// are re-created on the survivors by the RecoveryManager — the same repair
// coordinator the threaded cluster runs, here over the RPC PieceStore:
// whole files restored from the master's StableStore, lost pieces PUT over
// TCP stamped with a bumped epoch, the new layout published only after the
// bytes land. The exit line reports monitor.* counters so chaos scripts
// can assert that a kill was detected and pieces were recovered.
//
//   spcache_masterd [--host H] [--port P] [--workers LIST]
//                   [--heartbeat-ms B] [--max-seconds S] [--legacy-write-path]
//
//   --host H         bind address                [127.0.0.1]
//   --port P         listen port, 0 = ephemeral  [7070]
//   --workers LIST   comma-separated worker addresses; the i-th entry must
//                    be the daemon started with --node i+1. Enables the
//                    health monitor + RPC repair.
//   --heartbeat-ms B liveness probe interval     [100]
//   --max-seconds S  auto-exit after S seconds, 0 = run forever  [0]
//   --legacy-write-path  pre-batching write path (copy per send, one frame
//                        per syscall) — the bench baseline arm
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/health_monitor.h"
#include "cluster/stable_store.h"
#include "obs/metrics.h"
#include "rpc/cache_service.h"
#include "rpc/tcp_transport.h"

using namespace spcache;
using namespace spcache::rpc;

namespace {

// Signal handlers may only touch lock-free sig_atomic_t state; everything
// else (logging, joins, socket teardown) happens on the main thread after
// the flag is observed.
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

std::pair<std::string, std::uint16_t> parse_addr(const std::string& addr) {
  const std::size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon + 1 == addr.size()) {
    std::cerr << "spcache_masterd: address '" << addr << "' is not HOST:PORT\n";
    std::exit(2);
  }
  return {addr.substr(0, colon),
          static_cast<std::uint16_t>(std::atoi(addr.c_str() + colon + 1))};
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7070;
  long max_seconds = 0;
  long heartbeat_ms = 100;
  bool legacy_write_path = false;
  std::vector<std::string> worker_addrs;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&] {
      if (i + 1 >= argc) {
        std::cerr << "spcache_masterd: missing value for " << flag << "\n";
        std::exit(2);
      }
      return std::string(argv[++i]);
    };
    if (flag == "--host") {
      host = value();
    } else if (flag == "--port") {
      port = static_cast<std::uint16_t>(std::atoi(value().c_str()));
    } else if (flag == "--max-seconds") {
      max_seconds = std::atol(value().c_str());
    } else if (flag == "--heartbeat-ms") {
      heartbeat_ms = std::atol(value().c_str());
    } else if (flag == "--workers") {
      const std::string list = value();
      std::size_t start = 0;
      while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::string addr =
            list.substr(start, comma == std::string::npos ? std::string::npos : comma - start);
        if (!addr.empty()) worker_addrs.push_back(addr);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (flag == "--legacy-write-path") {
      legacy_write_path = true;
    } else if (flag == "--help" || flag == "-h") {
      std::cout << "spcache_masterd [--host H] [--port P] [--workers LIST] [--heartbeat-ms B] "
                   "[--max-seconds S] [--legacy-write-path]\n";
      return 0;
    } else {
      std::cerr << "spcache_masterd: unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (heartbeat_ms <= 0) heartbeat_ms = 100;

  install_signal_handlers();

  TcpTransportConfig config;
  config.batch_writes = !legacy_write_path;
  // Declared before the transport, and so destroyed after it: its loop
  // thread records into the registry until the transport's destructor
  // joins it.
  obs::MetricsRegistry registry;
  TcpTransport transport(config);
  const std::uint16_t bound = transport.listen(host, port);
  std::vector<NodeId> worker_nodes;
  for (std::size_t i = 0; i < worker_addrs.size(); ++i) {
    const auto [worker_host, worker_port] = parse_addr(worker_addrs[i]);
    const NodeId node = kFirstWorkerNode + static_cast<NodeId>(i);
    transport.add_peer(node, worker_host, worker_port);
    worker_nodes.push_back(node);
  }
  Bus bus(transport);
  bus.attach_observability(&registry);
  MasterService master(bus);

  // Liveness + repair, only with a worker address book to probe. The
  // monitor node issues the kPing probes and the repair PUTs; the
  // RecoveryManager asks the HealthMonitor (via pointer, bound below) for
  // its cached verdicts when picking replacement workers.
  std::unique_ptr<RpcNode> monitor_node;
  std::unique_ptr<PieceStore> repair_store;
  std::unique_ptr<RecoveryManager> recovery;
  std::unique_ptr<HealthMonitor> health;
  HealthMonitor* health_ptr = nullptr;
  std::atomic<std::uint64_t> ping_token{1};
  if (!worker_nodes.empty()) {
    monitor_node = std::make_unique<RpcNode>(bus, kMonitorNode, "monitor");
    monitor_node->start();
    repair_store =
        make_rpc_piece_store(bus, *monitor_node, worker_nodes, std::chrono::milliseconds(1000));
    recovery = std::make_unique<RecoveryManager>(
        *repair_store, master.master(), master.stable(), worker_nodes.size(),
        [&health_ptr](std::uint32_t s) {
          return health_ptr == nullptr || health_ptr->server_healthy(s);
        });
    const auto probe_timeout =
        std::chrono::milliseconds(std::max<long>(50, heartbeat_ms / 2));
    // probe: a live worker echoes the token from its service thread — a
    // wedged or dead one times out and the beat counts as missed.
    auto probe = [&, probe_timeout](std::uint32_t s) {
      const std::uint64_t token = ping_token.fetch_add(1, std::memory_order_relaxed);
      BufferWriter w;
      w.u64(token);
      const Reply reply =
          monitor_node->call_sync(worker_nodes[s], kPing, w.take(), probe_timeout);
      if (!reply.ok()) return false;
      BufferReader r(reply.payload);
      return r.u64() == token;
    };
    auto repair = [&recovery](std::uint32_t s) { return recovery->repair_after_server_loss(s); };
    HealthMonitorConfig hm;
    hm.heartbeat_interval = std::chrono::milliseconds(heartbeat_ms);
    health = std::make_unique<HealthMonitor>(worker_nodes.size(), probe, repair, hm);
    health->attach_observability(&registry);
    health_ptr = health.get();
    health->start();

    std::cout << "spcache_masterd listening on " << host << ":" << bound << " monitoring "
              << worker_nodes.size() << " workers every " << heartbeat_ms << "ms" << std::endl;
  } else {
    std::cout << "spcache_masterd listening on " << host << ":" << bound << std::endl;
  }

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(max_seconds);
  while (g_stop == 0) {
    if (max_seconds > 0 && std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  if (health) health->stop();
  const HealthStats hs = health ? health->stats() : HealthStats{};
  const auto c = transport.counters();
  std::cout << "spcache_masterd exiting: transport.connects=" << c.connects
            << " transport.framing_errors=" << c.framing_errors
            << " transport.bytes_rx=" << c.bytes_rx << " transport.bytes_tx=" << c.bytes_tx
            << " transport.writev_calls=" << c.writev_calls
            << " transport.frames_sent=" << c.frames_sent
            << " transport.frames_per_writev=" << c.frames_per_writev
            << " monitor.beats=" << hs.beats << " monitor.deaths_declared=" << hs.deaths_declared
            << " monitor.repairs_completed=" << hs.repairs_completed
            << " monitor.repair_failures=" << hs.repair_failures
            << " monitor.pieces_recovered=" << hs.pieces_recovered << std::endl;
  return c.framing_errors == 0 ? 0 : 1;
}
