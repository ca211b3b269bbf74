// A real daemon cluster on loopback: one spcache_masterd and N
// spcache_serverd, each on a kernel-assigned port with a hard
// --max-seconds, logging into a per-run directory, plus one client endpoint
// (one TcpTransport, one connection per peer) in this process.
//
// The daemons are tied to this process: each child arms PR_SET_PDEATHSIG, so
// the kernel kills it if the benchmark dies on any path (exception, signal,
// SIGKILL). stop() and the destructor SIGTERM, reap, and escalate to
// SIGKILL after a grace period, so no daemon or port outlives a run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rpc/bus.h"
#include "rpc/cache_service.h"
#include "rpc/tcp_transport.h"

namespace perfbench {

struct DaemonExit {
  std::string log;
  int status = 0;  // waitpid status
  bool clean() const;
  double counter(const std::string& key) const;  // "key=value" off the exit line; 0 if absent
};

class TcpCluster {
 public:
  TcpCluster(std::string bindir, std::string logdir, std::size_t servers, int max_seconds);
  ~TcpCluster();
  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  // Spawn the daemons, wait for their ports, connect the client endpoint.
  void boot();

  spcache::rpc::RpcSpClient& client() { return *client_; }
  spcache::rpc::TcpTransport& transport() { return *transport_; }
  spcache::rpc::Bus& bus() { return *bus_; }
  std::size_t servers() const { return servers_; }

  // Median kPing round trip to worker 0 over `n` pings, in seconds.
  double ping_rtt_s(std::size_t n);

  // Tear down the client, stop every daemon, return master + worker exits
  // (master first). Idempotent: a second call returns nothing.
  std::vector<DaemonExit> stop();
  // stop(), then list what went wrong on the wire: client framing errors or
  // dropped frames, a daemon that exited uncleanly or saw a framing error.
  std::vector<std::string> stop_checked(std::vector<DaemonExit>& exits);

 private:
  struct Proc {
    pid_t pid = -1;
    std::string log_path;
  };
  Proc spawn(const std::vector<std::string>& argv, const std::string& log_name);
  DaemonExit stop_proc(Proc& p);

  std::string bindir_;
  std::string logdir_;
  std::size_t servers_;
  int max_seconds_;
  Proc master_;
  std::vector<Proc> workers_;
  std::unique_ptr<spcache::rpc::TcpTransport> transport_;
  std::unique_ptr<spcache::rpc::Bus> bus_;
  std::unique_ptr<spcache::rpc::RpcSpClient> client_;
};

}  // namespace perfbench
