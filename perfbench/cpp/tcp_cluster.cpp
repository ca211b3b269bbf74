#include "tcp_cluster.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_util.h"

namespace perfbench {

using namespace spcache;
using namespace spcache::rpc;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint16_t wait_for_port(const std::string& log_path, pid_t pid) {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < deadline) {
    const std::string log = slurp(log_path);
    const auto pos = log.find("listening on ");
    if (pos != std::string::npos) {
      const auto eol = log.find('\n', pos);
      if (eol != std::string::npos) {
        const std::string line = log.substr(pos, eol - pos);
        const auto colon = line.rfind(':');
        const auto space = line.find(' ', colon == std::string::npos ? 0 : colon);
        if (colon != std::string::npos) {
          const int port = std::atoi(line.substr(colon + 1, space - colon - 1).c_str());
          if (port > 0 && port <= 65535) return static_cast<std::uint16_t>(port);
        }
      }
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      throw std::runtime_error("daemon exited before listening:\n" + log);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  throw std::runtime_error("daemon never reported its port:\n" + slurp(log_path));
}

}  // namespace

bool DaemonExit::clean() const { return WIFEXITED(status) && WEXITSTATUS(status) == 0; }

double DaemonExit::counter(const std::string& key) const {
  const auto pos = log.rfind(" " + key + "=");
  if (pos == std::string::npos) return 0.0;
  return std::atof(log.c_str() + pos + key.size() + 2);
}

TcpCluster::TcpCluster(std::string bindir, std::string logdir, std::size_t servers,
                       int max_seconds)
    : bindir_(std::move(bindir)),
      logdir_(std::move(logdir)),
      servers_(servers),
      max_seconds_(max_seconds) {}

TcpCluster::~TcpCluster() {
  try {
    stop();
  } catch (...) {
    // stop() only throws on allocation failure; the daemons still die with
    // this process through PR_SET_PDEATHSIG.
  }
}

TcpCluster::Proc TcpCluster::spawn(const std::vector<std::string>& argv_strings,
                                   const std::string& log_name) {
  const std::string log_path = logdir_ + "/" + log_name;
  std::vector<char*> argv;
  for (const auto& s : argv_strings) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(127);  // parent died before prctl
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::signal(SIGPIPE, SIG_IGN);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  return Proc{pid, log_path};
}

void TcpCluster::boot() {
  const std::string max_s = std::to_string(max_seconds_);
  master_ = spawn({bindir_ + "/spcache_masterd", "--port", "0", "--max-seconds", max_s},
                  "master.log");
  for (std::size_t n = 0; n < servers_; ++n) {
    workers_.push_back(spawn({bindir_ + "/spcache_serverd", "--node",
                              std::to_string(kFirstWorkerNode + n), "--port", "0",
                              "--max-seconds", max_s},
                             "server" + std::to_string(n) + ".log"));
  }
  const std::uint16_t master_port = wait_for_port(master_.log_path, master_.pid);
  transport_ = std::make_unique<TcpTransport>();
  transport_->add_peer(kMasterNode, "127.0.0.1", master_port);
  std::vector<NodeId> worker_of_server;
  for (std::size_t s = 0; s < servers_; ++s) {
    const NodeId node = kFirstWorkerNode + static_cast<NodeId>(s);
    transport_->add_peer(node, "127.0.0.1", wait_for_port(workers_[s].log_path, workers_[s].pid));
    worker_of_server.push_back(node);
  }
  transport_->start();
  bus_ = std::make_unique<Bus>(*transport_);
  client_ = std::make_unique<RpcSpClient>(*bus_, kFirstClientNode, kMasterNode,
                                          std::move(worker_of_server), fault::RetryPolicy{},
                                          std::chrono::milliseconds(5000));
}

double TcpCluster::ping_rtt_s(std::size_t n) {
  std::vector<double> rtt;
  for (std::size_t i = 0; i < n; ++i) {
    BufferWriter w;
    w.u64(i + 1);
    const auto t0 = Clock::now();
    const Reply reply = client_->node().call_sync(kFirstWorkerNode, kPing, w.take(),
                                                  std::chrono::milliseconds(2000));
    const double s = seconds_since(t0);
    if (!reply.ok()) throw std::runtime_error("kPing failed");
    BufferReader r(reply.payload);
    if (r.u64() != i + 1) throw std::runtime_error("kPing echoed the wrong token");
    rtt.push_back(s);
  }
  std::sort(rtt.begin(), rtt.end());
  return rtt[rtt.size() / 2];
}

DaemonExit TcpCluster::stop_proc(Proc& p) {
  DaemonExit exit;
  if (p.pid <= 0) return exit;
  ::kill(p.pid, SIGTERM);
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    const pid_t r = ::waitpid(p.pid, &exit.status, WNOHANG);
    if (r == p.pid || r < 0) break;
    if (Clock::now() >= deadline) {
      ::kill(p.pid, SIGKILL);
      ::waitpid(p.pid, &exit.status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  p.pid = -1;
  exit.log = slurp(p.log_path);
  return exit;
}

std::vector<std::string> TcpCluster::stop_checked(std::vector<DaemonExit>& exits) {
  std::vector<std::string> errors;
  if (transport_) {
    const auto c = transport_->counters();
    if (c.framing_errors != 0 || c.frames_dropped != 0) {
      errors.push_back("client transport: framing_errors=" + std::to_string(c.framing_errors) +
                       " frames_dropped=" + std::to_string(c.frames_dropped));
    }
  }
  exits = stop();
  for (const auto& e : exits) {
    if (!e.clean() || e.counter("transport.framing_errors") != 0.0) {
      errors.push_back("daemon exit not clean: " + e.log);
    }
  }
  return errors;
}

std::vector<DaemonExit> TcpCluster::stop() {
  // The client flushes access reports on destruction, so it goes first,
  // while the wire is still up.
  client_.reset();
  bus_.reset();
  transport_.reset();
  std::vector<DaemonExit> exits;
  if (master_.pid > 0) exits.push_back(stop_proc(master_));
  for (auto& w : workers_) {
    if (w.pid > 0) exits.push_back(stop_proc(w));
  }
  workers_.clear();
  return exits;
}

}  // namespace perfbench
