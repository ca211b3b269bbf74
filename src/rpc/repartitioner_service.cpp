#include "rpc/repartitioner_service.h"

#include <chrono>
#include <stdexcept>

namespace spcache::rpc {

namespace {

// Matches the RPC layer's default bounded wait (RpcNode::call_sync).
constexpr std::chrono::milliseconds kExecutorTimeout{5000};

}  // namespace

RepartitionerService::RepartitionerService(Bus& bus, NodeId node_id, std::uint32_t server_id,
                                           NodeId master_node,
                                           std::vector<NodeId> worker_of_server)
    : n_servers_(worker_of_server.size()) {
  client_ = std::make_unique<RpcNode>(bus, node_id + 10000,
                                      "repartitioner-client-" + std::to_string(server_id));
  client_->start();
  store_ = make_rpc_piece_store(bus, *client_, std::move(worker_of_server), kExecutorTimeout);
  layouts_ = make_rpc_layout_service(*client_, master_node, kExecutorTimeout);
  node_ = std::make_unique<RpcNode>(bus, node_id, "repartitioner-" + std::to_string(server_id));
  node_->handle(kDeltaRepartitionFile,
                [this](BufferReader& r) { return handle_delta_repartition(r); });
  node_->start();
}

std::vector<std::uint8_t> RepartitionerService::handle_delta_repartition(BufferReader& r) {
  const auto file = static_cast<FileId>(r.u32());
  std::vector<std::uint32_t> new_servers(r.count(4));
  for (auto& s : new_servers) {
    s = r.u32();
    if (s >= n_servers_) throw std::runtime_error("kDeltaRepartitionFile: unknown server");
  }
  if (new_servers.empty()) throw std::runtime_error("kDeltaRepartitionFile: no new pieces");
  const auto meta = layouts_->peek(file);
  const auto done =
      meta ? delta_repartition_file(*store_, *layouts_, file,
                                    plain_piece_sizes(meta->size, new_servers.size()), new_servers)
           : std::nullopt;
  BufferWriter out;
  out.u8(done ? 1 : 0);
  out.u64(done ? done->plan.bytes_moved : 0);
  out.u64(done ? done->plan.bytes_saved : 0);
  return out.take();
}

RepartitionStats rpc_execute_delta_repartition(RpcNode& coordinator, const RepartitionPlan& plan,
                                               const std::vector<NodeId>& repartitioner_of_server) {
  std::vector<std::future<Reply>> futures;
  futures.reserve(plan.changed_files.size());
  for (std::size_t j = 0; j < plan.changed_files.size(); ++j) {
    BufferWriter w;
    w.u32(plan.changed_files[j]);
    const auto& fresh = plan.new_servers[j];
    w.u32(static_cast<std::uint32_t>(fresh.size()));
    for (auto s : fresh) w.u32(s);
    futures.push_back(coordinator.call(repartitioner_of_server.at(plan.executor[j]),
                                       kDeltaRepartitionFile, w.take()));
  }
  RepartitionStats stats;
  for (auto& f : futures) {
    const auto reply = f.get();
    if (!reply.ok()) {
      throw std::runtime_error("rpc delta repartition failed: " + reply.error_text());
    }
    BufferReader r(reply.payload);
    if (r.u8() == 0) continue;
    stats.bytes_moved += r.u64();
    stats.bytes_saved += r.u64();
    ++stats.files_touched;
  }
  return stats;
}

}  // namespace spcache::rpc
