// SP-Repartitioners as RPC services (Fig. 9b over messages).
//
// The parallel repartition scheme of Section 6.2 runs one SP-Repartitioner
// per cache server; the SP-Master assigns each a disjoint set of changed
// files. Here each repartitioner is an RPC service co-located with its
// worker. A kDeltaRepartitionFile request runs delta_repartition_file
// (cluster/repartition_exec.h) — the same per-file algorithm the threaded
// cluster runs — over the RPC seam (rpc::make_rpc_piece_store /
// make_rpc_layout_service): each remote range is relayed from its source
// worker to its destination, ranges already on the destination are staged
// there with no payload on the wire, and the cutover is compare-and-swapped
// at the master. A coordinator fans the per-file requests out to all
// executors and joins — the whole Fig. 9b flow, message by message.
#pragma once

#include <memory>
#include <vector>

#include "cluster/repartition_exec.h"
#include "core/repartition.h"
#include "rpc/cache_service.h"

namespace spcache::rpc {

// Method id on repartitioner nodes. Request: file u32, new piece count
// u32, then per new piece a server u32. The executor reads the current
// layout (sizes + epoch) from the master itself and cuts the file
// split_plain across the named servers, so the coordinator needs no
// piece-size bookkeeping. Reply: u8 published, u64 remote bytes moved,
// u64 bytes saved in place — a file the executor skipped (failed stage or
// splice, or outraced by another writer) replies published = 0 with its
// old layout intact.
inline constexpr MethodId kDeltaRepartitionFile = 21;
// Node-id convention: repartitioner for server s = kFirstRepartitionerNode + s.
inline constexpr NodeId kFirstRepartitionerNode = 500;

class RepartitionerService {
 public:
  // The repartitioner lives next to worker `server_id`; it reaches every
  // worker (including its own) through `worker_of_server`, and the master
  // through `master_node`.
  RepartitionerService(Bus& bus, NodeId node_id, std::uint32_t server_id, NodeId master_node,
                       std::vector<NodeId> worker_of_server);

  NodeId node_id() const { return node_->id(); }

 private:
  // Decodes the request and runs delta_repartition_file over the seam. A
  // request naming no new piece, or a server outside the cluster, is
  // rejected with an error reply.
  std::vector<std::uint8_t> handle_delta_repartition(BufferReader& r);

  std::size_t n_servers_;

  // Outbound calls go through a sibling client node: a node cannot await
  // replies on its own service thread — the same reason real services
  // separate server and client sockets.
  std::unique_ptr<RpcNode> client_;
  std::unique_ptr<PieceStore> store_;
  std::unique_ptr<LayoutService> layouts_;
  std::unique_ptr<RpcNode> node_;  // serves kDeltaRepartitionFile; stops first
};

// The coordinator: dispatch `plan` to the per-server repartitioners (each
// changed file goes to its planned executor) and join all replies. Issues
// every request asynchronously, so executors genuinely run in parallel.
// Sums bytes_moved/bytes_saved and files_touched over the published files;
// modelled_time and max_cutover_time stay 0 (nothing is modelled over the
// wire). Throws std::runtime_error only if an executor cannot be reached.
RepartitionStats rpc_execute_delta_repartition(RpcNode& coordinator, const RepartitionPlan& plan,
                                               const std::vector<NodeId>& repartitioner_of_server);

}  // namespace spcache::rpc
