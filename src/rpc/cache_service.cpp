#include "rpc/cache_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/crc32.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace spcache::rpc {

namespace {

std::vector<std::uint8_t> empty_body() { return {}; }

}  // namespace

void CacheWorkerService::serve_block_bytes(BufferWriter& w, const Block& block) {
  w.u32(static_cast<std::uint32_t>(block.bytes.size()));
  // The copy into the reply IS the integrity scan: one fused pass instead
  // of a verify scan in the store followed by a separate append copy.
  const auto dst = w.extend(block.bytes.size());
  if (crc32_copy(dst, block.bytes) != block.crc) {
    throw std::runtime_error("checksum mismatch (corrupted block)");
  }
}

void write_meta(BufferWriter& w, const FileMeta& meta) {
  w.u64(meta.size);
  w.u32(meta.file_crc);
  w.u64(meta.epoch);
  w.u32(static_cast<std::uint32_t>(meta.partitions()));
  for (std::size_t i = 0; i < meta.partitions(); ++i) {
    w.u32(meta.servers[i]);
    w.u64(meta.piece_sizes[i]);
  }
}

FileMeta read_meta(BufferReader& r) {
  FileMeta meta;
  meta.size = r.u64();
  meta.file_crc = r.u32();
  meta.epoch = r.u64();
  const std::uint32_t n = r.count(4 + 8);  // (server u32, piece_size u64) pairs
  meta.servers.reserve(n);
  meta.piece_sizes.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    meta.servers.push_back(r.u32());
    meta.piece_sizes.push_back(r.u64());
  }
  return meta;
}

CacheWorkerService::CacheWorkerService(Bus& bus, NodeId node_id, std::uint32_t server_id,
                                       Bandwidth bandwidth)
    : store_(server_id, bandwidth) {
  node_ = std::make_unique<RpcNode>(bus, node_id, "worker-" + std::to_string(server_id));
  node_->handle(kPutBlock, [this](BufferReader& r) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    // View straight into the request payload: the only copy of the block
    // bytes is the fused copy+CRC inside put_copy.
    const auto data = r.bytes_view();
    const std::uint64_t epoch = r.u64();
    store_.put_copy(BlockKey{file, piece}, data);
    auto& recorded = epochs_[file];
    recorded = std::max(recorded, epoch);
    return empty_body();
  });
  node_->handle_into(kGetBlock, [this](BufferReader& r, BufferWriter& w) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    // Fused serve: the block bytes go from the store straight into the
    // reply payload with one crc32_copy pass that doubles as the verify
    // scan — no body vector, no separate checksum sweep.
    const auto block = store_.get_for_serve(BlockKey{file, piece});
    if (!block) throw std::runtime_error("block not found");
    w.reserve(4 + block->bytes.size());
    serve_block_bytes(w, *block);
  });
  node_->handle_into(kGetBlockMulti, [this](BufferReader& r, BufferWriter& w) {
    const auto file = static_cast<FileId>(r.u32());
    const std::uint64_t epoch = r.u64();
    if (const auto it = epochs_.find(file); it != epochs_.end() && epoch < it->second) {
      // The request was built against a layout this worker has already
      // seen superseded: reject it wholesale so the client re-LOOKUPs
      // instead of fetching pieces of a torn layout.
      throw WrongEpochError("stale layout epoch " + std::to_string(epoch) + " < " +
                            std::to_string(it->second));
    }
    const std::uint32_t count = r.count(4);
    // Piece indices land in the arena, BlockRefs in the recycled vector:
    // in steady state this handler's only allocation is the reply payload
    // itself, whose ownership transfers to the wire.
    scratch_arena_.reset();
    const auto pieces = scratch_arena_.make_span<PieceIndex>(count);
    for (auto& p : pieces) p = static_cast<PieceIndex>(r.u32());
    scratch_blocks_.clear();
    scratch_blocks_.reserve(count);
    std::size_t total = 0;
    for (const auto piece : pieces) {
      scratch_blocks_.push_back(store_.get_for_serve(BlockKey{file, piece}));
      if (scratch_blocks_.back()) total += scratch_blocks_.back()->bytes.size();
    }
    // Reply: count u32, then per piece a found byte + length-prefixed
    // bytes. The reply length is known exactly, so one reserve() replaces
    // the doubling reallocations a multi-megabyte append sequence pays.
    w.reserve(4 + count * 5 + total);
    w.u32(count);
    for (const auto& block : scratch_blocks_) {
      if (!block) {
        w.u8(0);  // missing piece: the client's per-piece retry handles it
        continue;
      }
      w.u8(1);
      serve_block_bytes(w, *block);
    }
    scratch_blocks_.clear();  // drop the shared refs before the reply ships
  });
  node_->handle_into(kGetRange, [this](BufferReader& r, BufferWriter& w) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    const Bytes offset = r.u64();
    const Bytes length = r.u64();
    const auto bytes = store_.get_range(BlockKey{file, piece}, offset, length);
    w.reserve(4 + bytes.size());
    w.bytes(bytes);
  });
  node_->handle(kStagePiece, [this](BufferReader& r) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    const std::uint64_t epoch = r.u64();
    const std::uint8_t op = r.u8();
    const BlockKey key{file, piece};
    BufferWriter w;
    switch (op) {
      case kStageOpAppend: {
        const Bytes piece_size = r.u64();
        const Bytes offset = r.u64();
        store_.stage_range(key, epoch, piece_size, offset, r.bytes_view());
        w.u8(1);
        break;
      }
      case kStageOpLocalCopy: {
        // The source range is resident right here: serve it out of the own
        // store and stage it without any payload having crossed the wire.
        const Bytes piece_size = r.u64();
        const Bytes offset = r.u64();
        const auto src_piece = static_cast<PieceIndex>(r.u32());
        const Bytes src_offset = r.u64();
        const Bytes length = r.u64();
        const auto bytes = store_.get_range(BlockKey{file, src_piece}, src_offset, length);
        store_.stage_range(key, epoch, piece_size, offset, bytes);
        w.u8(1);
        break;
      }
      case kStageOpFinalize:
        w.u8(store_.finalize_staged(key, epoch) ? 1 : 0);
        break;
      case kStageOpPublish: {
        const bool ok = store_.publish_staged(key, epoch);
        if (ok) {
          // The published piece belongs to the new layout generation:
          // record it so a multi-GET built against the old one is rejected
          // with kWrongEpoch instead of served a torn mix.
          auto& recorded = epochs_[file];
          recorded = std::max(recorded, epoch);
        }
        w.u8(ok ? 1 : 0);
        break;
      }
      case kStageOpDiscard:
        w.u8(store_.discard_staged(key, epoch) ? 1 : 0);
        break;
      default:
        throw std::runtime_error("kStagePiece: unknown op " + std::to_string(op));
    }
    return w.take();
  });
  node_->handle(kEraseBlock, [this](BufferReader& r) {
    const auto file = static_cast<FileId>(r.u32());
    const auto piece = static_cast<PieceIndex>(r.u32());
    BufferWriter w;
    w.u8(store_.erase(BlockKey{file, piece}) ? 1 : 0);
    return w.take();
  });
  node_->handle(kPing, [](BufferReader& r) {
    // Liveness probe: echo the caller's token. Running on the service
    // thread means a wedged worker fails the probe, not just a dead one.
    BufferWriter w;
    w.u64(r.u64());
    return w.take();
  });
  node_->start();
}

MasterService::MasterService(Bus& bus, NodeId node_id) {
  node_ = std::make_unique<RpcNode>(bus, node_id, "sp-master");
  node_->handle(kRegisterFile, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    FileMeta meta = read_meta(r);  // .epoch is the writer's proposal
    if (master_.peek(id).has_value()) {
      master_.update_file(id, std::move(meta));
    } else {
      master_.register_file(id, std::move(meta));
    }
    // Reply with the epoch the master actually assigned (it enforces
    // monotonicity past the proposal) so the writer can cache its own
    // layout at the authoritative generation.
    BufferWriter w;
    w.u64(master_.file_epoch(id));
    return w.take();
  });
  node_->handle(kLookupFile, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    const auto meta = master_.lookup_for_read(id);
    if (!meta) throw std::runtime_error("unknown file");
    BufferWriter w;
    write_meta(w, *meta);
    return w.take();
  });
  node_->handle(kPeekFile, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    const auto meta = master_.peek(id);
    if (!meta) throw std::runtime_error("unknown file");
    BufferWriter w;
    write_meta(w, *meta);
    return w.take();
  });
  node_->handle(kSwapLayout, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    const std::uint64_t expected_epoch = r.u64();
    FileMeta meta = read_meta(r);
    BufferWriter w;
    w.u8(master_.update_file_if(id, std::move(meta), expected_epoch) ? 1 : 0);
    return w.take();
  });
  node_->handle(kLookupBatch, [this](BufferReader& r) {
    const std::uint32_t count = r.count(4);
    BufferWriter w;
    w.u32(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto id = static_cast<FileId>(r.u32());
      const auto meta = master_.lookup_for_read(id);
      if (!meta) {
        w.u8(0);
        continue;
      }
      w.u8(1);
      write_meta(w, *meta);
    }
    return w.take();
  });
  node_->handle(kAccessCount, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    BufferWriter w;
    w.u64(master_.access_count(id));
    return w.take();
  });
  node_->handle(kFileEpoch, [this](BufferReader& r) {
    const auto id = static_cast<FileId>(r.u32());
    BufferWriter w;
    w.u64(master_.file_epoch(id));
    return w.take();
  });
  node_->handle(kReportAccess, [this](BufferReader& r) {
    const std::uint32_t count = r.count(4 + 8);
    std::vector<std::pair<FileId, std::uint64_t>> deltas;
    deltas.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto id = static_cast<FileId>(r.u32());
      deltas.emplace_back(id, r.u64());
    }
    BufferWriter w;
    w.u64(master_.report_access_batch(deltas));
    return w.take();
  });
  node_->handle(kPutStable, [this](BufferReader& r) {
    // Alluxio-style checkpoint to the stable tier: the whole file, kept
    // durable so a worker death is repairable without cache replicas.
    const auto id = static_cast<FileId>(r.u32());
    stable_.checkpoint(id, r.bytes_view());
    return empty_body();
  });
  node_->handle(kPing, [](BufferReader& r) {
    BufferWriter w;
    w.u64(r.u64());
    return w.take();
  });
  node_->start();
}

namespace {

std::unique_ptr<RpcNode> started_node(Bus& bus, NodeId id, const std::string& prefix) {
  auto node = std::make_unique<RpcNode>(bus, id, prefix + std::to_string(id));
  node->start();  // needed to receive replies
  return node;
}

// Bounded wait on one call. A lost request or reply (dropped envelope,
// dead worker) reads as a failed call, and forget() reclaims the slot so a
// late reply becomes a counted no-op instead of a leak.
Reply await_reply(RpcNode& node, RpcNode::PendingCall& call, std::chrono::milliseconds timeout) {
  if (call.reply.wait_for(timeout) == std::future_status::ready) return call.reply.get();
  node.forget(call.request_id);
  Reply lost;
  lost.status = Status::kError;
  return lost;
}

// The RPC PieceStore (see make_rpc_piece_store). Delivered views point
// into the reply payloads, which the views' owner keeps alive.
class RpcPieceStore final : public PieceStore {
 public:
  RpcPieceStore(Bus& bus, RpcNode& node, std::vector<NodeId> worker_of_server,
                std::chrono::milliseconds timeout, bool coalesce)
      : bus_(bus),
        node_(node),
        worker_of_server_(std::move(worker_of_server)),
        timeout_(timeout),
        coalesce_(coalesce) {}

  void put(FileId id, std::span<const std::span<const std::uint8_t>> pieces,
           const std::vector<std::uint32_t>& servers, std::uint64_t epoch,
           std::span<const std::uint32_t> piece_ids) override {
    std::vector<RpcNode::PendingCall> puts;
    puts.reserve(pieces.size());
    for (std::size_t i = 0; i < pieces.size(); ++i) {
      BufferWriter w;
      w.reserve(4 + 4 + 4 + pieces[i].size() + 8);  // whole PUT frame, one allocation
      w.u32(id);
      w.u32(piece_ids.empty() ? static_cast<std::uint32_t>(i) : piece_ids[i]);
      w.bytes(pieces[i]);
      w.u64(epoch);
      puts.push_back(node_.call_tagged(worker_of_server_.at(servers[i]), kPutBlock, w.take()));
    }
    // Drain every call before throwing, so no slot outlives this frame.
    std::string failure;
    for (auto& call : puts) {
      const auto reply = await_reply(node_, call, timeout_);
      if (!reply.ok() && failure.empty()) failure = "PUT failed: " + reply.error_text();
    }
    if (!failure.empty()) throw std::runtime_error(failure);
  }

  bool fetch(FileId id, const FileMeta& layout, std::span<const std::uint32_t> pieces,
             PieceSink& sink) override {
    struct Call {
      NodeId worker = 0;
      std::vector<std::uint32_t> pieces;
      RpcNode::PendingCall pending;
    };
    std::vector<Call> calls;
    for (const std::uint32_t i : pieces) {
      const NodeId worker = worker_of_server_.at(layout.servers[i]);
      auto it = coalesce_ ? std::find_if(calls.begin(), calls.end(),
                                         [&](const Call& c) { return c.worker == worker; })
                          : calls.end();
      if (it == calls.end()) it = calls.insert(calls.end(), Call{worker, {}, {}});
      it->pieces.push_back(i);
    }
    auto* bus_probes = bus_.observability();
    for (auto& c : calls) {
      BufferWriter w;
      w.u32(id);
      if (coalesce_) {
        w.u64(layout.epoch);
        w.u32(static_cast<std::uint32_t>(c.pieces.size()));
      }
      for (const std::uint32_t p : c.pieces) w.u32(p);
      c.pending = node_.call_tagged(c.worker, coalesce_ ? kGetBlockMulti : kGetBlock, w.take());
      if (c.pieces.size() > 1 && bus_probes && bus_probes->envelopes_coalesced) {
        bus_probes->envelopes_coalesced->add(c.pieces.size() - 1);
      }
    }
    bool current = true;
    for (auto& c : calls) {
      // Drain every call even after a kWrongEpoch: the pass is lost, but
      // the remaining replies still resolve their slots.
      const auto reply = std::make_shared<const Reply>(await_reply(node_, c.pending, timeout_));
      if (reply->status == Status::kWrongEpoch) current = false;
      if (!reply->ok()) continue;
      BufferReader r(reply->payload);
      if (coalesce_ && r.u32() != c.pieces.size()) continue;
      for (const std::uint32_t i : c.pieces) {
        if (coalesce_ && r.u8() == 0) continue;  // missing on the worker
        // No expected_crc: the worker's serve copy already checked the bytes.
        sink.on_piece(PieceView{i, r.bytes_view(), reply, std::nullopt});
      }
    }
    return current;
  }

  bool stage(FileId id, const PieceAssembly& piece, std::uint64_t epoch) override {
    // Only remote ranges carry payload, each relayed straight from its
    // source worker to the destination — never accumulated beyond one range.
    const NodeId dst = worker_of_server_.at(piece.dst_server);
    Bytes filled = 0;
    for (const auto& range : piece.sources) {
      BufferWriter w;
      Reply staged;
      if (range.local) {
        stage_header(w, id, piece.new_piece, epoch, kStageOpLocalCopy);
        w.u64(piece.piece_size);
        w.u64(filled);
        w.u32(range.old_piece);
        w.u64(range.offset_in_piece);
        w.u64(range.length);
        staged = call_with_attempts(dst, kStagePiece, w.take());
      } else {
        BufferWriter g;
        g.u32(id);
        g.u32(range.old_piece);
        g.u64(range.offset_in_piece);
        g.u64(range.length);
        const auto got = call_with_attempts(worker_of_server_.at(range.src_server), kGetRange,
                                            g.take());
        if (!got.ok()) return false;
        BufferReader pr(got.payload);
        const auto bytes = pr.bytes_view();
        w.reserve(4 + 4 + 8 + 1 + 8 + 8 + 4 + bytes.size());
        stage_header(w, id, piece.new_piece, epoch, kStageOpAppend);
        w.u64(piece.piece_size);
        w.u64(filled);
        w.bytes(bytes);
        staged = node_.call_sync(dst, kStagePiece, w.take(), timeout_);
      }
      if (!succeeded(staged)) return false;
      filled += range.length;
    }
    return stage_op(id, piece.new_piece, piece.dst_server, epoch, kStageOpFinalize);
  }

  bool publish_staged(FileId id, std::uint32_t piece, std::uint32_t server,
                      std::uint64_t epoch) override {
    return stage_op(id, piece, server, epoch, kStageOpPublish);
  }

  void discard_staged(FileId id, std::uint32_t piece, std::uint32_t server,
                      std::uint64_t epoch) override {
    (void)stage_op(id, piece, server, epoch, kStageOpDiscard);
  }

  void erase(FileId id, std::uint32_t piece, std::uint32_t server) override {
    BufferWriter w;
    w.u32(id);
    w.u32(piece);
    (void)node_.call_sync(worker_of_server_.at(server), kEraseBlock, w.take(), timeout_);
  }

 private:
  static void stage_header(BufferWriter& w, FileId id, std::uint32_t piece, std::uint64_t epoch,
                           std::uint8_t op) {
    w.u32(id);
    w.u32(piece);
    w.u64(epoch);
    w.u8(op);
  }

  // A kStagePiece reply is a u8 success flag.
  static bool succeeded(const Reply& reply) {
    if (!reply.ok()) return false;
    BufferReader r(reply.payload);
    return r.u8() != 0;
  }

  // A body-less kStagePiece op (finalize, publish, discard).
  bool stage_op(FileId id, std::uint32_t piece, std::uint32_t server, std::uint64_t epoch,
                std::uint8_t op) {
    BufferWriter w;
    stage_header(w, id, piece, epoch, op);
    return succeeded(node_.call_sync(worker_of_server_.at(server), kStagePiece, w.take(),
                                     timeout_));
  }

  // A range read (kGetRange, or the worker-local read of
  // kStageOpLocalCopy) with kRangeFetchAttempts tries. Retrying a local
  // copy is safe: a repeat of a range that did land is refused, because
  // ranges must arrive in offset order.
  Reply call_with_attempts(NodeId to, MethodId method, std::vector<std::uint8_t> request) {
    Reply reply;
    for (int attempt = 1; attempt <= kRangeFetchAttempts; ++attempt) {
      reply = node_.call_sync(to, method, request, timeout_);
      if (reply.ok()) break;
    }
    return reply;
  }

  Bus& bus_;
  RpcNode& node_;
  std::vector<NodeId> worker_of_server_;
  std::chrono::milliseconds timeout_;
  bool coalesce_;
};

// The RPC LayoutService (see make_rpc_layout_service). The master hosts
// the deployment's stable tier, fed by checkpoint() (kPutStable); there is
// no read-side restore over the wire — masterd's RecoveryManager repairs
// lost pieces from it instead.
class RpcLayoutService final : public LayoutService {
 public:
  RpcLayoutService(RpcNode& node, NodeId master, std::chrono::milliseconds timeout)
      : node_(node), master_(master), timeout_(timeout) {}

  LookupStatus lookup(FileId id, FileMeta& out) override {
    BufferWriter w;
    w.u32(id);
    const auto reply = node_.call_sync(master_, kLookupFile, w.take(), timeout_);
    if (!reply.ok()) {
      return reply.error_text() == "unknown file" ? LookupStatus::kUnknownFile
                                                  : LookupStatus::kUnavailable;
    }
    BufferReader r(reply.payload);
    out = read_meta(r);
    return LookupStatus::kFound;
  }

  std::optional<FileMeta> peek(FileId id) override {
    BufferWriter w;
    w.u32(id);
    const auto reply = node_.call_sync(master_, kPeekFile, w.take(), timeout_);
    if (!reply.ok()) return std::nullopt;
    BufferReader r(reply.payload);
    return read_meta(r);
  }

  std::uint64_t epoch(FileId id) override {
    BufferWriter w;
    w.u32(id);
    const auto reply = node_.call_sync(master_, kFileEpoch, w.take(), timeout_);
    if (!reply.ok()) return 0;  // the master re-enforces monotonicity at REGISTER
    BufferReader r(reply.payload);
    return r.u64();
  }

  std::uint64_t publish(FileId id, const FileMeta& meta) override {
    BufferWriter w;
    w.u32(id);
    write_meta(w, meta);
    const auto reply = node_.call_sync(master_, kRegisterFile, w.take());
    if (!reply.ok()) throw std::runtime_error("REGISTER failed: " + reply.error_text());
    BufferReader r(reply.payload);
    return r.u64();
  }

  bool cutover(FileId id, std::uint64_t expected_epoch, const FileMeta& next,
               const std::function<bool()>& splice,
               const std::function<void()>& retire) override {
    // The early check keeps a file that is already outraced from splicing
    // over the newer layout's pieces; kSwapLayout closes the window the
    // splice itself leaves open.
    if (epoch(id) != expected_epoch || !splice()) return false;
    BufferWriter w;
    w.u32(id);
    w.u64(expected_epoch);
    write_meta(w, next);
    const auto reply = node_.call_sync(master_, kSwapLayout, w.take(), timeout_);
    if (!reply.ok()) return false;
    BufferReader r(reply.payload);
    if (r.u8() == 0) return false;
    retire();
    return true;
  }

  std::optional<std::uint64_t> report_access(
      const std::vector<std::pair<FileId, std::uint64_t>>& deltas) override {
    BufferWriter w;
    w.u32(static_cast<std::uint32_t>(deltas.size()));
    for (const auto& [id, delta] : deltas) {
      w.u32(id);
      w.u64(delta);
    }
    const auto reply = node_.call_sync(master_, kReportAccess, w.take(), timeout_);
    if (!reply.ok()) return std::nullopt;
    BufferReader r(reply.payload);
    return r.u64();
  }

  std::optional<StableCopy> restore(FileId /*id*/) override { return std::nullopt; }

  // Section 8: the underlying storage, not cache replicas, is the
  // durability story. Best effort — a lost checkpoint narrows repair
  // coverage, never fails the write; the file is already served from cache.
  void checkpoint(FileId id, std::span<const std::uint8_t> data) override {
    BufferWriter w;
    w.reserve(4 + 4 + data.size());
    w.u32(id);
    w.bytes(data);
    (void)node_.call_sync(master_, kPutStable, w.take());
  }

 private:
  RpcNode& node_;
  NodeId master_;
  std::chrono::milliseconds timeout_;
};

// RpcEcClient's bounded wait (RpcNode::call_sync's default).
constexpr std::chrono::milliseconds kEcTimeout{5000};

}  // namespace

std::unique_ptr<PieceStore> make_rpc_piece_store(Bus& bus, RpcNode& node,
                                                 std::vector<NodeId> worker_of_server,
                                                 std::chrono::milliseconds timeout, bool coalesce) {
  return std::make_unique<RpcPieceStore>(bus, node, std::move(worker_of_server), timeout,
                                         coalesce);
}

std::unique_ptr<LayoutService> make_rpc_layout_service(RpcNode& node, NodeId master,
                                                       std::chrono::milliseconds timeout) {
  return std::make_unique<RpcLayoutService>(node, master, timeout);
}

RpcSpClient::RpcSpClient(Bus& bus, NodeId node_id, NodeId master_node,
                         std::vector<NodeId> worker_of_server, fault::RetryPolicy retry,
                         std::chrono::milliseconds rpc_timeout, ClientCacheConfig cache)
    : node_(started_node(bus, node_id, "sp-client-")),
      master_node_(master_node),
      rpc_timeout_(rpc_timeout),
      single_flight_(cache.single_flight),
      engine_(make_rpc_piece_store(bus, *node_, std::move(worker_of_server), rpc_timeout,
                                   cache.coalesce),
              make_rpc_layout_service(*node_, master_node, rpc_timeout), retry, cache) {}

std::size_t RpcSpClient::prefetch_layouts(const std::vector<FileId>& ids) {
  if (!engine_.caches_layouts() || ids.empty()) return 0;
  BufferWriter w;
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const auto id : ids) w.u32(id);
  const auto reply = node_->call_sync(master_node_, kLookupBatch, w.take(), rpc_timeout_);
  if (!reply.ok()) return 0;
  BufferReader r(reply.payload);
  const std::uint32_t count = r.u32();
  std::size_t found = 0;
  for (std::uint32_t i = 0; i < count && i < ids.size(); ++i) {
    if (r.u8() == 0) continue;
    engine_.layout_cache().put(ids[i], read_meta(r));
    ++found;
  }
  return found;
}

RpcReadStats RpcSpClient::engine_read(FileId id) {
  IoResult r = engine_.read(id);
  return RpcReadStats{std::move(r.bytes), r.retries, r.passes, r.layout_cached, false};
}

RpcReadStats RpcSpClient::read_with_stats(FileId id) {
  if (!single_flight_) return engine_read(id);

  std::shared_ptr<Inflight> inflight;
  bool leader = false;
  {
    std::lock_guard lock(sf_mu_);
    auto& slot = inflight_[id];
    if (!slot) {
      slot = std::make_shared<Inflight>();
      slot->future = slot->promise.get_future().share();
      leader = true;
    } else {
      ++slot->waiters;
    }
    inflight = slot;
  }
  if (!leader) {
    // Single-flight follower: the leader's fetch is already on the wire;
    // wait for its result and copy the bytes instead of re-fetching.
    if (auto* shared = singleflight_shared_.load(std::memory_order_acquire)) shared->add(1);
    const auto shared = inflight->future.get();  // rethrows the leader's failure
    RpcReadStats stats;
    stats.bytes = shared->bytes;
    stats.passes = shared->passes;
    stats.layout_cached = shared->layout_cached;
    stats.shared = true;
    return stats;
  }
  std::size_t waiters = 0;
  try {
    auto stats = engine_read(id);
    {
      std::lock_guard lock(sf_mu_);
      inflight_.erase(id);
      waiters = inflight->waiters;
    }
    // Publish (one bytes copy) only if someone actually waited.
    if (waiters > 0) inflight->promise.set_value(std::make_shared<const RpcReadStats>(stats));
    return stats;
  } catch (...) {
    {
      std::lock_guard lock(sf_mu_);
      inflight_.erase(id);
      waiters = inflight->waiters;
    }
    if (waiters > 0) inflight->promise.set_exception(std::current_exception());
    throw;
  }
}

std::vector<std::uint8_t> RpcSpClient::read(FileId id) { return read_with_stats(id).bytes; }

void RpcSpClient::attach_observability(obs::MetricsRegistry* registry,
                                       obs::TraceRecorder* trace) {
  engine_.attach_observability(registry, trace);
  singleflight_shared_.store(
      registry ? &registry->counter(obs::names::kClientSingleFlightShared) : nullptr,
      std::memory_order_release);
}

std::uint64_t RpcSpClient::access_count(FileId id) {
  BufferWriter w;
  w.u32(id);
  const auto reply = node_->call_sync(master_node_, kAccessCount, w.take());
  if (!reply.ok()) throw std::runtime_error("ACCESS_COUNT failed: " + reply.error_text());
  BufferReader r(reply.payload);
  return r.u64();
}

RpcEcClient::RpcEcClient(Bus& bus, NodeId node_id, NodeId master_node,
                         std::vector<NodeId> worker_of_server, std::size_t k, std::size_t n)
    : node_(started_node(bus, node_id, "ec-client-")),
      engine_(make_rpc_piece_store(bus, *node_, std::move(worker_of_server), kEcTimeout),
              make_rpc_layout_service(*node_, master_node, kEcTimeout), k, n) {}

}  // namespace spcache::rpc
