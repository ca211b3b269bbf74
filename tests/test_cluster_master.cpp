// SP-Master metadata service unit tests (registration, lookup semantics,
// popularity snapshots, concurrency).
#include "cluster/master.h"

#include <gtest/gtest.h>

#include "cluster/client_seam.h"
#include "common/thread_pool.h"

namespace spcache {
namespace {

FileMeta make_meta(Bytes size, std::vector<std::uint32_t> servers) {
  FileMeta meta;
  meta.size = size;
  meta.piece_sizes.assign(servers.size(), size / servers.size());
  meta.servers = std::move(servers);
  meta.file_crc = 0xABCD1234;
  return meta;
}

TEST(Master, RegisterAndPeek) {
  Master m;
  m.register_file(1, make_meta(100 * kKB, {0, 1}));
  const auto meta = m.peek(1);
  ASSERT_TRUE(meta.has_value());
  EXPECT_EQ(meta->size, 100 * kKB);
  EXPECT_EQ(meta->partitions(), 2u);
  EXPECT_FALSE(m.peek(2).has_value());
  EXPECT_EQ(m.file_count(), 1u);
}

TEST(Master, PeekDoesNotBumpCount) {
  Master m;
  m.register_file(1, make_meta(kKB, {0}));
  m.peek(1);
  m.peek(1);
  EXPECT_EQ(m.access_count(1), 0u);
}

TEST(Master, LookupBumpsCount) {
  Master m;
  m.register_file(1, make_meta(kKB, {0}));
  EXPECT_TRUE(m.lookup_for_read(1).has_value());
  EXPECT_TRUE(m.lookup_for_read(1).has_value());
  EXPECT_EQ(m.access_count(1), 2u);
  EXPECT_FALSE(m.lookup_for_read(9).has_value());  // unknown: no count
  EXPECT_EQ(m.access_count(9), 0u);
}

TEST(Master, UpdatePreservesCounts) {
  Master m;
  m.register_file(3, make_meta(kKB, {0}));
  m.lookup_for_read(3);
  m.update_file(3, make_meta(2 * kKB, {1, 2}));
  EXPECT_EQ(m.access_count(3), 1u);
  EXPECT_EQ(m.peek(3)->partitions(), 2u);
}

TEST(Master, UpdateFileIfRefusesStaleEpoch) {
  Master m;
  m.register_file(4, make_meta(kKB, {0}));
  const std::uint64_t stale = m.file_epoch(4);
  m.update_file(4, make_meta(kKB, {1}));  // another writer lands a layout
  const auto current = m.peek(4);

  EXPECT_FALSE(m.update_file_if(4, make_meta(2 * kKB, {2, 3}), stale));
  const auto after = m.peek(4);
  EXPECT_EQ(after->servers, current->servers);
  EXPECT_EQ(after->size, current->size);
  EXPECT_EQ(after->epoch, current->epoch);
  EXPECT_FALSE(m.update_file_if(9, make_meta(kKB, {0}), 0));  // unknown file

  // At the current epoch the swap lands, one epoch on.
  EXPECT_TRUE(m.update_file_if(4, make_meta(2 * kKB, {2, 3}), current->epoch));
  EXPECT_EQ(m.peek(4)->servers, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(m.file_epoch(4), current->epoch + 1);
}

TEST(Master, InprocCutoverRefusesAWriteLandingDuringTheSplice) {
  Master m;
  m.register_file(5, make_meta(kKB, {0}));
  const auto layouts = make_inproc_layout_service(m, nullptr);
  const auto before = m.peek(5);
  auto next = make_meta(kKB, {2, 3});
  next.epoch = before->epoch + 1;

  // Stale from the start: refused before the splice runs.
  bool spliced = false;
  bool retired = false;
  const auto retire = [&] { retired = true; };
  EXPECT_FALSE(
      layouts->cutover(5, before->epoch + 7, next, [&] { return spliced = true; }, retire));
  EXPECT_FALSE(spliced);

  // A client write takes no guard: landing during the splice, it must
  // still win over the cutover's swap.
  EXPECT_FALSE(layouts->cutover(
      5, before->epoch, next,
      [&] {
        m.update_file(5, make_meta(kKB, {1}));
        return true;
      },
      retire));
  EXPECT_EQ(m.peek(5)->servers, std::vector<std::uint32_t>{1});
  EXPECT_EQ(m.file_epoch(5), before->epoch + 1);

  // A failed splice swaps nothing either.
  EXPECT_FALSE(layouts->cutover(5, m.file_epoch(5), next, [] { return false; }, retire));
  EXPECT_EQ(m.peek(5)->servers, std::vector<std::uint32_t>{1});
  EXPECT_FALSE(retired);  // only a landed swap retires the old layout

  next.epoch = m.file_epoch(5) + 1;
  EXPECT_TRUE(layouts->cutover(5, m.file_epoch(5), next, [] { return true; }, retire));
  EXPECT_TRUE(retired);
  EXPECT_EQ(m.peek(5)->servers, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(m.file_epoch(5), before->epoch + 2);
}

TEST(Master, RemoveFile) {
  Master m;
  m.register_file(4, make_meta(kKB, {0}));
  EXPECT_TRUE(m.remove_file(4));
  EXPECT_FALSE(m.remove_file(4));
  EXPECT_FALSE(m.peek(4).has_value());
  EXPECT_EQ(m.file_count(), 0u);
}

TEST(Master, FileIdsSorted) {
  Master m;
  for (FileId f : {FileId{5}, FileId{1}, FileId{3}}) m.register_file(f, make_meta(kKB, {0}));
  EXPECT_EQ(m.file_ids(), (std::vector<FileId>{1, 3, 5}));
}

TEST(Master, SnapshotCatalogRatesFromCounts) {
  Master m;
  m.register_file(0, make_meta(10 * kKB, {0}));
  m.register_file(1, make_meta(20 * kKB, {1}));
  for (int i = 0; i < 120; ++i) m.lookup_for_read(0);
  for (int i = 0; i < 30; ++i) m.lookup_for_read(1);
  // 120 and 30 accesses over a 60 s window -> 2 and 0.5 req/s.
  const auto cat = m.snapshot_catalog(60.0);
  ASSERT_EQ(cat.size(), 2u);
  EXPECT_DOUBLE_EQ(cat.file(0).request_rate, 2.0);
  EXPECT_DOUBLE_EQ(cat.file(1).request_rate, 0.5);
  EXPECT_EQ(cat.file(1).size, 20 * kKB);
}

TEST(Master, SnapshotFloorsUnseenFiles) {
  Master m;
  m.register_file(0, make_meta(kKB, {0}));
  const auto cat = m.snapshot_catalog(10.0, 1e-3);
  EXPECT_DOUBLE_EQ(cat.file(0).request_rate, 1e-3);
}

TEST(Master, ResetAccessCounts) {
  Master m;
  m.register_file(0, make_meta(kKB, {0}));
  m.lookup_for_read(0);
  m.reset_access_counts();
  EXPECT_EQ(m.access_count(0), 0u);
}

TEST(Master, ConcurrentLookupsCountExactly) {
  Master m;
  m.register_file(7, make_meta(kKB, {0}));
  ThreadPool pool(8);
  pool.parallel_for(400, [&m](std::size_t) { (void)m.lookup_for_read(7); });
  EXPECT_EQ(m.access_count(7), 400u);
}

TEST(Master, ConcurrentRegistrationsAllLand) {
  Master m;
  ThreadPool pool(8);
  pool.parallel_for(200, [&m](std::size_t i) {
    m.register_file(static_cast<FileId>(i), make_meta(kKB, {static_cast<std::uint32_t>(i % 8)}));
  });
  EXPECT_EQ(m.file_count(), 200u);
}

}  // namespace
}  // namespace spcache
