#include "adio/hints.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace e10::adio {
namespace {

using namespace e10::units;

TEST(Hints, DefaultsMatchRomio) {
  const Hints h;
  EXPECT_EQ(h.romio_cb_write, Toggle::automatic);
  EXPECT_EQ(h.romio_cb_read, Toggle::automatic);
  EXPECT_EQ(h.cb_buffer_size, 16 * MiB);
  EXPECT_EQ(h.cb_nodes, 0);  // one aggregator per node
  EXPECT_EQ(h.e10_cache, CacheMode::disable);
  EXPECT_EQ(h.e10_cache_flush_flag, cache::FlushPolicy::immediate);
  EXPECT_EQ(h.ind_wr_buffer_size, 512 * KiB);  // paper §IV fixes this value
}

TEST(Hints, ParsesTableOne) {
  mpi::Info info;
  info.set("romio_cb_write", "enable");
  info.set("romio_cb_read", "disable");
  info.set("cb_buffer_size", "4194304");
  info.set("cb_nodes", "16");
  const Hints h = Hints::parse(info).value();
  EXPECT_EQ(h.romio_cb_write, Toggle::enable);
  EXPECT_EQ(h.romio_cb_read, Toggle::disable);
  EXPECT_EQ(h.cb_buffer_size, 4 * MiB);
  EXPECT_EQ(h.cb_nodes, 16);
}

TEST(Hints, ParsesTableTwo) {
  mpi::Info info;
  info.set("e10_cache", "coherent");
  info.set("e10_cache_path", "/scratch/e10");
  info.set("e10_cache_flush_flag", "flush_onclose");
  info.set("e10_cache_discard_flag", "disable");
  info.set("ind_wr_buffer_size", "1048576");
  const Hints h = Hints::parse(info).value();
  EXPECT_EQ(h.e10_cache, CacheMode::coherent);
  EXPECT_EQ(h.e10_cache_path, "/scratch/e10");
  EXPECT_EQ(h.e10_cache_flush_flag, cache::FlushPolicy::onclose);
  EXPECT_FALSE(h.e10_cache_discard);
  EXPECT_EQ(h.ind_wr_buffer_size, 1 * MiB);
}

TEST(Hints, ParsesStripingHints) {
  mpi::Info info;
  info.set("striping_unit", "4194304");
  info.set("striping_factor", "4");
  const Hints h = Hints::parse(info).value();
  EXPECT_EQ(*h.striping_unit, 4 * MiB);
  EXPECT_EQ(*h.striping_factor, 4);
}

TEST(Hints, UnknownKeysIgnored) {
  mpi::Info info;
  info.set("some_future_hint", "whatever");
  EXPECT_TRUE(Hints::parse(info).is_ok());
}

TEST(Hints, MalformedValuesRejected) {
  const auto bad = [](const char* key, const char* value) {
    mpi::Info info;
    info.set(key, value);
    return Hints::parse(info).is_ok();
  };
  EXPECT_FALSE(bad("romio_cb_write", "maybe"));
  EXPECT_FALSE(bad("cb_buffer_size", "-4"));
  EXPECT_FALSE(bad("cb_buffer_size", "4MB"));
  EXPECT_FALSE(bad("cb_nodes", "0"));
  EXPECT_FALSE(bad("e10_cache", "on"));
  EXPECT_FALSE(bad("e10_cache_path", ""));
  EXPECT_FALSE(bad("e10_cache_flush_flag", "later"));
  EXPECT_FALSE(bad("e10_cache_discard_flag", "yes"));
  EXPECT_FALSE(bad("ind_wr_buffer_size", "big"));
}

TEST(Hints, RoundTripThroughInfo) {
  mpi::Info info;
  info.set("e10_cache", "enable");
  info.set("cb_buffer_size", "8388608");
  info.set("e10_cache_flush_flag", "flush_onclose");
  const Hints h = Hints::parse(info).value();
  const Hints again = Hints::parse(h.to_info()).value();
  EXPECT_EQ(again.e10_cache, CacheMode::enable);
  EXPECT_EQ(again.cb_buffer_size, 8 * MiB);
  EXPECT_EQ(again.e10_cache_flush_flag, cache::FlushPolicy::onclose);
}

TEST(Hints, TwoLevelFlagParsesAndEchoes) {
  // Default: disable — flat collective write, bit-for-bit.
  EXPECT_EQ(Hints().e10_two_level, Toggle::disable);
  mpi::Info info;
  info.set("e10_two_level_flag", "automatic");
  const Hints h = Hints::parse(info).value();
  EXPECT_EQ(h.e10_two_level, Toggle::automatic);
  // Echo round-trips through MPI_File_get_info.
  const Hints again = Hints::parse(h.to_info()).value();
  EXPECT_EQ(again.e10_two_level, Toggle::automatic);

  mpi::Info on;
  on.set("e10_two_level_flag", "enable");
  EXPECT_EQ(Hints::parse(on).value().e10_two_level, Toggle::enable);
  mpi::Info bad;
  bad.set("e10_two_level_flag", "sometimes");
  EXPECT_FALSE(Hints::parse(bad).is_ok());
}

TEST(Hints, TbwFlushNoneParses) {
  mpi::Info info;
  info.set("e10_cache_flush_flag", "none");
  EXPECT_EQ(Hints::parse(info).value().e10_cache_flush_flag,
            cache::FlushPolicy::none);
}

}  // namespace
}  // namespace e10::adio
