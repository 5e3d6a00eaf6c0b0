// Unit tests for PairList / Run / merge machinery.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kv.h"
#include "util/rng.h"

namespace gw::core {
namespace {

TEST(PairList, AddAndGet) {
  PairList pl;
  pl.add("apple", "1");
  pl.add("banana", "22");
  pl.add("", "empty-key");
  pl.add("k", "");
  ASSERT_EQ(pl.size(), 4u);
  EXPECT_EQ(pl.get(0).key, "apple");
  EXPECT_EQ(pl.get(0).value, "1");
  EXPECT_EQ(pl.get(1).key, "banana");
  EXPECT_EQ(pl.get(1).value, "22");
  EXPECT_EQ(pl.get(2).key, "");
  EXPECT_EQ(pl.get(2).value, "empty-key");
  EXPECT_EQ(pl.get(3).key, "k");
  EXPECT_EQ(pl.get(3).value, "");
  EXPECT_EQ(pl.payload_bytes(), 5u + 1 + 6 + 2 + 9 + 1);
}

TEST(PairList, SortByKeyIsStable) {
  PairList pl;
  pl.add("b", "1");
  pl.add("a", "1");
  pl.add("b", "2");
  pl.add("a", "2");
  pl.sort_by_key();
  EXPECT_EQ(pl.get(0).key, "a");
  EXPECT_EQ(pl.get(0).value, "1");
  EXPECT_EQ(pl.get(1).value, "2");
  EXPECT_EQ(pl.get(2).key, "b");
  EXPECT_EQ(pl.get(2).value, "1");
  EXPECT_EQ(pl.get(3).value, "2");
}

TEST(PairList, AppendPreservesPairs) {
  PairList a, b;
  a.add("x", "1");
  b.add("y", "2");
  b.add("z", "3");
  a.append(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.get(1).key, "y");
  EXPECT_EQ(a.get(2).key, "z");
}

TEST(Run, BuilderReaderRoundTrip) {
  RunBuilder rb;
  rb.add("a", "1");
  rb.add("b", "two");
  rb.add("c", std::string(1000, 'x'));
  gw::core::Run run = rb.finish(false);
  EXPECT_EQ(run.pairs, 3u);
  EXPECT_FALSE(run.compressed);
  RunReader reader(run);
  KV kv;
  ASSERT_TRUE(reader.next(&kv));
  EXPECT_EQ(kv.key, "a");
  ASSERT_TRUE(reader.next(&kv));
  EXPECT_EQ(kv.value, "two");
  ASSERT_TRUE(reader.next(&kv));
  EXPECT_EQ(kv.value.size(), 1000u);
  EXPECT_FALSE(reader.next(&kv));
}

TEST(Run, CompressedRoundTripAndShrinks) {
  RunBuilder rb;
  for (int i = 0; i < 1000; ++i) rb.add("repeated-key", "repeated-value");
  const std::uint64_t raw = rb.raw_bytes();
  gw::core::Run run = rb.finish(true);
  EXPECT_TRUE(run.compressed);
  EXPECT_LT(run.stored_bytes(), raw / 3);
  EXPECT_EQ(run.raw_bytes, raw);
  RunReader reader(run);
  KV kv;
  int n = 0;
  while (reader.next(&kv)) {
    EXPECT_EQ(kv.key, "repeated-key");
    ++n;
  }
  EXPECT_EQ(n, 1000);
}

TEST(Run, SerializeDeserialize) {
  RunBuilder rb;
  rb.add("k1", "v1");
  rb.add("k2", "v2");
  gw::core::Run run = rb.finish(true);
  util::ByteWriter w;
  run.serialize(w);
  util::ByteReader r(w.buffer());
  gw::core::Run back = gw::core::Run::deserialize(r);
  EXPECT_EQ(back.pairs, run.pairs);
  EXPECT_EQ(back.compressed, run.compressed);
  EXPECT_EQ(back.raw_bytes, run.raw_bytes);
  EXPECT_EQ(back.data, run.data);
}

// take_serialized writes a u32 prefix and serialize()'s bytes into the
// run's own buffer; adopt_serialized takes them back without a copy.
TEST(Run, TakeSerializedFramesInPlace) {
  RunBuilder rb;
  for (int i = 0; i < 1000; ++i) {
    rb.add("key" + std::to_string(10000 + i), "value" + std::to_string(i));
  }
  gw::core::Run built = rb.finish(true);
  const gw::core::Run run = built;
  util::ByteWriter w;
  w.buffer().reserve(run.data.size() + 64);
  w.put_u32(77);
  run.serialize(w);

  // RunBuilder leaves headroom for the header: the frame is the run's
  // buffer.
  const std::uint8_t* payload = built.data.data();
  util::Bytes frame = std::move(built).take_serialized(77);
  EXPECT_EQ(frame, w.buffer());
  EXPECT_EQ(frame.data(), payload);
  gw::core::Run back = gw::core::Run::adopt_serialized(std::move(frame), 4);
  EXPECT_EQ(back.data.data(), payload);
  EXPECT_EQ(back.pairs, run.pairs);
  EXPECT_EQ(back.compressed, run.compressed);
  EXPECT_EQ(back.raw_bytes, run.raw_bytes);
  EXPECT_EQ(back.data, run.data);

  // A plain copy has none: its frame is regrown to exactly the frame size.
  util::Bytes copied = gw::core::Run(run).take_serialized(77);
  EXPECT_EQ(copied, w.buffer());
  EXPECT_EQ(copied.capacity(), copied.size());
}

TEST(Merge, TwoSortedRunsInterleave) {
  RunBuilder a, b;
  a.add("a", "1");
  a.add("c", "1");
  a.add("e", "1");
  b.add("b", "2");
  b.add("d", "2");
  std::vector<gw::core::Run> runs;
  runs.push_back(a.finish(false));
  runs.push_back(b.finish(false));
  gw::core::Run merged = merge_runs(runs, false);
  EXPECT_EQ(merged.pairs, 5u);
  RunReader reader(merged);
  KV kv;
  std::string keys;
  while (reader.next(&kv)) keys += kv.key;
  EXPECT_EQ(keys, "abcde");
}

TEST(Merge, DuplicateKeysStableByRunIndex) {
  RunBuilder a, b;
  a.add("k", "from-a");
  b.add("k", "from-b");
  std::vector<gw::core::Run> runs;
  runs.push_back(a.finish(false));
  runs.push_back(b.finish(false));
  gw::core::Run merged = merge_runs(runs, false);
  RunReader reader(merged);
  KV kv;
  ASSERT_TRUE(reader.next(&kv));
  EXPECT_EQ(kv.value, "from-a");
  ASSERT_TRUE(reader.next(&kv));
  EXPECT_EQ(kv.value, "from-b");
}

TEST(Merge, EmptyInputsProduceEmptyRun) {
  std::vector<gw::core::Run> runs;
  gw::core::Run merged = merge_runs(runs, false);
  EXPECT_TRUE(merged.empty());
  RunReader reader(merged);
  KV kv;
  EXPECT_FALSE(reader.next(&kv));
}

TEST(Merge, ManyRunsRandomized) {
  util::Rng rng(77);
  std::vector<gw::core::Run> runs;
  std::vector<std::string> all_keys;
  for (int r = 0; r < 10; ++r) {
    std::vector<std::string> keys;
    for (int i = 0; i < 200; ++i) {
      keys.push_back("key" + std::to_string(rng.below(100000)));
    }
    std::sort(keys.begin(), keys.end());
    RunBuilder rb;
    for (const auto& k : keys) {
      rb.add(k, "v");
      all_keys.push_back(k);
    }
    runs.push_back(rb.finish(r % 2 == 0));
  }
  std::sort(all_keys.begin(), all_keys.end());
  gw::core::Run merged = merge_runs(runs, true);
  EXPECT_EQ(merged.pairs, all_keys.size());
  RunReader reader(merged);
  KV kv;
  std::size_t i = 0;
  std::string prev;
  while (reader.next(&kv)) {
    EXPECT_GE(kv.key, prev);
    EXPECT_EQ(kv.key, all_keys[i]);
    prev = std::string(kv.key);
    ++i;
  }
  EXPECT_EQ(i, all_keys.size());
}

}  // namespace
}  // namespace gw::core
