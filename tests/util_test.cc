// Unit and property tests for gw::util.
#include <algorithm>
#include <atomic>
#include <map>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/compress.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace gw::util {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, UniformIsInHalfOpenUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng root(3);
  Rng a = root.fork(0);
  Rng b = root.fork(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Zipf, RanksAreValidAndSkewed) {
  Rng rng(5);
  ZipfSampler zipf(1000, 1.0);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 50000; ++i) {
    const std::size_t r = zipf.sample(rng);
    ASSERT_LT(r, 1000u);
    counts[r]++;
  }
  // Rank 0 must dominate rank 99 by roughly 100x under s=1.
  EXPECT_GT(counts[0], 20 * std::max(counts[99], 1));
}

TEST(Zipf, HighExponentConcentrates) {
  Rng rng(6);
  ZipfSampler zipf(100, 2.5);
  int head = 0;
  for (int i = 0; i < 10000; ++i) head += (zipf.sample(rng) < 3);
  EXPECT_GT(head, 9000);
}

TEST(Hash, Fnv1aStable) {
  // Known FNV-1a vectors.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(std::string_view("foobar")), 0x85944171f73967e8ULL);
}

TEST(Hash, Mix64Avalanches) {
  // Flipping one input bit should flip ~half the output bits.
  int total = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = mix64(0x123456789abcdef0ULL);
    const std::uint64_t b = mix64(0x123456789abcdef0ULL ^ (1ULL << bit));
    total += __builtin_popcountll(a ^ b);
  }
  EXPECT_GT(total / 64, 20);
  EXPECT_LT(total / 64, 44);
}

TEST(Bytes, PrimitivesRoundTrip) {
  ByteWriter w;
  // Room for every write up front: GCC 12 warns (-Wstringop-overflow) on
  // the inlined growth of a vector this small.
  w.buffer().reserve(64);
  w.put_u8(0xab);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_f32(1.5f);
  w.put_f64(-2.25);
  w.put_str("hello world");
  ByteReader r(w.buffer());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_f32(), 1.5f);
  EXPECT_EQ(r.get_f64(), -2.25);
  EXPECT_EQ(r.get_str(), "hello world");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundTripBoundaries) {
  ByteWriter w;
  const std::uint64_t values[] = {0,    1,    127,   128,    16383, 16384,
                                  1u << 21, 1ull << 35, ~0ULL};
  for (auto v : values) w.put_varint(v);
  ByteReader r(w.buffer());
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintEncodingIsCompact) {
  ByteWriter w;
  w.put_varint(127);
  EXPECT_EQ(w.size(), 1u);
  w.put_varint(128);
  EXPECT_EQ(w.size(), 3u);
}

TEST(Bytes, TruncatedReadThrows) {
  ByteWriter w;
  w.put_u32(7);
  ByteReader r(w.buffer());
  r.get_u32();
  EXPECT_THROW(r.get_u8(), Error);
}

TEST(Compress, EmptyInput) {
  Bytes c = lz_compress(nullptr, 0);
  Bytes d = lz_decompress(c);
  EXPECT_TRUE(d.empty());
}

TEST(Compress, ShortIncompressibleRoundTrip) {
  Bytes in = {1, 2, 3};
  EXPECT_EQ(lz_decompress(lz_compress(in)), in);
}

TEST(Compress, RepetitiveInputShrinks) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "the quick brown fox ";
  Bytes in(s.begin(), s.end());
  Bytes c = lz_compress(in);
  EXPECT_LT(c.size(), in.size() / 4);
  EXPECT_EQ(lz_decompress(c), in);
}

TEST(Compress, RandomDataRoundTrip) {
  Rng rng(99);
  Bytes in(100000);
  for (auto& b : in) b = static_cast<std::uint8_t>(rng.next());
  Bytes c = lz_compress(in);
  EXPECT_EQ(lz_decompress(c), in);
}

// Property sweep: round-trip across sizes and redundancy mixes.
class CompressRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CompressRoundTrip, Holds) {
  const auto [size, redundancy_pct] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) * 131 + redundancy_pct);
  Bytes in;
  in.reserve(size);
  while (in.size() < static_cast<std::size_t>(size)) {
    if (static_cast<int>(rng.below(100)) < redundancy_pct && in.size() > 16) {
      // Copy an earlier run to create matchable redundancy.
      const std::size_t start = rng.below(in.size() - 8);
      const std::size_t len = 4 + rng.below(32);
      for (std::size_t i = 0; i < len && in.size() < (std::size_t)size; ++i) {
        in.push_back(in[start + (i % 8)]);
      }
    } else {
      in.push_back(static_cast<std::uint8_t>(rng.next()));
    }
  }
  EXPECT_EQ(lz_decompress(lz_compress(in)), in);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, CompressRoundTrip,
    ::testing::Combine(::testing::Values(1, 5, 64, 1000, 65537, 300000),
                       ::testing::Values(0, 50, 95)));

// The codec keeps matcher state between calls, so each input's compressed
// bytes must not depend on what was compressed before it, nor on which
// thread runs it. The digest pins the bytes themselves.
TEST(Compress, OutputIndependentOfCallHistory) {
  Rng rng(1507);
  std::vector<Bytes> inputs = {{}, {7, 7, 7}};
  // ~500-byte runs of framed terasort records (10-byte printable key,
  // 90-byte payload of a record number plus filler), as partitions ship.
  for (int run = 0; run < 6; ++run) {
    Bytes b;
    const std::uint64_t records = 4 + rng.below(3);
    for (std::uint64_t rec = 0; rec < records; ++rec) {
      b.push_back(10);
      b.push_back(90);
      for (int i = 0; i < 10; ++i) {
        b.push_back(static_cast<std::uint8_t>(' ' + rng.below(95)));
      }
      std::string payload = std::to_string(rng.below(1000000));
      payload.resize(90, 'x');
      b.insert(b.end(), payload.begin(), payload.end());
    }
    inputs.push_back(std::move(b));
  }
  const std::vector<std::string> words = {"map", "reduce", "the", "shuffle",
                                          "glasswing", "of", "partition"};
  Bytes text;
  while (text.size() < (64 << 10) + 1) {
    const std::string& w = words[rng.below(words.size())];
    text.insert(text.end(), w.begin(), w.end());
    text.push_back(' ');
  }
  text.resize((64 << 10) + 1);
  inputs.push_back(std::move(text));
  Bytes noise(1 << 20);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next());
  inputs.push_back(std::move(noise));

  std::vector<Bytes> forward;
  for (const Bytes& in : inputs) forward.push_back(lz_compress(in));
  std::vector<Bytes> backward(inputs.size());
  for (std::size_t i = inputs.size(); i-- > 0;) {
    backward[i] = lz_compress(inputs[i]);
  }
  std::vector<Bytes> pooled = ThreadPool::global()
                                  .submit([&inputs] {
                                    std::vector<Bytes> out;
                                    for (const Bytes& in : inputs) {
                                      out.push_back(lz_compress(in));
                                    }
                                    return out;
                                  })
                                  .get();

  std::uint64_t digest = fnv1a(std::string_view{});
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(backward[i], forward[i]) << "input " << i;
    EXPECT_EQ(pooled[i], forward[i]) << "input " << i;
    EXPECT_EQ(lz_decompress(forward[i]), inputs[i]) << "input " << i;
    digest = fnv1a(forward[i].data(), forward[i].size(), digest);
  }
  EXPECT_EQ(digest, 0x4d16017d7f6a9552ull);
}

TEST(Compress, CorruptInputThrows) {
  std::string s(1000, 'x');
  Bytes c = lz_compress(s.data(), s.size());
  c.resize(c.size() / 2);
  EXPECT_THROW(lz_decompress(c), Error);
}

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi, std::size_t) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<long> sum{0};
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi, std::size_t) {
      long local = 0;
      for (std::size_t i = lo; i < hi; ++i) local += static_cast<long>(i);
      sum += local;
    });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(RunningStat, Moments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);
}

}  // namespace
}  // namespace gw::util
