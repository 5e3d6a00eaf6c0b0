// Property tests for the zero-copy host path: the prefix-cached sort and
// the loser-tree merge must be byte-identical to the straightforward
// reference implementations (kv_reference.h) across key-length edge cases,
// duplicate densities, compression settings, and input-run counts.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/kv.h"
#include "core/kv_reference.h"
#include "util/rng.h"

namespace gw::core {
namespace {

// Key lengths straddling the 8-byte prefix boundary, plus empty and long.
const std::vector<std::size_t> kKeyLengths = {0, 1, 7, 8, 9, 200};

std::string random_key(util::Rng& rng, std::size_t len,
                       std::size_t alphabet) {
  std::string s(len, '\0');
  // Small alphabets force equal prefixes (and embedded NULs exercise the
  // non-text comparison path).
  for (auto& ch : s) {
    ch = static_cast<char>(rng.below(alphabet));
  }
  return s;
}

PairList random_pairs(util::Rng& rng, std::size_t n, std::size_t alphabet,
                      bool duplicate_heavy) {
  std::vector<std::string> pool;
  if (duplicate_heavy) {
    for (std::size_t i = 0; i < std::max<std::size_t>(1, n / 8); ++i) {
      pool.push_back(random_key(
          rng, kKeyLengths[rng.below(kKeyLengths.size())], alphabet));
    }
  }
  PairList out;
  for (std::size_t i = 0; i < n; ++i) {
    std::string key =
        duplicate_heavy
            ? pool[rng.below(pool.size())]
            : random_key(rng, kKeyLengths[rng.below(kKeyLengths.size())],
                         alphabet);
    const std::string value = std::string("v").append(std::to_string(i));
    out.add(key, value);
  }
  return out;
}

void expect_same_pairs(const PairList& got, const PairList& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const KV g = got.get(i);
    const KV w = want.get(i);
    ASSERT_EQ(g.key, w.key) << "pair " << i;
    ASSERT_EQ(g.value, w.value) << "pair " << i;
  }
}

Run build_sorted_run(util::Rng& rng, std::size_t n, std::size_t alphabet,
                     bool duplicate_heavy, bool compress) {
  PairList pl = random_pairs(rng, n, alphabet, duplicate_heavy);
  pl.sort_by_key();
  RunBuilder rb;
  for (std::size_t i = 0; i < pl.size(); ++i) {
    const KV kv = pl.get(i);
    rb.add(kv.key, kv.value);
  }
  return rb.finish(compress);
}

void expect_same_run(const Run& got, const Run& want) {
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ(got.raw_bytes, want.raw_bytes);
  EXPECT_EQ(got.compressed, want.compressed);
  EXPECT_EQ(got.data, want.data);  // byte-identical payload
}

TEST(HostPathSort, MatchesReferenceAcrossKeyShapes) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (std::size_t alphabet : {2u, 7u, 256u}) {
      for (bool dup_heavy : {false, true}) {
        util::Rng rng(seed * 1000 + alphabet + (dup_heavy ? 1 : 0));
        PairList pl = random_pairs(rng, 500, alphabet, dup_heavy);
        const PairList want = reference::sorted_by_key(pl);
        pl.sort_by_key();
        expect_same_pairs(pl, want);
      }
    }
  }
}

TEST(HostPathSort, TinyLists) {
  PairList empty;
  empty.sort_by_key();
  EXPECT_EQ(empty.size(), 0u);

  PairList one;
  one.add("only", "1");
  one.sort_by_key();
  EXPECT_EQ(one.get(0).key, "only");
}

// Keys sharing an 8-byte prefix must be ordered by the bytes past it, then
// by length (shorter first), then by original position.
TEST(HostPathSort, PrefixBoundaryOrdering) {
  PairList pl;
  pl.add("12345678x", "a");
  pl.add("12345678", "b");
  pl.add("12345678xy", "c");
  pl.add("12345678", "d");
  pl.add("1234567", "e");
  const PairList want = reference::sorted_by_key(pl);
  pl.sort_by_key();
  expect_same_pairs(pl, want);
  EXPECT_EQ(pl.get(0).value, "e");
  EXPECT_EQ(pl.get(1).value, "b");  // equal keys keep emit order
  EXPECT_EQ(pl.get(2).value, "d");
}

TEST(HostPathMerge, MatchesReferenceAcrossFanins) {
  for (std::size_t fanin : {0u, 1u, 2u, 3u, 5u, 17u}) {
    for (bool compress_in : {false, true}) {
      for (bool compress_out : {false, true}) {
        util::Rng rng(99 * fanin + (compress_in ? 7 : 0) +
                      (compress_out ? 13 : 0));
        std::vector<core::Run> runs;
        for (std::size_t i = 0; i < fanin; ++i) {
          runs.push_back(
              build_sorted_run(rng, 50 + rng.below(100), 7, true, compress_in));
        }
        const core::Run got = merge_runs(runs, compress_out);
        const core::Run want = reference::merge_runs(runs, compress_out);
        expect_same_run(got, want);
      }
    }
  }
}

TEST(HostPathMerge, EmptyInputRunsAreSkipped) {
  util::Rng rng(5);
  std::vector<core::Run> runs;
  runs.push_back(RunBuilder().finish(false));  // empty
  runs.push_back(build_sorted_run(rng, 40, 7, false, false));
  runs.push_back(RunBuilder().finish(true));  // empty, compressed
  runs.push_back(build_sorted_run(rng, 40, 7, false, true));
  const core::Run got = merge_runs(runs, false);
  const core::Run want = reference::merge_runs(runs, false);
  expect_same_run(got, want);
}

TEST(HostPathMerge, AllEmpty) {
  std::vector<core::Run> runs(3);
  const core::Run got = merge_runs(runs, true);
  EXPECT_EQ(got.pairs, 0u);
  EXPECT_EQ(got.raw_bytes, 0u);
}

// Runs built from the same duplicated key: ties must resolve to the
// earlier input run, pair by pair.
TEST(HostPathMerge, TieBreakPrefersEarlierRun) {
  std::vector<core::Run> runs;
  for (int r = 0; r < 4; ++r) {
    RunBuilder rb;
    for (int i = 0; i < 3; ++i) {
      rb.add("same-key", "run" + std::to_string(r) + "#" + std::to_string(i));
    }
    runs.push_back(rb.finish(r % 2 == 1));
  }
  const core::Run got = merge_runs(runs, false);
  const core::Run want = reference::merge_runs(runs, false);
  expect_same_run(got, want);
  RunReader reader(got);
  KV kv;
  std::vector<std::string> values;
  while (reader.next(&kv)) values.emplace_back(kv.value);
  ASSERT_EQ(values.size(), 12u);
  EXPECT_EQ(values.front(), "run0#0");
  EXPECT_EQ(values[3], "run1#0");
  EXPECT_EQ(values.back(), "run3#2");
}

// The zero-copy append paths must produce the same framing as re-encoding.
TEST(HostPathZeroCopy, AddEncodedMatchesAdd) {
  util::Rng rng(42);
  PairList src = random_pairs(rng, 200, 7, true);
  PairList copied;
  RunBuilder direct, framed;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const PairList::PairView pv = src.pair_view(i);
    copied.add_encoded(pv);
    direct.add(pv.kv.key, pv.kv.value);
    framed.add_encoded(pv.encoded);
  }
  expect_same_pairs(copied, src);
  EXPECT_EQ(copied.payload_bytes(), src.payload_bytes());
  expect_same_run(framed.finish(false), direct.finish(false));
}

}  // namespace
}  // namespace gw::core
