#include "apps/kmeans.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "util/error.h"
#include "util/rng.h"

namespace gw::apps {

namespace {

// GCC vector types: the compiler lowers them to the target's SIMD (SSE2 on
// x86-64, NEON on AArch64) or to scalar code, with no intrinsics.
using F4 = float __attribute__((vector_size(16)));
using I4 = std::int32_t __attribute__((vector_size(16)));

constexpr int kBlock = 8;  // centers per search step

// The CenterColumns search over `kBlock / lanes` accumulators of F (floats)
// and I (their center indices). Always inlined, so each caller compiles it
// for its own target.
template <class F, class I>
[[gnu::always_inline]] inline int nearest_in_columns(const float* point,
                                                     const float* cols, int d,
                                                     int stride) {
  constexpr int kLanes = sizeof(F) / sizeof(float);
  constexpr int kAcc = kBlock / kLanes;
  static_assert(kAcc * kLanes == kBlock);
  F p[kKmeansMaxDims] = {};
  // Center 0's distance seeds every lane, as the scalar loop's first step.
  float dist0 = 0.0f;
  for (int j = 0; j < d; ++j) {
    for (int l = 0; l < kLanes; ++l) p[j][l] = point[j];
    const float delta = point[j] - cols[static_cast<std::size_t>(j) * stride];
    dist0 += delta * delta;
  }
  F best[kAcc] = {};
  I best_c[kAcc] = {};
  I c[kAcc] = {};
  for (int a = 0; a < kAcc; ++a) {
    for (int l = 0; l < kLanes; ++l) {
      best[a][l] = dist0;
      c[a][l] = a * kLanes + l;
    }
  }
  for (int base = 0; base < stride; base += kBlock) {
    F dist[kAcc] = {};
    for (int j = 0; j < d; ++j) {
      const float* col = cols + static_cast<std::size_t>(j) * stride + base;
      for (int a = 0; a < kAcc; ++a) {
        F x = {};
        std::memcpy(&x, col + a * kLanes, sizeof(x));
        const F delta = p[j] - x;
        dist[a] += delta * delta;
      }
    }
    for (int a = 0; a < kAcc; ++a) {
      const I less = dist[a] < best[a];
      best[a] = less ? dist[a] : best[a];
      best_c[a] = less ? c[a] : best_c[a];
      c[a] += kBlock;
    }
  }
  // Smallest distance, ties to the lowest index. If center 0's distance is
  // NaN every lane still holds (NaN, 0), and no comparison moves off it.
  float best_dist = best[0][0];
  int best_center = best_c[0][0];
  for (int a = 0; a < kAcc; ++a) {
    for (int l = 0; l < kLanes; ++l) {
      const float x = best[a][l];
      const int i = best_c[a][l];
      if (x < best_dist || (x == best_dist && i < best_center)) {
        best_dist = x;
        best_center = i;
      }
    }
  }
  return best_center;
}

using SearchFn = int (*)(const float*, const float*, int, int);

int search_4x2(const float* point, const float* cols, int d, int stride) {
  return nearest_in_columns<F4, I4>(point, cols, d, stride);
}

#if defined(__x86_64__)
// One 8-lane accumulator on hosts with AVX2. Only this function sees the
// 8-lane types, so the default x86-64 target never splits them.
using F8 = float __attribute__((vector_size(32)));
using I8 = std::int32_t __attribute__((vector_size(32)));

[[gnu::target("avx2")]] int search_8x1(const float* point, const float* cols,
                                       int d, int stride) {
  return nearest_in_columns<F8, I8>(point, cols, d, stride);
}
#endif

SearchFn pick_search() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return search_8x1;
#endif
  return search_4x2;
}

// Value payload: d float sums + u32 count, written to `out`.
constexpr std::size_t kMaxValueBytes = kKmeansMaxDims * 4 + 4;

std::string_view encode_partial(const float* sums, int d, std::uint32_t count,
                                char (&out)[kMaxValueBytes]) {
  const std::size_t n = static_cast<std::size_t>(d) * 4;
  std::memcpy(out, sums, n);
  store_be32(out + n, count);
  return {out, n + 4};
}

}  // namespace

int nearest_center(const float* point, const float* centers, int k, int d) {
  int best = 0;
  float best_dist = 0;
  for (int c = 0; c < k; ++c) {
    float dist = 0;
    for (int j = 0; j < d; ++j) {
      const float delta = point[j] - centers[static_cast<std::size_t>(c) * d + j];
      dist += delta * delta;
    }
    if (c == 0 || dist < best_dist) {
      best_dist = dist;
      best = c;
    }
  }
  return best;
}

CenterColumns::CenterColumns(const std::vector<float>& centers, int k, int d)
    : d_(d), stride_((k + kBlock - 1) / kBlock * kBlock) {
  GW_CHECK(k >= 1 && d >= 1 && d <= kKmeansMaxDims);
  GW_CHECK(centers.size() == static_cast<std::size_t>(k) * d);
  cols_.assign(static_cast<std::size_t>(d) * stride_,
               std::numeric_limits<float>::quiet_NaN());
  for (int c = 0; c < k; ++c) {
    for (int j = 0; j < d; ++j) {
      cols_[static_cast<std::size_t>(j) * stride_ + c] =
          centers[static_cast<std::size_t>(c) * d + j];
    }
  }
}

int CenterColumns::nearest(const float* point) const {
  static const SearchFn search = pick_search();
  return search(point, cols_.data(), d_, stride_);
}

int CenterColumns::nearest_4x2(const float* point) const {
  return search_4x2(point, cols_.data(), d_, stride_);
}

AppSpec kmeans(KmeansConfig config, std::vector<float> centers) {
  GW_CHECK(static_cast<int>(centers.size()) == config.k * config.dims);
  const int k = config.k;
  const int d = config.dims;
  auto columns = std::make_shared<const CenterColumns>(centers, k, d);

  AppSpec spec;
  spec.kernels.name = "kmeans";
  spec.kernels.fixed_record_size = static_cast<std::uint64_t>(d) * 4;

  spec.kernels.map = [k, d, columns](std::string_view record,
                                     core::MapContext& ctx) {
    GW_CHECK(record.size() == static_cast<std::size_t>(d) * 4);
    float point[kKmeansMaxDims];
    std::memcpy(point, record.data(), record.size());
    // k*d multiply-add-compare distance evaluations plus fixed per-point
    // work-item overhead (point load, index math, argmin bookkeeping) —
    // which dominates for small center counts, as the paper's 16-center
    // configuration shows (§IV-A2).
    ctx.charge_ops(static_cast<std::uint64_t>(3 * k) * d + 800);
    char key[4];
    store_be32(key, static_cast<std::uint32_t>(columns->nearest(point)));
    char value[kMaxValueBytes];
    ctx.emit(std::string_view(key, sizeof(key)),
             encode_partial(point, d, 1, value));
  };

  auto aggregate = [d](std::string_view /*key*/,
                       const std::vector<std::string_view>& values,
                       float* sums, std::uint64_t* count) {
    for (int j = 0; j < d; ++j) sums[j] = 0;
    *count = 0;
    for (auto v : values) {
      GW_CHECK(v.size() == static_cast<std::size_t>(d) * 4 + 4);
      for (int j = 0; j < d; ++j) sums[j] += read_f32(v.data() + 4 * j);
      *count += get_be32(v.substr(static_cast<std::size_t>(d) * 4));
    }
  };

  spec.kernels.combine = [d, aggregate](
                             std::string_view key,
                             const std::vector<std::string_view>& values,
                             core::ReduceContext& ctx) {
    float sums[kKmeansMaxDims];
    std::uint64_t count = 0;
    aggregate(key, values, sums, &count);
    ctx.charge_ops(static_cast<std::uint64_t>(values.size()) * (d + 1));
    char value[kMaxValueBytes];
    ctx.emit(key, encode_partial(sums, d, static_cast<std::uint32_t>(count),
                                 value));
  };
  // Float accumulation is order-sensitive; hierarchical combining regroups
  // partials, so byte-identical output across modes is NOT guaranteed.
  // Left unset: combine_mode degrades to kOff for this app.
  spec.kernels.combine_associative = false;

  spec.kernels.reduce = [d, aggregate](
                            std::string_view key,
                            const std::vector<std::string_view>& values,
                            core::ReduceContext& ctx) {
    float sums[kKmeansMaxDims];
    std::uint64_t count = 0;
    aggregate(key, values, sums, &count);
    ctx.charge_ops(static_cast<std::uint64_t>(values.size()) * (d + 1));
    float means[kKmeansMaxDims];
    for (int j = 0; j < d; ++j) {
      means[j] = count > 0 ? sums[j] / static_cast<float>(count) : 0.0f;
    }
    char value[kMaxValueBytes];
    ctx.emit(key, encode_partial(means, d, static_cast<std::uint32_t>(count),
                                 value));
  };

  return spec;
}

std::vector<float> generate_centers(const KmeansConfig& config,
                                    std::uint64_t seed) {
  util::Rng rng(seed ^ 0xc0ffee);
  std::vector<float> centers(static_cast<std::size_t>(config.k) * config.dims);
  for (auto& c : centers) {
    c = static_cast<float>(rng.uniform(0.0, 100.0));
  }
  return centers;
}

util::Bytes generate_points(const KmeansConfig& config, std::uint64_t points,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes data;
  data.reserve(points * config.dims * 4);
  for (std::uint64_t p = 0; p < points; ++p) {
    for (int j = 0; j < config.dims; ++j) {
      const float v = static_cast<float>(rng.uniform(0.0, 100.0));
      const auto* bytes = reinterpret_cast<const std::uint8_t*>(&v);
      data.insert(data.end(), bytes, bytes + 4);
    }
  }
  return data;
}

KmeansReference kmeans_reference(const KmeansConfig& config,
                                 const std::vector<float>& centers,
                                 const util::Bytes& points) {
  const int k = config.k;
  const int d = config.dims;
  GW_CHECK(d >= 1 && d <= kKmeansMaxDims);
  KmeansReference ref;
  ref.counts.assign(k, 0);
  std::vector<double> sums(static_cast<std::size_t>(k) * d, 0.0);
  const std::size_t record = static_cast<std::size_t>(d) * 4;
  for (std::size_t off = 0; off + record <= points.size(); off += record) {
    float point[kKmeansMaxDims];
    std::memcpy(point, points.data() + off, record);
    const int best = nearest_center(point, centers.data(), k, d);
    ref.counts[best]++;
    for (int j = 0; j < d; ++j) {
      sums[static_cast<std::size_t>(best) * d + j] += point[j];
    }
  }
  ref.means.assign(static_cast<std::size_t>(k) * d, 0.0f);
  for (int c = 0; c < k; ++c) {
    if (ref.counts[c] == 0) continue;
    for (int j = 0; j < d; ++j) {
      ref.means[static_cast<std::size_t>(c) * d + j] = static_cast<float>(
          sums[static_cast<std::size_t>(c) * d + j] /
          static_cast<double>(ref.counts[c]));
    }
  }
  return ref;
}

util::Bytes encode_kmeans_state(const std::vector<float>& centers,
                                const std::vector<std::uint64_t>& counts) {
  std::string out;
  out.reserve(centers.size() * 4 + counts.size() * 8);
  for (float c : centers) append_f32(out, c);
  for (std::uint64_t n : counts) put_be64(out, n);
  return util::Bytes(out.begin(), out.end());
}

void decode_kmeans_state(const KmeansConfig& config, const util::Bytes& state,
                         std::vector<float>* centers,
                         std::vector<std::uint64_t>* counts) {
  const std::size_t k = static_cast<std::size_t>(config.k);
  const std::size_t kd = k * static_cast<std::size_t>(config.dims);
  GW_CHECK_MSG(state.size() == kd * 4 + k * 8, "bad kmeans broadcast payload");
  const std::string_view view(reinterpret_cast<const char*>(state.data()),
                              state.size());
  centers->resize(kd);
  for (std::size_t i = 0; i < kd; ++i) {
    (*centers)[i] = read_f32(view.data() + i * 4);
  }
  counts->resize(k);
  for (std::size_t c = 0; c < k; ++c) {
    (*counts)[c] = get_be64(view.substr(kd * 4 + c * 8));
  }
}

KmeansDagResult kmeans_dag(core::GlasswingRuntime& runtime,
                           cluster::Platform& platform, dfs::FileSystem& fs,
                           KmeansConfig config,
                           std::vector<float> initial_centers,
                           const std::string& points_path,
                           const std::string& output_prefix, int iterations,
                           core::JobConfig base, core::EdgeKind edge,
                           bool pin_inputs, std::uint64_t pin_budget_bytes,
                           std::vector<core::DagConfig::RoundCrash>
                               round_crashes) {
  GW_CHECK(iterations >= 1);
  const int k = config.k;
  const int d = config.dims;

  core::DagConfig dc;
  dc.input_paths = {points_path};
  dc.output_root = output_prefix;
  dc.base = std::move(base);
  dc.pin_inputs = pin_inputs;
  dc.pin_budget_bytes = pin_budget_bytes;
  dc.round_crashes = std::move(round_crashes);
  dc.initial_broadcast = encode_kmeans_state(
      initial_centers, std::vector<std::uint64_t>(static_cast<std::size_t>(k)));

  core::JobDag dag(runtime, platform, fs, dc);
  core::RoundSpec round;
  round.name = "kmeans";
  round.edge = edge;
  round.app = [config](const core::DagRoundState& st) {
    std::vector<float> centers;
    std::vector<std::uint64_t> counts;
    decode_kmeans_state(config, st.broadcast, &centers, &counts);
    return kmeans(config, std::move(centers)).kernels;
  };
  // Every iteration re-reads the full point set (the pinned input cache, if
  // enabled, absorbs the repeats).
  round.inputs = [points_path](const core::DagRoundState&) {
    return std::vector<std::string>{points_path};
  };
  round.tune = [output_prefix](core::JobConfig& cfg,
                               const core::DagRoundState& st) {
    cfg.output_path = output_prefix + "/iter-" + std::to_string(st.round);
  };
  // The re-broadcast step: fold the round's (center-id -> means, count)
  // pairs into the carried state. Centers with no members keep their old
  // position, exactly like the legacy hand-rolled loop.
  round.broadcast = [config, k, d](const core::DagRoundState& st,
                                   const core::RoundPairs& pairs) {
    std::vector<float> centers;
    std::vector<std::uint64_t> counts;
    decode_kmeans_state(config, st.broadcast, &centers, &counts);
    counts.assign(static_cast<std::size_t>(k), 0);
    for (const auto& [key, value] : pairs) {
      const std::uint32_t cid = get_be32(key);
      GW_CHECK(cid < static_cast<std::uint32_t>(k));
      counts[cid] = get_be32(
          std::string_view(value).substr(static_cast<std::size_t>(d) * 4));
      if (counts[cid] > 0) {
        for (int j = 0; j < d; ++j) {
          centers[static_cast<std::size_t>(cid) * d + j] =
              read_f32(value.data() + 4 * j);
        }
      }
    }
    return encode_kmeans_state(centers, counts);
  };
  dag.add_round(std::move(round));
  dag.until(nullptr, iterations);

  KmeansDagResult out;
  out.dag = dag.run();
  decode_kmeans_state(config, out.dag.final_broadcast,
                      &out.iterations.centers, &out.iterations.counts);
  out.iterations.iterations = out.dag.iterations;
  for (const auto& r : out.dag.rounds) {
    out.iterations.total_elapsed_seconds += r.job.elapsed_seconds;
  }
  return out;
}

}  // namespace gw::apps
