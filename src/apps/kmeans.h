// K-Means clustering (KM), one iteration (paper §IV-A2).
//
// Compute-bound: each map work-item assigns one observation to its nearest
// center (k distance computations over d dimensions); the combiner/reducer
// aggregate per-center partial sums and the reduce emits the new center.
// The paper evaluates 2^20+ single-precision points in 4 dimensions with
// 1024 (and 16) centers; centers are broadcast to all nodes (Hadoop uses
// the DistributedCache for the same purpose).
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "core/dag.h"
#include "core/job.h"
#include "util/bytes.h"

namespace gw::apps {

// Points and partial sums live in fixed stack buffers of this many floats.
constexpr int kKmeansMaxDims = 16;

struct KmeansConfig {
  int k = 1024;        // number of centers
  int dims = 4;        // dimensions, at most kKmeansMaxDims
};

// Point record: dims floats. Value format: dims float partial sums + u32
// count. Reduce emits (center-id, dims float means + u32 count).
AppSpec kmeans(KmeansConfig config, std::vector<float> centers);

// Scalar nearest-center search over `k * d` row-major centers: the lowest
// index with the smallest squared distance. A NaN distance never wins, and
// a NaN distance to center 0 makes center 0 the answer. The oracle for
// CenterColumns::nearest, and the search kmeans_reference uses.
int nearest_center(const float* point, const float* centers, int k, int d);

// One round's centers transposed into `d` columns of `stride` floats
// (`k` rounded up to 8), searched 8 centers per step in SIMD lanes. Pad
// slots hold NaN, so they never win. Both searches return exactly what
// nearest_center returns, NaN and ±inf coordinates included: each lane
// computes its distance with the scalar op sequence, updates only on a
// strict `<`, and the lanes reduce with ties going to the lowest index.
class CenterColumns {
 public:
  CenterColumns(const std::vector<float>& centers, int k, int d);
  // The search the map kernel runs: one 8-lane AVX2 accumulator on x86-64
  // hosts that have AVX2 (checked once per process), else nearest_4x2.
  int nearest(const float* point) const;
  // The portable search: two 4-lane accumulators in GCC vector types.
  // Public so that tests cover it on every host.
  int nearest_4x2(const float* point) const;

 private:
  int d_;
  int stride_;
  std::vector<float> cols_;  // cols_[j * stride_ + c] = centers[c * d + j]
};

// `k * dims` floats, deterministic from the seed, in [0, 100).
std::vector<float> generate_centers(const KmeansConfig& config,
                                    std::uint64_t seed);

// `points * dims` floats as a binary file of fixed-size records.
util::Bytes generate_points(const KmeansConfig& config, std::uint64_t points,
                            std::uint64_t seed);

// Multi-iteration driver (the paper runs one iteration "since this shows
// the performance well"; real uses chain jobs, re-broadcasting the updated
// centers each round like Hadoop's DistributedCache).
struct KmeansIterations {
  std::vector<float> centers;          // final centers (k * dims)
  std::vector<std::uint64_t> counts;   // final per-center membership
  double total_elapsed_seconds = 0;
  int iterations = 0;
};

// Broadcast payload codec for the per-round driver state: k*d f32 centers
// followed by k be64 membership counts.
util::Bytes encode_kmeans_state(const std::vector<float>& centers,
                                const std::vector<std::uint64_t>& counts);
void decode_kmeans_state(const KmeansConfig& config, const util::Bytes& state,
                         std::vector<float>* centers,
                         std::vector<std::uint64_t>* counts);

struct KmeansDagResult {
  KmeansIterations iterations;
  core::DagResult dag;
};

// K-means as a fixed-point DAG loop: one looping round whose map bakes in
// the broadcast centers, with the updated centers extracted from the round
// output and re-broadcast. `edge` picks where each iteration's (tiny)
// center file lives; `pin_inputs` caches the re-read point splits in pinned
// memory so iterations 1..n-1 skip the DFS read path. `round_crashes`
// kills nodes inside given iterations (DagConfig::round_crashes).
KmeansDagResult kmeans_dag(core::GlasswingRuntime& runtime,
                           cluster::Platform& platform, dfs::FileSystem& fs,
                           KmeansConfig config,
                           std::vector<float> initial_centers,
                           const std::string& points_path,
                           const std::string& output_prefix, int iterations,
                           core::JobConfig base,
                           core::EdgeKind edge = core::EdgeKind::kCheckpoint,
                           bool pin_inputs = false,
                           std::uint64_t pin_budget_bytes = 0,
                           std::vector<core::DagConfig::RoundCrash>
                               round_crashes = {});

struct KmeansReference {
  std::vector<std::uint64_t> counts;     // per center
  std::vector<float> means;              // k * dims (0 when count == 0)
};

// Direct single-threaded assignment + averaging for verification.
KmeansReference kmeans_reference(const KmeansConfig& config,
                                 const std::vector<float>& centers,
                                 const util::Bytes& points);

}  // namespace gw::apps
