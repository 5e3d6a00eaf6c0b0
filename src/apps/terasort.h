// TeraSort (TS): totally-ordered sort of 100-byte records (paper §IV-A1).
//
// Records are gensort-style: a 10-byte random key plus a 90-byte payload.
// The job's output must be totally ordered ACROSS partitions, so the input
// is sampled to estimate the key distribution and the map function places
// each key into the right range partition; no reduce function is needed —
// the output is fully processed by the end of the intermediate-data merge.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/common.h"
#include "core/dag.h"
#include "gwdfs/fs.h"
#include "sim/sim.h"
#include "util/bytes.h"

namespace gw::apps {

constexpr std::uint64_t kTeraRecordSize = 100;
constexpr std::uint64_t kTeraKeySize = 10;

// AppSpec with an identity map and NO reduce; the partition function must
// be installed separately (see sample_range_partitioner).
AppSpec terasort();

// Samples record keys from the inputs (charging the reads) and returns a
// monotone range partitioner: equal-frequency quantiles over the samples.
// Mirrors TeraSort's client-side sampling pre-pass.
sim::Task<core::PartitionFn> sample_range_partitioner(
    dfs::FileSystem& fs, int node, std::vector<std::string> paths,
    std::size_t samples_per_file);

// The partitioner sample_range_partitioner returns, over already sorted
// sample keys: a key's bucket is its std::upper_bound rank r among the
// samples scaled to equal-frequency quantiles, r * total / (samples + 1),
// capped at total - 1; 0 for every key when there are no samples.
core::PartitionFn quantile_range_partitioner(
    std::vector<std::string> sorted_samples);

// TeraSort as a two-round sample-sort DAG (the classic distribution sort):
// round 0 maps over the full input emitting every sample_every-th key
// (deterministic fnv1a selection) into one merge-sorted sample partition;
// the driver distills P-1 equal-frequency splitters from it and broadcasts
// them; round 1 re-reads the original input and range-partitions with the
// broadcast splitters. Replaces the client-side sampling pre-pass with a
// proper MapReduce round, as Hadoop's TeraSort does. The concatenation of
// round 1's partition files in index order is globally sorted.
//
// `sample_edge` picks where the (tiny) sample file lives between rounds;
// dag.input_paths / dag.output_root / dag.base must be filled by the caller
// (crash injection fields pass through).
core::DagResult terasort_dag(core::GlasswingRuntime& runtime,
                             cluster::Platform& platform, dfs::FileSystem& fs,
                             core::DagConfig dag,
                             core::EdgeKind sample_edge =
                                 core::EdgeKind::kPinned,
                             std::uint32_t sample_every = 64);

// Decodes splitters and returns the monotone range partitioner used by
// terasort_dag's sort round (exposed for tests).
util::Bytes encode_splitters(const std::vector<std::string>& splitters);
std::vector<std::string> decode_splitters(const util::Bytes& payload);
core::PartitionFn splitter_range_partitioner(std::vector<std::string> splitters);

// Generates `records` gensort-like records.
util::Bytes generate_terasort(std::uint64_t records, std::uint64_t seed);

// Verification helpers: multiset checksum (order-independent) and record
// count; outputs must be sorted per file, globally ordered across partition
// indices, and checksum/count-preserving.
std::uint64_t terasort_checksum(const util::Bytes& data);

}  // namespace gw::apps
