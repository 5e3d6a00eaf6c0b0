#include "core/pipeline.h"

#include <algorithm>

#include "util/error.h"

namespace gw::core {

SplitScheduler::SplitScheduler(std::vector<InputSplit> splits)
    : splits_(std::move(splits)),
      taken_(splits_.size(), false),
      state_(splits_.size()),
      remaining_(splits_.size()) {}

std::optional<InputSplit> SplitScheduler::next_for(int node) {
  if (!requeued_.empty()) {
    InputSplit s = std::move(requeued_.back());
    requeued_.pop_back();
    --remaining_;
    if (s.index >= 0) state_[static_cast<std::size_t>(s.index)].runner = node;
    return s;
  }
  if (remaining_ == 0) return std::nullopt;
  // First pass: a split with a local block.
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    if (taken_[i]) continue;
    const auto& locs = splits_[i].locations;
    if (std::find(locs.begin(), locs.end(), node) != locs.end()) {
      taken_[i] = true;
      --remaining_;
      ++local_grabs_;
      state_[i].runner = node;
      return splits_[i];
    }
  }
  // Fall back to any split.
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    if (!taken_[i]) {
      taken_[i] = true;
      --remaining_;
      ++remote_grabs_;
      state_[i].runner = node;
      return splits_[i];
    }
  }
  return std::nullopt;
}

void SplitScheduler::requeue(InputSplit split) {
  split.attempt++;
  ++retries_;
  ++remaining_;
  requeued_.push_back(std::move(split));
}

bool SplitScheduler::commit(int index, int node) {
  GW_CHECK(index >= 0 && static_cast<std::size_t>(index) < splits_.size());
  TaskState& ts = state_[static_cast<std::size_t>(index)];
  if (ts.committed_by >= 0) return false;  // a duplicate (speculative loser)
  ts.committed_by = node;
  if (ts.clone >= 0) {
    // First finisher wins: count the race from the clone's point of view.
    if (node == ts.clone) {
      ++spec_wins_;
    } else {
      ++spec_losses_;
    }
  }
  return true;
}

void SplitScheduler::on_crash(int node) {
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    TaskState& ts = state_[i];
    if (ts.clone == node) ts.clone = -1;
    if (ts.committed_by == node) {
      // The durable output died with the node: back to the lost pool.
      ts.committed_by = -1;
      ts.runner = -1;
      lost_.push_back(static_cast<int>(i));
    } else if (ts.committed_by < 0 && ts.runner == node) {
      if (ts.clone >= 0) {
        ts.runner = ts.clone;  // the live clone carries the split
        ts.clone = -1;
      } else {
        ts.runner = -1;
        lost_.push_back(static_cast<int>(i));
      }
    }
  }
  std::sort(lost_.begin(), lost_.end());
}

std::optional<InputSplit> SplitScheduler::next_lost(int node) {
  if (lost_.empty()) return std::nullopt;
  const int i = lost_.front();
  lost_.erase(lost_.begin());
  ++reexecutions_;
  TaskState& ts = state_[static_cast<std::size_t>(i)];
  ts.runner = node;
  InputSplit s = splits_[static_cast<std::size_t>(i)];
  s.attempt = ++ts.attempts;
  return s;
}

void SplitScheduler::restore_commit(int index, int node) {
  GW_CHECK(index >= 0 && static_cast<std::size_t>(index) < splits_.size());
  const auto i = static_cast<std::size_t>(index);
  GW_CHECK(state_[i].committed_by < 0);
  if (!taken_[i]) {
    taken_[i] = true;
    --remaining_;
  }
  state_[i].runner = node;
  state_[i].committed_by = node;
}

std::vector<std::pair<int, int>> SplitScheduler::committed_splits() const {
  std::vector<std::pair<int, int>> out;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    if (state_[i].committed_by >= 0) {
      out.emplace_back(static_cast<int>(i), state_[i].committed_by);
    }
  }
  return out;
}

std::optional<InputSplit> SplitScheduler::next_speculative(int node) {
  for (std::size_t i = 0; i < splits_.size(); ++i) {
    TaskState& ts = state_[i];
    if (!taken_[i] || ts.committed_by >= 0 || ts.clone >= 0) continue;
    if (ts.runner < 0 || ts.runner == node) continue;
    ts.clone = node;
    ++clones_;
    InputSplit s = splits_[i];
    s.attempt = ++ts.attempts;
    return s;
  }
  return std::nullopt;
}

std::uint64_t send_run(const NodeContext& ctx, sim::TaskGroup& sends, int dst,
                       int port, net::TrafficClass tc, int g, Run run,
                       std::vector<std::uint64_t> tags) {
  util::Bytes frame =
      std::move(run).take_serialized(static_cast<std::uint32_t>(g));
  const std::uint64_t bytes = frame.size();
  // A node the job counts as failed stays out of the job even after a
  // restart revives it: its zombie pipeline's sends are dropped, as a dead
  // node's would be, so none lands in an inbox whose receiver has closed.
  if (ctx.failed_nodes != nullptr && !ctx.self_live()) return bytes;
  sends.spawn(ctx.platform->transport().send_or_drop(
      ctx.node_id, dst, port, tc, std::move(frame), std::move(tags)));
  return bytes;
}

int shuffle_frame_partition(const util::Bytes& frame) {
  return static_cast<int>(util::ByteReader(frame).get_u32());
}

Run adopt_shuffle_frame(util::Bytes frame) {
  return Run::adopt_serialized(std::move(frame), sizeof(std::uint32_t));
}

std::vector<InputSplit> SplitScheduler::make_splits(
    const dfs::FileSystem& fs, const std::vector<std::string>& paths,
    std::uint64_t split_size) {
  GW_CHECK(split_size > 0);
  std::vector<InputSplit> splits;
  for (const auto& path : paths) {
    const std::uint64_t size = fs.file_size(path);
    for (std::uint64_t off = 0; off < size; off += split_size) {
      InputSplit s(path, off, std::min(split_size, size - off));
      const std::uint64_t block = off / fs.block_size();
      s.locations = fs.block_locations(path, block);
      s.index = static_cast<int>(splits.size());
      splits.push_back(std::move(s));
    }
  }
  return splits;
}

RecordSplitFn run_output_record_splitter() {
  return [](std::string_view chunk) {
    std::vector<std::uint64_t> offsets;
    if (chunk.empty()) return offsets;
    util::ByteReader r(chunk);
    const bool compressed = r.get_u8() != 0;
    GW_CHECK_MSG(!compressed,
                 "run splitter: compressed output cannot be re-framed");
    r.get_varint();  // raw_bytes
    const std::uint64_t pairs = r.get_varint();
    r.get_varint();  // payload length; the payload runs to chunk end
    offsets.reserve(pairs);
    for (std::uint64_t i = 0; i < pairs; ++i) {
      offsets.push_back(r.position());
      const std::uint64_t klen = r.get_varint();
      const std::uint64_t vlen = r.get_varint();
      r.skip(klen + vlen);
    }
    GW_CHECK_MSG(r.done(), "run splitter: trailing bytes after last pair");
    return offsets;
  };
}

std::pair<std::string_view, std::string_view> decode_pair_record(
    std::string_view record) {
  util::ByteReader r(record);
  const std::uint64_t klen = r.get_varint();
  const std::uint64_t vlen = r.get_varint();
  const char* base = record.data() + r.position();
  return {std::string_view(base, klen), std::string_view(base + klen, vlen)};
}

std::vector<std::pair<std::string, std::string>> read_output_file(
    const util::Bytes& file_contents) {
  util::ByteReader r(file_contents);
  Run run = Run::deserialize(r);
  RunReader reader(run);
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(run.pairs);
  KV kv;
  while (reader.next(&kv)) {
    out.emplace_back(std::string(kv.key), std::string(kv.value));
  }
  return out;
}

}  // namespace gw::core
