#include "core/stage.h"

namespace gw::core {

std::int32_t Stage::span_name(std::string_view label) const {
  return graph_->sim().tracer().intern(graph_->name() + "." +
                                       std::string(label));
}

StageGraph::StageGraph(sim::Simulation& sim, std::string_view name,
                       int default_node)
    : sim_(&sim), name_(name), default_node_(default_node), done_(sim) {}

void StageGraph::add_stage(std::string_view name, int workers,
                           StageBody body) {
  add_stage(name, workers, {}, std::move(body));
}

void StageGraph::add_stage(std::string_view name, int workers,
                           std::vector<int> node_of, StageBody body) {
  GW_CHECK(workers > 0);
  GW_CHECK(node_of.empty() ||
           node_of.size() == static_cast<std::size_t>(workers));
  specs_.push_back(
      StageSpec{std::string(name), workers, std::move(node_of), std::move(body)});
}

Stage& StageGraph::make_stage(const std::string& label, int worker,
                              int workers, int node) {
  const std::string full = name_ + "." + label;
  std::string track_label = full;
  if (workers > 1) track_label.append("/").append(std::to_string(worker));
  trace::Tracer& tr = sim_->tracer();
  stages_.emplace_back(Stage(this, sim_, tr.intern(full), worker, node,
                             tr.track(node, track_label)));
  return stages_.back();
}

Stage& StageGraph::inline_stage(std::string_view name) {
  return make_stage(std::string(name), 0, 1, default_node_);
}

sim::Task<> StageGraph::run() {
  sim::TaskGroup group(*sim_);
  for (const StageSpec& s : specs_) {
    for (int w = 0; w < s.workers; ++w) {
      const int node = s.node_of.empty() ? default_node_
                                         : s.node_of[static_cast<std::size_t>(w)];
      Stage& st = make_stage(s.label, w, s.workers, node);
      group.spawn(s.body(st));
    }
  }
  co_await group.wait();
  done_.set();
}

}  // namespace gw::core
