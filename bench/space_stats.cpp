// Design-space statistics quoted in the paper's text:
//   * the first VGG-16 node has ~0.2 billion configuration points,
//   * 58-node-scale task set across the five models,
//   * nodes average tens of millions of points.
// Prints per-model task inventories and space sizes for the record.
#include <cstdio>

#include "exp_common.hpp"
#include "graph/fusion.hpp"
#include "graph/models.hpp"
#include "space/schedule_template.hpp"
#include "support/string_util.hpp"
#include "space/template_registry.hpp"

int main() {
  using namespace aal;
  using namespace aal::bench;
  set_log_threshold(LogLevel::kWarn);
  banner("Space stats", "task inventory and configuration-space sizes");

  double grand_total = 0.0;
  std::int64_t grand_tasks = 0;
  std::int64_t grand_max = 0;

  for (const auto& name : model_zoo_names()) {
    const Graph model = make_model(name);
    const auto tasks = extract_tasks(fuse(model));
    std::printf("\n%s: %zu unique tasks, %.2f GFLOPs/inference\n",
                model_display_name(name).c_str(), tasks.size(),
                static_cast<double>(model.total_flops()) / 1e9);

    TextTable table;
    table.set_header({"task", "layers", "space size", "feature dim"});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const ConfigSpace space =
          TemplateRegistry::instance().build(tasks[i].workload, TargetSpec{});
      table.add_row({tasks[i].workload.brief(),
                     std::to_string(tasks[i].count()),
                     format_count(space.size()),
                     std::to_string(space.feature_dim())});
      grand_total += static_cast<double>(space.size());
      grand_max = std::max(grand_max, space.size());
      ++grand_tasks;
    }
    std::printf("%s", table.to_string().c_str());
  }

  std::printf("\nacross the zoo: %lld tasks, largest space %s points, "
              "average %s points/task\n",
              static_cast<long long>(grand_tasks), format_count(grand_max).c_str(),
              format_count(static_cast<std::int64_t>(
                  grand_total / static_cast<double>(grand_tasks))).c_str());
  std::printf("(paper: ~0.2 billion for the first VGG-16 node; >50M per node "
              "on average)\n");
  return 0;
}
