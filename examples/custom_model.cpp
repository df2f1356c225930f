// Custom-model workflow: describe a network in the text format, parse it,
// tune it for an embedded-class GPU, and compare against the big desktop
// part — no C++ model code required.
//
//   $ ./examples/custom_model [budget-per-task]
#include <cstdio>
#include <cstdlib>

#include "graph/fusion.hpp"
#include "graph/model_parser.hpp"
#include "pipeline/latency.hpp"
#include "pipeline/model_tuner.hpp"
#include "support/logging.hpp"
#include "support/string_util.hpp"

namespace {

constexpr const char* kModelText = R"(
# A small edge-vision backbone, described in aaltune's model format.
%data = input(shape=[1,3,96,96])
%stem = conv2d(%data, channels=16, kernel=3, stride=2, pad=1)
%bn0  = batch_norm(%stem)
%r0   = relu(%bn0)

# depthwise-separable block 1
%dw1  = depthwise_conv2d(%r0, kernel=3, stride=1, pad=1)
%r1   = relu(%dw1)
%pw1  = conv2d(%r1, channels=32, kernel=1)
%r2   = relu(%pw1)

# depthwise-separable block 2 (downsampling)
%dw2  = depthwise_conv2d(%r2, kernel=3, stride=2, pad=1)
%r3   = relu(%dw2)
%pw2  = conv2d(%r3, channels=64, kernel=1)
%r4   = relu(%pw2)

%gap  = global_avg_pool2d(%r4)
%f    = flatten(%gap)
%fc   = dense(%f, units=10)
%out  = softmax(%fc)
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace aal;
  set_log_threshold(LogLevel::kWarn);
  const std::int64_t budget = argc > 1 ? std::atoll(argv[1]) : 150;

  const Graph model = parse_model_string(kModelText, "edge_backbone");
  std::printf("parsed '%s': %zu nodes, %zu tuning tasks, %.1f MFLOPs\n",
              model.name().c_str(), model.size(),
              extract_tasks(fuse(model)).size(),
              static_cast<double>(model.total_flops()) / 1e6);

  ModelTuneOptions options;
  options.tune.budget = budget;
  options.tune.early_stopping = 0;

  TextTable table;
  table.set_header({"GPU", "tuned latency (ms)", "fallback (ms)", "speedup"});
  for (const TargetSpec& gpu :
       {make_target("gpu-embedded"), make_target("gpu-pascal")}) {
    const ModelTuneReport report =
        tune_model(model, gpu, bted_bao_tuner_factory(), options);
    const LatencyEvaluator evaluator(model, gpu);
    const double fallback = evaluator.deterministic_latency_ms({});
    const double tuned =
        evaluator.deterministic_latency_ms(report.best_flat_by_task());
    table.add_row({gpu.device_name, format_double(tuned, 4),
                   format_double(fallback, 4),
                   format_double(fallback / tuned, 2) + "x"});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("\nThe same tuner binary serves both targets: the framework "
              "only sees the\nmeasurement interface (the paper's "
              "hardware-as-black-box claim).\n");
  return 0;
}
