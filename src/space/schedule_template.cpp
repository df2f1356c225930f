#include "space/schedule_template.hpp"

#include "support/common.hpp"

namespace aal {

namespace {

const std::vector<std::int64_t>& split_entity(const ConfigSpace& space,
                                              const Config& config,
                                              std::size_t knob_idx) {
  const SplitKnob& k = space.knob(knob_idx).as_split();
  return k.entities[static_cast<std::size_t>(config.choices[knob_idx])];
}

std::int64_t option_value(const ConfigSpace& space, const Config& config,
                          std::size_t knob_idx) {
  const OptionKnob& k = space.knob(knob_idx).as_option();
  return k.values[static_cast<std::size_t>(config.choices[knob_idx])];
}

}  // namespace

ConvSchedule decode_conv_schedule(const Workload& workload,
                                  const ConfigSpace& space,
                                  const Config& config) {
  AAL_CHECK(workload.is_conv(), "decode_conv_schedule on non-conv workload");
  ConvSchedule s;
  const bool depthwise = workload.kind() == WorkloadKind::kDepthwiseConv2d;

  const auto& f = split_entity(space, config, 0);
  s.bf = f[0]; s.vf = f[1]; s.tf = f[2]; s.fi = f[3];
  const auto& y = split_entity(space, config, 1);
  s.by = y[0]; s.vy = y[1]; s.ty = y[2]; s.yi = y[3];
  const auto& x = split_entity(space, config, 2);
  s.bx = x[0]; s.vx = x[1]; s.tx = x[2]; s.xi = x[3];

  std::size_t idx = 3;
  if (!depthwise) {
    const auto& rc = split_entity(space, config, idx++);
    s.rco = rc[0];
    s.rci = rc[1];
  }
  const auto& ry = split_entity(space, config, idx++);
  s.ryo = ry[0]; s.ryi = ry[1];
  const auto& rx = split_entity(space, config, idx++);
  s.rxo = rx[0]; s.rxi = rx[1];
  s.auto_unroll_max_step = option_value(space, config, idx++);
  s.unroll_explicit = option_value(space, config, idx++) != 0;
  AAL_ASSERT(idx == space.num_knobs(), "conv template knob count mismatch");
  return s;
}

DenseSchedule decode_dense_schedule(const Workload& workload,
                                    const ConfigSpace& space,
                                    const Config& config) {
  AAL_CHECK(workload.kind() == WorkloadKind::kDense,
            "decode_dense_schedule on non-dense workload");
  DenseSchedule s;
  const auto& y = split_entity(space, config, 0);
  s.bo = y[0]; s.vo = y[1]; s.to = y[2]; s.oi = y[3];
  const auto& k = split_entity(space, config, 1);
  s.ko = k[0]; s.ki = k[1];
  s.auto_unroll_max_step = option_value(space, config, 2);
  s.unroll_explicit = option_value(space, config, 3) != 0;
  return s;
}

}  // namespace aal
