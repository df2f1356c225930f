#include "ir/workload.hpp"

#include <sstream>

#include "support/common.hpp"

namespace aal {

std::int64_t Conv2dWorkload::flops() const {
  // 2 * output elements * reduction length (channels-per-group * kh * kw).
  const std::int64_t out_elems =
      batch * out_channels * out_height() * out_width();
  const std::int64_t reduction = (in_channels / groups) * kernel_h * kernel_w;
  return 2 * out_elems * reduction;
}

void Conv2dWorkload::validate() const {
  AAL_CHECK(batch >= 1, "conv2d: batch must be >= 1");
  AAL_CHECK(in_channels >= 1 && out_channels >= 1,
            "conv2d: channels must be >= 1");
  AAL_CHECK(height >= 1 && width >= 1, "conv2d: spatial dims must be >= 1");
  AAL_CHECK(kernel_h >= 1 && kernel_w >= 1, "conv2d: kernel must be >= 1");
  AAL_CHECK(stride_h >= 1 && stride_w >= 1, "conv2d: stride must be >= 1");
  AAL_CHECK(pad_h >= 0 && pad_w >= 0, "conv2d: padding must be >= 0");
  AAL_CHECK(groups >= 1, "conv2d: groups must be >= 1");
  AAL_CHECK(in_channels % groups == 0,
            "conv2d: in_channels (" << in_channels << ") not divisible by groups ("
                                    << groups << ")");
  AAL_CHECK(out_channels % groups == 0,
            "conv2d: out_channels (" << out_channels
                                     << ") not divisible by groups (" << groups
                                     << ")");
  AAL_CHECK(height + 2 * pad_h >= kernel_h && width + 2 * pad_w >= kernel_w,
            "conv2d: kernel larger than padded input");
}

void DenseWorkload::validate() const {
  AAL_CHECK(batch >= 1, "dense: batch must be >= 1");
  AAL_CHECK(in_features >= 1 && out_features >= 1,
            "dense: feature dims must be >= 1");
}

std::string workload_kind_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kConv2d: return "conv2d";
    case WorkloadKind::kDepthwiseConv2d: return "depthwise_conv2d";
    case WorkloadKind::kDense: return "dense";
  }
  return "unknown";
}

Workload Workload::conv2d(Conv2dWorkload w) {
  w.validate();
  Workload out;
  out.kind_ = w.is_depthwise() ? WorkloadKind::kDepthwiseConv2d
                               : WorkloadKind::kConv2d;
  out.conv_ = w;
  return out;
}

Workload Workload::dense(DenseWorkload w) {
  w.validate();
  Workload out;
  out.kind_ = WorkloadKind::kDense;
  out.dense_ = w;
  return out;
}

const Conv2dWorkload& Workload::as_conv2d() const {
  AAL_CHECK(is_conv(), "workload is not a convolution");
  return conv_;
}

const DenseWorkload& Workload::as_dense() const {
  AAL_CHECK(kind_ == WorkloadKind::kDense, "workload is not dense");
  return dense_;
}

std::int64_t Workload::flops() const {
  return is_conv() ? conv_.flops() : dense_.flops();
}

std::string Workload::key() const {
  std::ostringstream os;
  os << workload_kind_name(kind_) << '/';
  if (is_conv()) {
    const auto& c = conv_;
    os << 'n' << c.batch << "_c" << c.in_channels << "_hw" << c.height << 'x'
       << c.width << "_o" << c.out_channels << "_k" << c.kernel_h << 'x'
       << c.kernel_w << "_s" << c.stride_h << 'x' << c.stride_w << "_p"
       << c.pad_h << 'x' << c.pad_w << "_g" << c.groups << '_'
       << dtype_name(c.dtype);
  } else {
    const auto& d = dense_;
    os << 'n' << d.batch << "_i" << d.in_features << "_o" << d.out_features
       << '_' << dtype_name(d.dtype);
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Workload& w) {
  return os << w.key();
}

std::string Workload::brief() const {
  std::ostringstream os;
  if (is_conv()) {
    const auto& c = conv_;
    os << workload_kind_name(kind_) << ' ' << c.in_channels << 'x' << c.height
       << 'x' << c.width << " -> " << c.out_channels << ", k" << c.kernel_h
       << 's' << c.stride_h;
  } else {
    const auto& d = dense_;
    os << "dense " << d.in_features << " -> " << d.out_features;
  }
  return os.str();
}

}  // namespace aal
