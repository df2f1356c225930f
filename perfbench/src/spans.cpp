#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

// Task whose session is running on this thread (TuningSession dispatches
// measurement batches on the thread that proposes).
thread_local std::int64_t t_current_op = -1;

class TracedSurrogate final : public aal::Surrogate {
 public:
  TracedSurrogate(std::unique_ptr<aal::Surrogate> inner, SpanLog& log,
                  std::int64_t op)
      : inner_(std::move(inner)), log_(log), op_(op) {}

  void fit(const aal::Dataset& data) override {
    ScopedSpan span(log_, SpanKind::kFit, op_,
                    static_cast<std::int64_t>(data.num_rows()));
    inner_->fit(data);
  }
  double predict(std::span<const double> features) const override {
    return inner_->predict(features);
  }
  void predict_batch(std::span<const double> features, std::size_t rows,
                     std::span<double> out) const override {
    ScopedSpan span(log_, SpanKind::kPredict, op_,
                    static_cast<std::int64_t>(rows));
    inner_->predict_batch(features, rows, out);
  }
  bool fitted() const override { return inner_->fitted(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<aal::Surrogate> inner_;
  SpanLog& log_;
  std::int64_t op_;
};

}  // namespace

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTask: return "task";
    case SpanKind::kBted: return "bted";
    case SpanKind::kBao: return "bao";
    case SpanKind::kObserve: return "observe";
    case SpanKind::kDispatch: return "dispatch";
    case SpanKind::kFit: return "fit";
    case SpanKind::kPredict: return "predict";
    case SpanKind::kLower: return "lower";
    case SpanKind::kStoreOpen: return "store_open";
    case SpanKind::kFlush: return "flush";
    case SpanKind::kDeploy: return "deploy";
    case SpanKind::kPrior: return "prior";
    case SpanKind::kSubmit: return "submit";
    case SpanKind::kQueued: return "queued";
    case SpanKind::kRun: return "run";
  }
  return "?";
}

void SpanLog::add(SpanKind kind, std::int64_t op, Interval time,
                  std::int64_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{kind, op, time, count});
}

void SpanLog::note_finalize(double t) {
  double seen = last_finalize_.load();
  while (seen < t && !last_finalize_.compare_exchange_weak(seen, t)) {
  }
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void write_spans_jsonl(const std::vector<Span>& spans,
                       const std::string& path) {
  std::ofstream out(path);
  char line[192];
  for (const Span& s : spans) {
    std::snprintf(line, sizeof line,
                  "{\"kind\":\"%s\",\"op\":%lld,\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"count\":%lld}\n",
                  span_kind_name(s.kind), static_cast<long long>(s.op),
                  s.time.start, s.time.end, static_cast<long long>(s.count));
    out << line;
  }
}

TracedTuner::TracedTuner(std::unique_ptr<aal::Tuner> inner, SpanLog& log,
                         std::int64_t op, bool detail)
    : inner_(std::move(inner)), log_(log), op_(op), detail_(detail) {}

void TracedTuner::begin(const aal::Measurer& measurer,
                        const aal::TuneOptions& options) {
  begin_ = now_s();
  t_current_op = op_;
  store_hits_ = detail_ ? static_cast<std::int64_t>(
                              measurer.preloaded_results().size())
                        : 0;
  // tune_model attaches a cross-run prior to the tuner it was handed.
  inner_->set_transfer_prior(transfer_prior_);
  inner_->begin(measurer, options);
}

std::vector<aal::Config> TracedTuner::propose(std::int64_t k) {
  if (!detail_) return inner_->propose(k);
  const SpanKind kind = proposals_ == 0 ? SpanKind::kBted : SpanKind::kBao;
  ++proposals_;
  const double start = now_s();
  std::vector<aal::Config> out = inner_->propose(k);
  log_.add(kind, op_, {start, now_s()},
           static_cast<std::int64_t>(out.size()));
  return out;
}

void TracedTuner::observe(std::span<const aal::MeasureResult> results) {
  if (!detail_) return inner_->observe(results);
  ScopedSpan span(log_, SpanKind::kObserve, op_,
                  static_cast<std::int64_t>(results.size()));
  inner_->observe(results);
}

void TracedTuner::finalize(const aal::Measurer& measurer) {
  inner_->finalize(measurer);
  const double end = now_s();
  log_.add(SpanKind::kTask, op_, {begin_, end}, store_hits_);
  log_.note_finalize(end);
  t_current_op = -1;
}

std::unique_ptr<aal::Surrogate> TracedSurrogateFactory::create(
    std::uint64_t seed) const {
  return std::make_unique<TracedSurrogate>(inner_->create(seed), log_, op_);
}

void TracedBackend::dispatch(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  ScopedSpan span(log_, SpanKind::kDispatch, t_current_op,
                  static_cast<std::int64_t>(n));
  serial_.dispatch(n, fn);
}

aal::TunerFactory traced_bted_bao_factory(SpanLog& log, bool detail) {
  return [&log, detail](aal::TransferContext* transfer)
             -> std::unique_ptr<aal::Tuner> {
    const std::int64_t op = log.next_op();
    std::unique_ptr<aal::Tuner> inner;
    if (detail) {
      using aal::AdvancedActiveLearningTuner;
      inner = std::make_unique<AdvancedActiveLearningTuner>(
          aal::BtedParams{}, aal::BaoParams{},
          std::make_shared<TracedSurrogateFactory>(
              std::make_shared<aal::GbdtSurrogateFactory>(
                  AdvancedActiveLearningTuner::default_bootstrap_gbdt_params()),
              log, op));
    } else {
      inner = aal::bted_bao_tuner_factory()(transfer);
    }
    return std::make_unique<TracedTuner>(std::move(inner), log, op, detail);
  };
}

}  // namespace perfbench
