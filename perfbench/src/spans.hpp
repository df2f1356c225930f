// In-memory span log and the decorators that fill it from outside the
// library, around aaltune's public seams:
//
//   TracedTuner            wraps a Tuner: task = begin..finalize, and each
//                          propose()/observe() call
//   TracedSurrogateFactory wraps a SurrogateFactory: every fit() and
//                          predict_batch() of the surrogates it creates
//   TracedBackend          a MeasureBackend over SerialBackend: dispatch()
//
// Each decorator forwards every call unchanged, so a traced run computes
// exactly what an untraced one does; the benchmark checks this by comparing
// the two runs' quality numbers. Spans stay in memory until the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aaltune/aaltune.hpp"
#include "stats.hpp"

namespace perfbench {

/// Seconds on the steady clock since the process's first call.
double now_s();

enum class SpanKind : int {
  kTask,       // one tuning task, Tuner::begin .. Tuner::finalize;
               // count = records preloaded (traced runs)
  kBted,       // first propose() of a bted+bao tuner (BTED initial set)
  kBao,        // later propose() of a bted+bao tuner (one BAO iteration)
  kObserve,    // observe()
  kDispatch,   // MeasureBackend::dispatch, count = configs
  kFit,        // Surrogate::fit, count = rows
  kPredict,    // Surrogate::predict_batch, count = rows
  kLower,      // zoo build / model parse + fusion + task extraction
  kStoreOpen,  // RecordStore open
  kFlush,      // tune_model tail after the last task: store append + flush
  kDeploy,     // LatencyEvaluator build + deterministic_latency_ms
  kPrior,      // build_transfer_prior for one task
  kSubmit,     // TuneServer::submit call
  kQueued,     // serve job: submit returned .. first seen running
  kRun,        // serve job: first seen running .. seen terminal
};

const char* span_kind_name(SpanKind kind);

struct Span {
  SpanKind kind = SpanKind::kTask;
  std::int64_t op = -1;     // task or job the span belongs to (-1: none)
  Interval time;
  std::int64_t count = 0;   // rows / configs, where the kind has one
};

/// Thread-safe append-only span store.
class SpanLog {
 public:
  void add(SpanKind kind, std::int64_t op, Interval time,
           std::int64_t count = 0);
  std::vector<Span> spans() const;
  std::int64_t next_op() { return next_op_.fetch_add(1); }
  /// Latest task finalize seen since the last reset (the tail of a
  /// tune_model call starts there).
  double last_finalize() const { return last_finalize_.load(); }
  void note_finalize(double t);
  void reset_last_finalize() { last_finalize_.store(0.0); }

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::int64_t> next_op_{0};
  std::atomic<double> last_finalize_{0.0};
};

/// Writes one JSON object per span.
void write_spans_jsonl(const std::vector<Span>& spans, const std::string& path);

/// Times a scope into the log.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanKind kind, std::int64_t op = -1,
             std::int64_t count = 0)
      : log_(log), kind_(kind), op_(op), count_(count), start_(now_s()) {}
  ~ScopedSpan() { log_.add(kind_, op_, {start_, now_s()}, count_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  SpanKind kind_;
  std::int64_t op_;
  std::int64_t count_;
  double start_;
};

/// Forwards to a bted+bao tuner, logging the task span and, with `detail`,
/// every propose()/observe() call. Without `detail` it is the op clock of
/// the untraced run: two clock reads per task.
class TracedTuner final : public aal::Tuner {
 public:
  TracedTuner(std::unique_ptr<aal::Tuner> inner, SpanLog& log,
              std::int64_t op, bool detail);

  std::string name() const override { return inner_->name(); }
  void begin(const aal::Measurer& measurer,
             const aal::TuneOptions& options) override;
  std::vector<aal::Config> propose(std::int64_t k) override;
  void observe(std::span<const aal::MeasureResult> results) override;
  void finalize(const aal::Measurer& measurer) override;

 private:
  std::unique_ptr<aal::Tuner> inner_;
  SpanLog& log_;
  std::int64_t op_;
  bool detail_;
  std::int64_t proposals_ = 0;
  double begin_ = 0.0;
  std::int64_t store_hits_ = 0;  // records preloaded from a store
};

/// Creates surrogates whose fit()/predict_batch() are logged against `op`.
class TracedSurrogateFactory final : public aal::SurrogateFactory {
 public:
  TracedSurrogateFactory(std::shared_ptr<const aal::SurrogateFactory> inner,
                         SpanLog& log, std::int64_t op)
      : inner_(std::move(inner)), log_(log), op_(op) {}
  std::unique_ptr<aal::Surrogate> create(std::uint64_t seed) const override;
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const aal::SurrogateFactory> inner_;
  SpanLog& log_;
  std::int64_t op_;
};

/// SerialBackend with every dispatch() logged against the calling thread's
/// current task (set by TracedTuner).
class TracedBackend final : public aal::MeasureBackend {
 public:
  explicit TracedBackend(SpanLog& log) : log_(log) {}
  const char* name() const override { return serial_.name(); }
  void dispatch(std::size_t n,
                const std::function<void(std::size_t)>& fn) override;

 private:
  aal::SerialBackend serial_;
  SpanLog& log_;
};

/// The bted+bao factory as tune_model sees it. Without `detail` the stock
/// bted_bao_tuner_factory() tuner is wrapped in the op clock only; with it,
/// the tuner is built with the same parameters around a traced copy of the
/// stock bootstrap GBDT factory.
aal::TunerFactory traced_bted_bao_factory(SpanLog& log, bool detail);

}  // namespace perfbench
