#include "tuner/tuning_session.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "support/common.hpp"

namespace aal {

namespace {
// A policy that keeps proposing only already-measured configurations makes
// no progress; cap such rounds so the session always terminates.
constexpr int kMaxBarrenRounds = 64;
}  // namespace

TuningSession::TuningSession(Tuner& tuner, Measurer& measurer,
                             const TuneOptions& options,
                             MeasureBackend& backend)
    : tuner_(tuner), measurer_(measurer), options_(options),
      backend_(&backend) {
  AAL_CHECK(options.budget >= 1, "budget must be >= 1");
  AAL_CHECK(options.batch_size >= 1, "batch_size must be >= 1");
}

TuningSession::TuningSession(Tuner& tuner, Measurer& measurer,
                             const TuneOptions& options)
    : TuningSession(tuner, measurer, options, serial_) {}

const char* TuningSession::stop_reason_name(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kBudget: return "budget";
    case StopReason::kEarlyStop: return "early_stop";
    case StopReason::kSpaceExhausted: return "space_exhausted";
    case StopReason::kPolicyExhausted: return "policy_exhausted";
    case StopReason::kBarren: return "barren";
    case StopReason::kCancelled: return "cancelled";
  }
  return "unknown";
}

TuningSession::StopReason TuningSession::check_stop() const {
  if (static_cast<std::int64_t>(history_.size()) >= options_.budget) {
    return StopReason::kBudget;
  }
  if (options_.early_stopping > 0 &&
      since_improvement_ >= options_.early_stopping) {
    return StopReason::kEarlyStop;
  }
  if (measurer_.num_measured() >= measurer_.task().space().size()) {
    return StopReason::kSpaceExhausted;
  }
  return StopReason::kNone;
}

void TuningSession::ensure_begun() {
  if (begun_) return;
  obs_ = options_.obs;
  // Hand the shared handle to the measurer so batch events and measure.*
  // counters carry the session's lane. Left alone when observability is off
  // so an externally attached handle survives.
  if (obs_.active()) measurer_.set_obs(obs_);
  // Warm-start the improvement tracker from whatever the measurer already
  // holds (preloaded records, external measurements): a warm session only
  // counts *beating* the historical best as progress, so early stopping can
  // trip without re-spending the budget a prior run already spent. With an
  // empty measurer this is a no-op and the session behaves exactly as cold.
  if (const std::optional<MeasureResult> warm = measurer_.best()) {
    best_gflops_ = warm->gflops;
    best_flat_ = warm->config.flat;
  }
  tuner_.begin(measurer_, options_);
  begun_ = true;
  obs_.emit(TraceEventType::kSessionBegin,
            {{"tuner", TraceValue(tuner_.name())},
             {"budget", TraceValue(options_.budget)},
             {"early_stopping", TraceValue(options_.early_stopping)},
             {"batch_size", TraceValue(options_.batch_size)},
             {"num_initial", TraceValue(options_.num_initial)},
             {"seed", TraceValue(static_cast<std::int64_t>(options_.seed))},
             {"space_size", TraceValue(measurer_.task().space().size())},
             {"preloaded", TraceValue(measurer_.num_measured())}},
            {{"backend", TraceValue(backend_->name())}});
}

bool TuningSession::stop(StopReason reason) {
  done_ = true;
  if (stop_reason_ == StopReason::kNone) stop_reason_ = reason;
  if (reason == StopReason::kEarlyStop) {
    obs_.count("session.early_stops");
    obs_.emit(TraceEventType::kEarlyStop,
              {{"measured", TraceValue(num_measured())},
               {"since_improvement", TraceValue(since_improvement_)},
               {"patience", TraceValue(options_.early_stopping)}});
  }
  return false;
}

bool TuningSession::step() {
  if (done_) return false;
  ensure_begun();
  // Cooperative cancellation: checked once per round, so a raised flag stops
  // the session at the next round boundary. Already-committed history stays.
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    return stop(StopReason::kCancelled);
  }
  if (const StopReason reason = check_stop(); reason != StopReason::kNone) {
    return stop(reason);
  }

  const std::int64_t remaining =
      options_.budget - static_cast<std::int64_t>(history_.size());
  const std::int64_t space_left =
      measurer_.task().space().size() - measurer_.num_measured();
  const std::int64_t k = std::min(remaining, space_left);

  std::vector<Config> plan = tuner_.propose(k);
  if (plan.empty()) {
    return stop(StopReason::kPolicyExhausted);
  }
  const std::int64_t proposed = static_cast<std::int64_t>(plan.size());

  // Trim the plan so at most k configurations are fresh; revisits stay (they
  // are free) but everything past the k-th fresh candidate is dropped.
  // `fresh_flats` ends up holding exactly the flats this round will commit —
  // anything else in the plan (preloaded or session revisits) is free.
  std::unordered_set<std::int64_t> fresh_flats;
  {
    std::size_t keep = plan.size();
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const std::int64_t flat = plan[i].flat;
      if (measurer_.is_cached(flat)) continue;
      if (fresh_flats.contains(flat)) continue;
      if (static_cast<std::int64_t>(fresh_flats.size()) >= k) {
        keep = i;
        break;
      }
      fresh_flats.insert(flat);
    }
    plan.resize(keep);
  }
  if (plan.empty()) {
    return stop(StopReason::kPolicyExhausted);
  }

  ++round_;
  obs_.count("session.rounds");
  obs_.count("session.proposed", proposed);
  obs_.emit(TraceEventType::kPropose,
            {{"round", TraceValue(round_)},
             {"requested", TraceValue(k)},
             {"proposed", TraceValue(proposed)},
             {"fresh", TraceValue(fresh_flats.size())}});

  const std::vector<MeasureResult> batch =
      measurer_.measure_batch(plan, *backend_);

  // Commit fresh results to the history in plan order. The batch aligns
  // with the plan, so taking the first occurrence of each fresh flat walks
  // exactly the points the measurer just committed, in the same order.
  std::vector<MeasureResult> fresh;
  fresh.reserve(fresh_flats.size());
  for (const MeasureResult& r : batch) {
    auto it = fresh_flats.find(r.config.flat);
    if (it == fresh_flats.end()) continue;
    fresh_flats.erase(it);  // first occurrence only
    fresh.push_back(r);
  }

  for (const MeasureResult& r : fresh) {
    history_.push_back(TunePoint{r.config.flat, r.ok, r.gflops, r.error});
    if (r.ok && r.gflops > best_gflops_) {
      best_gflops_ = r.gflops;
      best_flat_ = r.config.flat;
      since_improvement_ = 0;
    } else {
      ++since_improvement_;
    }
  }

  if (!fresh.empty()) {
    barren_rounds_ = 0;
    obs_.count("session.fresh_measured",
               static_cast<std::int64_t>(fresh.size()));
    tuner_.observe(std::span<const MeasureResult>(fresh));
    obs_.emit(TraceEventType::kObserve,
              {{"round", TraceValue(round_)},
               {"fresh", TraceValue(fresh.size())},
               {"best_gflops", TraceValue(best_gflops_)},
               {"best_flat", TraceValue(best_flat_)},
               {"since_improvement", TraceValue(since_improvement_)}});
  } else if (++barren_rounds_ >= kMaxBarrenRounds) {
    return stop(StopReason::kBarren);
  }

  if (const StopReason reason = check_stop(); reason != StopReason::kNone) {
    return stop(reason);
  }
  return true;
}

TuneResult TuningSession::run() {
  while (step()) {
  }
  return finish();
}

TuneResult TuningSession::finish() {
  done_ = true;
  if (!finalized_) {
    ensure_begun();
    tuner_.finalize(measurer_);
    finalized_ = true;
  }
  if (!end_emitted_) {
    end_emitted_ = true;
    obs_.emit(TraceEventType::kSessionEnd,
              {{"reason", TraceValue(stop_reason_name(stop_reason_))},
               {"measured", TraceValue(num_measured())},
               {"best_flat", TraceValue(best_flat_)},
               {"best_gflops", TraceValue(best_gflops_)}});
  }
  TuneResult result;
  result.tuner_name = tuner_.name();
  result.history = history_;
  result.num_measured = static_cast<std::int64_t>(history_.size());
  result.best = measurer_.best();
  return result;
}

}  // namespace aal
