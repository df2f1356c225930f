// Workloads of the layer-attributed benchmark (see README.md for why each
// exists, what it measures and which layers it should and should not move).
//
//   tune_init    tune_model, bted+bao, budget == num_initial on five zoo
//                models x three targets, a fresh writable store, 2 lanes:
//                BTED/TED, native spaces, graph lowering and store writes.
//   tune_bao     tune_model, bted+bao, budget 2.5 x num_initial on AlexNet,
//                gpu-pascal, jobs=1, no store: the BAO loop (bootstrap fits,
//                batched scoring, scope building).
//   serve_fleet  an in-process TuneServer over a read-only prefilled store,
//                jobs submitted open-loop at one fixed rate: admission, the
//                priority queue, the shared backend, store reads, transfer.
#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "aaltune/aaltune.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

using Values = std::map<std::string, double>;

/// Quality numbers of one pass. They are pure functions of the seed, so two
/// passes of one run (and a traced and an untraced pass) must agree exactly.
struct PassQuality {
  std::int64_t measured = 0;
  std::vector<double> best_gflops;  // per op in a fixed order; 0 = no best
  double deployed_ms = 0.0;
  bool operator==(const PassQuality&) const = default;
};

struct PassResult {
  double wall_s = 0.0;
  std::vector<double> op_ms;  // latency of every op that completed OK
  std::int64_t attempted = 0;
  std::int64_t ok = 0;
  PassQuality quality;
  Values layers;  // per-layer metrics, traced passes only
  std::vector<std::string> errors;
  std::vector<Span> spans;  // kept for the span dump
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the timed phase. Called several times; the next
  /// pass uses the state of the latest call.
  virtual void setup() = 0;
  /// Releases what the last setup() built; not part of setup_s.
  virtual void teardown() = 0;
  virtual PassResult run_pass(bool traced) = 0;
  virtual void describe(RunReport& report) const = 0;
  /// Setup-side per-layer metrics of the last setup().
  virtual Values setup_layers() const = 0;
};

double ms(double seconds) { return seconds * 1e3; }

std::vector<Interval> intervals_of(const std::vector<Span>& spans,
                                   std::initializer_list<SpanKind> kinds) {
  std::vector<Interval> out;
  for (const Span& s : spans) {
    if (std::find(kinds.begin(), kinds.end(), s.kind) != kinds.end()) {
      out.push_back(s.time);
    }
  }
  return out;
}

// --- tune_init / tune_bao ---------------------------------------------------

struct TuneCombo {
  std::string model;
  std::string target;
  std::string schedule_template;
};

struct TuneShape {
  std::string name;
  std::vector<TuneCombo> combos;
  std::int64_t budget = 64;
  int num_initial = 64;
  int lanes = 1;
  bool store = false;
};

TuneShape tune_init_shape(bool smoke) {
  TuneShape shape;
  shape.name = "tune_init";
  const std::vector<std::string> models =
      smoke ? std::vector<std::string>{"alexnet"} : aal::model_zoo_names();
  for (const std::string& m : models) {
    shape.combos.push_back({m, "gpu-pascal", ""});
    shape.combos.push_back({m, "cpu-simd", "native"});
    shape.combos.push_back({m, "fpga-systolic", "native"});
  }
  // Budget == num_initial: BTED picks the whole budget and BAO never runs.
  shape.budget = 64;
  shape.num_initial = 64;
  shape.lanes = 2;
  shape.store = true;
  return shape;
}

TuneShape tune_bao_shape(bool smoke) {
  TuneShape shape;
  shape.name = "tune_bao";
  shape.combos.push_back({"alexnet", "gpu-pascal", ""});
  // 2.5 times num_initial: three BAO iterations for every two initial
  // samples, and passes short enough that a run holds four or five.
  shape.budget = smoke ? 80 : 160;
  shape.num_initial = 64;
  shape.lanes = 1;
  shape.store = false;
  return shape;
}

class TuneWorkload final : public Workload {
 public:
  TuneWorkload(TuneShape shape, const RunOptions& options)
      : shape_(std::move(shape)), options_(options) {}

  void teardown() override { prepared_.clear(); }

  void setup() override {
    setup_log_ = std::make_unique<SpanLog>();
    for (const TuneCombo& c : shape_.combos) {
      ScopedSpan lower(*setup_log_, SpanKind::kLower);
      aal::Graph graph = aal::make_model(c.model);
      const std::size_t tasks =
          aal::extract_tasks(aal::fuse(graph)).size();
      prepared_.push_back(
          Prepared{c, std::move(graph), aal::make_target(c.target), tasks});
    }
  }

  Values setup_layers() const override {
    Values v;
    double lower = 0.0;
    for (const Span& s : setup_log_->spans()) lower += s.time.length();
    v["graph.lower_ms"] = ms(lower);
    return v;
  }

  void describe(RunReport& report) const override {
    std::int64_t tasks = 0;
    for (const Prepared& p : prepared_) tasks += static_cast<std::int64_t>(p.tasks);
    report.provenance.emplace_back("tune_models",
                                   std::to_string(shape_.combos.size()));
    report.provenance.emplace_back("tune_tasks", std::to_string(tasks));
    report.provenance.emplace_back("tune_budget", std::to_string(shape_.budget));
    report.provenance.emplace_back("tune_num_initial",
                                   std::to_string(shape_.num_initial));
    report.provenance.emplace_back("tune_lanes", std::to_string(shape_.lanes));
  }

  PassResult run_pass(bool traced) override {
    PassResult out;
    SpanLog log;
    TracedBackend backend(log);
    aal::MetricsRegistry registry;
    std::unique_ptr<aal::RecordStore> store;
    if (shape_.store) {
      const fs::path dir =
          fs::path(options_.work_dir) / ("store-" + std::to_string(pass_++));
      fs::remove_all(dir);
      ScopedSpan open(log, SpanKind::kStoreOpen);
      store = std::make_unique<aal::RecordStore>(dir.string());
    }
    const aal::TunerFactory factory = traced_bted_bao_factory(log, traced);

    std::int64_t ok_points = 0;
    std::int64_t all_points = 0;
    const double t0 = now_s();
    for (const Prepared& p : prepared_) {
      aal::ModelTuneOptions mo;
      mo.tune.budget = shape_.budget;
      mo.tune.num_initial = shape_.num_initial;
      mo.tune.seed = options_.seed;
      mo.device_seed = options_.seed * 1009 + 7;
      mo.jobs = shape_.lanes;
      mo.store = store.get();
      mo.schedule_template = p.combo.schedule_template;
      if (traced) {
        mo.metrics = &registry;
        mo.measure_backend = &backend;
      }
      log.reset_last_finalize();
      const aal::ModelTuneReport report =
          aal::tune_model(p.graph, p.target, factory, mo);
      if (store) log.add(SpanKind::kFlush, -1, {log.last_finalize(), now_s()});

      double latency = 0.0;
      {
        ScopedSpan deploy(log, SpanKind::kDeploy);
        const aal::LatencyEvaluator evaluator(p.graph, p.target,
                                              p.combo.schedule_template);
        latency = evaluator.deterministic_latency_ms(report.best_flat_by_task());
      }
      out.quality.deployed_ms += latency;
      out.quality.measured += report.total_measured();
      check_report(p, report, latency, out);
      for (const aal::TaskTuneReport& t : report.tasks) {
        for (const aal::TunePoint& pt : t.result.history) {
          ++all_points;
          ok_points += pt.ok ? 1 : 0;
        }
      }
    }
    const double t1 = now_s();
    out.wall_s = t1 - t0;

    out.spans = log.spans();
    for (const Span& s : out.spans) {
      if (s.kind == SpanKind::kTask) out.op_ms.push_back(ms(s.time.length()));
    }
    if (static_cast<std::int64_t>(out.op_ms.size()) != out.attempted) {
      out.errors.push_back(shape_.name + ": " +
                           std::to_string(out.op_ms.size()) + " task spans for " +
                           std::to_string(out.attempted) + " tasks");
    }
    if (store && static_cast<std::int64_t>(store->size()) != out.quality.measured) {
      out.errors.push_back(shape_.name + ": store holds " +
                           std::to_string(store->size()) + " records, run measured " +
                           std::to_string(out.quality.measured));
    }
    if (traced) {
      out.layers = tune_layers(out.spans, {t0, t1}, registry);
      out.layers["measure.ok_frac"] =
          all_points > 0 ? static_cast<double>(ok_points) / all_points : 0.0;
      out.layers["store.records"] =
          store ? static_cast<double>(store->size()) : 0.0;
    }
    if (store) {
      const std::string dir = store->dir();
      store.reset();
      fs::remove_all(dir);
    }
    return out;
  }

 private:
  struct Prepared {
    TuneCombo combo;
    aal::Graph graph;
    aal::TargetSpec target;
    std::size_t tasks = 0;
  };

  void check_report(const Prepared& p, const aal::ModelTuneReport& report,
                    double latency, PassResult& out) const {
    const std::string where = shape_.name + " " + p.combo.model + "@" +
                              p.combo.target;
    if (report.tasks.size() != p.tasks) {
      out.errors.push_back(where + ": " + std::to_string(report.tasks.size()) +
                           " tasks tuned, " + std::to_string(p.tasks) +
                           " extracted");
    }
    if (!(latency > 0.0) || !std::isfinite(latency)) {
      out.errors.push_back(where + ": deployed latency " +
                           std::to_string(latency));
    }
    for (const aal::TaskTuneReport& t : report.tasks) {
      ++out.attempted;
      const aal::TuneResult& r = t.result;
      double best_seen = 0.0;
      for (const aal::TunePoint& pt : r.history) {
        if (pt.ok) best_seen = std::max(best_seen, pt.gflops);
      }
      const bool ok = r.best.has_value() && r.best->ok && r.best->gflops > 0.0;
      if (!ok) {
        out.quality.best_gflops.push_back(0.0);
        continue;
      }
      // With a store, a record another model wrote for the same task may
      // beat everything this session measured.
      const bool best_consistent = shape_.store ? r.best->gflops >= best_seen
                                                : r.best->gflops == best_seen;
      if (r.num_measured < 1 || r.num_measured > shape_.budget ||
          static_cast<std::int64_t>(r.history.size()) != r.num_measured ||
          !best_consistent) {
        out.errors.push_back(where + " " + t.task_key +
                             ": inconsistent result (measured " +
                             std::to_string(r.num_measured) + ", best " +
                             std::to_string(r.best->gflops) + " vs history " +
                             std::to_string(best_seen) + ")");
      }
      ++out.ok;
      out.quality.best_gflops.push_back(r.best->gflops);
    }
  }

  static Values tune_layers(const std::vector<Span>& spans, Interval window,
                            const aal::MetricsRegistry& registry) {
    std::map<std::int64_t, std::vector<const Span*>> by_op;
    for (const Span& s : spans) {
      if (s.op >= 0) by_op[s.op].push_back(&s);
    }
    Values v;
    const auto add = [&v](const std::string& k, double x) { v[k] += x; };
    double fit_rows = 0.0;
    for (const auto& [op, list] : by_op) {
      std::optional<Interval> task;
      std::vector<Interval> ml, fits, predicts, tuner_calls;
      for (const Span* s : list) {
        switch (s->kind) {
          case SpanKind::kTask: task = s->time; break;
          case SpanKind::kFit:
            fits.push_back(s->time);
            ml.push_back(s->time);
            add("ml.fits", 1);
            fit_rows += static_cast<double>(s->count);
            break;
          case SpanKind::kPredict:
            predicts.push_back(s->time);
            ml.push_back(s->time);
            add("ml.score_rows", static_cast<double>(s->count));
            break;
          case SpanKind::kBted:
          case SpanKind::kBao:
          case SpanKind::kObserve:
          case SpanKind::kDispatch:
            tuner_calls.push_back(s->time);
            break;
          default: break;
        }
      }
      if (!task) continue;
      for (const Span* s : list) {
        const double self = self_time(s->time, ml);
        switch (s->kind) {
          case SpanKind::kBted:
            add("core.bted_ms", ms(self));
            add("core.bted_calls", 1);
            break;
          case SpanKind::kBao:
            add("core.bao_ms", ms(self));
            add("core.bao_iterations", 1);
            break;
          case SpanKind::kObserve: add("core.observe_ms", ms(self)); break;
          case SpanKind::kDispatch:
            add("measure.dispatch_ms", ms(s->time.length()));
            add("measure.batches", 1);
            add("measure.configs", static_cast<double>(s->count));
            break;
          default: break;
        }
      }
      add("ml.fit_ms", ms(covered_within(fits, *task)));
      add("ml.score_ms", ms(covered_within(predicts, *task)));
      add("tuner.session_ms", ms(self_time(*task, tuner_calls)));
    }
    v["ml.fit_rows_mean"] = v["ml.fits"] > 0 ? fit_rows / v["ml.fits"] : 0.0;
    const double hits =
        static_cast<double>(registry.counter_value("surrogate.batch_hits"));
    const double rows =
        static_cast<double>(registry.counter_value("surrogate.batch_rows"));
    v["ml.score_hit_frac"] = hits + rows > 0 ? hits / (hits + rows) : 0.0;
    const double checked = static_cast<double>(
        registry.counter_value("space.constraint_checked"));
    const double pruned = static_cast<double>(
        registry.counter_value("space.constraint_pruned"));
    v["space.feasible_frac"] = checked > 0 ? 1.0 - pruned / checked : 1.0;
    double tasks = 0.0;
    double hit_tasks = 0.0;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kTask) {
        tasks += 1;
        hit_tasks += s.count > 0 ? 1 : 0;
      }
      if (s.kind == SpanKind::kDeploy) add("pipeline.deploy_ms", ms(s.time.length()));
      if (s.kind == SpanKind::kFlush) add("store.flush_ms", ms(s.time.length()));
      if (s.kind == SpanKind::kStoreOpen) add("store.open_ms", ms(s.time.length()));
    }
    v["store.hit_frac"] = tasks > 0 ? hit_tasks / tasks : 0.0;
    v["trace.coverage_frac"] =
        covered_within(intervals_of(spans, {SpanKind::kTask, SpanKind::kFlush,
                                            SpanKind::kDeploy}),
                       window) /
        window.length();
    return v;
  }

  TuneShape shape_;
  RunOptions options_;
  std::vector<Prepared> prepared_;
  std::unique_ptr<SpanLog> setup_log_;
  int pass_ = 0;
};

// --- serve_fleet ------------------------------------------------------------

struct FleetShape {
  double rate_per_s = 3.5;  // offered load, jobs per second
  int jobs = 102;           // a multiple of kZooEvery
  int workers = 3;          // server workers + measure lanes <= 4 cores
  int measure_threads = 1;
  int history_samples = 48;  // measured configs per history task
};

/// Returns the value of `key` in an event, or nullptr.
const aal::TraceValue* field(const aal::TraceEvent& e, const char* key) {
  for (const aal::TraceField& f : e.fields) {
    if (f.key == key) return &f.value;
  }
  return nullptr;
}

std::int64_t int_field(const aal::TraceEvent& e, const char* key) {
  const aal::TraceValue* v = field(e, key);
  return v != nullptr ? v->as_int() : 0;
}

/// One job in every kZooEvery is a zoo network (see make_jobs).
constexpr int kZooEvery = 6;

class ServeWorkload final : public Workload {
 public:
  explicit ServeWorkload(const RunOptions& options) : options_(options) {
    if (options.smoke) {
      shape_.jobs = 2 * kZooEvery;
      shape_.rate_per_s = 8.0;
    } else {
      // The arrival schedule fills the requested run time: one pass with
      // as many distinct jobs as the run can offer, so the latency
      // distribution is dense around its median.
      const int blocks = static_cast<int>(
          std::floor(shape_.rate_per_s * options.seconds / kZooEvery));
      shape_.jobs = kZooEvery * std::max(2, blocks);
    }
  }

  void teardown() override {
    server_.reset();
    jobs_.clear();
    fs::remove_all(dir_);
  }

  void setup() override {
    setup_log_ = std::make_unique<SpanLog>();
    dir_ = fs::path(options_.work_dir) / ("serve-" + std::to_string(setups_++));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "models");
    aal::Rng rng(options_.seed * 7919 + 17);
    write_models();
    prefill_store(rng);
    make_jobs(rng);
    server_ = start_server();
  }

  Values setup_layers() const override {
    Values v;
    double lower = 0.0;
    for (const Span& s : setup_log_->spans()) {
      if (s.kind == SpanKind::kLower) lower += s.time.length();
    }
    v["graph.lower_ms"] = ms(lower);
    return v;
  }

  void describe(RunReport& report) const override {
    report.provenance.emplace_back("serve_rate_per_s",
                                   std::to_string(shape_.rate_per_s));
    report.provenance.emplace_back("serve_jobs", std::to_string(shape_.jobs));
    report.provenance.emplace_back("serve_workers",
                                   std::to_string(shape_.workers));
    report.provenance.emplace_back("serve_measure_lanes",
                                   std::to_string(shape_.measure_threads));
    report.provenance.emplace_back("serve_history_records",
                                   std::to_string(history_records_));
  }

  PassResult run_pass(bool traced) override {
    if (!server_) server_ = start_server();
    std::unique_ptr<aal::TuneServer> server = std::move(server_);
    PassResult out;
    SpanLog log;
    if (traced) {
      // The server opened the store already; time a second open of the same
      // prefilled directory.
      ScopedSpan open(log, SpanKind::kStoreOpen);
      aal::RecordStoreOptions ro;
      ro.read_only = true;
      aal::RecordStore reopened((dir_ / "store").string(), ro);
    }

    std::vector<Track> tracks(jobs_.size());
    std::atomic<std::size_t> submitted{0};
    std::atomic<bool> collector_error{false};
    const double t0 = now_s() + 0.05;
    std::thread collector(
        [&] { collect(*server, tracks, submitted, collector_error); });
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      Track& t = tracks[i];
      t.due = t0 + jobs_[i].due_s;
      const double wait = t.due - now_s();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      t.sent = now_s();
      try {
        t.id = server->submit(jobs_[i].spec);
      } catch (const aal::ServeError& e) {
        t.rejected = true;
        out.errors.push_back("serve_fleet: job " + std::to_string(i) +
                             " rejected: " + e.what());
      }
      t.submit_end = now_s();
      submitted.store(i + 1, std::memory_order_release);
    }
    collector.join();
    if (collector_error.load()) out.errors.push_back("serve_fleet: status poll failed");
    double last_done = t0;
    for (const Track& t : tracks) last_done = std::max(last_done, t.done);
    out.wall_s = last_done - t0;

    audit(*server, tracks, out);
    Values trace_layers = read_traces(*server, tracks, out);

    for (std::size_t i = 0; i < tracks.size(); ++i) {
      const Track& t = tracks[i];
      log.add(SpanKind::kSubmit, static_cast<std::int64_t>(i),
              {t.sent, t.submit_end});
      if (t.rejected) continue;
      log.add(SpanKind::kQueued, static_cast<std::int64_t>(i),
              {t.submit_end, t.running});
      log.add(SpanKind::kRun, static_cast<std::int64_t>(i), {t.running, t.done});
    }
    if (traced) {
      out.layers = trace_layers;
      serve_layers(*server, tracks, out.layers);
      // Transfer priors for the transfer jobs' tasks against the same store
      // snapshot the server reads (outside the timed phase).
      aal::RecordStoreOptions ro;
      ro.read_only = true;
      aal::RecordStore store((dir_ / "store").string(), ro);
      aal::TransferParams params;
      params.enabled = true;
      std::int64_t n = 0;
      for (const Job& j : jobs_) {
        if (!j.spec.transfer) continue;
        const aal::TargetSpec target = aal::make_target(j.spec.target);
        for (const aal::Workload& w : j.workloads) {
          const aal::TuningTask task(w, target, j.spec.schedule_template);
          ScopedSpan prior(log, SpanKind::kPrior, n++);
          (void)aal::build_transfer_prior(task, store, params,
                                          static_cast<std::uint64_t>(n),
                                          aal::Obs{});
        }
      }
      double prior_s = 0.0;
      for (const Span& s : log.spans()) {
        if (s.kind == SpanKind::kPrior) prior_s += s.time.length();
        if (s.kind == SpanKind::kStoreOpen) out.layers["store.open_ms"] += ms(s.time.length());
      }
      out.layers["transfer.prior_ms"] = ms(prior_s);
      out.layers["store.records"] = static_cast<double>(history_records_);
      // Per-op accounting: the part of each job's latency (due -> seen
      // terminal) spent in submit, queue or run; the rest is generator lag.
      double covered = 0.0;
      double total = 0.0;
      for (const Track& t : tracks) {
        if (t.rejected) continue;
        covered += t.done - t.sent;
        total += t.done - t.due;
      }
      out.layers["trace.coverage_frac"] = total > 0 ? covered / total : 0.0;
    }
    out.spans = log.spans();
    server.reset();
    return out;
  }

 private:
  struct Job {
    aal::JobSpec spec;
    double due_s = 0.0;
    std::vector<aal::Workload> workloads;  // tasks in model order
    aal::Graph graph;
  };

  // Written by the generator before `submitted` is released, then by the
  // collector only; never by both.
  struct Track {
    double due = 0.0;
    double sent = 0.0;
    double submit_end = 0.0;
    double running = -1.0;
    double done = -1.0;
    std::int64_t id = -1;
    bool rejected = false;
  };

  // The fleet's composition is fixed, so every seed offers the same work;
  // the seed orders the jobs and drives their tuners, devices and history.
  // Twelve single-layer model files; jobs reuse them, so they share tasks.
  void write_models() {
    model_paths_.clear();
    static const char* const kLayers[][2] = {
        {"[1,32,28,28]", "conv2d(%data, channels=64, kernel=3, pad=1)"},
        {"[1,64,14,14]", "conv2d(%data, channels=128, kernel=3, pad=1)"},
        {"[1,16,28,28]", "conv2d(%data, channels=32, kernel=1)"},
        {"[1,64,7,7]", "conv2d(%data, channels=64, kernel=3, pad=1)"},
        {"[1,32,14,14]", "conv2d(%data, channels=128, kernel=1)"},
        {"[1,128,7,7]", "conv2d(%data, channels=32, kernel=3, pad=1)"},
        {"[1,32,28,28]", "depthwise_conv2d(%data, kernel=3, pad=1)"},
        {"[1,64,14,14]", "depthwise_conv2d(%data, kernel=3, pad=1)"},
        {"[1,128,7,7]", "depthwise_conv2d(%data, kernel=3, pad=1)"},
        {"[1,512]", "dense(%data, units=128)"},
        {"[1,1024]", "dense(%data, units=256)"},
        {"[1,256]", "dense(%data, units=64)"},
    };
    const int layers = static_cast<int>(std::size(kLayers));
    for (int m = 0; m < layers; ++m) {
      const auto& layer = kLayers[m];
      std::ostringstream text;
      text << "%data = input(shape=" << layer[0] << ")\n%l1 = " << layer[1]
           << '\n';
      const fs::path path =
          dir_ / "models" / ("m" + std::to_string(m) + ".model");
      std::ofstream(path) << text.str();
      model_paths_.push_back(path.string());
    }
  }

  // History: random measured configs for half of the model files' tasks on
  // gpu-pascal and cpu-simd (fpga has none), so jobs hit, neighbor or miss.
  void prefill_store(aal::Rng& rng) {
    aal::RecordStore store((dir_ / "store").string());
    std::int64_t task_seed = 0;
    for (std::size_t m = 0; m < model_paths_.size(); m += 2) {
      std::vector<aal::Task> tasks;
      {
        ScopedSpan lower(*setup_log_, SpanKind::kLower);
        tasks = aal::extract_tasks(
            aal::fuse(aal::parse_model_file(model_paths_[m])));
      }
      for (const auto& [target_name, tmpl] :
           {std::pair<std::string, std::string>{"gpu-pascal", ""},
            {"cpu-simd", "native"}}) {
        const aal::TargetSpec target = aal::make_target(target_name);
        for (const aal::Task& t : tasks) {
          const aal::TuningTask task(t.workload, target, tmpl);
          if (!store.records_for(task.key()).empty()) continue;
          const aal::SimulatedDevice device(target, options_.seed + ++task_seed);
          aal::Measurer measurer(task, device, aal::MeasureOptions{});
          const std::vector<aal::Config> configs = task.space().sample_distinct(
              std::min<std::int64_t>(shape_.history_samples,
                                     task.space().size()),
              rng);
          std::vector<aal::TuningRecord> records;
          for (const aal::MeasureResult& r : measurer.measure_batch(configs)) {
            records.push_back({task.key(), r.config.flat, r.ok, r.gflops,
                               r.mean_time_us, r.error});
          }
          store.append(records);
        }
      }
    }
    store.flush();
    history_records_ = static_cast<std::int64_t>(store.size());
  }

  void make_jobs(aal::Rng& rng) {
    static const char* const kTargets[] = {"gpu-pascal", "cpu-simd",
                                           "fpga-systolic"};
    // Below and above num_initial (64); the larger two run 8 and 16 BAO
    // iterations per task.
    static const std::int64_t kBudgets[] = {16, 32, 72, 80};
    // The middle slot of every kZooEvery is an AlexNet job on gpu-pascal,
    // the fleet's deployed network. A sixth of the jobs, they are the tail
    // of the latency distribution and op p90 falls inside them, where the
    // distribution is dense; at fixed slots no seed bunches them. The seed
    // shuffles the other jobs.
    const auto is_zoo_slot = [](int i) {
      return i % kZooEvery == kZooEvery / 2;
    };
    std::vector<int> order;  // composition index of each other slot
    for (int i = 0, k = 0; i < shape_.jobs; ++i) {
      if (!is_zoo_slot(i)) order.push_back(k++);
    }
    std::shuffle(order.begin(), order.end(), rng);
    const int files = static_cast<int>(model_paths_.size());
    for (int i = 0, slot = 0; i < shape_.jobs; ++i) {
      Job job;
      aal::JobSpec& s = job.spec;
      const bool zoo = is_zoo_slot(i);
      // Job `k` of the fixed composition lands at position i.
      int k = i;
      int t = 0;  // gpu-pascal
      if (zoo) {
        s.model = "alexnet";
        // BTED picks num_initial configs whatever the budget, so the
        // full initial set costs no more than a smaller budget.
        s.budget = 64;
      } else {
        k = order[static_cast<std::size_t>(slot++)];
        // Every twelve consecutive compositions from 0 meet each model file
        // once, each target four times and each budget three times.
        t = k % 3;
        s.model = model_paths_[static_cast<std::size_t>(
            (k / files + 5 * k) % files)];
        s.budget = kBudgets[(k / 3) % 4];
      }
      s.target = kTargets[t];
      s.schedule_template = t == 0 ? "" : "native";
      s.early_stop = 400;
      s.seed = static_cast<std::int64_t>(rng.next_index(1u << 30)) + 1;
      s.tenant = k % 2 == 0 ? "tenant-a" : "tenant-b";
      s.priority = k % 4 == 1 ? 1 : 0;
      // The zoo jobs are tuned the default way, so their deployed latency
      // compares across runs.
      s.tuner = !zoo && k % 5 == 2 ? "autotvm" : "bted+bao";
      s.transfer = !zoo && k % 4 == 3;
      job.due_s = static_cast<double>(i) / shape_.rate_per_s;
      {
        ScopedSpan lower(*setup_log_, SpanKind::kLower);
        job.graph = fs::exists(s.model) ? aal::parse_model_file(s.model)
                                        : aal::make_model(s.model);
        for (const aal::Task& task : aal::extract_tasks(aal::fuse(job.graph))) {
          job.workloads.push_back(task.workload);
        }
      }
      jobs_.push_back(std::move(job));
    }
  }

  std::unique_ptr<aal::TuneServer> start_server() const {
    aal::TuneServerOptions so;
    so.workers = shape_.workers;
    so.measure_threads = shape_.measure_threads;
    // Admission runs for every job but never rejects: a rejection would
    // depend on timing and make the quality numbers nondeterministic.
    so.max_queued = jobs_.size() + 1;
    so.tenant_quota = static_cast<int>(jobs_.size()) + 1;
    so.store_dir = (dir_ / "store").string();
    so.store_readonly = true;
    return std::make_unique<aal::TuneServer>(so);
  }

  // The single collector: polls the jobs not yet seen terminal and stamps
  // their queued -> running -> terminal transitions.
  static void collect(aal::TuneServer& server, std::vector<Track>& tracks,
                      const std::atomic<std::size_t>& submitted,
                      std::atomic<bool>& error) {
    std::vector<std::size_t> outstanding;
    std::size_t seen = 0;
    while (true) {
      const std::size_t n = submitted.load(std::memory_order_acquire);
      for (; seen < n; ++seen) {
        if (tracks[seen].rejected) {
          tracks[seen].running = tracks[seen].done = tracks[seen].submit_end;
        } else {
          outstanding.push_back(seen);
        }
      }
      if (seen == tracks.size() && outstanding.empty()) return;
      try {
        std::erase_if(outstanding, [&](std::size_t i) {
          Track& t = tracks[i];
          const aal::JobInfo info = server.status(t.id);
          const double now = now_s();
          if (info.state == aal::JobState::kQueued) return false;
          if (t.running < 0) t.running = now;
          if (info.state == aal::JobState::kRunning) return false;
          t.done = now;
          return true;
        });
      } catch (const std::exception&) {
        error.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }

  void audit(aal::TuneServer& server, const std::vector<Track>& tracks,
             PassResult& out) const {
    std::set<std::int64_t> ids;
    std::size_t admitted = 0;
    for (const Track& t : tracks) {
      if (t.rejected) continue;
      ++admitted;
      if (!ids.insert(t.id).second) {
        out.errors.push_back("serve_fleet: duplicated job id " + std::to_string(t.id));
      }
    }
    const std::vector<aal::JobInfo> infos = server.list();
    if (infos.size() != admitted) {
      out.errors.push_back("serve_fleet: server tracks " +
                           std::to_string(infos.size()) + " of " +
                           std::to_string(admitted) + " admitted jobs");
    }
    for (const aal::JobInfo& info : infos) {
      if (ids.count(info.id) == 0) {
        out.errors.push_back("serve_fleet: job " + std::to_string(info.id) +
                             " was never submitted");
      }
      if (info.state == aal::JobState::kQueued ||
          info.state == aal::JobState::kRunning) {
        out.errors.push_back("serve_fleet: job " + std::to_string(info.id) +
                             " left " + info.state_name());
      }
    }
    if (server.metrics().counter_value("serve.jobs_done") +
            server.metrics().counter_value("serve.jobs_failed") +
            server.metrics().counter_value("serve.jobs_cancelled") !=
        static_cast<std::int64_t>(admitted)) {
      out.errors.push_back("serve_fleet: terminal counters disagree with admissions");
    }
  }

  // Reads every job's final state and streamed trace: per-job quality, the
  // deployed latency of each job's model with its best configs, and the
  // counts the traced run reports for layers inside the server.
  Values read_traces(aal::TuneServer& server, const std::vector<Track>& tracks,
                     PassResult& out) const {
    Values v;
    std::int64_t tasks = 0, hit_tasks = 0, transfer_tasks = 0, seeded = 0;
    std::int64_t checked = 0, pruned = 0, fits = 0, fit_rows = 0;
    std::int64_t batches = 0, configs = 0, failures = 0, events = 0;
    std::int64_t bted = 0, bao = 0;
    for (std::size_t i = 0; i < tracks.size(); ++i) {
      ++out.attempted;
      const Track& tr = tracks[i];
      if (tr.rejected) {
        out.quality.best_gflops.push_back(0.0);
        continue;
      }
      const Job& job = jobs_[i];
      const aal::JobInfo info = server.status(tr.id);
      events += info.trace_steps;
      std::vector<std::int64_t> best_flat;
      std::int64_t cursor = 0;
      bool finished = false;
      const bool aal_job = job.spec.tuner == "bted+bao";
      bool first_propose = false;
      while (!finished) {
        for (const std::string& line : server.stream_lines(tr.id, &cursor, &finished)) {
          const aal::TraceEvent e = aal::trace_event_from_jsonl_line(line);
          switch (e.type) {
            case aal::TraceEventType::kSessionBegin:
              ++tasks;
              first_propose = true;
              transfer_tasks += job.spec.transfer ? 1 : 0;
              break;
            case aal::TraceEventType::kSessionEnd:
              best_flat.push_back(int_field(e, "best_flat"));
              break;
            case aal::TraceEventType::kPropose:
              // A bted+bao session's first proposal is the BTED initial
              // set; every later one is a BAO iteration.
              if (aal_job) (first_propose ? bted : bao) += 1;
              first_propose = false;
              break;
            case aal::TraceEventType::kStoreHit: ++hit_tasks; break;
            case aal::TraceEventType::kTransferSeed: ++seeded; break;
            case aal::TraceEventType::kConstraintPrune:
              checked += int_field(e, "checked");
              pruned += int_field(e, "pruned");
              break;
            case aal::TraceEventType::kSurrogateFit:
              ++fits;
              fit_rows += int_field(e, "rows");
              break;
            case aal::TraceEventType::kMeasureBatchEnd:
              ++batches;
              configs += int_field(e, "measured");
              failures += int_field(e, "failures");
              break;
            default: break;
          }
        }
      }
      const bool ok = info.state == aal::JobState::kDone && info.best_gflops > 0.0;
      if (!ok) {
        out.errors.push_back("serve_fleet: job " + std::to_string(info.id) +
                             " ended " + info.state_name() +
                             (info.error.empty() ? "" : ": " + info.error));
        out.quality.best_gflops.push_back(0.0);
        continue;
      }
      if (best_flat.size() != job.workloads.size()) {
        out.errors.push_back("serve_fleet: job " + std::to_string(info.id) +
                             " traced " + std::to_string(best_flat.size()) +
                             " sessions for " +
                             std::to_string(job.workloads.size()) + " tasks");
        out.quality.best_gflops.push_back(0.0);
        continue;
      }
      if (!fs::exists(job.spec.model)) {
        // A zoo network: deploy it with the best config of each task.
        const aal::TargetSpec target = aal::make_target(job.spec.target);
        std::unordered_map<std::string, std::int64_t> best;
        for (std::size_t k = 0; k < best_flat.size(); ++k) {
          if (best_flat[k] < 0) continue;
          best.emplace(aal::TuningTask::key_for(job.workloads[k], target,
                                                job.spec.schedule_template),
                       best_flat[k]);
        }
        const aal::LatencyEvaluator evaluator(job.graph, target,
                                              job.spec.schedule_template);
        out.quality.deployed_ms += evaluator.deterministic_latency_ms(best);
      }
      out.quality.measured += info.measured;
      out.quality.best_gflops.push_back(info.best_gflops);
      out.op_ms.push_back(ms(tr.done - tr.due));
      ++out.ok;
    }
    v["store.hit_frac"] = tasks > 0 ? static_cast<double>(hit_tasks) / tasks : 0.0;
    v["transfer.active_frac"] =
        transfer_tasks > 0 ? static_cast<double>(seeded) / transfer_tasks : 0.0;
    v["space.feasible_frac"] =
        checked > 0 ? 1.0 - static_cast<double>(pruned) / checked : 1.0;
    v["ml.fits"] = static_cast<double>(fits);
    v["ml.fit_rows_mean"] = fits > 0 ? static_cast<double>(fit_rows) / fits : 0.0;
    v["measure.batches"] = static_cast<double>(batches);
    v["measure.configs"] = static_cast<double>(configs);
    v["measure.ok_frac"] =
        configs > 0 ? 1.0 - static_cast<double>(failures) / configs : 0.0;
    v["core.bted_calls"] = static_cast<double>(bted);
    v["core.bao_iterations"] = static_cast<double>(bao);
    v["obs.trace_events"] = static_cast<double>(events);
    return v;
  }

  static void serve_layers(aal::TuneServer& server,
                           const std::vector<Track>& tracks, Values& v) {
    std::vector<double> submit_us, queue_ms, run_ms, late_ms;
    for (const Track& t : tracks) {
      submit_us.push_back((t.submit_end - t.sent) * 1e6);
      const OpenLoopOp op{t.due, t.sent, t.done};
      late_ms.push_back(ms(op.lateness()));
      if (t.rejected) continue;
      queue_ms.push_back(ms(t.running - t.submit_end));
      run_ms.push_back(ms(t.done - t.running));
    }
    v["serve.submit_us_p90"] = percentile(submit_us, 0.9).value;
    v["serve.queue_wait_p50_ms"] = median(queue_ms);
    v["serve.queue_wait_p90_ms"] = percentile(queue_ms, 0.9).value;
    v["serve.run_p50_ms"] = median(run_ms);
    v["serve.run_p90_ms"] = percentile(run_ms, 0.9).value;
    v["serve.gen_late_p90_ms"] = percentile(late_ms, 0.9).value;
    v["serve.queue_high_water"] = static_cast<double>(
        server.metrics().gauge_value("serve.queue_high_water"));
    v["serve.rejected"] =
        static_cast<double>(server.metrics().counter_value("serve.rejected"));
  }

  RunOptions options_;
  FleetShape shape_;
  fs::path dir_;
  int setups_ = 0;
  std::vector<std::string> model_paths_;
  std::vector<Job> jobs_;
  std::int64_t history_records_ = 0;
  std::unique_ptr<SpanLog> setup_log_;
  std::unique_ptr<aal::TuneServer> server_;
};

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "tune_init") {
    return std::make_unique<TuneWorkload>(tune_init_shape(options.smoke), options);
  }
  if (options.workload == "tune_bao") {
    return std::make_unique<TuneWorkload>(tune_bao_shape(options.smoke), options);
  }
  if (options.workload == "serve_fleet") {
    return std::make_unique<ServeWorkload>(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void add_provenance(const RunOptions& options, RunReport& report) {
  auto& p = report.provenance;
  p.emplace_back("git_sha", json_string(options.git_sha));
  p.emplace_back("compiler", json_string(PB_COMPILER));
  p.emplace_back("cxx_flags", json_string(PB_CXX_FLAGS));
  p.emplace_back("build_type", json_string(PB_BUILD_TYPE));
  p.emplace_back("cpu_model", json_string(cpu_model()));
  p.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  p.emplace_back("shared_pool_threads",
                 std::to_string(aal::ThreadPool::shared().size()));
  p.emplace_back("workload", json_string(options.workload));
  p.emplace_back("seed", std::to_string(options.seed));
  p.emplace_back("seconds", std::to_string(options.seconds));
  p.emplace_back("trace", options.trace ? "true" : "false");
}

std::string percentile_note(const char* what, const Percentile& p) {
  std::ostringstream s;
  s << what << ": p90 of a pass over " << p.samples << " samples, " << p.beyond
    << " beyond" << (p.supported ? "" : " (fewer than 10 beyond: read it as a "
                                        "high order statistic, not a tail "
                                        "percentile)");
  return s.str();
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"tune_init", "tune_bao", "serve_fleet"};
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"op_p50_ms", "ms"},
      {"op_p90_ms", "ms"},
      {"ops_ok_frac", "ratio"},
      {"measured_configs", "count"},
      {"best_gflops_geomean", "GFLOPS"},
      {"deployed_latency_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"graph.lower_ms", "ms"},
      {"space.feasible_frac", "ratio"},
      {"core.bted_ms", "ms"},
      {"core.bted_calls", "count"},
      {"core.bao_ms", "ms"},
      {"core.bao_iterations", "count"},
      {"core.observe_ms", "ms"},
      {"ml.fit_ms", "ms"},
      {"ml.fits", "count"},
      {"ml.fit_rows_mean", "rows"},
      {"ml.score_ms", "ms"},
      {"ml.score_rows", "count"},
      {"ml.score_hit_frac", "ratio"},
      {"tuner.session_ms", "ms"},
      {"measure.dispatch_ms", "ms"},
      {"measure.batches", "count"},
      {"measure.configs", "count"},
      {"measure.ok_frac", "ratio"},
      {"pipeline.deploy_ms", "ms"},
      {"store.flush_ms", "ms"},
      {"store.open_ms", "ms"},
      {"store.records", "count"},
      {"store.hit_frac", "ratio"},
      {"transfer.prior_ms", "ms"},
      {"transfer.active_frac", "ratio"},
      {"serve.submit_us_p90", "us"},
      {"serve.queue_wait_p50_ms", "ms"},
      {"serve.queue_wait_p90_ms", "ms"},
      {"serve.run_p50_ms", "ms"},
      {"serve.run_p90_ms", "ms"},
      {"serve.queue_high_water", "count"},
      {"serve.rejected", "count"},
      {"serve.gen_late_p90_ms", "ms"},
      {"obs.trace_events", "count"},
      {"trace.overhead_frac", "ratio"},
      {"trace.coverage_frac", "ratio"},
  };
  return names;
}

RunReport run_workload(const RunOptions& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  RunReport report;
  add_provenance(options, report);
  fs::create_directories(options.work_dir);

  // Set-up, in rounds: one before every pass and one after the last, each
  // repeated until kSetupRoundS is spent (between kMinSetups and kMaxSetups
  // times); setup_s is the median of them all. The host's speed changes
  // from one second to the next, so the samples spread over the run as the
  // passes do rather than coming from one moment. A pass uses the state of
  // the set-up just before it.
  constexpr double kSetupRoundS = 0.25;
  constexpr int kMinSetups = 3;
  constexpr int kMaxSetups = 50000;
  std::vector<double> setup_s;
  const auto set_up = [&] {
    double spent = 0.0;
    for (int n = 0; n < kMaxSetups && (n < kMinSetups || spent < kSetupRoundS);
         ++n) {
      if (!setup_s.empty()) workload->teardown();
      const double start = now_s();
      workload->setup();
      setup_s.push_back(now_s() - start);
      spent += setup_s.back();
    }
  };

  std::vector<PassResult> passes;
  const auto run_pass = [&](bool traced) {
    set_up();
    passes.push_back(workload->run_pass(traced));
  };
  if (options.trace) {
    run_pass(false);
    run_pass(true);
  } else {
    // Whole passes while another one, as long as the last, still fits in
    // the run time; at least one.
    const double start = now_s();
    do {
      run_pass(false);
    } while (now_s() - start + passes.back().wall_s <= options.seconds);
  }
  workload->describe(report);
  set_up();

  for (const PassResult& p : passes) {
    report.errors.insert(report.errors.end(), p.errors.begin(), p.errors.end());
    report.attempted += p.attempted;
    report.failed += p.attempted - p.ok;
    if (!(p.quality == passes.front().quality)) {
      report.errors.push_back(
          options.workload + ": quality differs between passes of one seed "
          "(measured " + std::to_string(passes.front().quality.measured) +
          " vs " + std::to_string(p.quality.measured) + ")");
    }
  }

  std::vector<double> walls;
  std::vector<std::vector<double>> ops;
  for (const PassResult& p : passes) {
    walls.push_back(p.wall_s);
    ops.push_back(p.op_ms);
  }
  const PassQuality& q = passes.front().quality;
  std::vector<double> positive;
  for (double g : q.best_gflops) {
    if (g > 0.0) positive.push_back(g);
  }
  const auto p50_of = [](const std::vector<double>& v) { return median(v); };
  const auto p90_of = [](const std::vector<double>& v) {
    return percentile(v, 0.9).value;
  };
  std::string pass_walls;
  for (double w : walls) pass_walls += " " + std::to_string(w);
  report.notes.push_back("passes: " + std::to_string(passes.size()) +
                         ", wall_s of each:" + pass_walls);
  report.notes.push_back(
      percentile_note("op latency", percentile(passes.front().op_ms, 0.9)) +
      "; op_p50_ms and op_p90_ms are medians over the passes");
  report.notes.push_back("setups: " + std::to_string(setup_s.size()));

  if (!options.trace) {
    Values v;
    v["setup_s"] = median(setup_s);
    v["wall_s"] = median(walls);
    v["op_p50_ms"] = median_over_passes(ops, p50_of);
    v["op_p90_ms"] = median_over_passes(ops, p90_of);
    v["ops_ok_frac"] = report.attempted > 0
                           ? 1.0 - static_cast<double>(report.failed) /
                                       static_cast<double>(report.attempted)
                           : 0.0;
    v["measured_configs"] = static_cast<double>(q.measured);
    v["best_gflops_geomean"] = positive.empty() ? 0.0 : geomean(positive);
    v["deployed_latency_ms"] = q.deployed_ms;
    v["peak_rss_mb"] = peak_rss_mb();
    for (const auto& [name, unit] : end_to_end_metrics()) {
      report.metrics.push_back({name, v[name], unit});
    }
  } else {
    const PassResult& untraced = passes[0];
    const PassResult& traced = passes[1];
    Values v = traced.layers;
    for (const auto& [k, x] : workload->setup_layers()) v[k] = x;
    v["trace.overhead_frac"] = (traced.wall_s - untraced.wall_s) / untraced.wall_s;
    for (const auto& [name, unit] : per_layer_metrics()) {
      report.metrics.push_back({name, v[name], unit});
    }
    if (v["trace.coverage_frac"] < kMinCoverage) {
      report.errors.push_back(
          options.workload + ": layer spans cover " +
          std::to_string(v["trace.coverage_frac"]) + " of the traced run, below " +
          std::to_string(kMinCoverage));
    }
    const std::string path = (fs::path(options.work_dir) /
                              ("spans-" + options.workload + ".jsonl"))
                                 .string();
    write_spans_jsonl(traced.spans, path);
    report.notes.push_back("spans: " + path);
    report.notes.push_back("untraced wall_s " + std::to_string(untraced.wall_s) +
                           ", traced wall_s " + std::to_string(traced.wall_s));
  }
  return report;
}

}  // namespace perfbench
