// simbench: one repetition of one benchmark workload.
//
//   simbench --workload <name> --seed <n> [--trace 0|1] [--scale full|small]
//
// Builds the simulated stack from public constructors (des::Engine,
// net::Fabric, ce::CommWorld, hicma::TlrCholeskyGraph, amt::Runtime — the
// way hicma::run_tlr_cholesky does), times set-up and the simulation phase
// on the host, and prints ONE line of flat JSON: raw host times with the
// probe speeds run.py normalizes them by (see ProbeKernel), simulated
// results, per-layer counters and the names of any failed correctness
// checks.  run.py runs one process per repetition (so an assert abort is a
// counted failure, not a lost benchmark), gates the fingerprint against
// reference.json and aggregates medians.
//
// --trace 1 wraps the boundaries this file owns: a counting/timing
// decorator around the task graph (hicma), and timers around send_am,
// put, progress and the stream's own callbacks (am-stream).  Without it
// the plain graph and direct calls run.  Tracing never changes the
// simulation: every simulated value is identical in both modes.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "amt/runtime.hpp"
#include "ce/world.hpp"
#include "des/engine.hpp"
#include "des/poll_loop.hpp"
#include "des/rng.hpp"
#include "des/sim_thread.hpp"
#include "hicma/driver.hpp"
#include "hicma/tlr_cholesky.hpp"
#include "net/fabric.hpp"
#include "obs/stats.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// CPU time of the calling thread, ns.  The simulator is single-threaded,
/// so on an idle host this equals its wall time; unlike wall time it
/// leaves out the intervals in which the host ran something else.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// Host time of one interval, both clocks.
struct HostTime {
  double wall_ns = 0;
  double cpu_ns = 0;
};

class HostTimer {
 public:
  HostTimer() : wall0_(Clock::now()), cpu0_(thread_cpu_ns()) {}
  HostTime elapsed() const {
    return HostTime{ns_between(wall0_, Clock::now()), thread_cpu_ns() - cpu0_};
  }

 private:
  Clock::time_point wall0_;
  double cpu0_;
};

/// Cost of one timed-but-empty interval (two back-to-back clock reads),
/// subtracted from sampled call timings so short calls are not inflated
/// by the timer itself.
double timer_overhead_ns() {
  std::array<double, 2001> v{};
  for (double& x : v) {
    const auto a = Clock::now();
    const auto b = Clock::now();
    x = ns_between(a, b);
  }
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Flat JSON object, keys in insertion order.
class Out {
 public:
  void num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(key, buf);
  }
  void count(const std::string& key, std::uint64_t v) {
    add(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    add(key, "\"" + v + "\"");
  }
  void list(const std::string& key, const std::vector<std::string>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i == 0 ? "\"" : ", \"") + v[i] + "\"";
    }
    add(key, s + "]");
  }
  std::string json() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
  }
  std::string body_;
};

/// Host-speed probe.  The machines this benchmark runs on share cores and
/// memory with other tenants: host time of one repetition drifts by up to
/// 2x within a minute and by ~20% between neighbouring seconds.  run.py
/// therefore reports host times normalized by the speed of this fixed,
/// self-contained workload (binary heap, hash table of per-key vectors,
/// small allocations — the simulator's own hot-path shape, but none of
/// its code), measured over the same window as the time it normalizes.
class ProbeKernel {
 public:
  ProbeKernel() {
    for (std::uint32_t i = 0; i < 4096; ++i) {
      queue_.push(Ev{next() % 1000, static_cast<std::uint32_t>(next())});
    }
  }

  /// Runs `events` probe events; returns their host time.
  HostTime run(int events) {
    const HostTimer timer;
    for (int n = 0; n < events; ++n) step();
    return timer.elapsed();
  }
  std::uint64_t checksum() const { return acc_; }

 private:
  static constexpr std::uint32_t kKeys = 1u << 14;
  struct Ev {
    std::uint64_t t;
    std::uint32_t key;
    bool operator>(const Ev& o) const { return t > o.t; }
  };
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  void step() {
    const Ev e = queue_.top();
    queue_.pop();
    switch (e.key % 3) {
      case 0:
        acc_ += e.key;
        break;
      case 1:
        state_[e.key % kKeys].push_back(e.key);
        break;
      default: {
        const auto it = state_.find(e.key % kKeys);
        if (it != state_.end()) {
          acc_ += it->second.size();
          state_.erase(it);
        }
      }
    }
    queue_.push(
        Ev{e.t + 1 + next() % 5000, static_cast<std::uint32_t>(next())});
  }

  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> queue_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> state_;
  std::uint64_t acc_ = 0;
};

/// Probe speed right before set-up, in CPU ns per probe event.  Set-up
/// takes well under a probe's length, so the probe runs next to it, not
/// in it.
double setup_probe_ns() {
  constexpr int kEvents = 200000;
  ProbeKernel k;
  const double ns = k.run(kEvents).cpu_ns;
  if (k.checksum() == 1) std::fprintf(stderr, "\n");  // keep the work
  return ns / kEvents;
}

/// Probe speed during the simulation: slices of probe work run between
/// simulation events through the engine's sampler hook (which never
/// perturbs event order), one per `every` of simulated time, so the
/// probe sees the host over exactly the simulation's window.  measure_run
/// subtracts the probe's own time from the simulation's.
class SpeedProbe final : public des::Sampler {
 public:
  SpeedProbe(des::Engine& eng, des::Duration every)
      : eng_(eng), every_(every) {
    eng_.set_sampler(this, every_);
  }
  ~SpeedProbe() override { eng_.set_sampler(nullptr); }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  des::Time on_sample(des::Time now) override {
    const HostTime t = kernel_.run(kSliceEvents);
    total_.wall_ns += t.wall_ns;
    total_.cpu_ns += t.cpu_ns;
    ++slices_;
    return now + every_;
  }

  const HostTime& total() const { return total_; }
  /// CPU ns per probe event.
  double ns_per_event() const {
    return ratio(total_.cpu_ns, static_cast<double>(slices_) * kSliceEvents);
  }

 private:
  static constexpr int kSliceEvents = 1000;
  des::Engine& eng_;
  des::Duration every_;
  ProbeKernel kernel_;
  HostTime total_;
  std::uint64_t slices_ = 0;
};

/// Runs `body`, the simulation phase, under a SpeedProbe and reports its
/// host time without the probe's: run_s in thread CPU time (the metric;
/// it leaves out intervals the host gave to other tenants), run_wall_s in
/// wall time (what the traced breakdown subtracts wall-clock spans from),
/// and the probe's speed.  Returns run_wall_s.
template <typename F>
double measure_run(des::Engine& eng, des::Duration probe_every, Out& out,
                   F&& body) {
  SpeedProbe probe(eng, probe_every);
  const HostTimer timer;
  body();
  const HostTime t = timer.elapsed();
  const double wall_s = (t.wall_ns - probe.total().wall_ns) / 1e9;
  out.num("run_s", (t.cpu_ns - probe.total().cpu_ns) / 1e9);
  out.num("run_wall_s", wall_s);
  out.num("run_probe_ns", probe.ns_per_event());
  return wall_s;
}

std::uint64_t counter_of(const obs::Recorder& rec, const char* name) {
  const obs::Counter* c = rec.find_counter(name);
  return c != nullptr ? c->value() : 0;
}
const obs::Histogram& histogram_of(const obs::Recorder& rec,
                                   const char* name) {
  static const obs::Histogram kEmpty;
  const obs::Histogram* h = rec.find_histogram(name);
  return h != nullptr ? *h : kEmpty;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

ce::CeStats sum_ce_stats(ce::CommWorld& comm) {
  ce::CeStats t;
  for (int n = 0; n < comm.size(); ++n) {
    const ce::CeStats& s = comm.engine(n).stats();
    t.ams_sent += s.ams_sent;
    t.ams_delivered += s.ams_delivered;
    t.puts_started += s.puts_started;
    t.puts_completed_local += s.puts_completed_local;
    t.puts_completed_remote += s.puts_completed_remote;
    t.puts_deferred += s.puts_deferred;
    t.retries_delegated += s.retries_delegated;
    t.eager_puts += s.eager_puts;
  }
  return t;
}

/// Layers below amt, common to every workload: des, net, ce (+ backend),
/// the reliable sublayer and the failure detector.  Also runs the
/// conservation checks those layers must satisfy.
void report_lower_layers(Out& out, std::vector<std::string>& failed,
                         const des::Engine& eng, net::Fabric& fabric,
                         ce::CommWorld& comm, bool fault_free) {
  fabric.export_metrics(comm.metrics());
  const obs::Recorder& rec = comm.metrics();
  const std::uint64_t msgs = fabric.total_messages();
  const std::uint64_t drops = fabric.fault_stats().drops;

  out.count("des.events", eng.events_fired());
  out.num("des.events_per_msg", ratio(static_cast<double>(eng.events_fired()),
                                      static_cast<double>(msgs)));
  out.count("des.past_clamped", eng.past_schedules_clamped());
  if (eng.past_schedules_clamped() > 0) failed.push_back("des.past_clamped");

  out.count("net.msgs", msgs);
  out.count("net.bytes", fabric.total_bytes());
  out.count("net.fault.drops", drops);
  out.num("net.egress_wait_p99_ns",
          histogram_of(rec, "net.egress_wait_ns").p99());
  out.num("net.wire_transit_p99_ns",
          histogram_of(rec, "net.wire_transit_ns").p99());
  if (counter_of(rec, "net.delivered_msgs") + drops != msgs) {
    failed.push_back("net.delivered_plus_drops_eq_msgs");
  }

  const ce::CeStats s = sum_ce_stats(comm);
  out.count("ce.ams_sent", s.ams_sent);
  out.count("ce.ams_delivered", s.ams_delivered);
  out.count("ce.puts_started", s.puts_started);
  out.count("ce.eager_puts", s.eager_puts);
  out.count("ce.puts_deferred", s.puts_deferred);
  out.num("ce.retry_ratio", ratio(static_cast<double>(s.retries_delegated),
                                  static_cast<double>(s.puts_started)));
  out.num("ce.am_queue_p99_ns", histogram_of(rec, "ce.am_queue_ns").p99());
  out.num("ce.data_queue_p99_ns",
          histogram_of(rec, "ce.data_queue_ns").p99());
  out.num("ce.put_remote_p99_ns",
          histogram_of(rec, "ce.put_remote_ns").p99());
  if (fault_free) {
    // The MPI backend delivers each put's handshake through the same
    // persistent AM receives as send_am traffic, so it counts as a
    // delivered AM there; LCI handshakes bypass the AM counters.
    const std::uint64_t handshakes =
        comm.kind() == ce::BackendKind::Mpi ? s.puts_started : 0;
    if (s.ams_delivered != s.ams_sent + handshakes) {
      failed.push_back("ce.ams_delivered");
    }
    if (s.puts_started != s.puts_completed_local ||
        s.puts_started != s.puts_completed_remote) {
      failed.push_back("ce.puts_completed");
    }
  }

  const double rel_data = static_cast<double>(counter_of(rec, "ce.rel.data"));
  const std::uint64_t retransmits = counter_of(rec, "ce.rel.retransmits");
  out.count("ce.rel.data", counter_of(rec, "ce.rel.data"));
  out.count("ce.rel.retransmits", retransmits);
  out.num("ce.rel.retransmit_ratio",
          ratio(static_cast<double>(retransmits), rel_data));
  out.num("ce.rel.acks_per_data",
          ratio(static_cast<double>(counter_of(rec, "ce.rel.acks")), rel_data));
  out.count("ce.rel.dups", counter_of(rec, "ce.rel.dups"));
  out.count("ce.fd.heartbeats", counter_of(rec, "ce.fd.heartbeats"));
  out.num("ce.fd.detect_p99_ms",
          histogram_of(rec, "ce.fd.detect_ns").p99() / 1e6);
  out.count("ce.fd.false_suspects", counter_of(rec, "ce.fd.false_suspects"));
}

// ---------------------------------------------------------------------------
// TLR Cholesky workloads (cholesky-strong / -wide / -crash).

struct CholeskySpec {
  int nodes;
  int n;
  int nb;
  ce::BackendKind backend;
  bool mt_activate;
  bool fat_tree;
  bool crashes;  ///< full tolerance stack + two fail-stop crashes
  des::Duration probe_every;  ///< SpeedProbe cadence, simulated time
};

/// TaskGraphDef decorator for the traced run: counts every call exactly
/// and times one call in kSampleEvery (timing all of them with the host
/// clock nearly doubles the run).  hicma's host self time is estimated as
/// calls x sampled mean, per method.
class CountingGraph final : public amt::TaskGraphDef {
 public:
  enum Method {
    kNumInputs,
    kNumOutputs,
    kRankOf,
    kSuccessors,
    kPriority,
    kExecute,
    kInitialTasks,
    kTotalTasks,
    kMethods
  };
  static constexpr std::array<const char*, kMethods> kNames = {
      "num_inputs", "num_outputs", "rank_of",       "successors",
      "priority",   "execute",     "initial_tasks", "total_tasks"};

  CountingGraph(amt::TaskGraphDef& inner, double timer_ns)
      : inner_(inner), timer_ns_(timer_ns) {}

  int num_inputs(const amt::TaskKey& t) const override {
    return call(kNumInputs, [&] { return inner_.num_inputs(t); });
  }
  int num_outputs(const amt::TaskKey& t) const override {
    return call(kNumOutputs, [&] { return inner_.num_outputs(t); });
  }
  int rank_of(const amt::TaskKey& t) const override {
    return call(kRankOf, [&] { return inner_.rank_of(t); });
  }
  void successors(const amt::TaskKey& t, int flow,
                  std::vector<amt::Dep>& out) const override {
    call(kSuccessors, [&] {
      inner_.successors(t, flow, out);
      return 0;
    });
  }
  double priority(const amt::TaskKey& t) const override {
    return call(kPriority, [&] { return inner_.priority(t); });
  }
  des::Duration execute(const amt::TaskKey& t,
                        amt::RunContext& ctx) override {
    return call(kExecute, [&] { return inner_.execute(t, ctx); });
  }
  void initial_tasks(int rank, std::vector<amt::TaskKey>& out) const override {
    call(kInitialTasks, [&] {
      inner_.initial_tasks(rank, out);
      return 0;
    });
  }
  std::uint64_t total_tasks() const override {
    return call(kTotalTasks, [&] { return inner_.total_tasks(); });
  }

  std::uint64_t calls(Method m) const { return sites_[m].calls; }
  /// Estimated host ns per call (sampled mean, timer cost removed).
  double mean_ns(Method m) const {
    const Site& s = sites_[m];
    return s.timed == 0 ? 0.0
                        : std::max(0.0, s.timed_ns / static_cast<double>(
                                                         s.timed) -
                                            timer_ns_);
  }
  double self_s() const {
    double ns = 0;
    for (int m = 0; m < kMethods; ++m) {
      ns += mean_ns(static_cast<Method>(m)) *
            static_cast<double>(sites_[m].calls);
    }
    return ns / 1e9;
  }

 private:
  static constexpr std::uint64_t kSampleEvery = 16;
  struct Site {
    std::uint64_t calls = 0;
    std::uint64_t timed = 0;
    double timed_ns = 0;
  };

  template <typename F>
  auto call(Method m, F&& f) const -> decltype(f()) {
    Site& s = sites_[m];
    if (s.calls++ % kSampleEvery != 0) return f();
    const auto t0 = Clock::now();
    auto r = f();
    const auto t1 = Clock::now();
    ++s.timed;
    s.timed_ns += ns_between(t0, t1);
    return r;
  }

  amt::TaskGraphDef& inner_;
  double timer_ns_;
  mutable std::array<Site, kMethods> sites_{};
};

/// Everything a Cholesky repetition builds before its first event, in
/// the order hicma::run_tlr_cholesky builds it.
struct CholeskyStack {
  CholeskyStack(const CholeskySpec& spec, const net::FabricConfig& fcfg,
                const ce::CeConfig& ccfg, const hicma::TlrOptions& tlr,
                const amt::RuntimeConfig& rt, bool trace, double timer_ns)
      : fabric(eng, spec.nodes, fcfg),
        comm(fabric, spec.backend, ccfg),
        graph(tlr, spec.nodes),
        counting(trace ? std::make_unique<CountingGraph>(graph, timer_ns)
                       : nullptr),
        runtime(eng, fabric, comm,
                counting != nullptr
                    ? static_cast<amt::TaskGraphDef&>(*counting)
                    : graph,
                rt) {}

  des::Engine eng;
  net::Fabric fabric;
  ce::CommWorld comm;
  hicma::TlrCholeskyGraph graph;
  std::unique_ptr<CountingGraph> counting;  ///< null when untraced
  amt::Runtime runtime;
};

/// Builds a `Stack` kSetups times, tearing each one down before the next,
/// and returns the last with the median set-up time: one set-up takes a
/// few ms, so a single sample is mostly noise.
constexpr std::size_t kSetups = 5;

template <typename Stack, typename... Args>
std::unique_ptr<Stack> build_stack(double& setup_s, const Args&... args) {
  std::array<double, kSetups> t{};
  std::unique_ptr<Stack> stack;
  for (double& x : t) {
    stack.reset();
    const HostTimer timer;
    stack = std::make_unique<Stack>(args...);
    x = timer.elapsed().cpu_ns / 1e9;
  }
  std::nth_element(t.begin(), t.begin() + kSetups / 2, t.end());
  setup_s = t[kSetups / 2];
  return stack;
}

void run_cholesky(const CholeskySpec& spec, std::uint64_t seed, bool trace,
                  Out& out, std::vector<std::string>& failed) {
  hicma::TlrOptions tlr;
  tlr.mode = hicma::TlrOptions::Mode::Model;
  tlr.n = spec.n;
  tlr.nb = spec.nb;
  tlr.rank_model.seed = seed;

  net::FabricConfig fcfg =
      spec.fat_tree ? net::expanse_fat_tree_config() : net::expanse_config();
  if (spec.fat_tree) fcfg.topology.route_salt = seed;
  ce::CeConfig ccfg;
  amt::RuntimeConfig rt;
  rt.mt_activate = spec.mt_activate;
  rt.workers = hicma::workers_for(128, spec.nodes, spec.backend,
                                  ccfg.progress_thread);
  if (spec.crashes) {
    rt.ft.enabled = true;
    ccfg.fd.enabled = true;
    ccfg.reliable.enabled = true;
    ccfg.reliable.seed = seed;
    fcfg.faults.seed = seed;
    fcfg.faults.crashes.push_back(net::CrashEvent{1, des::kSecond / 2, 0});
    fcfg.faults.crashes.push_back(net::CrashEvent{3, des::kSecond, 0});
  }
  const double timer_ns = trace ? timer_overhead_ns() : 0.0;

  double setup_s = 0;
  const auto stack = build_stack<CholeskyStack>(setup_s, spec, fcfg, ccfg,
                                                tlr, rt, trace, timer_ns);
  amt::Runtime& runtime = stack->runtime;
  des::Duration makespan = 0;
  const double run_wall_s = measure_run(stack->eng, spec.probe_every, out,
                                        [&] { makespan = runtime.run(); });
  out.num("setup_s", setup_s);

  const amt::NodeStats st = runtime.aggregate_stats();
  const std::uint64_t total = stack->graph.total_tasks();
  const std::uint64_t executed = runtime.total_tasks_executed();
  if (runtime.run_status() != amt::RunStatus::Ok) {
    failed.push_back(std::string("run_status.") +
                     amt::run_status_name(runtime.run_status()));
  }
  const amt::FaultState* ft = runtime.fault_state();
  const std::uint64_t done = ft != nullptr ? ft->lineage.done_count()
                                           : executed;
  if (done != total || executed < total) failed.push_back("amt.completion");

  out.num("sim_tts_s", des::to_seconds(makespan));
  out.num("sim_e2e_p50_ms", st.latency.e2e_p50_ns() / 1e6);
  out.num("sim_e2e_p99_ms", st.latency.e2e_p99_ns() / 1e6);
  out.count("amt.tasks", executed);
  out.count("amt.tasks_total", total);

  report_lower_layers(out, failed, stack->eng, stack->fabric, stack->comm,
                      !spec.crashes);

  out.num("amt.reexec_ratio", ratio(static_cast<double>(st.tasks_reexecuted),
                                    static_cast<double>(executed)));
  out.count("amt.reannounces", st.reannounces);
  out.num("amt.records_per_am",
          ratio(static_cast<double>(st.activations_sent),
                static_cast<double>(st.activate_ams)));
  out.num("amt.getdata_deferred_ratio",
          ratio(static_cast<double>(st.getdata_deferred),
                static_cast<double>(st.getdata_sent)));
  out.count("amt.forwards", st.forwards);
  const double core_s = des::to_seconds(makespan) * rt.workers * spec.nodes;
  out.num("amt.worker_utilization",
          ratio(des::to_seconds(runtime.total_worker_busy()), core_s));
  out.num("amt.crit_comm_share",
          ratio(static_cast<double>(st.crit.sums.comm),
                static_cast<double>(st.crit.sums.total())));
  for (int s = 0; s < amt::kE2eStages; ++s) {
    out.num(std::string("amt.lat.stage.") + amt::kStageNames[s] + "_mean_ns",
            st.stages.h[static_cast<std::size_t>(s)].mean());
  }

  if (const CountingGraph* counting = stack->counting.get()) {
    using G = CountingGraph;
    for (const G::Method m : {G::kRankOf, G::kSuccessors, G::kNumOutputs,
                              G::kPriority, G::kExecute}) {
      out.count(std::string("hicma.") + G::kNames[m] + "_calls",
                counting->calls(m));
    }
    const double tasks = static_cast<double>(executed);
    out.num("hicma.rank_of_per_task",
            ratio(static_cast<double>(counting->calls(G::kRankOf)), tasks));
    out.num("hicma.successors_per_task",
            ratio(static_cast<double>(counting->calls(G::kSuccessors)), tasks));
    out.num("hicma.self_s", counting->self_s());
    for (const G::Method m : {G::kRankOf, G::kSuccessors, G::kPriority}) {
      out.num(std::string("hicma.") + G::kNames[m] + "_ns",
              counting->mean_ns(m));
    }
    out.num("amt_stack.self_s", run_wall_s - counting->self_s());
  }
}

// ---------------------------------------------------------------------------
// am-stream: a closed loop of raw communication-engine calls.

constexpr ce::Tag kStreamAm = 1;
constexpr ce::Tag kStreamPutDone = 2;
constexpr std::size_t kStreamAmBytes = 64;
constexpr std::size_t kStreamEagerBytes = 4 * 1024;
constexpr std::size_t kStreamRendezvousBytes = 256 * 1024;

struct StreamSpec {
  int nodes;
  int outstanding;  ///< operations in flight per node
  int ops_per_node;
  des::Duration probe_every;  ///< SpeedProbe cadence, simulated time
};

/// Host-time accounting for the traced am-stream run.  `self` excludes
/// time spent in the stream's own callbacks nested inside the call.
struct HostSpan {
  std::uint64_t calls = 0;
  double self_ns = 0;
};

template <bool kTraced>
class AmStream {
 public:
  AmStream(const StreamSpec& spec, std::uint64_t seed)
      : spec_(spec),
        fabric_(eng_, spec.nodes, net::expanse_config()),
        comm_(fabric_, ce::BackendKind::Mpi) {
    nodes_.reserve(static_cast<std::size_t>(spec.nodes));
    for (int r = 0; r < spec.nodes; ++r) {
      nodes_.push_back(std::make_unique<Node>(
          eng_, r, des::derive_seed(seed, static_cast<std::uint64_t>(r))));
    }
    for (int r = 0; r < spec.nodes; ++r) {
      Node& nd = *nodes_[static_cast<std::size_t>(r)];
      ce::CommEngine& ce = comm_.engine(r);
      nd.loop = std::make_unique<des::PollLoop>(nd.thread, 50, [this, &ce]() {
        return timed(progress_, [&] {
                 const int k = ce.progress();
                 if (k > 0) ++progress_hits_;
                 return k;
               }) > 0;
      });
      ce.set_wake_callback([loop = nd.loop.get()]() { loop->wake(); });
      ce.tag_reg(
          kStreamAm,
          [this](ce::CommEngine&, ce::Tag, const void*, std::size_t, int,
                 void*) { callback([&] { ++am_recv_; }); },
          nullptr, kStreamAmBytes);
      ce.tag_reg(
          kStreamPutDone,
          [this](ce::CommEngine&, ce::Tag, const void* msg, std::size_t size,
                 int, void*) {
            callback([&] {
              ++put_remote_;
              des::Time issued = eng_.now();
              if (size == sizeof issued) std::memcpy(&issued, msg, size);
              put_e2e_.add(static_cast<double>(eng_.now() - issued));
            });
          },
          nullptr, kStreamAmBytes);
      nd.loop->start();
    }
    for (auto& nd : nodes_) {
      for (int i = 0; i < spec.outstanding; ++i) post_issue(*nd);
    }
  }

  /// Drains the stream; returns its wall seconds (see measure_run).
  double run(Out& out) {
    return measure_run(eng_, spec_.probe_every, out, [&] { eng_.run(); });
  }

  void report(Out& out, std::vector<std::string>& failed, double run_wall_s) {
    for (auto& nd : nodes_) nd->loop->stop();
    const std::uint64_t ops =
        static_cast<std::uint64_t>(spec_.nodes) * spec_.ops_per_node;
    if (am_sent_ != ops || put_sent_ != ops || am_recv_ != ops ||
        put_local_ != ops || put_remote_ != ops) {
      failed.push_back("stream.every_am_and_put_received");
    }
    out.num("sim_tts_s", des::to_seconds(eng_.now()));
    out.num("sim_e2e_p50_ms", put_e2e_.p50() / 1e6);
    out.num("sim_e2e_p99_ms", put_e2e_.p99() / 1e6);
    out.count("amt.tasks", 0);
    report_lower_layers(out, failed, eng_, fabric_, comm_, true);
    if constexpr (kTraced) {
      const double ce_self_ns =
          send_am_.self_ns + put_.self_ns + progress_.self_ns;
      out.num("ce.send_am_ns", per_call(send_am_));
      out.num("ce.put_ns", per_call(put_));
      out.num("ce.progress_ns", per_call(progress_));
      out.count("ce.progress_calls", progress_.calls);
      out.num("ce.progress_hit_ratio",
              ratio(static_cast<double>(progress_hits_),
                    static_cast<double>(progress_.calls)));
      out.num("ce.self_s", ce_self_ns / 1e9);
      out.num("des_net.self_s", run_wall_s - outer_ns_ / 1e9);
      out.num("amt_stack.self_s", run_wall_s);
    }
  }

 private:
  struct Node {
    Node(des::Engine& eng, int r, std::uint64_t seed)
        : rank(r), thread(eng, "comm-" + std::to_string(r)), rng(seed) {}
    int rank;
    des::SimThread thread;
    std::unique_ptr<des::PollLoop> loop;
    des::Rng rng;
    int issued = 0;
  };

  static double per_call(const HostSpan& s) {
    return ratio(s.self_ns, static_cast<double>(s.calls));
  }

  /// Times `f` as a call into ce: self time excludes nested callbacks.
  template <typename F>
  auto timed(HostSpan& span, F&& f) {
    if constexpr (!kTraced) {
      return f();
    } else {
      const double nested0 = callback_ns_;
      const auto t0 = enter();
      auto r = f();
      const double ns = leave(t0);
      ++span.calls;
      span.self_ns += ns - (callback_ns_ - nested0);
      return r;
    }
  }
  /// Times one of the stream's own callbacks.
  template <typename F>
  void callback(F&& f) {
    if constexpr (!kTraced) {
      f();
    } else {
      const auto t0 = enter();
      f();
      callback_ns_ += leave(t0);
    }
  }
  Clock::time_point enter() {
    ++depth_;
    return Clock::now();
  }
  double leave(Clock::time_point t0) {
    const double ns = ns_between(t0, Clock::now());
    if (--depth_ == 0) outer_ns_ += ns;
    return ns;
  }

  /// Issues the node's next operation from a zero-cost work item on its
  /// comm thread — never from inside a completion callback, which may run
  /// inside put() itself and would recurse.
  void post_issue(Node& nd) {
    if (nd.issued == spec_.ops_per_node) return;
    const int idx = ++nd.issued;
    nd.thread.post([this, &nd, idx]() { callback([&] { issue(nd, idx); }); });
  }

  /// `idx` is the 1-based operation index on this node.
  void issue(Node& nd, int idx) {
    int peer = static_cast<int>(
        nd.rng.below(static_cast<std::uint64_t>(spec_.nodes - 1)));
    if (peer >= nd.rank) ++peer;
    const std::size_t bytes =
        idx % 4 == 0 ? kStreamRendezvousBytes : kStreamEagerBytes;
    ce::CommEngine& ce = comm_.engine(nd.rank);
    const std::array<std::byte, kStreamAmBytes> body{};
    if (timed(send_am_, [&] {
          return ce.send_am(kStreamAm, peer, body.data(), body.size());
        }) != ce::Status::Ok) {
      return;  // never counted as sent: the conservation check fails
    }
    ++am_sent_;
    const ce::MemReg lreg{nd.rank, nullptr, bytes};
    const ce::MemReg rreg{peer, nullptr, bytes};
    const des::Time issued = eng_.now();
    timed(put_, [&] {
      return ce.put(
          lreg, 0, rreg, 0, bytes, peer,
          [this, &nd](ce::CommEngine&, const ce::MemReg&, std::ptrdiff_t,
                      const ce::MemReg&, std::ptrdiff_t, std::size_t, int,
                      void*) {
            callback([&] {
              ++put_local_;
              post_issue(nd);
            });
          },
          nullptr, kStreamPutDone, &issued, sizeof issued);
    });
    ++put_sent_;
  }

  StreamSpec spec_;
  des::Engine eng_;
  net::Fabric fabric_;
  ce::CommWorld comm_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::uint64_t am_sent_ = 0, am_recv_ = 0;
  std::uint64_t put_sent_ = 0, put_local_ = 0, put_remote_ = 0;
  /// Simulated put latency, issue -> remote-completion callback.  The
  /// backend's ce.put_remote_ns starts at the target's handshake, which
  /// an eager transfer has already overtaken, so its median reads ~0.
  obs::Histogram put_e2e_;
  HostSpan send_am_, put_, progress_;
  std::uint64_t progress_hits_ = 0;
  double callback_ns_ = 0;  ///< all stream callback time (nested in ce)
  double outer_ns_ = 0;     ///< time inside any stream-owned span, outermost
  int depth_ = 0;
};

template <bool kTraced>
void run_stream(const StreamSpec& spec, std::uint64_t seed, Out& out,
                std::vector<std::string>& failed) {
  double setup_s = 0;
  const auto stream = build_stack<AmStream<kTraced>>(setup_s, spec, seed);
  const double run_wall_s = stream->run(out);
  out.num("setup_s", setup_s);
  stream->report(out, failed, run_wall_s);
}

// ---------------------------------------------------------------------------

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload "
               "<cholesky-strong|cholesky-wide|cholesky-crash|am-stream> "
               "--seed <n> [--trace 0|1] [--scale full|small]\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  bool small = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--trace") {
      trace = v == "1";
    } else if (a == "--scale") {
      if (v != "full" && v != "small") usage("--scale is full or small");
      small = v == "small";
    } else {
      usage(("unknown option " + a).c_str());
    }
  }

  Out out;
  std::vector<std::string> failed;
  out.num("setup_probe_ns", setup_probe_ns());
  out.str("workload", workload);
  out.count("seed", seed);
  out.count("trace", trace ? 1 : 0);
  // Sizes: a full-scale repetition takes 1-3 s of host time; --scale
  // small (selftest.py) takes well under one.  The probe cadence gives
  // ~300 SpeedProbe slices per full-scale repetition.
  using ce::BackendKind;
  constexpr des::Duration kMs = des::kMillisecond;
  if (workload == "cholesky-strong") {
    run_cholesky(small ? CholeskySpec{8, 36000, 1500, BackendKind::Lci, true,
                                      false, false, kMs}
                       : CholeskySpec{32, 168000, 1500, BackendKind::Lci,
                                      true, false, false, 10 * kMs},
                 seed, trace, out, failed);
  } else if (workload == "cholesky-wide") {
    run_cholesky(small ? CholeskySpec{64, 36000, 1500, BackendKind::Mpi,
                                      false, true, false, kMs}
                       : CholeskySpec{256, 96000, 1500, BackendKind::Mpi,
                                      false, true, false, 6 * kMs},
                 seed, trace, out, failed);
  } else if (workload == "cholesky-crash") {
    run_cholesky(small ? CholeskySpec{8, 60000, 1500, BackendKind::Lci,
                                      false, false, true, kMs}
                       : CholeskySpec{16, 96000, 1500, BackendKind::Lci,
                                      false, false, true, 10 * kMs},
                 seed, trace, out, failed);
  } else if (workload == "am-stream") {
    const StreamSpec spec = small ? StreamSpec{16, 8, 500, kMs / 10}
                                  : StreamSpec{16, 8, 20000, kMs};
    if (trace) {
      run_stream<true>(spec, seed, out, failed);
    } else {
      run_stream<false>(spec, seed, out, failed);
    }
  } else {
    usage(("unknown workload '" + workload + "'").c_str());
  }
  out.num("peak_rss_mb", peak_rss_mb());
  out.list("failed_checks", failed);
  std::printf("%s\n", out.json().c_str());
  return 0;
}
