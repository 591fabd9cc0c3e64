// perfbench — fixed-work, single-threaded measurement driver for the
// simulator, built only from the library's public API.
//
//   perfbench --workload radix-evict --golden baselines/golden_default_run.csv
//             [--seed N] [--seconds S] [--trace 0|1]
//
// One *pass* runs every point of the workload once, in a fixed order, on
// this thread: make_workload + Machine constructor (set-up), Machine::run,
// and for the `observed` workload the obs/prof exporters into memory.  A
// warm-up pass is run and discarded first, then whole passes repeat until
// --seconds have been spent measuring (at least kMinPasses), each preceded
// by kSetupPerPass samples of set-up alone.  Every pass is the same work, so
// the per-pass samples can be summarised by quantiles.
//
// With --trace 1 the run measures per-layer numbers instead: a few untraced
// passes, then passes with a selfprof::Collector installed around
// Machine::run, plus Workload::stream generation timed separately.
//
// Correctness: the golden point (em3d, all architectures, 30/70 %, scale
// 0.1, seed 42) is simulated first and its CSV rows must match the golden
// file byte for byte; a point fails when Machine::run throws or when its
// simulated counters differ from the warm-up pass.
//
// The last line of stdout is one JSON object of raw per-pass samples; the
// wrapper perfbench/run.py turns it into medians and the benchmark result.

#include <array>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/machine.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/sink.hh"
#include "prof/profiler.hh"
#include "report/report.hh"
#include "selfprof/collector.hh"
#include "selfprof/host.hh"
#include "workload/workload.hh"

namespace {

using namespace ascoma;
using Clock = std::chrono::steady_clock;
using selfprof::HostSite;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads ---------------------------------------------------------------

struct Point {
  const char* program;
  ArchModel arch;
  double pressure;  // fraction of each node's frames holding home pages
  double scale;     // make_workload iteration multiplier
};

struct WorkloadDef {
  const char* name;
  std::vector<Point> points;
  bool observed;  // attach sink + profiler + registry and export after run
};

// Why each workload exists is recorded in perfbench/README.md.
const std::vector<WorkloadDef>& workload_defs() {
  static const std::vector<WorkloadDef> defs = {
      {"radix-evict",
       {{"radix", ArchModel::kScoma, 0.5, 0.25},
        {"radix", ArchModel::kScoma, 0.9, 0.25}},
       false},
      {"ccnuma-access",
       {{"radix", ArchModel::kCcNuma, 0.5, 0.25},
        {"barnes", ArchModel::kCcNuma, 0.5, 0.5}},
       false},
      // CC-NUMA ignores memory pressure, so one CC-NUMA barnes point pairs
      // with both AS-COMA barnes points.
      {"adaptive-long",
       {{"barnes", ArchModel::kAsComa, 0.7, 2.0},
        {"barnes", ArchModel::kAsComa, 0.9, 2.0},
        {"barnes", ArchModel::kCcNuma, 0.9, 2.0},
        {"radix", ArchModel::kAsComa, 0.9, 2.0},
        {"radix", ArchModel::kCcNuma, 0.9, 2.0}},
       false},
      {"observed", {{"barnes", ArchModel::kAsComa, 0.9, 1.0}}, true},
  };
  return defs;
}

std::string label(const Point& p) {
  std::ostringstream os;
  os << p.program << ' ' << to_string(p.arch) << '@'
     << static_cast<int>(p.pressure * 100.0 + 0.5) << "% x" << p.scale;
  return os.str();
}

// ---- digests -----------------------------------------------------------------

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex;
  os.width(16);
  os.fill('0');
  os << v;
  return os.str();
}

/// Every simulated counter of a run that the layer metrics read, as text.
std::string counters_text(const Point& p, const core::RunResult& r) {
  const NodeStats& t = r.stats.totals;
  const KernelStats& k = t.kernel;
  std::ostringstream os;
  os << report::csv_row(p.program, to_string(p.arch), r) << ';' << t.l1_hits
     << ',' << t.induced_cold_misses << ',' << t.upgrades_issued << ','
     << k.lines_flushed << ',' << k.daemon_runs << ','
     << k.daemon_reclaim_failures << ',' << k.threshold_raises << ','
     << k.threshold_drops << ',' << r.net_messages << ','
     << r.directory_invalidations << ',' << r.directory_forwards << ','
     << r.writebacks_local << ',' << r.writebacks_remote << ','
     << r.lock_acquisitions << ',' << r.barrier_episodes << ';';
  for (auto th : r.final_threshold) os << th << ' ';
  for (auto on : r.relocation_enabled) os << int{on};
  return os.str();
}

// ---- one point ---------------------------------------------------------------

struct PointRun {
  bool ok = false;
  std::string error;
  double run_s = 0.0;
  double export_s = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;
  core::RunResult result;
  /// Traced runs only: self nanoseconds per instrumented site.
  std::array<double, selfprof::kNumHostSites> self_ns{};
};

/// Observers of the `observed` workload; constructed before the Machine
/// because the registry is only reachable through MachineConfig.
struct Observers {
  obs::EventSink sink;
  prof::Profiler profiler;
  obs::Registry registry;
};

constexpr Cycle kSampleEvery{100'000};  // the CLI's default gauge period
/// Set-up takes milliseconds, so it is sampled on its own, several times
/// before every measured pass; the samples then span the whole run.
constexpr int kSetupPerPass = 4;
/// Measured passes per untraced run, however short --seconds is: enough
/// that the upper quartile of the pass times has ten samples beyond it.
constexpr int kMinPasses = 40;

/// Everything one point needs before its first simulated op.
struct Rig {
  std::unique_ptr<workload::Workload> wl;
  std::unique_ptr<Observers> o;
  std::unique_ptr<core::Machine> m;
};

/// The timed set-up of a point: make_workload, observers, Machine.
Rig make_rig(const Point& p, std::uint64_t seed, bool observed) {
  Rig rig;
  rig.wl = workload::make_workload(p.program, p.scale);
  if (!rig.wl) throw std::runtime_error("unknown program");
  if (observed) rig.o = std::make_unique<Observers>();
  MachineConfig cfg;
  cfg.arch = p.arch;
  cfg.memory_pressure = p.pressure;
  cfg.seed = seed;
  if (rig.o) cfg.registry = &rig.o->registry;
  rig.m = std::make_unique<core::Machine>(cfg, *rig.wl);
  if (rig.o) {
    rig.m->install_sink(&rig.o->sink, kSampleEvery);
    rig.m->install_profiler(&rig.o->profiler);
  }
  return rig;
}

PointRun run_point(const Point& p, std::uint64_t seed, bool observed,
                   bool traced) {
  PointRun pr;
  try {
    Rig rig = make_rig(p, seed, observed);
    const auto t1 = Clock::now();

    std::optional<selfprof::Collector> col;
    if (traced) col.emplace();
    {
      std::optional<selfprof::ScopedInstall> install;
      if (col) install.emplace(&*col);
      pr.result = rig.m->run();
    }
    pr.run_s = since(t1);

    if (Observers* o = rig.o.get()) {
      const auto t2 = Clock::now();
      std::ostringstream out;
      obs::write_jsonl(out, o->sink);
      obs::write_perfetto(out, o->sink, rig.wl->nodes());
      obs::write_metrics_csv(out, o->sink);
      o->profiler.write_latency_json(out);
      o->profiler.write_heat_json(out);
      o->profiler.write_summary_json(out);
      o->registry.write_prometheus(out);
      pr.export_s = since(t2);
      if (out.str().empty()) throw std::runtime_error("empty export");
      pr.events = o->sink.size();
      pr.events_dropped = o->sink.dropped();
    }
    if (col) {
      const std::vector<selfprof::TimerNode>& nodes = col->nodes();
      for (std::size_t i = 0; i < nodes.size(); ++i)
        pr.self_ns[static_cast<std::size_t>(nodes[i].site)] += static_cast<double>(
            col->self_time(static_cast<int>(i)).value());
    }
    const NodeStats& t = pr.result.stats.totals;
    pr.accesses = t.shared_loads + t.shared_stores;
    std::string text = counters_text(p, pr.result);
    if (observed)
      text += ';' + std::to_string(pr.events) + ',' +
              std::to_string(pr.events_dropped);
    pr.digest = fnv1a(text);
    pr.ok = true;
  } catch (const std::exception& e) {
    pr.ok = false;
    pr.error = label(p) + ": " + e.what();
  }
  return pr;
}

/// Workload::stream for every process of `p`, drained to kEnd.  Returns
/// host seconds; `*accesses` receives the loads + stores generated.
double time_stream_generation(const Point& p, std::uint64_t seed,
                              std::uint64_t* accesses) {
  const auto wl = workload::make_workload(p.program, p.scale);
  MachineConfig cfg;
  cfg.seed = seed;
  const std::uint64_t wl_seed =
      cfg.component_seed(MachineConfig::kSeedStreamWorkload);
  std::uint64_t n = 0;
  const auto t0 = Clock::now();
  for (std::uint32_t proc = 0; proc < wl->processes(); ++proc) {
    const auto s = wl->stream(proc, wl_seed);
    for (Op op = s->next(); op.kind != OpKind::kEnd; op = s->next())
      if (op.kind == OpKind::kLoad || op.kind == OpKind::kStore) ++n;
  }
  *accesses = n;
  return since(t0);
}

// ---- golden-point oracle -----------------------------------------------------

/// Simulate the golden point and compare its CSV with `path` byte for byte.
bool golden_matches(const std::string& path, std::string* why) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *why = "cannot read " + path;
    return false;
  }
  std::ostringstream want;
  want << in.rdbuf();

  const auto wl = workload::make_workload("em3d", 0.1);
  std::ostringstream got;
  got << report::csv_header() << '\n';
  for (ArchModel arch : {ArchModel::kCcNuma, ArchModel::kScoma,
                         ArchModel::kRNuma, ArchModel::kVcNuma,
                         ArchModel::kAsComa}) {
    for (double pressure : {0.3, 0.7}) {
      MachineConfig cfg;
      cfg.arch = arch;
      cfg.memory_pressure = pressure;
      cfg.seed = 42;
      got << report::csv_row(wl->name(), to_string(arch),
                             core::simulate(cfg, *wl))
          << '\n';
      if (arch == ArchModel::kCcNuma) break;  // pressure-independent
    }
  }
  if (got.str() == want.str()) return true;
  *why = "golden point CSV differs from " + path + ":\n" + got.str();
  return false;
}

/// One set-up sample: every point of the workload set up (then torn down,
/// untimed).
double time_setup(const WorkloadDef& w, std::uint64_t seed) {
  double total = 0.0;
  for (const Point& p : w.points) {
    const auto t0 = Clock::now();
    const Rig rig = make_rig(p, seed, w.observed);
    total += since(t0);
  }
  return total;
}

// ---- passes ------------------------------------------------------------------

struct Pass {
  double wall_s = 0.0;
  double run_s = 0.0;
  double export_s = 0.0;
  std::uint64_t accesses = 0;
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;
  std::array<double, selfprof::kNumHostSites> self_ns{};
  std::vector<PointRun> points;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

Pass run_pass(const WorkloadDef& w, std::uint64_t seed, bool traced,
              const std::vector<std::uint64_t>* reference, Tally* tally) {
  Pass pass;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    PointRun pr = run_point(w.points[i], seed, w.observed, traced);
    ++tally->attempted;
    if (pr.ok && reference != nullptr && (*reference)[i] != pr.digest) {
      pr.ok = false;
      pr.error = label(w.points[i]) +
                 ": simulated counters differ from the warm-up pass";
    }
    if (!pr.ok) {
      ++tally->failed;
      if (tally->errors.size() < 8) tally->errors.push_back(pr.error);
    }
    pass.run_s += pr.run_s;
    pass.export_s += pr.export_s;
    pass.accesses += pr.accesses;
    pass.events += pr.events;
    pass.events_dropped += pr.events_dropped;
    for (std::size_t s = 0; s < pass.self_ns.size(); ++s)
      pass.self_ns[s] += pr.self_ns[s];
    pass.points.push_back(std::move(pr));
  }
  pass.wall_s = since(t0);
  return pass;
}

/// Whole passes until `seconds` have elapsed, at least `min_passes`.  When
/// `setup_s` is given, kSetupPerPass set-up samples precede every pass.
std::vector<Pass> run_passes(const WorkloadDef& w, std::uint64_t seed,
                             bool traced, double seconds, int min_passes,
                             const std::vector<std::uint64_t>& reference,
                             Tally* tally, std::vector<double>* setup_s) {
  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  while (static_cast<int>(passes.size()) < min_passes || since(t0) < seconds) {
    for (int i = 0; setup_s != nullptr && i < kSetupPerPass; ++i) {
      try {
        setup_s->push_back(time_setup(w, seed));
      } catch (const std::exception& e) {
        ++tally->failed;
        tally->errors.push_back(std::string("set-up: ") + e.what());
        setup_s = nullptr;
      }
    }
    passes.push_back(run_pass(w, seed, traced, &reference, tally));
    passes.back().points.clear();  // only the warm-up's results are reported
  }
  return passes;
}

// ---- JSON output -------------------------------------------------------------

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

template <class F>
std::string array_of(const std::vector<Pass>& passes, F f) {
  std::ostringstream os;
  os.precision(17);
  os << '[';
  for (std::size_t i = 0; i < passes.size(); ++i)
    os << (i ? "," : "") << f(passes[i]);
  os << ']';
  return os.str();
}

std::string quoted(const std::string& s) {
  return '"' + obs::json_escape(s) + '"';
}

/// Machine-wide simulated counters summed over the workload's points.
std::string layer_counts(const std::vector<Point>& points,
                         const std::vector<PointRun>& pts) {
  std::uint64_t acc = 0, l1 = 0, induced = 0, down = 0, up = 0, flushed = 0,
                suppressed = 0, daemon = 0, reclaim_fail = 0, raises = 0,
                reloc_off = 0, msgs = 0, invals = 0, wb_remote = 0;
  std::array<std::uint64_t, kNumMissSources> miss{};
  double k_ovhd = 0.0, sync = 0.0, total = 0.0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const core::RunResult& r = pts[i].result;
    const NodeStats& t = r.stats.totals;
    acc += t.shared_loads + t.shared_stores;
    l1 += t.l1_hits;
    induced += t.induced_cold_misses;
    for (std::size_t s = 0; s < miss.size(); ++s) miss[s] += t.misses.count[s];
    down += t.kernel.downgrades;
    up += t.kernel.upgrades;
    flushed += t.kernel.lines_flushed;
    suppressed += t.kernel.remap_suppressed;
    daemon += t.kernel.daemon_runs;
    reclaim_fail += t.kernel.daemon_reclaim_failures;
    raises += t.kernel.threshold_raises;
    // CC-NUMA and S-COMA never relocate, so only the adaptive policies can
    // have switched relocation off.
    const ArchModel arch = points[i].arch;
    if (arch != ArchModel::kCcNuma && arch != ArchModel::kScoma)
      for (auto on : r.relocation_enabled) reloc_off += on ? 0 : 1;
    msgs += r.net_messages;
    invals += r.directory_invalidations;
    wb_remote += r.writebacks_remote;
    k_ovhd += static_cast<double>(t.time[TimeBucket::kKernelOvhd].value());
    sync += static_cast<double>(t.time[TimeBucket::kSync].value());
    total += static_cast<double>(t.time.total().value());
  }
  auto share = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  std::ostringstream os;
  os << "\"workload.accesses\":" << acc
     << ",\"mem.l1_hit_ratio\":" << num(share(double(l1), double(acc)))
     << ",\"mem.induced_cold_misses\":" << induced;
  const char* names[] = {"home", "scoma", "rac", "cold", "conf_capc",
                         "coherence"};
  for (int s = 0; s < kNumMissSources; ++s)
    os << ",\"mem.miss_" << names[s]
       << "\":" << miss[static_cast<std::size_t>(s)];
  os << ",\"vm.downgrades\":" << down << ",\"vm.upgrades\":" << up
     << ",\"vm.lines_flushed\":" << flushed
     << ",\"vm.remap_suppressed\":" << suppressed
     << ",\"vm.daemon_runs\":" << daemon
     << ",\"vm.daemon_reclaim_failures\":" << reclaim_fail
     << ",\"arch.threshold_raises\":" << raises
     << ",\"arch.relocation_disabled_nodes\":" << reloc_off
     << ",\"net.messages\":" << msgs
     << ",\"proto.dir_invalidations\":" << invals
     << ",\"proto.writebacks_remote\":" << wb_remote
     << ",\"core.k_overhd_share\":" << num(share(k_ovhd, total))
     << ",\"core.sync_share\":" << num(share(sync, total));
  return os.str();
}

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload NAME --golden CSV [--seed N]"
               " [--seconds S] [--trace 0|1]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, golden;
  std::uint64_t seed = MachineConfig{}.seed;
  double seconds = 20.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") name = v;
      else if (a == "--golden") golden = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v) != 0;
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : workload_defs())
    if (name == d.name) w = &d;
  if (w == nullptr) usage("unknown workload '" + name + "'");
  if (golden.empty()) usage("--golden is required");
  if (!(seconds > 0.0)) usage("--seconds must be positive");

  const auto t_oracle = Clock::now();
  std::string why;
  if (!golden_matches(golden, &why)) {
    std::cerr << "perfbench: oracle failed: " << why << '\n';
    return 1;
  }
  const double oracle_s = since(t_oracle);

  Tally tally;
  // Warm-up pass: discarded from every timing; its digests are the reference
  // the measured passes must reproduce.
  Pass warm = run_pass(*w, seed, false, nullptr, &tally);
  std::vector<std::uint64_t> reference;
  for (const PointRun& p : warm.points) reference.push_back(p.digest);

  std::vector<double> setup_s;
  std::vector<Pass> untraced, traced;
  double gen_s = 0.0;
  std::uint64_t gen_accesses = 0;
  if (!trace) {
    untraced = run_passes(*w, seed, false, seconds, kMinPasses, reference,
                          &tally, &setup_s);
  } else {
    // Per-layer numbers carry no bound, so one pass of each kind suffices;
    // the untraced ones are the base of trace.overhead_ratio.
    untraced = run_passes(*w, seed, false, seconds / 4, 1, reference, &tally,
                          &setup_s);
    traced = run_passes(*w, seed, true, seconds / 2, 1, reference, &tally,
                        nullptr);
    for (const Point& p : w->points) {
      std::uint64_t n = 0;
      gen_s += time_stream_generation(p, seed, &n);
      gen_accesses += n;
    }
  }
  const double peak_rss_mb =
      static_cast<double>(selfprof::peak_rss_bytes()) / (1024.0 * 1024.0);

  // Per-point digests and the workload digest (over the warm-up pass).
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::ostringstream points;
  points << '[';
  for (std::size_t i = 0; i < w->points.size(); ++i) {
    const PointRun& p = warm.points[i];
    digest = fnv1a(hex(p.digest), digest);
    points << (i ? "," : "") << "{\"label\":" << quoted(label(w->points[i]))
           << ",\"ok\":" << (p.ok ? "true" : "false")
           << ",\"digest\":" << quoted(hex(p.digest))
           << ",\"cycles\":" << p.result.cycles().value()
           << ",\"accesses\":" << p.accesses << '}';
  }
  points << ']';

  // AS-COMA / CC-NUMA simulated-cycle ratio for every AS-COMA point that has
  // a CC-NUMA point of the same program and scale.
  std::ostringstream ratios;
  ratios << '[';
  const char* sep = "";
  for (std::size_t i = 0; i < w->points.size(); ++i) {
    const Point& a = w->points[i];
    if (a.arch != ArchModel::kAsComa) continue;
    for (std::size_t j = 0; j < w->points.size(); ++j) {
      const Point& c = w->points[j];
      if (c.arch != ArchModel::kCcNuma ||
          std::string(c.program) != a.program || c.scale != a.scale ||
          !warm.points[i].ok || !warm.points[j].ok)
        continue;
      const double ratio =
          static_cast<double>(warm.points[i].result.cycles().value()) /
          static_cast<double>(warm.points[j].result.cycles().value());
      ratios << sep << "{\"pair\":" << quoted(label(a))
             << ",\"ratio\":" << num(ratio) << '}';
      sep = ",";
    }
  }
  ratios << ']';

  std::ostringstream js;
  js << "{\"workload\":" << quoted(w->name) << ",\"seed\":" << seed
     << ",\"oracle_s\":" << num(oracle_s) << ",\"attempted\":"
     << tally.attempted << ",\"failed\":" << tally.failed << ",\"errors\":[";
  for (std::size_t i = 0; i < tally.errors.size(); ++i)
    js << (i ? "," : "") << quoted(tally.errors[i]);
  js << "],\"digest\":" << quoted(hex(digest)) << ",\"points\":" << points.str()
     << ",\"ratios\":" << ratios.str() << ",\"peak_rss_mb\":" << num(peak_rss_mb)
     << ",\"warmup_wall_s\":" << num(warm.wall_s) << ",\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    js << (i ? "," : "") << num(setup_s[i]);
  js << ']';
  auto passes_json = [](const std::vector<Pass>& ps) {
    std::string s = "{\"wall_s\":" +
                    array_of(ps, [](const Pass& p) { return p.wall_s; }) +
                    ",\"run_s\":" +
                    array_of(ps, [](const Pass& p) { return p.run_s; }) +
                    ",\"export_s\":" +
                    array_of(ps, [](const Pass& p) { return p.export_s; }) +
                    ",\"accesses\":" +
                    array_of(ps, [](const Pass& p) {
                      return static_cast<double>(p.accesses);
                    });
    return s;
  };
  js << ",\"untraced\":" << passes_json(untraced) << "}";
  if (trace) {
    js << ",\"traced\":" << passes_json(traced) << ",\"self_ns\":{";
    for (int s = 0; s < selfprof::kNumHostSites; ++s)
      js << (s ? "," : "") << quoted(selfprof::to_string(static_cast<HostSite>(s))) << ':'
         << array_of(traced, [s](const Pass& p) {
              return p.self_ns[static_cast<std::size_t>(s)];
            });
    js << "}}";
    js << ",\"gen_s\":" << num(gen_s) << ",\"gen_accesses\":" << gen_accesses
       << ",\"obs\":{\"events\":" << warm.events
       << ",\"events_dropped\":" << warm.events_dropped << '}';
  }
  js << ",\"counts\":{" << layer_counts(w->points, warm.points) << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
