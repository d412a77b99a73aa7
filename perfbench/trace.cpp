// perftrace — the benchmark's in-process traced pass.
//
//   perftrace meta
//       one JSON line: build type, compiler, SIMD dispatch in effect.
//   perftrace run --jobs N --soctest <cli> [--clear-cache 0|1]
//                 [--probe-designs P] [--portfolio K --sweeps S
//                 --workers W --worker-jobs J] REQ...
//       REQ is hill@<design>@<width> (one-shot `optimize`) or
//       dist@<design>@<width> (`optimize --portfolio K --sweeps S
//       --workers W --jobs J`). Prints one JSON line: the per-layer
//       metrics plus the compact report of every request from both passes.
//
// Each request runs the CLI's pipeline in-process — load_design,
// explore_soc, SocOptimizer::optimize (or the distributed portfolio),
// result_to_json — with one timer around each public call. Probes outside
// the request span then time single layers alone: explore at one lane and
// per core, cache-key hashing, step-4 construction with and without
// refinement, and the in-process portfolio. The same request sequence also
// runs once with no timers and no probes; the difference is the tracing
// overhead.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bitvec/slice_kernels.hpp"
#include "dist/coordinator.hpp"
#include "explore/core_explorer.hpp"
#include "io/design_loader.hpp"
#include "opt/soc_optimizer.hpp"
#include "portfolio/portfolio.hpp"
#include "report/json.hpp"
#include "runtime/stats.hpp"
#include "runtime/table_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/greedy_scheduler.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER __VERSION__
#endif

using namespace soctest;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Request {
  bool dist = false;
  std::string design;
  int width = 32;
};

struct Config {
  int jobs = 1;
  std::string soctest;
  bool clear_cache = true;
  std::size_t probe_designs = 1;
  int portfolio = 8;
  int sweeps = 40;
  int workers = 2;
  int worker_jobs = 2;
  std::vector<Request> requests;
};

/// The CLI's explore band for a width: max(W, 32) wires, 255 chains.
ExploreOptions explore_options(int width) {
  ExploreOptions e;
  e.max_width = std::max(width, 32);
  e.max_chains = 255;
  return e;
}

OptimizerOptions optimizer_options(const Request& r, const Config& c) {
  OptimizerOptions o;
  o.width = r.width;
  if (r.dist) o.portfolio = c.portfolio;
  return o;
}

PortfolioOptions portfolio_options(const Config& c) {
  PortfolioOptions p;
  p.sweeps = c.sweeps;
  return p;
}

/// The request's planning call, exactly as `soctest optimize` makes it.
OptimizationResult plan(const SocOptimizer& opt, const OptimizerOptions& o,
                        const Request& r, const Config& c,
                        PortfolioStats* stats) {
  if (!r.dist) return opt.optimize(o);
  dist::DistOptions d;
  d.workers = c.workers;
  d.worker_cmd = c.soctest;
  d.worker_jobs = c.worker_jobs;
  d.explore_max_width = opt.explore_options().max_width;
  d.explore_max_chains = opt.explore_options().max_chains;
  PortfolioResult pr =
      dist::optimize_portfolio_distributed(opt, o, portfolio_options(c), d);
  if (stats) *stats = pr.stats;
  return pr.best;
}

/// The timing-free report the CLI writes with --json.
std::string stable_report(const OptimizationResult& r, const SocSpec& soc) {
  OptimizationResult stable = r;
  stable.cpu_seconds = 0.0;
  return compact_json(result_to_json(stable, soc));
}

runtime::SearchStats search_delta(const runtime::SearchStats& a,
                                  const runtime::SearchStats& b) {
  runtime::SearchStats d;
  d.candidates_generated = b.candidates_generated - a.candidates_generated;
  d.candidates_pruned = b.candidates_pruned - a.candidates_pruned;
  d.candidates_scheduled = b.candidates_scheduled - a.candidates_scheduled;
  d.schedule_reuse_hits = b.schedule_reuse_hits - a.schedule_reuse_hits;
  d.column_reuse_hits = b.column_reuse_hits - a.column_reuse_hits;
  d.columns_computed = b.columns_computed - a.columns_computed;
  d.anneal_proposals = b.anneal_proposals - a.anneal_proposals;
  d.anneal_memo_hits = b.anneal_memo_hits - a.anneal_memo_hits;
  d.anneal_bound_pruned = b.anneal_bound_pruned - a.anneal_bound_pruned;
  return d;
}

/// Accumulated layer timers and counters of one traced pass.
struct Trace {
  double request_wall = 0, io = 0, explore = 0, search = 0, dist = 0,
         report = 0;
  double explore_jobs1 = 0, explore_jobsn = 0, core_max = 0, core_sum = 0,
         key_hash = 0;
  double construct = 0, greedy = 0, construct_x_scheduled = 0;
  double portfolio = 0, dist_setup = 0, dist_sweep = 0;
  std::uint64_t portfolio_proposals = 0, anneal_proposals = 0,
                anneal_memo_hits = 0, anneal_bound_pruned = 0,
                swaps_attempted = 0, swaps_accepted = 0;
  int respawns = 0;
  std::uint64_t cache_hits = 0, cache_lookups = 0, cache_evictions = 0;
  runtime::SearchStats search_counters;
  bool consistent = true;
  std::vector<std::string> reports;
};

void add_search(runtime::SearchStats& acc, const runtime::SearchStats& d) {
  acc.candidates_generated += d.candidates_generated;
  acc.candidates_pruned += d.candidates_pruned;
  acc.candidates_scheduled += d.candidates_scheduled;
  acc.schedule_reuse_hits += d.schedule_reuse_hits;
  acc.column_reuse_hits += d.column_reuse_hits;
  acc.columns_computed += d.columns_computed;
}

/// Explore layer alone: one lane vs `jobs` lanes (cache bypassed), each
/// core alone, and cache-key hashing + lookup over a TableCache that holds
/// every core of the design (all hits).
void probe_explore(const SocOptimizer& opt, const ExploreOptions& e,
                   const Config& c, Trace& t) {
  const SocSpec& soc = opt.soc();
  ExploreOptions uncached = e;
  uncached.use_cache = false;
  runtime::set_global_concurrency(1);
  auto t0 = Clock::now();
  explore_soc(soc, uncached);
  t.explore_jobs1 += since(t0);
  runtime::set_global_concurrency(c.jobs);
  t0 = Clock::now();
  explore_soc(soc, uncached);
  t.explore_jobsn += since(t0);

  double core_max = 0;
  for (const CoreUnderTest& core : soc.cores) {
    t0 = Clock::now();
    explore_core(core, uncached);
    const double s = since(t0);
    core_max = std::max(core_max, s);
    t.core_sum += s;
  }
  t.core_max += core_max;

  runtime::TableCache cache(soc.cores.size() + 1);
  for (std::size_t i = 0; i < soc.cores.size(); ++i)
    cache.insert(runtime::key_of(soc.cores[i], e), opt.tables()[i]);
  t0 = Clock::now();
  for (const CoreUnderTest& core : soc.cores)
    if (!cache.lookup(runtime::key_of(core, e)))
      throw std::runtime_error("key-hash probe missed a cached core");
  t.key_hash += since(t0);
}

/// Step 4 alone on the winning architecture: full construction (greedy +
/// refine, through SocOptimizer::evaluate) and the greedy pass without
/// refinement over the same cost table.
void probe_schedule(const SocOptimizer& opt, const OptimizerOptions& o,
                    const OptimizationResult& won,
                    std::uint64_t scheduled, Trace& t) {
  auto t0 = Clock::now();
  const OptimizationResult again = opt.evaluate(won.arch, o);
  const double construct = since(t0);
  t.construct += construct;
  t.construct_x_scheduled += construct * static_cast<double>(scheduled);
  if (again.test_time != won.test_time) t.consistent = false;

  const int n = opt.soc().num_cores();
  const int k = won.arch.num_buses();
  std::vector<BusRealization> buses;
  for (int w : won.arch.widths) buses.push_back(opt.realize_bus(w, o));
  const CostTable table = build_cost_table(n, k, [&](int core, int bus) {
    return opt.bus_access_cost(core, buses[static_cast<std::size_t>(bus)], o);
  });
  int widest = 0;
  for (int b = 1; b < k; ++b)
    if (won.arch.widths[static_cast<std::size_t>(b)] >
        won.arch.widths[static_cast<std::size_t>(widest)])
      widest = b;
  std::vector<std::int64_t> ref(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    ref[static_cast<std::size_t>(i)] = table.at(i, widest).time;
  GreedyOptions g;
  g.refine_passes = 0;
  t0 = Clock::now();
  greedy_schedule(table, ref, g);
  t.greedy += since(t0);
}

/// The in-process portfolio at `jobs` lanes on the same request; its report
/// must equal the distributed one byte for byte.
void probe_portfolio(const SocOptimizer& opt, const OptimizerOptions& o,
                     const Config& c, const std::string& dist_report,
                     Trace& t) {
  const auto before = runtime::collect_stats().search;
  const auto t0 = Clock::now();
  const PortfolioResult pr = optimize_portfolio(opt, o, portfolio_options(c));
  t.portfolio += since(t0);
  const auto d = search_delta(before, runtime::collect_stats().search);
  t.portfolio_proposals += pr.stats.proposals_total;
  t.anneal_proposals += d.anneal_proposals;
  t.anneal_memo_hits += d.anneal_memo_hits;
  t.anneal_bound_pruned += d.anneal_bound_pruned;
  t.swaps_attempted += pr.stats.swaps_attempted;
  t.swaps_accepted += pr.stats.swaps_accepted;
  if (stable_report(pr.best, opt.soc()) != dist_report) t.consistent = false;
}

/// One request through the pipeline with a timer around each layer call,
/// then the single-layer probes (outside the request span).
void trace_request(const Request& r, const Config& c, Trace& t,
                   std::set<std::string>& probed) {
  if (c.clear_cache) runtime::TableCache::global().clear();
  const auto before = runtime::collect_stats();

  const auto start = Clock::now();
  auto t0 = start;
  const SocSpec soc = load_design(r.design);
  t.io += since(t0);
  const ExploreOptions e = explore_options(r.width);
  t0 = Clock::now();
  std::vector<CoreTable> tables = explore_soc(soc, e);
  t.explore += since(t0);
  const SocOptimizer opt(soc, std::move(tables), e);
  const OptimizerOptions o = optimizer_options(r, c);
  PortfolioStats ps;
  t0 = Clock::now();
  const OptimizationResult won = plan(opt, o, r, c, &ps);
  (r.dist ? t.dist : t.search) += since(t0);
  t0 = Clock::now();
  std::string report = stable_report(won, soc);
  t.report += since(t0);
  t.request_wall += since(start);

  const auto after = runtime::collect_stats();
  t.cache_hits += after.table_cache.hits - before.table_cache.hits;
  t.cache_lookups +=
      after.table_cache.lookups() - before.table_cache.lookups();
  t.cache_evictions +=
      after.table_cache.evictions - before.table_cache.evictions;
  const auto d = search_delta(before.search, after.search);
  add_search(t.search_counters, d);
  if (r.dist) {
    t.dist_setup += ps.dist_setup_seconds;
    t.dist_sweep += ps.dist_sweep_seconds;
    t.respawns += ps.dist_respawns;
    probe_portfolio(opt, o, c, report, t);
  }
  probe_schedule(opt, o, won, d.candidates_scheduled, t);
  if (probed.size() < c.probe_designs && probed.insert(r.design).second)
    probe_explore(opt, e, c, t);
  t.reports.push_back(std::move(report));
}

/// The same request with no timers and no probes; returns its wall time.
double untimed_request(const Request& r, const Config& c,
                       std::vector<std::string>& reports) {
  if (c.clear_cache) runtime::TableCache::global().clear();
  const auto start = Clock::now();
  const SocSpec soc = load_design(r.design);
  const ExploreOptions e = explore_options(r.width);
  const SocOptimizer opt(soc, explore_soc(soc, e), e);
  const OptimizerOptions o = optimizer_options(r, c);
  reports.push_back(stable_report(plan(opt, o, r, c, nullptr), soc));
  return since(start);
}

std::string json_string_list(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i ? ", \"" : "\"") + json_escape(v[i]) + "\"";
  return out + "]";
}

int cmd_meta() {
  std::printf(
      "{\"build_type\": \"%s\", \"compiler\": \"%s\", \"simd\": \"%s\", "
      "\"ndebug\": %s}\n",
      PERFBENCH_BUILD_TYPE, json_escape(PERFBENCH_COMPILER).c_str(),
      kernels::mode_name(kernels::active_mode()),
#ifdef NDEBUG
      "true"
#else
      "false"
#endif
  );
  return 0;
}

int cmd_run(const Config& c) {
  runtime::set_global_concurrency(c.jobs);

  // Warm the pool threads, allocator and page cache on the first design so
  // neither variant of a request pays process start-up.
  {
    const Request& r = c.requests.front();
    const SocSpec soc = load_design(r.design);
    explore_soc(soc, explore_options(r.width));
  }
  Trace t;
  std::set<std::string> probed;
  std::vector<std::string> untimed_reports;
  double untimed = 0;
  if (c.clear_cache) {
    // Every request starts from an empty TableCache, like a fresh CLI
    // process: alternate which variant goes first to cancel order effects.
    for (std::size_t i = 0; i < c.requests.size(); ++i) {
      const Request& r = c.requests[i];
      if (i % 2 == 0) untimed += untimed_request(r, c, untimed_reports);
      trace_request(r, c, t, probed);
      if (i % 2 == 1) untimed += untimed_request(r, c, untimed_reports);
    }
  } else {
    // Requests share the TableCache, like a daemon: each variant runs the
    // whole sequence from an empty cache.
    runtime::TableCache::global().clear();
    for (const Request& r : c.requests)
      untimed += untimed_request(r, c, untimed_reports);
    runtime::TableCache::global().clear();
    for (const Request& r : c.requests) trace_request(r, c, t, probed);
  }

  const runtime::SearchStats& s = t.search_counters;
  const double layers = t.io + t.explore + t.search + t.dist + t.report;
  std::map<std::string, double> m;
  m["io.load_s"] = t.io;
  m["explore.wall_s"] = t.explore;
  m["explore.wall_jobs1_s"] = t.explore_jobs1;
  m["explore.speedup_jobs"] = ratio(t.explore_jobs1, t.explore_jobsn);
  m["explore.max_core_share"] = ratio(t.core_max, t.core_sum);
  m["explore.key_hash_s"] = t.key_hash;
  m["explore.cache_hit_frac"] =
      ratio(double(t.cache_hits), double(t.cache_lookups));
  m["explore.cache_evictions"] = double(t.cache_evictions);
  m["search.wall_s"] = t.search;
  m["search.generated"] = double(s.candidates_generated);
  m["search.pruned_frac"] =
      ratio(double(s.candidates_pruned), double(s.candidates_generated));
  m["search.scheduled"] = double(s.candidates_scheduled);
  m["search.reuse_frac"] =
      ratio(double(s.schedule_reuse_hits),
            double(s.schedule_reuse_hits + s.candidates_scheduled));
  m["search.column_reuse_frac"] =
      ratio(double(s.column_reuse_hits),
            double(s.column_reuse_hits + s.columns_computed));
  m["sched.construct_s"] = t.construct;
  m["sched.greedy_s"] = t.greedy;
  m["sched.refine_share"] = t.construct > 0 ? 1.0 - t.greedy / t.construct : 0;
  m["sched.search_share"] = ratio(t.construct_x_scheduled, t.search);
  m["portfolio.wall_s"] = t.portfolio;
  m["portfolio.proposals_per_s"] =
      ratio(double(t.portfolio_proposals), t.portfolio);
  m["portfolio.memo_hit_frac"] =
      ratio(double(t.anneal_memo_hits), double(t.anneal_proposals));
  m["portfolio.bound_pruned_frac"] =
      ratio(double(t.anneal_bound_pruned), double(t.anneal_proposals));
  m["portfolio.swap_accept_frac"] =
      ratio(double(t.swaps_accepted), double(t.swaps_attempted));
  m["dist.setup_s"] = t.dist_setup;
  m["dist.sweep_s"] = t.dist_sweep;
  m["dist.overhead_s"] = t.portfolio > 0 ? t.dist - t.portfolio : 0.0;
  m["dist.respawns"] = t.respawns;
  m["report.json_s"] = t.report;
  m["trace.unattributed_frac"] = ratio(t.request_wall - layers, t.request_wall);
  m["trace.overhead_frac"] = ratio(t.request_wall - untimed, untimed);

  std::ostringstream os;
  os.precision(17);
  os << "{\"consistent\": " << (t.consistent ? "true" : "false")
     << ", \"request_wall_s\": " << t.request_wall
     << ", \"untimed_wall_s\": " << untimed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << v;
    first = false;
  }
  os << "}, \"reports\": " << json_string_list(t.reports)
     << ", \"untimed_reports\": " << json_string_list(untimed_reports)
     << "}\n";
  std::fputs(os.str().c_str(), stdout);
  return 0;
}

Request parse_request(const std::string& spec) {
  const std::size_t a = spec.find('@');
  const std::size_t b = spec.rfind('@');
  if (a == std::string::npos || a == b)
    throw std::invalid_argument("bad request '" + spec +
                                "' (want hill|dist@<design>@<width>)");
  Request r;
  const std::string kind = spec.substr(0, a);
  if (kind != "hill" && kind != "dist")
    throw std::invalid_argument("bad request kind '" + kind + "'");
  r.dist = kind == "dist";
  r.design = spec.substr(a + 1, b - a - 1);
  r.width = std::stoi(spec.substr(b + 1));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string cmd = argc > 1 ? argv[1] : "";
    if (cmd == "meta") return cmd_meta();
    if (cmd != "run") {
      std::fprintf(stderr, "usage: perftrace meta | run --jobs N ... REQ...\n");
      return 2;
    }
    Config c;
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        c.requests.push_back(parse_request(arg));
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      const std::string v = argv[++i];
      if (arg == "--jobs") c.jobs = std::stoi(v);
      else if (arg == "--soctest") c.soctest = v;
      else if (arg == "--clear-cache") c.clear_cache = v != "0";
      else if (arg == "--probe-designs") c.probe_designs = std::stoul(v);
      else if (arg == "--portfolio") c.portfolio = std::stoi(v);
      else if (arg == "--sweeps") c.sweeps = std::stoi(v);
      else if (arg == "--workers") c.workers = std::stoi(v);
      else if (arg == "--worker-jobs") c.worker_jobs = std::stoi(v);
      else throw std::invalid_argument("unknown flag " + arg);
    }
    if (c.requests.empty() || c.jobs < 1 || c.soctest.empty())
      throw std::invalid_argument("run needs --jobs, --soctest and requests");
    return cmd_run(c);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perftrace: %s\n", e.what());
    return 1;
  }
}
