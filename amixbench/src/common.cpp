#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace amixbench {

using namespace amix;

// The per-layer metrics every workload measures from its own work, and
// so the ones the final JSON line of a traced run carries (the same list
// as BENCHMARK.json's per_layer). Workload-specific layers are printed in
// the table above it.
static constexpr std::array<const char*, 19> kJsonLayers{{
    "host.calib_ms",
    "hierarchy.build_ms",
    "hierarchy.build_1shard_ms",
    "hierarchy.shard_speedup",
    "hierarchy.attempts_per_build",
    "hierarchy.rounds_leader_seed",
    "hierarchy.rounds_g0",
    "hierarchy.rounds_levels",
    "hierarchy.rounds_portals",
    "hierarchy.repair_ms",
    "hierarchy.repair_rounds",
    "mst.exec_ms",
    "mst.rounds",
    "randwalk.walks_exec_ms",
    "randwalk.walks_rounds",
    "engine.fold_us",
    "congest.transport_share",
    "congest.token_moves_per_op",
    "trace.parts_gap_share",
}};

void Checks::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  if (failed_ < 8) std::cerr << "check failed: " << what << "\n";
  ++failed_;
}

double median(std::vector<double> s) {
  if (s.empty()) return 0;
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

Latency summarize(std::vector<double> s) {
  Latency l;
  l.n = s.size();
  if (s.empty()) return l;
  std::sort(s.begin(), s.end());
  l.p50 = median(s);
  const std::size_t k = l.n >= 110 ? l.n - 11 : l.n - 1;
  l.tail = s[k];
  l.beyond = l.n - 1 - k;
  l.tail_pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(l.n);
  return l;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double calib_ms(std::uint64_t seed) {
  // Pointer chasing over 4 MiB plus integer mixing: touches the caches
  // and the ALU the way the simulator does, with no amix code involved.
  std::vector<std::uint32_t> next(1u << 20);
  for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  Rng rng(seed);
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    std::swap(next[i], next[rng.next_below(i + 1)]);
  }
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  std::uint64_t mix = seed;
  for (int i = 0; i < (1 << 21); ++i) {
    at = next[at];
    mix = splitmix64(mix ^ at);
  }
  const auto t1 = Clock::now();
  if (mix == 42) std::cerr << "";  // keep the loop observable
  return ms_between(t0, t1);
}

static std::string git_sha() {
  FILE* p = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (p == nullptr) return "none";
  char buf[64] = {};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  pclose(p);
  std::string s = got ? buf : "";
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s.empty() ? "none" : s;
}

void print_provenance(const Options& opt, const char* when) {
  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  std::printf(
      "provenance %s: workload=%s seed=%llu seconds=%g trace=%d git=%s "
      "build=%s compiler=\"%s\" nproc=%ld loadavg=%.2f/%.2f/%.2f\n",
      when, opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, git_sha().c_str(), AMIXBENCH_BUILD_TYPE,
      AMIXBENCH_COMPILER, sysconf(_SC_NPROCESSORS_ONLN), load[0], load[1],
      load[2]);
}

double Spans::ms(const std::string& name) const {
  const auto it = acc_.find(name);
  return it == acc_.end() ? 0.0 : it->second.ms;
}
std::uint64_t Spans::count(const std::string& name) const {
  const auto it = acc_.find(name);
  return it == acc_.end() ? 0 : it->second.n;
}
double Spans::mean_ms(const std::string& name) const {
  const std::uint64_t n = count(name);
  return n == 0 ? 0.0 : ms(name) / static_cast<double>(n);
}

// The metric-name stem of each query kind's layer, indexed by QueryKind:
// "<stem>exec_ms", "<stem>rounds", "<stem>time_share".
static const char* kind_stem(QueryKind k) {
  static constexpr std::array<const char*, kNumQueryKinds> kStems{{
      "mst.", "routing.route_", "routing.clique_", "randwalk.walks_",
      "matching.", "mincut.", "sssp.",
  }};
  return kStems[static_cast<std::size_t>(k)];
}

void KindTally::add(const QueryReport& q, double ms) {
  const auto k = static_cast<std::size_t>(q.kind);
  exec_ms[k] += ms;
  ++execs[k];
  rounds[k] += static_cast<double>(q.rounds);
  query_rounds += static_cast<double>(q.rounds);
  transport_rounds += static_cast<double>(q.transport_rounds);
  token_moves += static_cast<double>(q.token_moves);
  ++queries;
}

void KindTally::emit(std::vector<Metric>& out, double op_total_ms,
                     std::uint64_t ops) const {
  for (std::size_t k = 0; k < kNumQueryKinds; ++k) {
    if (execs[k] == 0) continue;
    const std::string stem = kind_stem(static_cast<QueryKind>(k));
    const auto n = static_cast<double>(execs[k]);
    const std::string note = std::to_string(execs[k]) + " execs";
    out.push_back({stem + "exec_ms", exec_ms[k] / n, "ms", note});
    out.push_back({stem + "rounds", rounds[k] / n, "rounds", note});
    out.push_back({stem + "time_share", exec_ms[k] / op_total_ms, "share",
                   "of the traced op total"});
  }
  out.push_back({"congest.transport_share",
                 query_rounds > 0 ? transport_rounds / query_rounds : 0,
                 "share", "transport rounds / query rounds"});
  out.push_back({"congest.token_moves_per_op",
                 token_moves / static_cast<double>(ops ? ops : 1), "count",
                 std::to_string(queries) + " queries"});
}

static unsigned shards_of(const HierarchyParams& hp) {
  return hp.exec.num_threads == 1 ? 1 : 2;
}

void BuildTally::add_build(const engine::CacheEntry& e, double build_ms) {
  const unsigned s = shards_of(e.params());
  ms[s] += build_ms;
  ++n[s];
  ++builds;
  attempts += e.hierarchy().stats().retries + 1;
  for (const auto& [phase, rounds] : e.build_phases()) {
    const auto r = static_cast<double>(rounds);
    if (phase == "leader+seed") leader_seed += r;
    if (phase == "g0-embed") g0 += r;
    if (phase == "levels") levels += r;
    if (phase == "portals") portals += r;
  }
}

void BuildTally::rebuild(const Graph& g, HierarchyParams hp, double first_ms) {
  const unsigned first = shards_of(hp);
  const unsigned other = 3 - first;
  hp.exec = ExecPolicy{other};
  RoundLedger ledger;
  const auto t0 = Clock::now();
  const Hierarchy h = Hierarchy::build(g, hp, ledger);
  const double t = ms_between(t0, Clock::now());
  ms[other] += t;
  ++n[other];
  paired[other] += t;
  paired[first] += first_ms;
}

void BuildTally::emit(std::vector<Metric>& out) const {
  const auto mean = [](double total, std::uint64_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  const auto b = static_cast<double>(builds ? builds : 1);
  const std::string note = std::to_string(builds) + " builds";
  out.push_back({"hierarchy.build_ms", mean(ms[2], n[2]), "ms",
                 std::to_string(n[2]) + " builds at 2 shards"});
  out.push_back({"hierarchy.build_1shard_ms", mean(ms[1], n[1]), "ms",
                 std::to_string(n[1]) + " builds at 1 shard"});
  out.push_back({"hierarchy.shard_speedup",
                 paired[2] > 0 ? paired[1] / paired[2] : 0, "x",
                 "1-shard / 2-shard time, same graphs"});
  out.push_back({"hierarchy.attempts_per_build",
                 static_cast<double>(attempts) / b, "count", note});
  out.push_back({"hierarchy.rounds_leader_seed", leader_seed / b, "rounds",
                 note});
  out.push_back({"hierarchy.rounds_g0", g0 / b, "rounds", note});
  out.push_back({"hierarchy.rounds_levels", levels / b, "rounds", note});
  out.push_back({"hierarchy.rounds_portals", portals / b, "rounds", note});
  out.push_back({"hierarchy.repair_ms", mean(repair_ms, repairs), "ms",
                 std::to_string(repairs) + " repairs"});
  out.push_back({"hierarchy.repair_rounds", mean(repair_rounds, repairs),
                 "rounds", std::to_string(repairs) + " repairs"});
}

GraphDelta double_edge_swap(const Graph& g, Rng& rng) {
  const auto& edges = g.edges();
  for (;;) {
    auto [a, b] = edges[rng.next_below(edges.size())];
    auto [c, d] = edges[rng.next_below(edges.size())];
    if (rng.next_below(2) == 1) std::swap(c, d);
    if (a == c || a == d || b == c || b == d) continue;
    if (g.has_edge(a, d) || g.has_edge(c, b)) continue;
    return {{a, b, false}, {c, d, false}, {a, d, true}, {c, b, true}};
  }
}

void end_to_end(const LoopFigures& f, Result& r) {
  const Latency q = summarize(f.query_ms);
  const Latency w = summarize(f.write_ms);
  const auto ops = static_cast<double>(f.ops ? f.ops : 1);
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note, "p%.3f, n=%zu, %zu beyond",
                q.tail_pct, q.n, q.beyond);
  r.end_to_end = {
      {"setup_s", f.setup_s, "s", "median of the set-up repetitions"},
      {"ops_per_s", static_cast<double>(f.ops) / f.loop_s, "1/s",
       std::to_string(f.ops) + " ops"},
      {"op_p50_ms", q.p50, "ms", "n=" + std::to_string(q.n) + " queries"},
      {"op_tail_ms", q.tail, "ms", tail_note},
      {"cpu_ms_per_op", 1e3 * f.cpu_s / ops, "ms", "all threads"},
      {"peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM of this process"},
      {"rounds_per_op", f.rounds / ops, "rounds", "charged CONGEST rounds"},
      {"write_p50_ms", w.p50, "ms", "n=" + std::to_string(w.n) + " writes"},
  };
}

TracedCall traced_call(engine::HierarchyCache& cache, const Graph& g,
                       const HierarchyParams& hp,
                       const std::vector<QuerySpec>& specs, Spans& spans,
                       KindTally& kinds, BuildTally& builds) {
  TracedCall out;
  std::vector<engine::QueryExecution> execs;
  execs.reserve(specs.size());
  const auto t0 = Clock::now();
  const auto lk = cache.get_or_build(g, hp);
  const auto t1 = Clock::now();
  double exec_ms = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto a = Clock::now();
    execs.push_back(engine::execute_query(lk.entry->graph(),
                                          lk.entry->hierarchy(), specs[i],
                                          static_cast<std::uint32_t>(i),
                                          nullptr));
    const auto b = Clock::now();
    exec_ms += ms_between(a, b);
    kinds.add(execs.back().report, ms_between(a, b));
  }
  const auto t2 = Clock::now();
  engine::fold_batch(std::move(execs), out.batch);
  const auto t3 = Clock::now();

  const double lookup_ms = ms_between(t0, t1);
  if (lk.built) {
    builds.add_build(*lk.entry, lookup_ms);
    out.build_ms = lookup_ms;
  } else {
    spans.add("engine.lookup", lookup_ms);
  }
  spans.add("engine.fold", ms_between(t2, t3));
  out.total_ms = ms_between(t0, t3);
  out.parts_ms = lookup_ms + exec_ms + ms_between(t2, t3);
  return out;
}

double traced_repair(engine::HierarchyCache& cache, const Graph& g,
                     const Graph& next, const GraphDelta& delta,
                     BuildTally& builds) {
  const auto t0 = Clock::now();
  const auto hint = engine::fingerprint_after_delta(
      engine::graph_fingerprint(g), g, delta);
  const auto patch = cache.apply_delta(g, next, hint);
  const double ms = ms_between(t0, Clock::now());
  builds.repair_ms += ms;
  builds.repair_rounds += static_cast<double>(patch.repair_rounds);
  ++builds.repairs;
  return ms;
}

static void print_metric(const Metric& m) {
  std::printf("  %-34s %16.6g %-7s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

static std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void emit(const Options& opt, const Result& r) {
  std::printf("== %s: end-to-end (untraced loop) ==\n", opt.workload.c_str());
  for (const Metric& m : r.end_to_end) print_metric(m);
  if (opt.trace) {
    std::printf("== %s: per-layer (traced replay) ==\n", opt.workload.c_str());
    for (const Metric& m : r.per_layer) print_metric(m);
  }
  for (const std::string& n : r.notes) std::printf("  note: %s\n", n.c_str());

  std::vector<const Metric*> out;
  if (opt.trace) {
    for (const char* name : kJsonLayers) {
      const Metric* found = nullptr;
      for (const Metric& m : r.per_layer) {
        if (m.name == name) found = &m;
      }
      if (found == nullptr) {
        std::fprintf(stderr, "missing per-layer metric %s\n", name);
        std::exit(3);
      }
      out.push_back(found);
    }
  } else {
    for (const Metric& m : r.end_to_end) out.push_back(&m);
  }
  std::ostringstream js;
  js << "{\"correct\": " << (r.failed == 0 && r.attempted > 0 ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i != 0) js << ", ";
    js << '"' << out[i]->name << "\": {\"value\": " << json_number(out[i]->value)
       << ", \"unit\": \"" << out[i]->unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
}

}  // namespace amixbench
