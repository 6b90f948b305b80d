#pragma once

// Shared plumbing of the amixbench program: options, the result a
// workload hands back, latency summaries, process counters, the host
// calibration loop, and the benchmark's own span accumulator.
//
// amixbench talks to amix only through its public headers. Spans live
// here, around the public calls; nothing is added inside src/.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "amix/amix.hpp"

namespace amixbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Test hook: "answer" corrupts one recorded answer, "replay" one wire
  /// byte, before the checks run. Either must surface as a failed op.
  std::string perturb;
};

/// Number of passes over a workload's fixed op list for a run of
/// `seconds`: the work is a pure function of the arguments, never of how
/// fast the host happens to be. A traced run spends half its time on the
/// untraced loop and half on the traced replay of the same passes.
inline std::uint32_t passes_for(const Options& opt, double nominal_pass_s) {
  const double p = opt.seconds * (opt.trace ? 0.5 : 1.0) / nominal_pass_s + 0.5;
  return p < 1.0 ? 1u : static_cast<std::uint32_t>(p);
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // sample count, percentile, ... (table only)
};

/// What one workload run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // printed in the table (trace runs)
  std::vector<std::string> notes;
};

/// Counts ops and failed ops; prints the first few failures to stderr.
class Checks {
 public:
  void op(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Median and tail of a latency sample. The tail is the highest
/// percentile that still has at least ten samples beyond it. Below 110
/// samples that percentile would sit under p90, which is no tail, so the
/// tail is then the maximum (`beyond` = 0 says so).
struct Latency {
  double p50 = 0;
  double tail = 0;
  double tail_pct = 0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
Latency summarize(std::vector<double> samples);
double median(std::vector<double> samples);

/// CPU seconds of the whole process (every thread), user + system.
double process_cpu_s();
/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();
/// A fixed loop that does not touch amix: host speed, nothing else.
double calib_ms(std::uint64_t seed);
/// Git sha (when run inside a git checkout), build type, compiler,
/// nproc, load average — one line on stdout.
void print_provenance(const Options& opt, const char* when);

/// Accumulates the benchmark's own spans: total milliseconds and count
/// per name.
class Spans {
 public:
  void add(const std::string& name, double ms) {
    Acc& a = acc_[name];
    a.ms += ms;
    ++a.n;
  }
  double ms(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
  double mean_ms(const std::string& name) const;

 private:
  struct Acc {
    double ms = 0;
    std::uint64_t n = 0;
  };
  std::map<std::string, Acc> acc_;
};

/// Per-kind exec time, rounds and share of the traced op total, plus
/// the transport share and token moves of every executed query.
struct KindTally {
  double exec_ms[amix::kNumQueryKinds] = {};
  std::uint64_t execs[amix::kNumQueryKinds] = {};
  double rounds[amix::kNumQueryKinds] = {};
  double query_rounds = 0;
  double transport_rounds = 0;
  double token_moves = 0;
  std::uint64_t queries = 0;

  void add(const amix::QueryReport& q, double ms);
  /// Append the per-kind metrics of every kind that ran.
  void emit(std::vector<Metric>& out, double op_total_ms,
            std::uint64_t ops) const;
};

/// Hierarchy-build tallies: attempts and ledger phases of the workload's
/// own builds, and wall time per shard count (1 or 2). rebuild() times
/// the same graph at the other shard count, for the shard speedup.
struct BuildTally {
  std::uint64_t builds = 0;
  std::uint64_t attempts = 0;
  double leader_seed = 0, g0 = 0, levels = 0, portals = 0;
  double ms[3] = {};      // indexed by shard count
  std::uint64_t n[3] = {};
  double paired[3] = {};  // graphs timed at both shard counts
  double repair_ms = 0;
  double repair_rounds = 0;
  std::uint64_t repairs = 0;

  void add_build(const amix::engine::CacheEntry& e, double build_ms);
  void rebuild(const amix::Graph& g, amix::HierarchyParams hp,
               double first_ms);
  void emit(std::vector<Metric>& out) const;
};

/// A random double-edge swap {a-b, c-d} -> {a-d, c-b}: degrees are kept,
/// so a regular graph stays regular.
amix::GraphDelta double_edge_swap(const amix::Graph& g, amix::Rng& rng);

/// What every workload's untraced loop measured; turned into the eight
/// end-to-end metrics by end_to_end().
struct LoopFigures {
  double setup_s = 0;                // median over the set-up repetitions
  double loop_s = 0;                 // wall time of the timed loop
  std::uint64_t ops = 0;             // queries + writes completed
  std::vector<double> query_ms;      // per query op
  std::vector<double> write_ms;      // per write (mutate) op
  double cpu_s = 0;                  // process CPU over the loop
  double rounds = 0;                 // charged CONGEST rounds in the loop
};
void end_to_end(const LoopFigures& f, Result& r);

/// One Session call replayed through the public engine path it takes
/// (HierarchyCache::get_or_build, engine::execute_query per spec,
/// engine::fold_batch), with a span around each part. A miss lands in
/// `builds`, a hit in the "engine.lookup" span.
struct TracedCall {
  amix::BatchReport batch;
  double build_ms = 0;  // the lookup's time when it built (a miss)
  double total_ms = 0;  // the whole call
  double parts_ms = 0;  // lookup or build + every exec + fold
};
TracedCall traced_call(amix::engine::HierarchyCache& cache,
                       const amix::Graph& g, const amix::HierarchyParams& hp,
                       const std::vector<amix::QuerySpec>& specs, Spans& spans,
                       KindTally& kinds, BuildTally& builds);

/// One Session::mutate replayed as the engine runs it
/// (HierarchyCache::apply_delta with the incremental fingerprint hint),
/// timed into `builds`. Returns the span's milliseconds.
double traced_repair(amix::engine::HierarchyCache& cache, const amix::Graph& g,
                     const amix::Graph& next, const amix::GraphDelta& delta,
                     BuildTally& builds);

/// Print the table and the final JSON line.
void emit(const Options& opt, const Result& r);

int run_cold_build(const Options& opt, Result& r);
int run_warm_session(const Options& opt, Result& r);
int run_serve_churn(const Options& opt, Result& r);

}  // namespace amixbench
