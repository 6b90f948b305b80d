// cold-build: time to a first answer on a fresh graph.
//
// Each query op opens a Session on a graph it has never seen and answers
// its first query, so Hierarchy::build is almost all of the op. The
// instances are pinned (family, size, graph seed) because Las Vegas
// retries are a property of the graph: the regular-8 n=352 instance
// needs 3 retries at graph seed 1 on every run, the others none. The
// six regular-8 n=256 sessions also take one double-edge-swap write
// after their first answer (write_p50_ms).
//
// Builds run at 1 shard. At 2 shards on a 4-core host, run-to-run spread
// of every timed metric here was 10-50% (against 1-3% serial): each
// parallel step waits for the slower shard. The traced run rebuilds the
// no-retry graphs at 2 shards and reports hierarchy.shard_speedup.

#include <algorithm>
#include <cstdio>
#include <optional>

#include "bench_common.hpp"
#include "common.hpp"

namespace amixbench {

using namespace amix;

namespace {

struct InstanceSpec {
  const char* family;  // bench::make_family name, or "scale"
  NodeId n;
  std::uint64_t graph_seed;
  bool write;    // one double-edge swap after the first answer
  bool reshard;  // rebuilt at 2 shards in the traced run
};

// Fixed order, fixed seeds: every run builds exactly these.
constexpr InstanceSpec kInstances[] = {
    {"regular8", 256, 1, true, true},
    {"regular8", 256, 2, true, true},
    {"gnp", 256, 1, false, true},
    {"regular8", 256, 3, true, true},
    {"regular6", 384, 1, false, true},  // depth 1
    {"regular8", 256, 4, true, true},
    {"regular8", 352, 1, false, false},  // 3 Las Vegas retries
    {"regular8", 256, 5, true, true},
    {"scale", 20000, 20001, false, false},  // working set above L2
    {"regular8", 256, 6, true, true},
};
constexpr double kNominalPassS = 20.0;

struct Instance {
  InstanceSpec spec;
  Graph graph;
  Weights weights;                    // mst instances
  std::vector<std::uint32_t> starts;  // the scale instance's walks
  GraphDelta delta;                   // write instances
  SessionOptions options;
};

Instance make_instance(const InstanceSpec& s, std::uint64_t index) {
  const bool scale = std::string(s.family) == "scale";
  Rng rng(s.graph_seed);
  Graph g = scale ? gen::random_regular(s.n, 3, rng)
                  : bench::make_family(s.family, s.n, rng);
  Instance in{s, std::move(g), {}, {}, {}, {}};
  in.options.seed = 0xc01dULL + index;
  in.options.exec = ExecPolicy{1};
  if (scale) {
    in.options.hierarchy = bench::scale_profile(1, /*leaf_target=*/2000);
    Rng srng(s.graph_seed + 1);
    for (int i = 0; i < 256; ++i) {
      in.starts.push_back(static_cast<std::uint32_t>(srng.next_below(s.n)));
    }
  } else {
    Rng wrng(s.graph_seed * 7919 + s.n);
    in.weights = distinct_random_weights(in.graph, wrng);
  }
  if (s.write) {
    Rng drng(s.graph_seed * 104729 + s.n);
    in.delta = double_edge_swap(in.graph, drng);
  }
  return in;
}

bool is_scale(const Instance& in) { return !in.starts.empty(); }

QuerySpec first_query(const Instance& in) {
  QuerySpec spec;
  if (is_scale(in)) {
    spec.op = WalkQuery{in.starts, WalkKind::kLazy, 32};
  } else {
    spec.op = MstQuery{in.weights, {}};
  }
  spec.seed = Session::call_seed(in.options.seed, 0);
  return spec;
}

struct OpRecord {
  QueryReport answer;
  double latency_ms = 0;
  bool write_ok = true;
  std::optional<std::uint64_t> traced_digest;
  std::uint64_t traced_rounds = 0;
};

}  // namespace

int run_cold_build(const Options& opt, Result& r) {
  // Set-up: generate every instance; 15 times (it takes ~15 ms), median
  // reported.
  std::vector<Instance> inst;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 15; ++rep) {
    const auto t0 = Clock::now();
    std::vector<Instance> fresh;
    std::uint64_t i = 0;
    for (const InstanceSpec& s : kInstances) fresh.push_back(make_instance(s, i++));
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    inst = std::move(fresh);
  }

  const std::uint32_t passes = passes_for(opt, kNominalPassS);
  LoopFigures f;
  f.setup_s = median(setup_s);
  std::vector<OpRecord> ops;
  const double cpu0 = process_cpu_s();
  const auto loop0 = Clock::now();
  for (std::uint32_t p = 0; p < passes; ++p) {
    for (const Instance& in : inst) {
      OpRecord rec;
      const auto t0 = Clock::now();
      Session s = Session::open(in.graph, in.options);
      rec.answer = is_scale(in) ? s.walks(in.starts, WalkKind::kLazy, 32)
                                : s.mst(in.weights);
      const auto t1 = Clock::now();
      rec.latency_ms = ms_between(t0, t1);
      f.query_ms.push_back(rec.latency_ms);
      ++f.ops;
      if (in.spec.write) {
        const auto w0 = Clock::now();
        const Session::MutationReport m = s.mutate(in.delta);
        f.write_ms.push_back(ms_between(w0, Clock::now()));
        rec.write_ok = m.entries_patched == 1 && m.entries_dropped == 0;
        ++f.ops;
      }
      f.rounds += static_cast<double>(s.ledger().total());
      ops.push_back(std::move(rec));
    }
  }
  f.loop_s = ms_between(loop0, Clock::now()) / 1e3;
  f.cpu_s = process_cpu_s() - cpu0;
  end_to_end(f, r);

  if (opt.trace) {
    // The same ops through the engine path a Session call takes, one span
    // per public call, plus a 2-shard rebuild of the no-retry graphs.
    Spans spans;
    KindTally kinds;
    BuildTally builds;
    double traced_total = 0, traced_parts = 0;
    std::size_t op = 0;
    for (std::uint32_t p = 0; p < passes; ++p) {
      for (const Instance& in : inst) {
        engine::HierarchyCache cache;
        HierarchyParams hp = in.options.hierarchy;
        if (!hp.exec.parallel()) hp.exec = in.options.exec;
        const std::vector<QuerySpec> specs{first_query(in)};
        const TracedCall c =
            traced_call(cache, in.graph, hp, specs, spans, kinds, builds);
        traced_total += c.total_ms;
        traced_parts += c.parts_ms;
        ops[op].traced_digest = c.batch.queries[0].output_digest;
        ops[op].traced_rounds = c.batch.queries[0].rounds;
        if (in.spec.reshard && p == 0) builds.rebuild(in.graph, hp, c.build_ms);
        if (in.spec.write) {
          traced_repair(cache, in.graph, in.graph.apply_delta(in.delta),
                        in.delta, builds);
        }
        ++op;
      }
    }
    double untraced = 0;
    for (const OpRecord& o : ops) untraced += o.latency_ms;
    builds.emit(r.per_layer);
    kinds.emit(r.per_layer, traced_total, ops.size());
    r.per_layer.push_back({"engine.fold_us", 1e3 * spans.mean_ms("engine.fold"),
                           "us", std::to_string(spans.count("engine.fold")) +
                                     " folds"});
    r.per_layer.push_back({"trace.parts_gap_share",
                           1.0 - traced_parts / traced_total, "share",
                           "1 - (build + exec + fold) / op total; tolerance 0.05"});
    r.per_layer.push_back({"trace.overhead_share", traced_total / untraced - 1.0,
                           "share", "traced op total / untraced op total - 1"});
  }

  // Answer checks, outside the timed loop.
  if (opt.perturb == "answer") {
    for (OpRecord& o : ops) {
      if (o.answer.mst && !o.answer.mst->edges.empty()) {
        o.answer.mst->edges[0] ^= 1;
        break;
      }
    }
  }
  Checks checks;
  std::size_t op = 0;
  for (std::uint32_t p = 0; p < passes; ++p) {
    for (const Instance& in : inst) {
      const OpRecord& o = ops[op++];
      bool ok = o.answer.ok;
      if (o.answer.mst) {
        std::vector<EdgeId> got = o.answer.mst->edges;
        std::sort(got.begin(), got.end());
        ok = ok && got == kruskal_mst(in.graph, in.weights);
      }
      if (o.traced_digest) {
        ok = ok && *o.traced_digest == o.answer.output_digest &&
             o.traced_rounds == o.answer.rounds;
      }
      checks.op(ok, std::string("first answer on ") + in.spec.family + " n=" +
                        std::to_string(in.spec.n));
      if (in.spec.write) checks.op(o.write_ok, "write repaired in place");
    }
  }
  r.attempted = checks.attempted();
  r.failed = checks.failed();
  return 0;
}

}  // namespace amixbench
