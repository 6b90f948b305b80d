// warm-session: throughput of queries against a cached hierarchy.
//
// One regular-8 n=256 Session, its hierarchy built during set-up. The
// timed loop replays a fixed list of calls over all seven ops — single-op
// calls, multi-op batch() calls (multiplexed by fold_batch) and six
// double-edge-swap writes per pass — so op execution and the engine carry
// the work and no build runs.
//
// Weights per pass of 100 calls (94 queries + 6 writes), chosen so that
// no kind takes half the wall time and both percentiles sit inside one
// kind's latency cluster: the cheap ops (walks, matching, sssp) fill the
// lowest 35 queries, route the next 35 (so the median is a route call),
// mst and the batches the next 19, clique and mincut the top 5 (so the
// tail, ten samples from the top, is a heavy call once there are 4 or
// more passes).

#include <algorithm>
#include <map>
#include <memory>
#include <variant>

#include "bench_common.hpp"
#include "common.hpp"

namespace amixbench {

using namespace amix;

namespace {

constexpr NodeId kN = 256;
constexpr std::uint64_t kGraphSeed = 1;
constexpr std::uint64_t kSessionSeed = 0x5e55ULL;
constexpr double kNominalPassS = 3.7;

enum class CallType { kQuery, kBatch, kWrite };

struct Call {
  CallType type = CallType::kQuery;
  std::vector<QuerySpec> specs;  // seeds as the Session will assign them
  GraphDelta delta;
  std::uint32_t version = 0;  // index of the graph the call runs on
};

struct Plan {
  std::vector<Graph> versions;  // versions[0] is the set-up graph
  std::vector<Weights> weights;
  std::vector<Call> calls;
};

// Per-pass multiset of call types, shuffled with a fixed seed per pass.
enum Op { kWalks, kMatching, kSssp, kRoute, kMst, kBatch, kClique, kMinCut, kWrite };
constexpr std::pair<Op, int> kMix[] = {
    {kWalks, 12}, {kMatching, 11}, {kSssp, 12}, {kRoute, 35}, {kMst, 14},
    {kBatch, 5},  {kClique, 3},    {kMinCut, 2}, {kWrite, 6},
};

std::vector<std::uint32_t> walk_starts(Rng& rng) {
  std::vector<std::uint32_t> s(32);
  for (auto& v : s) v = static_cast<std::uint32_t>(rng.next_below(kN));
  return s;
}

Graph make_graph() {
  Rng rng(kGraphSeed);
  return bench::make_family("regular8", kN, rng);
}

Weights weights_for(const Graph& g, std::uint64_t version) {
  Rng rng(0x3e16a7ULL + version);
  return distinct_random_weights(g, rng);
}

/// The op list for `passes` passes. Call k of the session (k = 0 is the
/// set-up call) runs with Session::call_seed(kSessionSeed, k).
Plan make_plan(std::uint32_t passes) {
  Plan plan;
  plan.versions.push_back(make_graph());
  plan.weights.push_back(weights_for(plan.versions[0], 0));
  std::uint64_t k = 1;
  for (std::uint32_t p = 0; p < passes; ++p) {
    std::vector<Op> order;
    for (const auto& [op, count] : kMix) order.insert(order.end(), count, op);
    Rng rng(0x0b11570ULL + p);
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    for (const Op op : order) {
      const auto v = static_cast<std::uint32_t>(plan.versions.size() - 1);
      const Graph& g = plan.versions[v];
      const Weights& w = plan.weights[v];
      Call c;
      c.version = v;
      QuerySpec q;
      q.seed = Session::call_seed(kSessionSeed, k);
      switch (op) {
        case kWalks: q.op = WalkQuery{walk_starts(rng), WalkKind::kLazy, 16}; break;
        case kMatching: q.op = MatchingQuery{0}; break;
        case kSssp:
          q.op = SsspQuery{w, static_cast<NodeId>(rng.next_below(kN)), 0};
          break;
        case kRoute: q.op = RouteQuery{permutation_instance(g, rng), 1}; break;
        case kMst: q.op = MstQuery{w, {}}; break;
        case kClique: q.op = CliqueQuery{0.0}; break;
        case kMinCut: q.op = MinCutQuery{0, true}; break;
        case kBatch: {
          c.type = CallType::kBatch;
          QuerySpec a, b, d;
          a.op = MstQuery{w, {}};
          b.op = RouteQuery{permutation_instance(g, rng), 1};
          d.op = WalkQuery{walk_starts(rng), WalkKind::kLazy, 16};
          a.seed = keyed_u64(kSessionSeed, 0xba7cULL, 3 * k);
          b.seed = keyed_u64(kSessionSeed, 0xba7cULL, 3 * k + 1);
          d.seed = keyed_u64(kSessionSeed, 0xba7cULL, 3 * k + 2);
          c.specs = {std::move(a), std::move(b), std::move(d)};
          break;
        }
        case kWrite: {
          c.type = CallType::kWrite;
          c.delta = double_edge_swap(g, rng);
          Graph next = g.apply_delta(c.delta);
          plan.weights.push_back(weights_for(next, plan.versions.size()));
          plan.versions.push_back(std::move(next));
          break;
        }
      }
      if (c.type == CallType::kQuery) c.specs.push_back(std::move(q));
      plan.calls.push_back(std::move(c));
      ++k;
    }
  }
  return plan;
}

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};
template <class... F>
Overloaded(F...) -> Overloaded<F...>;

/// The Session sugar call a single-op spec stands for.
QueryReport session_call(Session& s, const QuerySpec& q) {
  return std::visit(
      Overloaded{
          [&](const MstQuery& m) { return s.mst(m.weights, m.params); },
          [&](const RouteQuery& m) { return s.route(m.requests, m.phases); },
          [&](const CliqueQuery& m) { return s.clique_round(m.edge_expansion); },
          [&](const WalkQuery& m) { return s.walks(m.starts, m.kind, m.steps); },
          [&](const MatchingQuery& m) { return s.matching(m.max_phases); },
          [&](const MinCutQuery& m) {
            return s.mincut(m.trees, m.two_respecting);
          },
          [&](const SsspQuery& m) {
            return s.sssp(m.weights, m.source, m.max_hops);
          },
      },
      q.op);
}

// Serial: at n=256 on a 4-core host the 2-shard pool made this loop ~20%
// slower and its run-to-run spread several times wider (repairs above
// all), so the loop runs at 1 shard and the traced run reports what 2
// shards would do to the build (hierarchy.shard_speedup).
SessionOptions session_options() {
  SessionOptions so;
  so.seed = kSessionSeed;
  so.exec = ExecPolicy{1};
  return so;
}

/// Oracle check of one answer on graph version `v`.
bool answer_ok(const QueryReport& q, const QuerySpec& spec, const Plan& plan,
               std::uint32_t v, std::map<std::uint32_t, std::uint64_t>& sw) {
  if (!q.ok) return false;
  const Graph& g = plan.versions[v];
  if (q.mst) {
    std::vector<EdgeId> got = q.mst->edges;
    std::sort(got.begin(), got.end());
    return got == kruskal_mst(g, plan.weights[v]);
  }
  if (q.sssp) {
    const auto& s = std::get<SsspQuery>(spec.op);
    return q.sssp->dist == dijkstra_distances(g, s.weights, s.source);
  }
  if (q.mincut) {
    auto it = sw.find(v);
    if (it == sw.end()) it = sw.emplace(v, stoer_wagner_mincut(g)).first;
    return q.mincut->cut_value >= it->second &&
           q.mincut->cut_value <= 2 * it->second;
  }
  return true;  // route, matching, walks, clique: ok is the check
}

}  // namespace

int run_warm_session(const Options& opt, Result& r) {
  const std::uint32_t passes = passes_for(opt, kNominalPassS);
  const Plan plan = make_plan(passes);

  // Set-up: generate the graph, open the Session and build its hierarchy
  // (the first call pays the build); five times, median reported.
  std::vector<double> setup_s;
  std::unique_ptr<Session> session;
  for (int rep = 0; rep < 5; ++rep) {
    session.reset();
    const auto t0 = Clock::now();
    const Graph g = make_graph();
    session.reset(new Session(Session::open(g, session_options())));
    session->walks({0}, WalkKind::kLazy, 1);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  Session& s = *session;

  LoopFigures f;
  f.setup_s = median(setup_s);
  std::vector<std::vector<QueryReport>> answers(plan.calls.size());
  std::vector<bool> write_ok(plan.calls.size(), true);
  std::vector<double> latency(plan.calls.size());
  const double rounds0 = static_cast<double>(s.ledger().total());
  const double cpu0 = process_cpu_s();
  const auto loop0 = Clock::now();
  for (std::size_t i = 0; i < plan.calls.size(); ++i) {
    const Call& c = plan.calls[i];
    const auto t0 = Clock::now();
    switch (c.type) {
      case CallType::kQuery:
        answers[i].push_back(session_call(s, c.specs[0]));
        break;
      case CallType::kBatch:
        answers[i] = s.batch(c.specs).queries;
        break;
      case CallType::kWrite: {
        const Session::MutationReport m = s.mutate(c.delta);
        write_ok[i] = m.entries_patched == 1 && m.entries_dropped == 0;
        break;
      }
    }
    latency[i] = ms_between(t0, Clock::now());
    (c.type == CallType::kWrite ? f.write_ms : f.query_ms).push_back(latency[i]);
    ++f.ops;
  }
  f.loop_s = ms_between(loop0, Clock::now()) / 1e3;
  f.cpu_s = process_cpu_s() - cpu0;
  f.rounds = static_cast<double>(s.ledger().total()) - rounds0;
  session.reset();
  end_to_end(f, r);

  std::vector<std::vector<QueryReport>> traced(plan.calls.size());
  if (opt.trace) {
    // The same calls through the engine path a Session call takes: one
    // span per public call; batch specs execute serially so the per-kind
    // parts add up to the op total.
    Spans spans;
    KindTally kinds;
    BuildTally builds;
    engine::HierarchyCache cache;
    HierarchyParams hp;
    hp.exec = session_options().exec;
    const Graph& g0 = plan.versions[0];
    {
      const auto b0 = Clock::now();
      const auto lk = cache.get_or_build(g0, hp);
      const double ms = ms_between(b0, Clock::now());
      builds.add_build(*lk.entry, ms);
      builds.rebuild(g0, hp, ms);
    }
    double traced_total = 0, traced_parts = 0, untraced = 0;
    double batch_engine = 0, batch_standalone = 0;
    for (std::size_t i = 0; i < plan.calls.size(); ++i) {
      const Call& c = plan.calls[i];
      const Graph& g = plan.versions[c.version];
      untraced += latency[i];
      if (c.type == CallType::kWrite) {
        const double ms = traced_repair(cache, g, plan.versions[c.version + 1],
                                        c.delta, builds);
        traced_total += ms;
        traced_parts += ms;
        continue;
      }
      TracedCall tc = traced_call(cache, g, hp, c.specs, spans, kinds, builds);
      traced_total += tc.total_ms;
      traced_parts += tc.parts_ms;
      if (c.type == CallType::kBatch) {
        batch_engine += static_cast<double>(tc.batch.multiplexed_transport_rounds +
                                            tc.batch.serialized_rounds);
        batch_standalone += static_cast<double>(tc.batch.standalone_query_rounds);
      }
      traced[i] = std::move(tc.batch.queries);
    }
    builds.emit(r.per_layer);
    kinds.emit(r.per_layer, traced_total, plan.calls.size());
    r.per_layer.push_back({"engine.lookup_us",
                           1e3 * spans.mean_ms("engine.lookup"), "us",
                           std::to_string(spans.count("engine.lookup")) +
                               " hits, incl. graph_fingerprint"});
    r.per_layer.push_back({"engine.fold_us", 1e3 * spans.mean_ms("engine.fold"),
                           "us", std::to_string(spans.count("engine.fold")) +
                                     " folds"});
    r.per_layer.push_back({"engine.multiplex_saving",
                           1.0 - batch_engine / batch_standalone, "share",
                           "1 - batch rounds / standalone rounds"});
    r.per_layer.push_back({"trace.parts_gap_share",
                           1.0 - traced_parts / traced_total, "share",
                           "1 - (lookup + exec + fold + repair) / op total; "
                           "tolerance 0.05"});
    r.per_layer.push_back({"trace.overhead_share", traced_total / untraced - 1.0,
                           "share", "traced op total / untraced op total - 1"});
  }

  // Answer checks, outside the timed loop.
  if (opt.perturb == "answer") {
    for (auto& a : answers) {
      if (!a.empty() && a[0].mst) {
        a[0].mst->edges[0] ^= 1;
        break;
      }
    }
  }
  Checks checks;
  std::map<std::uint32_t, std::uint64_t> sw;
  for (std::size_t i = 0; i < plan.calls.size(); ++i) {
    const Call& c = plan.calls[i];
    if (c.type == CallType::kWrite) {
      checks.op(write_ok[i], "write repaired in place");
      continue;
    }
    bool ok = answers[i].size() == c.specs.size();
    for (std::size_t j = 0; ok && j < c.specs.size(); ++j) {
      ok = answer_ok(answers[i][j], c.specs[j], plan, c.version, sw);
      if (opt.trace) {
        ok = ok && traced[i].size() == c.specs.size() &&
             traced[i][j].output_digest == answers[i][j].output_digest &&
             traced[i][j].rounds == answers[i][j].rounds;
      }
    }
    checks.op(ok, "call " + std::to_string(i) + " (" +
                      query_kind_name(query_kind(c.specs[0])) + ")");
  }
  r.attempted = checks.attempted();
  r.failed = checks.failed();
  return 0;
}

}  // namespace amixbench
