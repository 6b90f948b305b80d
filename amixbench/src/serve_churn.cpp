// serve-churn: amixd latency while the graph churns.
//
// An in-process server::Server with 3 workers and 3 closed-loop client
// connections on loopback:
//   * two readers send 1-2-line cheap requests (walks, matching,
//     hop-bounded sssp) on graph g0, each cycling through a fixed list of
//     distinct requests;
//   * the writer owns g1: it alternates a double-edge-swap `mutate` with
//     one long walk job (256 walks of 1024 steps, ~30 ms). Being g1's
//     only client, its repairs are patched in place (never busy-dropped),
//     deterministically.
// op_p50_ms/op_tail_ms are over reads, write_p50_ms over mutates. The
// reader requests form the bulk of the reads, so the median is one of
// them; the writer's long reads are the top cluster, so the tail (ten
// samples from the top) is one of them rather than whichever cheap read
// met a scheduling hiccup on loopback.
//
// Every response is checked byte for byte against a serial in-process
// replay (the `amixctl client --verify` recipe): g0 reads against a
// CacheEntry built for g0, g1 traffic against a CacheEntry that applies
// the same deltas through CacheEntry::repair_to. Finally an MST on the
// repaired g1 is checked against Kruskal.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.hpp"
#include "common.hpp"
#include "server/client.hpp"
#include "server/mix.hpp"
#include "server/server.hpp"

namespace amixbench {

using namespace amix;

namespace {

constexpr NodeId kN = 256;
constexpr std::size_t kReaders = 2;
constexpr std::size_t kCycle = 24;         // distinct requests per reader
// A pass is 16 writes (~1.5 s of repairs) while each reader sends about
// as many reads as fit beside them; the nominal pass time also covers the
// serial replay that verifies the pass afterwards.
constexpr std::uint32_t kWritesPerPass = 16;
constexpr std::uint32_t kReadsPerPass = 1000;  // per reader
constexpr double kNominalPassS = 4.0;

struct Request {
  server::RequestHeader hdr;
  std::vector<std::string> lines;
};

// Each request carries ~1.5-2 ms of compute: with ~0.3 ms requests the
// loop was bound by cross-thread wake-ups on loopback, and ops_per_s
// spread 30% between runs. Half the requests are the middle pattern, and
// the patterns' latencies overlap, so the median never sits on a
// boundary between two clusters.
std::vector<std::string> read_lines(std::uint64_t j, Rng& rng) {
  const std::string src = std::to_string(rng.next_below(kN));
  switch (j % 8) {
    case 0: return {"walks 128 96"};
    case 4: return {"sssp " + src + " 4", "walks 128 96"};
    case 3:
    case 7: return {"matching", "walks 128 128"};
    default: return {"matching", "walks 128 96"};
  }
}

Request query(const std::string& graph, const std::string& tenant,
              std::uint64_t seed, std::uint64_t base,
              std::vector<std::string> lines) {
  Request r;
  r.hdr.verb = server::Verb::kQuery;
  r.hdr.graph = graph;
  r.hdr.tenant = tenant;
  r.hdr.seed = seed;
  r.hdr.base = base;
  r.hdr.lines = static_cast<std::uint32_t>(lines.size());
  r.lines = std::move(lines);
  return r;
}

Request mutate(const GraphDelta& d) {
  Request r;
  r.hdr.verb = server::Verb::kMutate;
  r.hdr.graph = "g1";
  r.hdr.tenant = "w0";
  for (const EdgeDelta& e : d) {
    r.lines.push_back(std::string(e.insert ? "insert " : "delete ") +
                      std::to_string(e.u) + " " + std::to_string(e.v));
  }
  r.hdr.lines = static_cast<std::uint32_t>(r.lines.size());
  return r;
}

struct Plan {
  Graph g0;
  std::vector<Graph> g1;  // g1[s] = g1 before write s; back() = final
  std::vector<std::vector<Request>> reader_cycle;  // [reader][position]
  std::vector<Request> writer;  // mutate, read, mutate, read, ...
  std::uint32_t reads_per_reader = 0;
};

Graph regular8(std::uint64_t seed) {
  Rng rng(seed);
  return bench::make_family("regular8", kN, rng);
}

Plan make_plan(std::uint32_t passes) {
  Plan p;
  p.g0 = regular8(1);
  p.g1.push_back(regular8(2));
  p.reads_per_reader = kReadsPerPass * passes;
  for (std::size_t r = 0; r < kReaders; ++r) {
    Rng rng(0x7ead0ULL + r);
    std::vector<Request> cycle;
    for (std::uint64_t j = 0; j < kCycle; ++j) {
      cycle.push_back(query("g0", "r" + std::to_string(r), 0x7eadULL + r, 2 * j,
                            read_lines(j, rng)));
    }
    p.reader_cycle.push_back(std::move(cycle));
  }
  Rng rng(0x3717ULL);
  for (std::uint64_t s = 0; s < std::uint64_t{kWritesPerPass} * passes; ++s) {
    const GraphDelta d = double_edge_swap(p.g1.back(), rng);
    p.writer.push_back(mutate(d));
    p.g1.push_back(p.g1.back().apply_delta(d));
    p.writer.push_back(query("g1", "w0", 0x3717ULL, 2 * s, {"walks 256 1024"}));
  }
  return p;
}

server::ServerOptions server_options() {
  server::ServerOptions o;
  o.workers = 3;
  // Serial builds and repairs: the writer's repair then takes one core
  // beside the two reader pairs, which keeps the loop within 4 cores.
  o.hierarchy.exec = ExecPolicy{1};
  return o;
}

/// One client connection's loop record.
struct Conn {
  std::vector<double> read_ms, write_ms;
  std::vector<std::string> bodies;  // writer: every body; reader: first per position
  std::vector<std::uint64_t> served;  // reader: responses per position
  std::vector<std::uint64_t> diverged;  // reader: responses != first body
  std::uint64_t transport_errors = 0;
  double done_s = 0;  // when this connection finished, from loop start
};

bool send(server::Client& c, const Request& q, std::string* body) {
  server::ResponseHeader resp;
  std::string err;
  if (!c.request(q.hdr, q.lines, &resp, body, &err)) return false;
  return resp.ok;
}

/// One query request replayed serially against `e`, exactly as
/// Server::run_query answers it on a cache hit.
struct Replayed {
  std::string body;
  double parse_ms = 0, exec_ms = 0, fold_ms = 0, serialize_ms = 0;
  double total_ms = 0;
  std::uint64_t batch_rounds = 0;
  std::vector<QueryReport> reports;
  bool parsed = true;
};

Replayed replay_query(const engine::CacheEntry& e, std::uint64_t fp,
                      const Request& q, KindTally& kinds) {
  Replayed out;
  const auto t0 = Clock::now();
  std::vector<std::pair<std::uint32_t, QuerySpec>> specs;
  for (std::uint32_t i = 0; i < q.lines.size(); ++i) {
    QuerySpec spec;
    std::string err;
    const auto mp = server::parse_mix_line(
        e.graph(), nullptr, q.lines[i], q.hdr.base + i,
        Session::call_seed(q.hdr.seed, q.hdr.base + i), &spec, &err);
    if (mp != server::MixParse::kQuery) out.parsed = false;
    if (mp == server::MixParse::kQuery) specs.emplace_back(i, std::move(spec));
  }
  const auto t1 = Clock::now();
  std::vector<engine::QueryExecution> execs;
  for (const auto& [index, spec] : specs) {
    const auto a = Clock::now();
    execs.push_back(engine::execute_query(e.graph(), e.hierarchy(), spec,
                                          index, nullptr));
    const auto b = Clock::now();
    out.exec_ms += ms_between(a, b);
    kinds.add(execs.back().report, ms_between(a, b));
  }
  const auto t2 = Clock::now();
  BatchReport b;
  engine::fold_batch(std::move(execs), b);
  const auto t3 = Clock::now();
  out.batch_rounds = b.multiplexed_transport_rounds + b.serialized_rounds;
  std::ostringstream os;
  os << "{\"graph\":\"" << q.hdr.graph << "\",\"tenant\":\"" << q.hdr.tenant
     << "\",\"graph_fp\":" << fp << ",\"cache_hit\":1,\"build_rounds\":0"
     << ",\"batch_rounds\":" << out.batch_rounds
     << ",\"multiplexed_transport_rounds\":" << b.multiplexed_transport_rounds
     << ",\"serialized_rounds\":" << b.serialized_rounds
     << ",\"standalone_query_rounds\":" << b.standalone_query_rounds
     << ",\"queries\":[";
  for (std::size_t i = 0; i < b.queries.size(); ++i) {
    if (i != 0) os << ',';
    b.queries[i].to_json(os);
  }
  os << "]}";
  out.body = os.str();
  const auto t4 = Clock::now();
  out.parse_ms = ms_between(t0, t1);
  out.fold_ms = ms_between(t2, t3);
  out.serialize_ms = ms_between(t3, t4);
  out.total_ms = ms_between(t0, t4);
  out.reports = std::move(b.queries);
  return out;
}

std::string mutate_body(std::uint64_t old_fp, std::uint64_t new_fp,
                        std::uint64_t repair_rounds, std::uint32_t edges) {
  std::ostringstream os;
  os << "{\"graph\":\"g1\",\"old_fp\":" << old_fp << ",\"new_fp\":" << new_fp
     << ",\"noop\":0,\"patched\":1,\"dropped_busy\":0,\"dropped_fallback\":0"
     << ",\"oracle_checked\":0,\"repair_rounds\":" << repair_rounds
     << ",\"num_edges\":" << edges << "}";
  return os.str();
}

/// Start a server, register both graphs, build both hierarchies.
std::unique_ptr<server::Server> start_server(const Plan& p) {
  auto srv = std::make_unique<server::Server>(server_options());
  srv->register_graph("g0", p.g0);
  srv->register_graph("g1", p.g1.front());
  std::string err;
  if (!srv->start(&err)) throw std::runtime_error("server start: " + err);
  server::Client c;
  if (!c.connect_to(srv->port(), &err)) throw std::runtime_error(err);
  for (const char* g : {"g0", "g1"}) {
    std::string body;
    if (!send(c, query(g, "warm", 1, 0, {"walks 1 1"}), &body)) {
      throw std::runtime_error(std::string("warming ") + g + " failed");
    }
  }
  return srv;
}

}  // namespace

int run_serve_churn(const Options& opt, Result& r) {
  const std::uint32_t passes = passes_for(opt, kNominalPassS);
  const Plan plan = make_plan(passes);

  // Set-up: start the server, register the graphs, warm both
  // hierarchies; five times, median reported, the last one serves.
  std::vector<double> setup_s;
  std::unique_ptr<server::Server> srv;
  for (int rep = 0; rep < 5; ++rep) {
    if (srv) srv->shutdown();
    srv.reset();
    const auto t0 = Clock::now();
    srv = start_server(plan);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  const auto stats0 = srv->stats();
  const auto cache0 = srv->cache().stats();

  // The timed loop: 3 closed-loop connections, started together.
  std::vector<Conn> conns(kReaders + 1);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  const std::uint16_t port = srv->port();
  Clock::time_point loop0;
  auto run_conn = [&](std::size_t id) {
    Conn& me = conns[id];
    server::Client c;
    std::string err;
    const bool connected = c.connect_to(port, &err);
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    if (!connected) {
      ++me.transport_errors;
      return;
    }
    std::string body;
    if (id < kReaders) {
      const auto& cycle = plan.reader_cycle[id];
      me.bodies.resize(cycle.size());
      me.served.assign(cycle.size(), 0);
      me.diverged.assign(cycle.size(), 0);
      me.read_ms.reserve(plan.reads_per_reader);
      for (std::uint32_t i = 0; i < plan.reads_per_reader; ++i) {
        const std::size_t j = i % cycle.size();
        const auto t0 = Clock::now();
        const bool ok = send(c, cycle[j], &body);
        me.read_ms.push_back(ms_between(t0, Clock::now()));
        if (!ok) ++me.transport_errors;
        if (me.served[j]++ == 0) {
          me.bodies[j] = body;
        } else if (body != me.bodies[j]) {
          ++me.diverged[j];
        }
      }
    } else {
      for (std::size_t i = 0; i < plan.writer.size(); ++i) {
        const auto t0 = Clock::now();
        const bool ok = send(c, plan.writer[i], &body);
        (i % 2 == 0 ? me.write_ms : me.read_ms)
            .push_back(ms_between(t0, Clock::now()));
        if (!ok) ++me.transport_errors;
        me.bodies.push_back(body);
      }
    }
    me.done_s = ms_between(loop0, Clock::now()) / 1e3;
  };
  std::vector<std::thread> threads;
  for (std::size_t id = 0; id < conns.size(); ++id) {
    threads.emplace_back(run_conn, id);
  }
  while (ready.load() < static_cast<int>(conns.size())) std::this_thread::yield();
  const double cpu0 = process_cpu_s();
  loop0 = Clock::now();
  go.store(true);
  for (std::thread& t : threads) t.join();
  const double loop_s = ms_between(loop0, Clock::now()) / 1e3;
  const double cpu_s = process_cpu_s() - cpu0;
  char done[128];
  std::snprintf(done, sizeof done,
                "connections done at %.2f / %.2f / %.2f s (readers, writer)",
                conns[0].done_s, conns[1].done_s, conns[2].done_s);
  r.notes.push_back(done);
  const auto stats1 = srv->stats();
  const auto cache1 = srv->cache().stats();

  // After the run: an MST on the repaired g1, through the server.
  const Request final_mst = query("g1", "w0", 0x3717ULL, 1u << 30, {"mst"});
  std::string final_body;
  {
    server::Client c;
    std::string err;
    if (!c.connect_to(port, &err) || !send(c, final_mst, &final_body)) {
      final_body.clear();
    }
  }
  srv->shutdown();
  srv.reset();

  // Serial replay of every distinct request.
  const HierarchyParams hp = server_options().hierarchy;
  const std::uint64_t pfp = engine::params_fingerprint(hp);
  BuildTally builds;
  KindTally kinds;
  Spans spans;
  auto build_entry = [&](const Graph& g) {
    const std::uint64_t fp = engine::graph_fingerprint(g);
    const auto b0 = Clock::now();
    auto e = engine::CacheEntry::build(g, hp, fp, pfp);
    const double ms = ms_between(b0, Clock::now());
    builds.add_build(*e, ms);
    if (opt.trace) builds.rebuild(g, hp, ms);
    return e;
  };
  std::vector<double> replay_total, replay_parts;
  double response_bytes = 0;
  auto note_replay = [&](const Replayed& x) {
    spans.add("server.parse", x.parse_ms);
    spans.add("server.serialize", x.serialize_ms);
    spans.add("engine.fold", x.fold_ms);
    response_bytes += static_cast<double>(x.body.size());
    replay_total.push_back(x.total_ms);
    replay_parts.push_back(x.parse_ms + x.exec_ms + x.fold_ms + x.serialize_ms);
  };

  if (opt.perturb == "replay") {
    std::string& b = conns[0].bodies[0];
    if (!b.empty()) b[b.size() / 2] ^= 0x20;
  }

  Checks checks;
  double rounds = 0;
  std::vector<double> overhead_ms;  // read RTT minus its replay
  const std::uint64_t fp0 = engine::graph_fingerprint(plan.g0);
  const auto e0 = build_entry(plan.g0);
  for (std::size_t rd = 0; rd < kReaders; ++rd) {
    const Conn& me = conns[rd];
    std::vector<double> replay_ms(kCycle, 0);
    for (std::size_t j = 0; j < me.served.size(); ++j) {
      const Replayed x = replay_query(*e0, fp0, plan.reader_cycle[rd][j], kinds);
      note_replay(x);
      replay_ms[j] = x.total_ms;
      rounds += static_cast<double>(x.batch_rounds * me.served[j]);
      const bool same = x.parsed && x.body == me.bodies[j];
      for (std::uint64_t k = 0; k < me.served[j]; ++k) {
        checks.op(same && k < me.served[j] - me.diverged[j],
                  "reader " + std::to_string(rd) + " request " +
                      std::to_string(j) + " differs from its serial replay");
      }
    }
    for (std::size_t i = 0; i < me.read_ms.size(); ++i) {
      overhead_ms.push_back(me.read_ms[i] - replay_ms[i % kCycle]);
    }
  }
  for (std::size_t i = 0; i < kReaders; ++i) {
    checks.op(conns[i].transport_errors == 0, "reader transport or typed error");
  }

  const Conn& w = conns[kReaders];
  auto e1 = build_entry(plan.g1.front());
  for (std::size_t s = 0; s + 1 < plan.g1.size(); ++s) {
    const Graph& next = plan.g1[s + 1];
    const std::uint64_t old_fp = engine::graph_fingerprint(plan.g1[s]);
    const std::uint64_t new_fp = engine::graph_fingerprint(next);
    const auto r0 = Clock::now();
    const auto rep = e1->repair_to(next, new_fp, 0);
    builds.repair_ms += ms_between(r0, Clock::now());
    builds.repair_rounds += static_cast<double>(rep.outcome.repair_rounds);
    ++builds.repairs;
    rounds += static_cast<double>(rep.outcome.repair_rounds);
    const bool have = 2 * s + 1 < w.bodies.size();
    checks.op(rep.outcome.applied && have &&
                  w.bodies[2 * s] == mutate_body(old_fp, new_fp,
                                                 rep.outcome.repair_rounds,
                                                 next.num_edges()),
              "mutate " + std::to_string(s) + " differs from its replay");
    const Replayed x = replay_query(*e1, new_fp, plan.writer[2 * s + 1], kinds);
    note_replay(x);
    rounds += static_cast<double>(x.batch_rounds);
    checks.op(x.parsed && have && w.bodies[2 * s + 1] == x.body,
              "writer read " + std::to_string(s) + " differs from its replay");
    if (have) overhead_ms.push_back(w.read_ms[s] - x.total_ms);
  }
  checks.op(w.transport_errors == 0, "writer transport or typed error");

  {
    // The final MST: wire bytes equal the replay, edges equal Kruskal.
    const Graph& g = plan.g1.back();
    const Replayed x =
        replay_query(*e1, engine::graph_fingerprint(g), final_mst, kinds);
    bool ok = x.parsed && x.body == final_body && x.reports.size() == 1 &&
              x.reports[0].mst.has_value();
    if (ok) {
      QuerySpec spec;
      std::string err;
      server::parse_mix_line(g, nullptr, "mst", final_mst.hdr.base,
                             Session::call_seed(final_mst.hdr.seed,
                                                final_mst.hdr.base),
                             &spec, &err);
      std::vector<EdgeId> got = x.reports[0].mst->edges;
      std::sort(got.begin(), got.end());
      ok = got == kruskal_mst(g, std::get<MstQuery>(spec.op).weights);
    }
    note_replay(x);
    checks.op(ok, "final MST on the repaired g1");
  }
  r.attempted = checks.attempted();
  r.failed = checks.failed();

  LoopFigures f;
  f.setup_s = median(setup_s);
  f.loop_s = loop_s;
  f.cpu_s = cpu_s;
  f.rounds = rounds;
  for (const Conn& c : conns) {
    f.query_ms.insert(f.query_ms.end(), c.read_ms.begin(), c.read_ms.end());
    f.write_ms.insert(f.write_ms.end(), c.write_ms.begin(), c.write_ms.end());
  }
  f.ops = f.query_ms.size() + f.write_ms.size();
  end_to_end(f, r);

  if (opt.trace) {
    builds.emit(r.per_layer);
    double total = 0, parts = 0;
    for (std::size_t i = 0; i < replay_total.size(); ++i) {
      total += replay_total[i];
      parts += replay_parts[i];
    }
    kinds.emit(r.per_layer, total, replay_total.size());
    const double reqs = static_cast<double>(spans.count("server.parse"));
    r.per_layer.push_back({"engine.fold_us", 1e3 * spans.mean_ms("engine.fold"),
                           "us", std::to_string(spans.count("engine.fold")) +
                                     " folds"});
    r.per_layer.push_back({"server.parse_us", 1e3 * spans.ms("server.parse") / reqs,
                           "us", "parse_mix_line, per request"});
    r.per_layer.push_back({"server.serialize_us",
                           1e3 * spans.ms("server.serialize") / reqs, "us",
                           "to_json, per request"});
    r.per_layer.push_back({"server.response_bytes",
                           response_bytes / reqs, "bytes",
                           "per query response"});
    r.per_layer.push_back({"server.overhead_us", 1e3 * median(overhead_ms), "us",
                           "median of read RTT - replayed parse+exec+fold+"
                           "serialize, n=" + std::to_string(overhead_ms.size())});
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double misses = static_cast<double>(cache1.misses - cache0.misses);
    const double patched = static_cast<double>(cache1.patched - cache0.patched);
    const double busy = static_cast<double>(cache1.busy_drops - cache0.busy_drops);
    const double fallback =
        static_cast<double>(cache1.fallback_drops - cache0.fallback_drops);
    r.per_layer.push_back({"server.cache_hit_ratio", hits / (hits + misses),
                           "share", "cache().stats() over the loop"});
    r.per_layer.push_back({"server.cache_patch_ratio",
                           patched / (patched + busy + fallback), "share",
                           "patched / (patched + busy + fallback drops)"});
    r.per_layer.push_back({"server.busy_drops", busy, "count", ""});
    r.per_layer.push_back({"server.fallback_drops", fallback, "count", ""});
    r.per_layer.push_back(
        {"server.shed",
         static_cast<double>(stats1.shed_overloaded + stats1.shed_tenant -
                             stats0.shed_overloaded - stats0.shed_tenant),
         "count", "Server::stats() over the loop"});
    r.per_layer.push_back({"trace.parts_gap_share", 1.0 - parts / total, "share",
                           "1 - (parse + exec + fold + serialize) / replay "
                           "total; tolerance 0.05"});
  }
  return 0;
}

}  // namespace amixbench
