// amixbench: one workload of the amix benchmark per process.
//
//   amixbench --workload cold-build|warm-session|serve-churn
//             --seed N --seconds S --trace 0|1 [--perturb answer|replay]
//
// Prints a provenance line, a table of every metric, and as its last
// line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// See README.md next to this directory's CMakeLists.txt.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

using namespace amixbench;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: amixbench --workload cold-build|warm-session|"
               "serve-churn --seed N --seconds S --trace 0|1 "
               "[--perturb answer|replay]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--perturb") {
      if (v != "answer" && v != "replay") usage();
      opt.perturb = v;
    } else {
      usage();
    }
  }
  if (opt.seconds <= 0) usage();
  int (*run)(const Options&, Result&) = nullptr;
  if (opt.workload == "cold-build") run = run_cold_build;
  if (opt.workload == "warm-session") run = run_warm_session;
  if (opt.workload == "serve-churn") run = run_serve_churn;
  if (run == nullptr) usage();

  print_provenance(opt, "start");
  const double calib_start = calib_ms(opt.seed);
  Result r;
  try {
    const int rc = run(opt, r);
    if (rc != 0) return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amixbench: %s\n", e.what());
    return 1;
  }
  const double calib_end = calib_ms(opt.seed);
  char note[96];
  std::snprintf(note, sizeof note, "mean of start %.3f and end %.3f ms",
                calib_start, calib_end);
  r.per_layer.push_back(
      {"host.calib_ms", 0.5 * (calib_start + calib_end), "ms", note});
  r.notes.push_back(std::string("host.calib_ms: ") + note);
  print_provenance(opt, "end");
  emit(opt, r);
  return 0;
}
