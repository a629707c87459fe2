// End-to-end benchmark executable.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--t0-ns <monotonic ns at process spawn>]
//   e2ebench --self-test
//
// Runs one workload, checks every operation against references computed
// apart from the library, and prints as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. The host record and the
// full result are written to <out-dir> as well; traced runs also write their
// spans there. See README.md.
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include <sched.h>
#include <sys/stat.h>

#include "crypto/aes128.h"
#include "workloads.h"

namespace {

using namespace e2e;

struct Args {
  RunConfig cfg;
  bool self_test = false;
  bool ok = true;
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      a.ok = false;
      break;
    }
    const std::string v = argv[++i];
    if (f == "--workload") {
      a.cfg.workload = v;
      have_workload = true;
    } else if (f == "--seed") {
      a.cfg.seed = std::stoull(v);
    } else if (f == "--seconds") {
      a.cfg.seconds = std::stod(v);
    } else if (f == "--trace") {
      a.cfg.trace = v == "1";
    } else if (f == "--out-dir") {
      a.cfg.out_dir = v;
    } else if (f == "--t0-ns") {
      a.cfg.t0_ns = std::stoull(v);
    } else {
      a.ok = false;
    }
  }
  if (!a.self_test && !have_workload) a.ok = false;
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  }
  return "unknown";
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

/// Host facts recorded next to every result.
std::string host_json(const Recorder& rec) {
  const std::size_t cores = nproc();
  const std::size_t load = static_cast<std::size_t>(rec.load_threads + rec.connections);
  std::string j = "{";
  j += "\"nproc\": " + std::to_string(cores);
  j += ", \"cpu_model\": " + json_string(cpu_model());
  j += ", \"aesni\": " + std::string(arm2gc::crypto::Aes128::aesni_available() ? "true" : "false");
#ifdef __clang__
  j += ", \"compiler\": " + json_string(std::string("clang ") + __VERSION__);
#else
  j += ", \"compiler\": " + json_string(std::string("g++ ") + __VERSION__);
#endif
  j += ", \"build_type\": " + json_string(E2E_BUILD_TYPE);
  j += ", \"cxx_flags\": " + json_string(E2E_CXX_FLAGS);
  j += ", \"march_native\": " + std::string(E2E_NATIVE ? "true" : "false");
  j += ", \"obs_compiled_in\": " + std::string(ARM2GC_OBS ? "true" : "false");
  j += ", \"load_threads_plus_connections\": " + std::to_string(load);
  j += ", \"oversubscribed\": " + std::string(load > cores ? "true" : "false");
  return j + "}";
}

std::string metrics_json(const Recorder& rec) {
  std::string j = "{";
  bool first = true;
  for (const auto& [name, vu] : rec.metrics.all()) {
    if (!first) j += ", ";
    first = false;
    j += json_string(name) + ": {\"value\": " + json_number(vu.first) +
         ", \"unit\": " + json_string(vu.second) + "}";
  }
  return j + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t entry_ns = wall_ns();
  Args a = parse(argc, argv);
  if (!a.ok) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--out-dir <dir>] [--t0-ns <ns>] | --self-test\n");
    return 2;
  }
  if (a.self_test) {
    const int wrong = checker_self_test();
    std::printf("checker self-test: %s\n", wrong == 0 ? "ok" : "FAILED");
    return wrong == 0 ? 0 : 1;
  }
  RunConfig& cfg = a.cfg;
  if (cfg.t0_ns == 0 || cfg.t0_ns > entry_ns) cfg.t0_ns = entry_ns;
  ::mkdir(cfg.out_dir.c_str(), 0755);

  Recorder rec(cfg);
  if (cfg.trace) rec.spans.enable();
  try {
    if (!ref_aes128_passes_fips197()) rec.fatal("AES reference fails the FIPS-197 vector");
    if (cfg.workload == "party_cold_hamming160") {
      run_party_cold_hamming160(rec);
    } else if (cfg.workload == "session_warm_matmult3") {
      run_session_warm_matmult3(rec);
    } else if (cfg.workload == "served_mix") {
      run_served_mix(rec);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "set-up failed: %s\n", e.what());
    return 1;
  }
  if (rec.attempted() == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  for (const std::string& e : rec.errors()) std::fprintf(stderr, "error: %s\n", e.c_str());

  const std::string tag = cfg.workload + "-seed" + std::to_string(cfg.seed) + "-trace" +
                          (cfg.trace ? "1" : "0");
  if (cfg.trace) rec.spans.write(cfg.out_dir + "/spans-" + tag + ".json");
  const std::string host = host_json(rec);
  std::string info = "{";
  for (const auto& [k, v] : rec.info()) {
    if (info.size() > 1) info += ", ";
    info += json_string(k) + ": " + json_string(v);
  }
  info += "}";
  const std::string result = "{\"correct\": " + std::string(rec.correct() ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(rec.attempted()) +
                             ", \"failed\": " + std::to_string(rec.failed()) +
                             ", \"metrics\": " + metrics_json(rec) + "}";
  if (std::FILE* f = std::fopen((cfg.out_dir + "/result-" + tag + ".json").c_str(), "wb")) {
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %s,\n"
                 " \"host\": %s,\n \"info\": %s,\n \"result\": %s}\n",
                 json_string(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
                 json_number(cfg.seconds).c_str(), cfg.trace ? "true" : "false", host.c_str(),
                 info.c_str(), result.c_str());
    std::fclose(f);
  }
  std::printf("host: %s\n", host.c_str());
  std::printf("info: %s\n", info.c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}
