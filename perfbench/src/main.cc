// simbench: runs one benchmark workload in this process, on one thread, and
// prints one JSON line of raw measurements for perfbench/run.py.
//
//   simbench --workload NAME --scenario N[,N...] --seconds S --trace 0|1
//            [--fidelity hybrid|packet] [--trace-out PATH]
//
// --trace 0 measures set-up time (median over chunks of set-ups), run time
// (median over repetitions) and peak memory. --trace 1 alternates untraced
// and traced repetitions, reports the per-layer metrics and writes the span
// log to --trace-out. --seconds 0 builds and runs the workload once; with
// --fidelity packet that is a packet-fidelity reference result.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// One set-up takes from tens of microseconds to a few milliseconds, so
/// set-up time is measured over kSetupBudgetS of back-to-back set-ups
/// (part of --seconds): the mean of each kSetupChunkS chunk is one sample,
/// and setup_s is their median.
constexpr double kSetupBudgetS = 3.0;
constexpr double kSetupChunkS = 0.1;
constexpr int kWheelReps = 3;

using stellar::bench::jnum;
using stellar::bench::jstr;

struct Args {
  Params params;
  double seconds = 10;  // 0: build and run once
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "simbench: %s\nusage: simbench --workload NAME --scenario "
               "N[,N...] --seconds S --trace 0|1 [--fidelity hybrid|packet] "
               "[--trace-out PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.params.workload = v;
    } else if (flag == "--scenario") {
      for (char* end = nullptr;; v = end + 1) {
        a.params.scenarios.push_back(std::strtoull(v, &end, 10));
        if (*end != ',') break;
      }
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--fidelity") {
      if (std::strcmp(v, "packet") == 0) {
        a.params.fidelity = Fidelity::kPacket;
      } else if (std::strcmp(v, "hybrid") != 0) {
        usage("--fidelity must be hybrid or packet");
      }
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!known_workload(a.params.workload)) usage("unknown --workload");
  if (a.params.scenarios.empty() ||
      (a.params.scenarios.size() > 1 && !multi_scenario(a.params.workload))) {
    usage("--scenario takes one index, or a list for allreduce_fault_hybrid");
  }
  if (a.params.workload == "permutation_packet") {
    a.params.fidelity = Fidelity::kPacket;
  }
  return a;
}

/// Repeat `fn` while another call is expected to end within `seconds`
/// (at least once).
template <typename F>
void repeat(double seconds, F&& fn) {
  const double t0 = wall_now();
  double last = 0;
  for (int i = 0; i == 0 || wall_now() - t0 + last <= seconds; ++i) {
    const double r0 = wall_now();
    fn();
    last = wall_now() - r0;
  }
}

/// Set-up time samples: the mean set-up time of each kSetupChunkS chunk of
/// back-to-back set-ups over kSetupBudgetS, or one set-up for seconds == 0.
std::vector<double> setup_samples(const Params& p, double seconds) {
  if (seconds == 0) return {setup_only(p).total()};
  std::vector<double> out;
  const double t0 = wall_now();
  while (wall_now() - t0 < kSetupBudgetS) {
    const double c0 = wall_now();
    double sum = 0;
    int n = 0;
    for (; n == 0 || wall_now() - c0 < kSetupChunkS; ++n) {
      sum += setup_only(p).total();
    }
    out.push_back(sum / n);
  }
  return out;
}

std::string json_num(double v) { return jnum(v, 12); }

std::string json_table(const Table& t) {
  std::string out = "{";
  for (const auto& [k, v] : t) {
    if (out.size() > 1) out += ", ";
    out += jstr(k) + ": " + json_num(v);
  }
  return out + "}";
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_num(v[i]);
  }
  return out + "]";
}

/// The canonical outputs as a JSON list of their lines.
std::string json_lines(const std::string& text) {
  std::string out = "[";
  std::size_t begin = 0;
  for (std::size_t end; (end = text.find('\n', begin)) != std::string::npos;
       begin = end + 1) {
    out += (begin == 0 ? "\n  " : ",\n  ") +
           jstr(text.substr(begin, end - begin));
  }
  return out + "]";
}

std::string scenario_list(const std::vector<std::uint64_t>& scenarios) {
  std::string out = "[";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(scenarios[i]);
  }
  return out + "]";
}

/// Checks shared by both modes: every repetition ran the same simulation.
void check_reps(const std::vector<Rep>& reps, std::vector<std::string>& errors,
                std::uint64_t& attempted, std::uint64_t& failed) {
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) errors.push_back(e);
    if (r.canon != reps.front().canon) {
      errors.push_back("repetitions of one scenario produced different "
                       "simulated outputs");
    }
  }
}

int run(const Args& a) {
  std::vector<Rep> reps;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0, failed = 0;
  std::string out = "{";
  auto field = [&out](const char* key, const std::string& value) {
    if (out.size() > 1) out += ", ";
    out += jstr(key) + ": " + value;
  };

  if (!a.trace) {
    const double t0 = wall_now();
    const std::vector<double> setup_s = setup_samples(a.params, a.seconds);
    std::vector<double> run_s;
    // Peak memory is read after the first repetition: later ones can
    // only add allocator fragmentation, and how many fit depends on host
    // speed.
    double rss = 0;
    repeat(a.seconds - (wall_now() - t0), [&] {
      reps.push_back(run_rep(a.params, nullptr));
      run_s.push_back(reps.back().run_s);
      if (reps.size() == 1) rss = peak_rss_mib();
    });
    check_reps(reps, errors, attempted, failed);
    field("setup_s", json_list(setup_s));
    field("run_s", json_list(run_s));
    field("peak_rss_mib", json_num(rss));
  } else {
    std::vector<double> wheel;
    for (int i = 0; i < kWheelReps; ++i) wheel.push_back(wheel_ns_per_event());
    SpanLog log;
    std::vector<Rep> traced;
    std::vector<double> plain_s, traced_s, cpu_s, faults;
    repeat(a.seconds, [&] {
      reps.push_back(run_rep(a.params, nullptr));
      plain_s.push_back(reps.back().run_s);
      cpu_s.push_back(reps.back().run_cpu_s);
      faults.push_back(static_cast<double>(reps.back().minor_faults));
      traced.push_back(run_rep(a.params, &log));
      traced_s.push_back(traced.back().run_s);
    });
    check_reps(reps, errors, attempted, failed);
    check_reps(traced, errors, attempted, failed);
    if (traced.front().canon != reps.front().canon) {
      errors.push_back("the traced run changed the simulated outputs");
    }
    // Host timings are medians over the repetitions; counters are the same
    // in every repetition.
    std::vector<Table> layers;
    for (const Rep& r : traced) layers.push_back(finish_layers(r));
    Table layer;
    for (const auto& [k, v] : layers.front()) {
      std::vector<double> vals;
      for (const Table& t : layers) vals.push_back(t.at(k));
      layer[k] = median(vals);
    }
    const double plain = median(plain_s);
    layer["sim.ns_per_event"] = plain * 1e9 / layer["sim.events"];
    layer["sim.wheel_ns_per_event"] = median(wheel);
    layer["host.cpu_s"] = median(cpu_s);
    layer["host.minor_faults"] = median(faults);
    layer["trace.overhead_pct"] = 100.0 * (median(traced_s) / plain - 1.0);
    field("layer", json_table(layer));
    if (!a.trace_out.empty()) {
      std::FILE* f = std::fopen(a.trace_out.c_str(), "w");
      if (f == nullptr) {
        errors.push_back("cannot write " + a.trace_out);
      } else {
        const std::string body =
            "{\"workload\": " + jstr(a.params.workload) +
            ", \"scenarios\": " + scenario_list(a.params.scenarios) +
            ",\n\"layer\": " + json_table(layer) +
            ",\n\"outputs\": " + json_lines(reps.front().canon) +
            ",\n\"spans\": " + log.to_json() + "}\n";
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
      }
    }
  }

  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(fnv1a(reps.front().canon)));
  field("workload", jstr(a.params.workload));
  field("scenarios", scenario_list(a.params.scenarios));
  field("fidelity", jstr(stellar::bench::fidelity_name(a.params.fidelity)));
  field("reps", std::to_string(reps.size()));
  field("result", json_table(reps.front().result));
  field("digest", jstr(digest));
  field("attempted", std::to_string(attempted));
  field("failed", std::to_string(failed));
  std::string errs = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    errs += (i == 0 ? "" : ", ") + jstr(errors[i]);
  }
  field("errors", errs + "]");
  std::printf("%s}\n", out.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
