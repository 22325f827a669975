// perfbench driver: runs one workload of the repository benchmark against
// the wsp library's public API and writes its raw measurements (host-time
// samples, simulated statistics and correctness checks) to a JSON file.
// perfbench/run.py builds and runs it and turns the samples into metrics.
//
//   perfbench_driver --workload <cosim-spiking|campaign-32>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --scratch <dir> --out <file.json>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "ledger.hpp"

namespace perfbench {
namespace {

void append_number(std::string& s, double v) {
  if (!std::isfinite(v)) {
    s += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  s += buf;
}

void append_string(std::string& s, const std::string& v) {
  s += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') s += '\\';
    s += c;
  }
  s += '"';
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload "
               "<cosim-spiking|campaign-32> --seed <n> "
               "--seconds <s> --trace <0|1> --scratch <dir> --out <file>\n",
               why.c_str());
  return 2;
}

}  // namespace

std::string Ledger::to_json() const {
  std::string s = "{\"series\": {";
  const char* sep = "";
  for (const auto& [name, samples] : series_) {
    s += sep;
    append_string(s, name);
    s += ": [";
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i) s += ", ";
      append_number(s, samples[i]);
    }
    s += "]";
    sep = ", ";
  }
  s += "}, \"values\": {";
  sep = "";
  for (const auto& [name, v] : values_) {
    s += sep;
    append_string(s, name);
    s += ": ";
    append_number(s, v);
    sep = ", ";
  }
  s += "}, \"checks\": [";
  sep = "";
  for (const auto& [name, ok] : checks_) {
    s += sep;
    s += "{\"name\": ";
    append_string(s, name);
    s += ok ? ", \"ok\": true}" : ", \"ok\": false}";
    sep = ", ";
  }
  s += "]}";
  return s;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  std::string workload;
  std::string out_path;
  RunArgs args;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") workload = val;
      else if (key == "--seed") args.seed = std::stoull(val);
      else if (key == "--seconds") args.seconds = std::stod(val);
      else if (key == "--trace") args.trace = std::stoi(val) != 0;
      else if (key == "--scratch") args.scratch_dir = val;
      else if (key == "--out") out_path = val;
      else return usage("unknown option " + key);
    }
  } catch (const std::exception&) {
    return usage("malformed option value");
  }
  if (out_path.empty() || args.scratch_dir.empty() || !(args.seconds > 0.0))
    return usage("--out, --scratch and a positive --seconds are required");

  void (*run)(const RunArgs&, Ledger&) = nullptr;
  if (workload == "cosim-spiking") run = run_cosim;
  else if (workload == "campaign-32") run = run_campaign;
  else return usage("unknown workload '" + workload + "'");

  Ledger ledger;
  try {
    run(args, ledger);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s failed: %s\n",
                 workload.c_str(), e.what());
    return 1;
  }
  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  ledger.set("peak_rss_kib", static_cast<double>(usage_now.ru_maxrss));

  std::string json = "{\"workload\": ";
  append_string(json, workload);
  json += ", \"compiler\": ";
  append_string(json, __VERSION__);
  json += ", \"build_type\": ";
  append_string(json, PERFBENCH_BUILD_TYPE);
  json += ", \"ledger\": " + ledger.to_json() + "}\n";
  std::ofstream f(out_path, std::ios::binary);
  f << json;
  f.flush();
  if (!f) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  return 0;
}
