// ovcbench: the repo benchmark program (perfbench/README.md).
//
//   ovcbench --workload serve_point|sort_spill|join_agg --seed N
//            --seconds S --trace 0|1 [--scale F] [--temp-dir DIR]
//            [--git-sha SHA]
//
// Serves one workload from an in-process ovc::server::Server over
// loopback to closed-loop clients, checks every reply, and prints one
// metric per line followed, as the last line, by the JSON result
// {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 the per-layer breakdown (layers.cc).
// Exits 1 when any answer was wrong, 2 on bad arguments or a failed
// set-up, 3 when the binary is not a Release build.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace ovcbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// Set-ups before the measured loop; --trace 0 runs as many again after
/// it. setup_s is the median of all of them, so neither one slow start
/// nor a slow stretch of the host at one end of the run moves it.
constexpr int kSetupRepeats = 8;

/// Starts a new peak-RSS window: the kernel resets the process's VmHWM to
/// its current resident set. False when /proc/self/clear_refs is not
/// writable; VmHWM then keeps the peak since the process started.
bool ResetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

/// VmHWM, the peak resident set since the last ResetPeakRss, in MB.
double PeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Busy CPU seconds of the whole machine since boot -- every process,
/// plus time the hypervisor stole -- from /proc/stat; -1 when unreadable.
double MachineBusySeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return -1;
  // user nice system idle iowait irq softirq steal
  unsigned long long t[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &t[0],
                            &t[1], &t[2], &t[3], &t[4], &t[5], &t[6], &t[7]);
  std::fclose(f);
  if (n != 8) return -1;
  return static_cast<double>(t[0] + t[1] + t[2] + t[5] + t[6] + t[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::mutex failures_mu;
std::vector<std::string> failures;

[[noreturn]] void Die(int code, const std::string& message) {
  std::fprintf(stderr, "ovcbench: %s\n", message.c_str());
  std::exit(code);
}

/// Builds the catalog, starts the server, connects the clients, and warms
/// up: every connection prepares the workload's prepared texts, and the
/// warm texts are bound into the plan cache.
std::unique_ptr<Served> SetUp(const Workload& w, const std::string& temp_dir,
                              double* total_s, double* generate_s) {
  const ServingConfig& cfg = w.serving();
  const Clock::time_point start = Clock::now();
  auto served = std::make_unique<Served>();
  served->catalog = std::make_unique<ovc::sql::Catalog>();
  *generate_s = 0;
  for (const TableDef& def : w.tables()) {
    const Clock::time_point g = Clock::now();
    const ovc::Status st = served->catalog->RegisterGenerated(
        def.name, def.columns, def.schema(), def.rows, def.spec());
    *generate_s += SecondsSince(g);
    if (!st.ok()) Die(2, "generating " + def.name + ": " + st.ToString());
  }

  ovc::server::ServerOptions options;
  options.max_queries = cfg.max_queries;
  options.workers_per_query = cfg.workers_per_query;
  options.temp_dir = temp_dir;
  options.executor.planner.sort_config.memory_rows = cfg.sort_memory_rows;
  served->server = std::make_unique<ovc::server::Server>(served->catalog.get(),
                                                         options);
  const ovc::Status started = served->server->Start();
  if (!started.ok()) Die(2, "server start: " + started.ToString());

  served->clients.resize(cfg.connections);
  served->handles.resize(cfg.connections);
  for (uint32_t c = 0; c < cfg.connections; ++c) {
    ovc::server::Client& client = served->clients[c];
    const ovc::Status st = client.Connect("127.0.0.1", served->server->port());
    if (!st.ok()) Die(2, "connect: " + st.ToString());
    for (const std::string& sql : w.prepared_texts()) {
      ovc::server::Client::PreparedInfo info;
      const ovc::Status ps = client.Prepare(sql, &info);
      if (!ps.ok() || !info.ok) Die(2, "prepare " + sql + ": " + info.error_message);
      served->handles[c].push_back(info.handle);
    }
  }
  const std::vector<std::string>& warm = w.warm_texts();
  for (size_t i = 0; i < warm.size(); ++i) {
    ovc::server::Client& client = served->clients[i % cfg.connections];
    ovc::server::Client::PreparedInfo info;
    const ovc::Status ps = client.Prepare(warm[i], &info);
    if (!ps.ok() || !info.ok) Die(2, "prepare " + warm[i] + ": " + info.error_message);
    if (!client.CloseStatement(info.handle).ok()) Die(2, "close failed");
  }
  *total_s = SecondsSince(start);
  return served;
}

void TearDown(std::unique_ptr<Served>* served) {
  if (*served == nullptr) return;
  (*served)->clients.clear();
  (*served)->server->Stop();
  served->reset();
}

std::string Format(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  double scale = 1;
  std::string temp_dir = ".bench_build/tmp";
  std::string git_sha = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die(2, "missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = std::atoi(v.c_str());
    else if (flag == "--scale") a.scale = std::atof(v.c_str());
    else if (flag == "--temp-dir") a.temp_dir = v;
    else if (flag == "--git-sha") a.git_sha = v;
    else Die(2, "unknown flag " + flag);
  }
  if (a.seconds <= 0 || a.scale <= 0 || (a.trace != 0 && a.trace != 1)) {
    Die(2, "need --seconds > 0, --scale > 0, --trace 0|1");
  }
  return a;
}

}  // namespace

void NoteFailure(const std::string& what) {
  std::lock_guard<std::mutex> lock(failures_mu);
  failures.push_back(what);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

LoopStats RunLoop(Served* served, const Workload& w, double seconds,
                  uint64_t first, uint64_t end_index) {
  const ServingConfig& cfg = w.serving();
  const bool timed = seconds >= 0;
  std::vector<std::vector<Sample>> per_client(cfg.connections);
  const double cpu0 = CpuSeconds();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(timed ? seconds : 0));

  // Statement indices are handed out under one lock, so the run ends at a
  // single index: every index below it is handed out and run, none above.
  std::mutex next_mu;
  uint64_t next = first;
  auto take = [&](uint64_t* i) {
    std::lock_guard<std::mutex> lock(next_mu);
    if (next >= end_index) return false;
    const uint64_t done = next - first;
    if (timed && done >= cfg.round_length && done % cfg.round_length == 0 &&
        Clock::now() >= deadline) {
      return false;
    }
    *i = next++;
    return true;
  };

  auto client_loop = [&](uint32_t c) {
    ovc::server::Client& client = served->clients[c];
    uint64_t i = 0;
    while (take(&i)) {
      const Statement st = w.At(i);
      ovc::server::Client::Result result;
      const Clock::time_point t0 = Clock::now();
      const ovc::Status status =
          st.prepared >= 0
              ? client.Execute(served->handles[c][static_cast<size_t>(st.prepared)], &result)
              : client.Query(st.sql, &result);
      Sample sample;
      sample.index = i;
      sample.latency_ms = SecondsSince(t0) * 1e3;
      sample.input_rows = st.input_rows;
      sample.cls = st.cls;
      std::string why;
      if (!status.ok()) {
        why = "transport: " + status.ToString();
      } else if (!result.ok) {
        why = "ERROR frame: " + result.error_message;
      } else {
        sample.ok = CheckRows(*st.expected, result.rows, &why);
      }
      if (!sample.ok) {
        NoteFailure(w.name() + " statement " + std::to_string(i) + " [" +
                    st.sql + "]: " + why);
      }
      per_client[c].push_back(std::move(sample));
      if (!status.ok()) return;  // the connection is dead
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < cfg.connections; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();

  LoopStats stats;
  stats.wall_s = SecondsSince(start);
  stats.cpu_s = CpuSeconds() - cpu0;
  stats.end_index = next;
  for (std::vector<Sample>& samples : per_client) {
    for (Sample& s : samples) {
      if (!s.ok) ++stats.failed;
      stats.samples.push_back(std::move(s));
    }
  }
  stats.attempted = stats.samples.size();
  return stats;
}

}  // namespace ovcbench

int main(int argc, char** argv) {
  using namespace ovcbench;
  const Args args = ParseArgs(argc, argv);
  if (std::string(OVCBENCH_BUILD_TYPE) != "Release") {
    Die(3, std::string("refusing to measure a ") + OVCBENCH_BUILD_TYPE +
               " build; configure with -DCMAKE_BUILD_TYPE=Release");
  }
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.scale);
  if (workload == nullptr) Die(2, "unknown workload '" + args.workload + "'");

  const Clock::time_point process_start = Clock::now();
  const double busy_before = MachineBusySeconds();
  double load_before[3] = {0, 0, 0};
  getloadavg(load_before, 3);
  std::error_code ec;
  std::filesystem::create_directories(args.temp_dir, ec);
  if (ec) Die(2, "cannot create " + args.temp_dir + ": " + ec.message());

  workload->Prepare();

  // Set up several times; the loop runs on the last instance.
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<Served> served;
  auto set_up = [&] {
    for (int r = 0; r < kSetupRepeats; ++r) {
      TearDown(&served);
      double total = 0, gen = 0;
      served = SetUp(*workload, args.temp_dir, &total, &gen);
      setup_s.push_back(total);
      generate_s.push_back(gen);
    }
  };
  set_up();

  // Warm-up statements come from a part of the stream no measurement
  // uses, so the measured loop always starts at statement 0.
  const uint64_t warmup_first = uint64_t{1} << 40;
  const LoopStats warmup =
      RunLoop(served.get(), *workload, -1, warmup_first,
              warmup_first + workload->serving().warmup_statements);
  std::vector<Metric> metrics;
  std::vector<std::string> report;
  uint64_t attempted = warmup.attempted, failed = warmup.failed;
  if (args.trace == 0) {
    // The peak covers the measured loop only: not the set-ups, and not the
    // copies of the tables Workload::Prepare made to compute the answers.
    if (!ResetPeakRss()) {
      report.push_back("peak_rss_mb is the process's lifetime peak: "
                       "/proc/self/clear_refs is not writable");
    }
    const LoopStats stats = RunLoop(served.get(), *workload, args.seconds, 0, UINT64_MAX);
    const double peak_rss_mb = PeakRssMb();
    set_up();
    attempted += stats.attempted;
    failed += stats.failed;
    std::vector<double> latency;
    std::map<std::string, std::vector<double>> by_class;
    uint64_t completed = 0, rows = 0;
    for (const Sample& s : stats.samples) {
      latency.push_back(s.latency_ms);
      by_class[s.cls].push_back(s.latency_ms);
      if (s.ok) {
        ++completed;
        rows += s.input_rows;
      }
    }
    const double done = static_cast<double>(std::max<uint64_t>(completed, 1));
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"qps", static_cast<double>(completed) / stats.wall_s, "1/s"},
        {"rows_per_s", static_cast<double>(rows) / stats.wall_s, "rows/s"},
        {"latency_p50_ms", Median(latency), "ms"},
        {"cpu_ms_per_query", stats.cpu_s * 1e3 / done, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    // Tail percentiles are printed only where at least ten samples lie
    // beyond them; they are not gated (BENCHMARK.json).
    const double n = static_cast<double>(latency.size());
    report.push_back("samples " + std::to_string(latency.size()) + " over " +
                     Format(stats.wall_s) + " s; failed_share " +
                     Format(static_cast<double>(stats.failed) / std::max(1.0, n)));
    for (double p : {0.5, 0.9, 0.99}) {
      if (n * (1 - p) >= 10) {
        report.push_back("latency_p" + std::to_string(static_cast<int>(p * 100)) +
                         "_ms " + Format(Percentile(latency, p)) + " (n=" +
                         std::to_string(latency.size()) + ")");
      }
    }
    std::string setups = "setup_s of each set-up:";
    for (double v : setup_s) setups += " " + Format(v);
    report.push_back(setups);
    for (const auto& [cls, values] : by_class) {
      report.push_back("class " + cls + ": n=" + std::to_string(values.size()) +
                       " p50_ms=" + Format(Median(values)));
    }
  } else {
    LayerRun run;
    run.served = served.get();
    run.workload = workload.get();
    run.seconds = args.seconds;
    run.generate_s = Median(generate_s);
    run.temp_dir = args.temp_dir;
    metrics = MeasureLayers(run, &attempted, &failed);
  }
  TearDown(&served);

  double load_after[3] = {0, 0, 0};
  getloadavg(load_after, 3);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  // A run is usable only when the rest of the machine stayed quiet: the
  // CPUs everything but this process kept busy (steal included) must
  // average at most a quarter of the machine. The load average cannot
  // tell: after a run it still holds the previous run's own load.
  // /proc/stat counts in clock ticks, so the figure can dip slightly
  // below 0 on an idle machine.
  const double busy_after = MachineBusySeconds();
  const bool busy_known = busy_before >= 0 && busy_after >= 0;
  const double other_cpus =
      busy_known ? (busy_after - busy_before - CpuSeconds()) / SecondsSince(process_start)
                 : 0;
  const bool usable = busy_known && other_cpus <= 0.25 * nproc;
  std::printf(
      "# provenance {\"git_sha\":%s,\"build_type\":%s,\"compiler\":%s,"
      "\"flags\":%s,\"nproc\":%u,\"loadavg_before\":%s,\"loadavg_after\":%s,"
      "\"other_cpus\":%s,\"usable\":%s,\"workload\":%s,\"seed\":%llu,\"scale\":%s}\n",
      JsonString(args.git_sha).c_str(), JsonString(OVCBENCH_BUILD_TYPE).c_str(),
      JsonString(OVCBENCH_COMPILER).c_str(), JsonString(OVCBENCH_FLAGS).c_str(),
      nproc, Format(load_before[0]).c_str(), Format(load_after[0]).c_str(),
      Format(other_cpus).c_str(), usable ? "true" : "false", JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), Format(args.scale).c_str());
  for (const std::string& line : report) std::printf("# %s\n", line.c_str());
  {
    std::lock_guard<std::mutex> lock(failures_mu);
    for (size_t i = 0; i < failures.size() && i < 5; ++i) {
      std::printf("# FAILED %s\n", failures[i].c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%s %s %s\n", m.name.c_str(), Format(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics[i].name) + ": {\"value\": " + Format(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
