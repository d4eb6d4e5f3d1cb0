// Bench-pipeline orchestrator: runs every experiment binary (E1-E12, A1-A3)
// with the unified `--json` flag, in parallel from a small thread pool, and
// merges the per-experiment BENCH_<id>.json reports into a single trajectory
// file (schema difane-bench-trajectory-v1). The trajectory is the unit the
// perf-regression gate (tools/bench_compare) diffs across commits.
//
//   bench_all [--out <trajectory.json>] [--dir <report-dir>] [--bin <dir>]
//             [--jobs N] [--reps N] [--seed S] [--quick] [--only E1,E5,...]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/report.hpp"
#include "util/parse.hpp"

namespace fs = std::filesystem;

namespace {

struct BenchSpec {
  const char* id;
  const char* binary;
};

// One row per experiment binary; the id doubles as the JSON experiment key.
constexpr BenchSpec kBenches[] = {
    {"E1", "bench_e1_setup_throughput"},
    {"E2", "bench_e2_scaling"},
    {"E3", "bench_e3_delay_cdf"},
    {"E4", "bench_e4_partition_tcam"},
    {"E5", "bench_e5_duplication"},
    {"E6", "bench_e6_cache_hit"},
    {"E7", "bench_e7_churn"},
    {"E8", "bench_e8_stretch"},
    {"E9", "bench_e9_failover"},
    {"E10", "bench_e10_classifier"},
    {"E11", "bench_e11_scale"},
    {"E12", "bench_e12_telemetry"},
    {"A1", "bench_a1_cache_planner"},
    {"A2", "bench_a2_replication"},
    {"A3", "bench_a3_fastpath"},
};

struct Options {
  std::string out = "BENCH_trajectory.json";
  std::string dir = "bench-reports";
  std::string bin_dir;  // default: directory containing bench_all itself
  int jobs = 2;
  int reps = 1;
  int threads = 1;  // forwarded to each bench binary as --threads
  std::uint64_t seed = 0;  // 0 => keep each bench's own default seed
  bool quick = false;
  std::vector<std::string> only;  // empty => all
};

[[noreturn]] void usage(int exit_code) {
  std::fprintf(
      exit_code == 0 ? stdout : stderr,
      "usage: bench_all [--out <trajectory.json>] [--dir <report-dir>]\n"
      "                 [--bin <bench-binary-dir>] [--jobs N] [--reps N]\n"
      "                 [--threads N] [--seed S] [--quick]\n"
      "                 [--only E1,E5,...]\n"
      "Runs every bench binary with --json, merges the reports into one\n"
      "trajectory file for bench_compare.\n");
  std::exit(exit_code);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_all: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict numeric values: a malformed or signed number is a usage error,
    // and so is a zero job, repetition or thread count.
    const auto count = [&](auto& out, bool positive) {
      const auto v = difane::util::parse_count<
          std::remove_reference_t<decltype(out)>>(next());
      if (!v || (positive && *v == 0)) {
        std::fprintf(stderr, "bench_all: bad value for %s\n", arg.c_str());
        usage(2);
      }
      out = *v;
    };
    if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--dir") {
      opt.dir = next();
    } else if (arg == "--bin") {
      opt.bin_dir = next();
    } else if (arg == "--jobs") {
      count(opt.jobs, /*positive=*/true);
    } else if (arg == "--reps") {
      count(opt.reps, /*positive=*/true);
    } else if (arg == "--threads") {
      count(opt.threads, /*positive=*/true);
    } else if (arg == "--seed") {
      count(opt.seed, /*positive=*/false);
    } else if (arg == "--quick") {
      opt.quick = true;
    } else if (arg == "--only") {
      std::string list = next();
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const auto comma = list.find(',', pos);
        const auto item = list.substr(pos, comma == std::string::npos
                                               ? std::string::npos
                                               : comma - pos);
        if (!item.empty()) opt.only.push_back(item);
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "bench_all: unknown flag '%s'\n", arg.c_str());
      usage(2);
    }
  }
  return opt;
}

bool selected(const Options& opt, const std::string& id) {
  if (opt.only.empty()) return true;
  for (const auto& want : opt.only) {
    if (want == id) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // Locate the bench binaries: --bin wins, else the directory this
  // orchestrator was launched from (tools/ and bench/ are sibling build
  // dirs, so try ../bench too).
  fs::path bin_dir = opt.bin_dir.empty() ? fs::path(argv[0]).parent_path()
                                         : fs::path(opt.bin_dir);
  if (!opt.bin_dir.empty() && !fs::exists(bin_dir)) {
    std::fprintf(stderr, "bench_all: --bin directory '%s' does not exist\n",
                 bin_dir.string().c_str());
    return 2;
  }
  const auto resolve = [&](const char* binary) -> fs::path {
    for (const auto& candidate :
         {bin_dir / binary, bin_dir / ".." / "bench" / binary,
          fs::path("bench") / binary}) {
      if (fs::exists(candidate)) return candidate;
    }
    return {};
  };

  std::error_code ec;
  fs::create_directories(opt.dir, ec);
  if (ec) {
    std::fprintf(stderr, "bench_all: cannot create report dir '%s': %s\n",
                 opt.dir.c_str(), ec.message().c_str());
    return 2;
  }

  struct Job {
    std::string id;
    std::string command;
    fs::path json_path;
  };
  std::vector<Job> jobs;
  for (const auto& spec : kBenches) {
    if (!selected(opt, spec.id)) continue;
    const fs::path binary = resolve(spec.binary);
    if (binary.empty()) {
      std::fprintf(stderr, "bench_all: cannot find binary '%s' (use --bin)\n",
                   spec.binary);
      return 2;
    }
    const fs::path json_path =
        fs::path(opt.dir) / (std::string("BENCH_") + spec.id + ".json");
    const fs::path log_path =
        fs::path(opt.dir) / (std::string("BENCH_") + spec.id + ".log");
    std::string cmd = binary.string() + " --json " + json_path.string() +
                      " --reps " + std::to_string(opt.reps);
    if (opt.threads > 1) cmd += " --threads " + std::to_string(opt.threads);
    if (opt.seed != 0) cmd += " --seed " + std::to_string(opt.seed);
    if (opt.quick) cmd += " --quick";
    cmd += " > " + log_path.string() + " 2>&1";
    jobs.push_back({spec.id, std::move(cmd), json_path});
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "bench_all: nothing selected\n");
    return 2;
  }

  std::printf("bench_all: %zu experiments, %d workers%s, reports -> %s\n",
              jobs.size(), opt.jobs, opt.quick ? " (quick)" : "",
              opt.dir.c_str());

  // Thread-pool over the job list. Each worker claims the next job index and
  // shells out to the bench binary; the subprocess writes its own JSON.
  std::mutex mu;
  std::size_t next_job = 0;
  std::vector<std::string> failures;
  const int workers =
      std::min<int>(opt.jobs, static_cast<int>(jobs.size()));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (;;) {
        std::size_t index;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (next_job >= jobs.size()) return;
          index = next_job++;
          std::printf("  [%s] running...\n", jobs[index].id.c_str());
        }
        const int rc = std::system(jobs[index].command.c_str());
        std::lock_guard<std::mutex> lock(mu);
        if (rc != 0) {
          failures.push_back(jobs[index].id);
          std::printf("  [%s] FAILED (exit %d)\n", jobs[index].id.c_str(), rc);
        } else {
          std::printf("  [%s] done\n", jobs[index].id.c_str());
        }
      }
    });
  }
  for (auto& t : pool) t.join();

  if (!failures.empty()) {
    std::fprintf(stderr, "bench_all: %zu experiment(s) failed:", failures.size());
    for (const auto& id : failures) std::fprintf(stderr, " %s", id.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  // Merge the per-experiment reports into one trajectory file.
  difane::obs::Trajectory trajectory;
  trajectory.base_seed = opt.seed;
  for (const auto& job : jobs) {
    try {
      auto report = difane::obs::MetricsReport::from_json(
          difane::obs::load_json_file(job.json_path.string()));
      trajectory.git_rev = report.git_rev;
      trajectory.experiments.emplace(job.id, std::move(report));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_all: bad report %s: %s\n",
                   job.json_path.string().c_str(), e.what());
      return 1;
    }
  }
  try {
    trajectory.write_json_file(opt.out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_all: cannot write %s: %s\n", opt.out.c_str(),
                 e.what());
    return 1;
  }
  std::printf("bench_all: wrote %s (%zu experiments, git_rev %s)\n",
              opt.out.c_str(), trajectory.experiments.size(),
              trajectory.git_rev.c_str());
  return 0;
}
