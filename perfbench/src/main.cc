// msim benchmark: runs one named workload against the library's public
// API for a fixed wall-clock budget and prints every metric with its unit,
// then one JSON result line. See perfbench/README.md.
//
//   perfbench --workload campaign|metal_paper|native_ckpt [--seed N]
//             [--seconds S] [--trace 0|1] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics, measured with span recording off.
// --trace 1 alternates whole rounds between span recording off and on, spans
// being recorded around every call into a library layer, and prints the
// per-layer metrics; --trace-out writes the spans as Chrome trace JSON.
//
// Every job checks its own outputs, and job i of every round must reproduce
// the simulated-statistics digest of its first run. Exit status: 0 when every
// check passed, 1 when one failed (the result line then says
// "correct": false), 2 on a usage error or a failed set-up.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;

// Latency and throughput are measured per window of kWindowJobs consecutive
// jobs, and the best window is reported. Other tenants of a shared host only
// ever add time, in bursts from under a second to most of a run, and on a
// busy 4-core VM they slowed jobs by up to 2.7x; the best window tracks the
// simulator's own speed where a whole-run median or tail percentile follows
// the neighbours. A window of 20 keeps p90 off the single slowest job. Every
// workload's round is a whole number of windows, or a window a whole number
// of rounds, and the campaign orders its round so that each window samples
// the whole fault plan, so all windows hold the same mix of jobs.
constexpr size_t kWindowJobs = 20;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

// Linear-interpolation percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

struct JobSample {
  uint64_t job = 0;       // span job id
  double start_ms = 0.0;  // since the start of the phase
  double end_ms = 0.0;

  double ms() const { return end_ms - start_ms; }
};

// The timed loop's record of the jobs that passed every check.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::vector<JobSample> jobs;         // span recording off
  std::vector<JobSample> traced_jobs;  // span recording on
  uint64_t round_jobs = 0;             // the first round's jobs,
  uint64_t round_cycles = 0;           // simulated cycles
  uint64_t round_instructions = 0;     // and simulated instructions
  SimCounters traced_round_counters;   // summed over the first traced round
  std::vector<double> checkpoint_save_ms;
  std::vector<double> checkpoint_restore_ms;
  uint64_t pages_touched = 0;
};

// Job digests of the first round, by slot; later runs must repeat them.
struct DigestBook {
  std::vector<uint64_t> digest;
  std::vector<bool> known;

  // Returns false when `slot` ran before with another digest.
  bool Check(size_t slot, uint64_t value) {
    if (slot >= digest.size()) {
      digest.resize(slot + 1, 0);
      known.resize(slot + 1, false);
    }
    if (!known[slot]) {
      known[slot] = true;
      digest[slot] = value;
    }
    return digest[slot] == value;
  }

  uint64_t Fold() const {
    uint64_t h = kFnvBasis;
    for (const uint64_t d : digest) {
      FnvMix(h, d);
    }
    return h;
  }
};

// Runs jobs from the start of a round until `seconds` have passed and at
// least one round is done, calling `between_windows` with the elapsed seconds
// whenever a round ends on a window boundary (no window's time then includes
// what the callback does). With `trace`, whole rounds alternate between span
// recording off and on, at least one of each, so that both kinds of job see
// the same host conditions. Stops at the first failed job.
Phase RunPhase(Workload& workload, SpanRecorder& spans, double seconds, bool trace,
               DigestBook& book, const std::function<void(double)>& between_windows) {
  Phase phase;
  workload.Rewind();
  uint64_t rounds = 0;  // completed
  uint64_t job_id = 0;
  const Clock::time_point start = Clock::now();
  while (rounds < (trace ? 2u : 1u) || MsSince(start) < seconds * 1e3) {
    const bool traced = trace && rounds % 2 == 1;
    spans.set_enabled(traced);
    spans.set_job(++job_id);
    ++phase.attempted;
    JobResult result;
    JobSample sample;
    sample.job = job_id;
    sample.start_ms = MsSince(start);
    {
      ScopedSpan span(spans, "bench.job");
      result = workload.RunNextJob(spans);
    }
    sample.end_ms = MsSince(start);
    if (result.error.empty() && traced) {
      result.error = workload.CheckReference();
    }
    if (result.error.empty() && !book.Check(result.slot, result.digest)) {
      result.error = "simulated statistics differ from the job's first run";
    }
    if (!result.error.empty()) {
      ++phase.failed;
      phase.first_error = "job " + std::to_string(result.slot) + ": " + result.error;
      break;
    }
    if (rounds == 0) {
      ++phase.round_jobs;
      phase.round_cycles += result.sim_cycles;
      phase.round_instructions += result.sim_instructions;
    }
    if (traced) {
      phase.traced_jobs.push_back(sample);
      if (rounds == 1) {
        phase.traced_round_counters.Add(result.counters);
      }
      phase.pages_touched = std::max(phase.pages_touched, result.pages_touched);
    } else {
      phase.jobs.push_back(sample);
      phase.checkpoint_save_ms.insert(phase.checkpoint_save_ms.end(),
                                      result.checkpoint_save_ms.begin(),
                                      result.checkpoint_save_ms.end());
      phase.checkpoint_restore_ms.insert(phase.checkpoint_restore_ms.end(),
                                         result.checkpoint_restore_ms.begin(),
                                         result.checkpoint_restore_ms.end());
    }
    if (result.round_end) {
      ++rounds;
      if (phase.jobs.size() % kWindowJobs == 0) {
        between_windows(MsSince(start) / 1e3);
      }
    }
  }
  spans.set_enabled(false);
  return phase;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct WindowStats {
  std::vector<double> jobs_per_s;
  std::vector<double> p50_ms;
  std::vector<double> p90_ms;
};

// Lowest median over windows of kWindowJobs consecutive values.
double BestWindowMedian(const std::vector<double>& values) {
  std::vector<double> medians;
  for (size_t first = 0; first < values.size(); first += kWindowJobs) {
    const size_t last = std::min(values.size(), first + kWindowJobs);
    if (last - first == kWindowJobs || first == 0) {
      medians.push_back(Percentile({values.begin() + first, values.begin() + last}, 50));
    }
  }
  return Percentile(medians, 0);
}

WindowStats Windows(const std::vector<JobSample>& jobs) {
  WindowStats stats;
  const size_t windows = std::max<size_t>(1, jobs.size() / kWindowJobs);
  const size_t per_window = std::min(kWindowJobs, jobs.size());
  for (size_t w = 0; w < windows && per_window > 0; ++w) {
    const auto first = jobs.begin() + static_cast<std::ptrdiff_t>(w * per_window);
    const auto last = first + static_cast<std::ptrdiff_t>(per_window);
    std::vector<double> ms;
    for (auto job = first; job != last; ++job) {
      ms.push_back(job->ms());
    }
    const double seconds = ((last - 1)->end_ms - first->start_ms) / 1e3;
    stats.jobs_per_s.push_back(static_cast<double>(per_window) / seconds);
    stats.p50_ms.push_back(Percentile(ms, 50));
    stats.p90_ms.push_back(Percentile(ms, 90));
  }
  return stats;
}

std::vector<Metric> EndToEndMetrics(const Phase& phase, double setup_s) {
  const WindowStats w = Windows(phase.jobs);
  const double jobs_per_s = Percentile(w.jobs_per_s, 100);
  // Jobs differ in length (a campaign trial that hangs runs four times the
  // golden cycles), so instructions per second is the job rate times the
  // first round's instructions per job rather than a per-window count.
  const double instr_per_job =
      Ratio(static_cast<double>(phase.round_instructions), static_cast<double>(phase.round_jobs));
  return {
      {"setup_s", setup_s, "s"},
      {"jobs_per_s", jobs_per_s, "1/s"},
      {"job_p50_ms", Percentile(w.p50_ms, 0), "ms"},
      {"job_p90_ms", Percentile(w.p90_ms, 0), "ms"},
      {"sim_instr_per_s", jobs_per_s * instr_per_job, "1/s"},
      {"sim_cycles", static_cast<double>(phase.round_cycles), "cycles"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

// Per-span-name samples and per-layer self time.
struct SpanStats {
  std::map<std::string, std::vector<double>> us;  // durations by name
  std::map<std::string, double> work;             // summed work by name
  std::map<std::string, double> self_s;           // job spans' self time by layer
  double job_s = 0.0;                             // summed bench.job time
  std::map<uint64_t, double> layer_self_ms;       // per job: self time outside bench.*
};

SpanStats Summarize(const std::vector<SpanRecord>& spans) {
  SpanStats stats;
  std::vector<int64_t> children_ns(spans.size(), 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) {
      children_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const std::string name = s.name;
    const int64_t dur_ns = s.end_ns - s.start_ns;
    stats.us[name].push_back(dur_ns / 1e3);
    stats.work[name] += static_cast<double>(s.work);
    if (s.job == 0) {
      continue;  // set-up
    }
    const std::string layer = name.substr(0, name.find('.'));
    const int64_t self_ns = dur_ns - children_ns[i];
    stats.self_s[layer] += self_ns / 1e9;
    if (layer != "bench") {
      stats.layer_self_ms[s.job] += self_ns / 1e6;
    }
    if (name == "bench.job") {
      stats.job_s += dur_ns / 1e9;
    }
  }
  return stats;
}

std::vector<Metric> PerLayerMetrics(const SpanStats& s, const Phase& phase) {
  auto p50 = [&](const char* name) {
    const auto it = s.us.find(name);
    return it == s.us.end() ? 0.0 : Percentile(it->second, 50);
  };
  auto count = [&](const char* name) {
    const auto it = s.us.find(name);
    return it == s.us.end() ? 0.0 : static_cast<double>(it->second.size());
  };
  auto total_s = [&](const char* name) {
    const auto it = s.us.find(name);
    double sum = 0.0;
    if (it != s.us.end()) {
      for (const double us : it->second) {
        sum += us / 1e6;
      }
    }
    return sum;
  };
  auto self_share = [&](const char* layer) {
    const auto it = s.self_s.find(layer);
    return it == s.self_s.end() ? 0.0 : Ratio(it->second, s.job_s);
  };
  auto work = [&](const char* name) {
    const auto it = s.work.find(name);
    return it == s.work.end() ? 0.0 : it->second;
  };
  const SimCounters& c = phase.traced_round_counters;
  const double run_s = total_s("cpu.run");
  // Layer coverage: the layers' self time per traced job over the untraced
  // job time, both as the lowest window median, like job_p50_ms.
  std::vector<double> layer_self_ms;
  for (const JobSample& job : phase.traced_jobs) {
    const auto self = s.layer_self_ms.find(job.job);
    layer_self_ms.push_back(self == s.layer_self_ms.end() ? 0.0 : self->second);
  }
  const double untraced_p50_ms = Percentile(Windows(phase.jobs).p50_ms, 0);
  const double traced_p50_ms = Percentile(Windows(phase.traced_jobs).p50_ms, 0);
  const double setups = std::max(1.0, count("bench.setup"));
  return {
      {"metal.construct_us", p50("metal.construct"), "us"},
      {"metal.construct_n", count("metal.construct"), "count"},
      {"metal.boot_us", p50("metal.boot"), "us"},
      {"metal.boot_n", count("metal.boot"), "count"},
      {"snap.restore_us", p50("snap.restore"), "us"},
      {"snap.restore_n", count("snap.restore"), "count"},
      {"snap.digest_dram_us", p50("snap.digest_dram"), "us"},
      {"snap.save_us", p50("snap.save"), "us"},
      {"snap.save_n", count("snap.save"), "count"},
      {"snap.image_kb", Ratio(work("snap.save") / 1024.0, count("snap.save")), "KiB"},
      {"campaign.capture_us", p50("campaign.capture"), "us"},
      {"campaign.prepare_ms", p50("campaign.prepare") / 1e3, "ms"},
      {"checkpoint_save_p50_ms", Percentile(phase.checkpoint_save_ms, 50), "ms"},
      {"checkpoint_save_p90_ms", Percentile(phase.checkpoint_save_ms, 90), "ms"},
      {"checkpoint_restore_p50_ms", Percentile(phase.checkpoint_restore_ms, 50), "ms"},
      {"cpu.run_busy_s", run_s, "s"},
      {"cpu.run_instr_per_s", Ratio(work("cpu.run"), run_s), "1/s"},
      {"cpu.run_share", Ratio(run_s, s.job_s), "ratio"},
      {"cpu.metal_cycle_share", Ratio(c.metal_cycles, c.cycles), "ratio"},
      {"cpu.trace_instr_share", Ratio(c.superblock_instructions, c.instret), "ratio"},
      {"cpu.superblock_executions", static_cast<double>(c.superblock_executions), "count"},
      {"cpu.mem_fast_hits", static_cast<double>(c.mem_fast_hits), "count"},
      {"cpu.mem_slow_exits", static_cast<double>(c.mem_slow_exits), "count"},
      {"cpu.intercepts", static_cast<double>(c.intercepts), "count"},
      {"cpu.menters", static_cast<double>(c.menters), "count"},
      {"mem.icache_miss_ratio", Ratio(c.icache_misses, c.icache_hits + c.icache_misses), "ratio"},
      {"mem.dcache_miss_ratio", Ratio(c.dcache_misses, c.dcache_hits + c.dcache_misses), "ratio"},
      {"mmu.tlb_miss_ratio", Ratio(c.tlb_misses, c.tlb_hits + c.tlb_misses), "ratio"},
      {"mem.pages_touched", static_cast<double>(phase.pages_touched), "count"},
      {"asm.assemble_ms", total_s("asm.assemble") * 1e3 / setups, "ms"},
      {"ext.host_setup_us", p50("ext.host_setup"), "us"},
      {"self.asm", self_share("asm"), "ratio"},
      {"self.metal", self_share("metal"), "ratio"},
      {"self.ext", self_share("ext"), "ratio"},
      {"self.cpu", self_share("cpu"), "ratio"},
      {"self.snap", self_share("snap"), "ratio"},
      {"self.campaign", self_share("campaign"), "ratio"},
      {"self.bench", self_share("bench"), "ratio"},
      {"bench.layer_coverage", Ratio(BestWindowMedian(layer_self_ms), untraced_p50_ms), "ratio"},
      // Traced and untraced rounds run the same jobs, so the relative rise in
      // job time is the relative drop in simulated instructions per second
      // (on `campaign`, traced jobs mirror RunTrial with public calls).
      {"bench.trace_overhead_pct", 100.0 * (Ratio(traced_p50_ms, untraced_p50_ms) - 1.0), "%"},
  };
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      options->trace = std::strcmp(value, "1") == 0;
      if (!options->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (arg == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "campaign") {
    return MakeCampaignWorkload(options.seed);
  }
  if (options.workload == "metal_paper") {
    return MakeMetalPaperWorkload(options.seed);
  }
  if (options.workload == "native_ckpt") {
    return MakeNativeCkptWorkload(options.seed);
  }
  return nullptr;
}

// Builds a workload and times its set-up.
std::string TimedSetup(const Options& options, SpanRecorder& spans,
                       std::unique_ptr<Workload>* workload, std::vector<double>* setup_s) {
  *workload = MakeWorkload(options);
  const Clock::time_point start = Clock::now();
  std::string error;
  {
    ScopedSpan span(spans, "bench.setup");
    error = (*workload)->Setup(spans);
  }
  setup_s->push_back(MsSince(start) / 1e3);
  return error;
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options) || MakeWorkload(options) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload campaign|metal_paper|native_ckpt [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }

  SpanRecorder spans;
  spans.set_enabled(options.trace);
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  std::string error = TimedSetup(options, spans, &workload, &setup_s);
  if (!error.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    return 2;
  }

  // The other set-ups are spread evenly over the timed run, between windows,
  // so that their median meets the same range of host conditions as the jobs
  // (host contention drifts over seconds; back-to-back set-ups would all
  // meet the same few).
  DigestBook book;
  int setups = 1;
  auto setup_between_windows = [&](double elapsed_s) {
    if (setups < kSetups && error.empty() && elapsed_s >= options.seconds * setups / kSetups) {
      const bool traced = spans.enabled();
      spans.set_enabled(options.trace);
      spans.set_job(0);
      std::unique_ptr<Workload> discarded;
      error = TimedSetup(options, spans, &discarded, &setup_s);
      spans.set_enabled(traced);
      ++setups;
    }
  };
  const Phase phase =
      RunPhase(*workload, spans, options.seconds, options.trace, book, setup_between_windows);
  // Set-ups the run was too short for.
  spans.set_enabled(options.trace);
  spans.set_job(0);
  for (; setups < kSetups && error.empty(); ++setups) {
    std::unique_ptr<Workload> discarded;
    error = TimedSetup(options, spans, &discarded, &setup_s);
  }
  spans.set_enabled(false);

  if (error.empty()) {
    error = phase.first_error;
  }
  if (error.empty()) {
    error = workload->Finish();
  }
  const uint64_t sim_digest = book.Fold();
  const uint64_t recorded = workload->expected_default_digest();
  if (error.empty() && options.seed == kDefaultSeed && sim_digest != recorded) {
    error = "sim_digest differs from the value recorded for the default seed";
  }

  std::vector<Metric> metrics;
  const double setup_median = Percentile(setup_s, 50);
  if (options.trace) {
    metrics = PerLayerMetrics(Summarize(spans.spans()), phase);
    if (!options.trace_out.empty() && !spans.WriteChromeTrace(options.trace_out)) {
      std::fprintf(stderr, "cannot write '%s'\n", options.trace_out.c_str());
    }
  } else {
    metrics = EndToEndMetrics(phase, setup_median);
  }

  std::printf("workload %s, seed %" PRIu64 ", %s, %.1f s budget\n", options.workload.c_str(),
              options.seed, options.trace ? "alternate rounds traced" : "untraced",
              options.seconds);
  for (const Metric& metric : metrics) {
    std::printf("  %-28s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  std::printf("  samples: %zu set-ups, %zu jobs in %zu windows", setup_s.size(),
              phase.jobs.size(), std::max<size_t>(1, phase.jobs.size() / kWindowJobs));
  if (options.trace) {
    std::printf(", %zu traced jobs (job p50 untraced %.3f ms, traced %.3f ms)",
                phase.traced_jobs.size(), Percentile(Windows(phase.jobs).p50_ms, 0),
                Percentile(Windows(phase.traced_jobs).p50_ms, 0));
  }
  if (!phase.checkpoint_save_ms.empty()) {
    std::printf("; checkpoints: save p50 %.3f ms, p90 %.3f ms, restore p50 %.3f ms (n=%zu)",
                Percentile(phase.checkpoint_save_ms, 50),
                Percentile(phase.checkpoint_save_ms, 90),
                Percentile(phase.checkpoint_restore_ms, 50), phase.checkpoint_save_ms.size());
  }
  std::printf("\n  sim_digest 0x%016" PRIx64 " (recorded for seed %" PRIu64 ": 0x%016" PRIx64
              ")\n",
              sim_digest, kDefaultSeed, recorded);
  if (!error.empty()) {
    std::printf("  FAILED: %s\n", error.c_str());
  }
  PrintResult(error.empty(), phase.attempted, phase.failed, metrics);
  return error.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
