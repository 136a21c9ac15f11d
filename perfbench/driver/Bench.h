//===- perfbench/driver/Bench.h - Benchmark driver shared pieces -----------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark driver runs one workload against `wootz_cli serve` as a
/// child process on a loopback port, checks every output, and reports
/// the end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run, which adds an in-process replay of every layer call). This header
/// holds the pieces the workloads share: a minimal JSON reader, a
/// loopback HTTP client, the daemon process, the span recorder, the
/// statistics helpers and the seeded workload inputs.
///
//===----------------------------------------------------------------------===//

#ifndef WOOTZ_PERFBENCH_BENCH_H
#define WOOTZ_PERFBENCH_BENCH_H

#include "src/support/File.h"
#include "src/support/Json.h"
#include "src/wootz/wootz.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

//===----------------------------------------------------------------------===//
// Clock and statistics
//===----------------------------------------------------------------------===//

/// Seconds on the steady clock since the driver started.
double now();

/// Linear-interpolated quantile (\p Q in [0, 1]); 0 for an empty input.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}
double sum(const std::vector<double> &Values);
inline double mean(const std::vector<double> &Values) {
  return Values.empty() ? 0.0 : sum(Values) / static_cast<double>(Values.size());
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

/// A parsed JSON value (objects keep their key order).
struct Json {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind Type = Kind::Null;
  bool Flag = false;
  double Number = 0.0;
  std::string Text;
  std::vector<Json> Items;
  std::vector<std::pair<std::string, Json>> Fields;

  /// The member \p Key, or a shared null value when absent.
  const Json &operator[](const std::string &Key) const;
  double num(double Default = 0.0) const {
    return Type == Kind::Number ? Number : Default;
  }
  const std::string &str() const { return Text; }
};

wootz::Result<Json> parseJson(const std::string &Text);

/// Minimal JSON writer for the driver's own reports.
std::string jsonString(const std::string &Text);
std::string jsonNumber(double Value);

//===----------------------------------------------------------------------===//
// Loopback HTTP
//===----------------------------------------------------------------------===//

struct HttpReply {
  int Status = 0;      ///< 0 on a transport error.
  std::string Body;
  std::string Error;   ///< Transport error text.
  bool ok() const { return Status >= 200 && Status < 300; }
};

/// One request on a fresh connection to 127.0.0.1:\p Port (the daemon
/// answers one request per connection).
HttpReply httpCall(int Port, const std::string &Method,
                   const std::string &Path, const std::string &Body = "",
                   int TimeoutMillis = 30000);

/// Builds a flat JSON object body from string fields.
std::string jsonBody(const std::vector<std::pair<std::string, std::string>>
                         &Fields);

//===----------------------------------------------------------------------===//
// The daemon under test
//===----------------------------------------------------------------------===//

/// `wootz_cli serve <port> <state-dir>` as a child process. The
/// constructor picks a free loopback port and returns once /healthz
/// answers; the destructor stops the process (SIGTERM, then SIGKILL if
/// it has not drained in time) and waits for it.
class Daemon {
public:
  static wootz::Result<std::unique_ptr<Daemon>>
  start(const std::string &Cli, const std::string &StateDir);
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  int port() const { return Port; }
  const std::string &stateDir() const { return StateDir; }
  /// Peak resident set (VmHWM) of the daemon so far, in MiB.
  double peakRssMb() const;
  /// Stops the process and waits for it; idempotent.
  void stop();

private:
  Daemon(int Pid, int Port, std::string StateDir)
      : Pid(Pid), Port(Port), StateDir(std::move(StateDir)) {}
  int Pid = -1;
  int Port = 0;
  std::string StateDir;
};

/// Flushes dirty file data to disk, so that writeback from the previous
/// phase (block checkpoints, artifacts, removed state) does not land in
/// the next timed one.
void settleDisk();

/// Removes \p Path recursively (missing is fine).
void removeTree(const std::string &Path);

/// Reads a Prometheus sample `wootz_counter{scope="S",name="N"}` from a
/// /metrics payload; 0 when absent.
double metricsCounter(const std::string &Text, const std::string &Scope,
                      const std::string &Name);

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct Span {
  std::string Name;
  double Start = 0.0;
  double End = 0.0;
  int Parent = -1; ///< Index of the parent span, -1 for a root.
  int Thread = 0;
};

/// Keeps spans in memory; writes Chrome trace-event JSON at the end. A
/// disabled tracer records nothing (the untraced run and the overhead
/// baseline) and costs one branch per boundary.
class Tracer {
public:
  Tracer(bool Enabled, std::string TraceId)
      : Enabled(Enabled), TraceId(std::move(TraceId)) {}

  bool enabled() const { return Enabled; }
  /// Opens a span; returns its index (-1 when disabled).
  int begin(const std::string &Name, int Parent, int Thread = 0);
  void end(int Id);

  std::vector<Span> spans() const;
  /// Span duration minus the union of its children's intervals.
  static std::vector<double> selfTimes(const std::vector<Span> &Spans);
  /// Sum of the durations of spans named \p Name.
  double total(const std::string &Name) const;
  /// Durations of spans named \p Name, in seconds.
  std::vector<double> durations(const std::string &Name) const;

  wootz::Error writeChromeTrace(const std::string &Path) const;

private:
  bool Enabled;
  std::string TraceId;
  mutable std::mutex Mutex;
  std::vector<Span> Recorded;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const std::string &Name, int Parent, int Thread = 0)
      : T(T), Id(T.begin(Name, Parent, Thread)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int id() const { return Id; }

private:
  Tracer &T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Run options, accounting and report
//===----------------------------------------------------------------------===//

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string Cli;     ///< Path of the wootz_cli binary.
  std::string WorkDir; ///< Scratch root (state dirs, results, traces).
};

/// Operations attempted/failed per phase.
struct PhaseCount {
  int64_t Attempted = 0;
  int64_t Failed = 0;
};

/// Everything one run reports.
class Report {
public:
  /// \p Traced selects which metrics the result line carries: the
  /// per-layer ones of a traced run, or the end-to-end ones.
  explicit Report(bool Traced) : Traced(Traced) {}

  /// An end-to-end metric.
  void metric(const std::string &Name, double Value,
              const std::string &Unit) {
    EndToEnd.emplace_back(Name, std::make_pair(Value, Unit));
  }
  /// A per-layer metric (traced runs).
  void layer(const std::string &Name, double Value,
             const std::string &Unit) {
    Layers.emplace_back(Name, std::make_pair(Value, Unit));
  }
  /// Records an output check; a failed check fails the run.
  void check(bool Passed, const std::string &What);
  void count(const std::string &Phase, bool Failed) {
    std::lock_guard<std::mutex> Lock(Mutex);
    PhaseCount &C = Phases[Phase];
    ++C.Attempted;
    if (Failed)
      ++C.Failed;
  }
  void note(const std::string &Key, const std::string &Value) {
    Notes.emplace_back(Key, Value);
  }

  bool correct() const { return FailedChecks == 0 && Checks > 0; }
  int64_t attempted() const;
  int64_t failed() const;
  /// The result object (the run's last stdout line).
  std::string resultLine() const;
  /// Human-readable lines plus the details file.
  void printSummary() const;
  std::string detailsJson(const RunOptions &Options) const;

private:
  using MetricList =
      std::vector<std::pair<std::string, std::pair<double, std::string>>>;
  bool Traced;
  MetricList EndToEnd;
  MetricList Layers;
  std::vector<std::pair<std::string, std::string>> Notes;
  std::map<std::string, PhaseCount> Phases;
  mutable std::mutex Mutex;
  int Checks = 0;
  int FailedChecks = 0;
};

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

/// Derives an independent stream seed for input \p Stream of the run.
uint64_t streamSeed(uint64_t Seed, uint64_t Stream);

/// The CUB200 analogue exactly as the job API builds it for \p Spec at
/// \p Scale with job seed \p JobSeed.
wootz::Dataset jobDataset(const wootz::ModelSpec &Spec, double Scale,
                          uint64_t JobSeed);

/// The pruning job a workload submits, in the job API's terms.
struct JobInputs {
  std::string ModelField; ///< Prototxt text or an uploaded model id.
  std::string Prototxt;   ///< Resolved Prototxt (for the replay).
  std::vector<wootz::PruneConfig> Subspace;
  wootz::TrainMeta Meta;
  std::string ObjectiveText;
  double Threshold = 0.0;
  uint64_t JobSeed = 7;       ///< The API default.
  double DatasetScale = 0.25; ///< The API default.
  int Workers = 2;            ///< The API default.
  /// Winner the calibration predicts (-1 when not calibrated).
  int ExpectedWinner = -1;
  double ExpectedAccuracy = 0.0;
  /// The calibration's fine-tuned winner (reference for its logits).
  std::shared_ptr<wootz::AssembledNetwork> WinnerNetwork;

  std::string body(bool Composability) const;
};

/// The seed of the pruning jobs' subspaces. Fixed rather than taken from
/// the run seed: the winner's position decides how many configurations a
/// job evaluates, so a seeded subspace would make job_s and the winner
/// metrics vary with the seed far beyond their bounds. The run seed
/// drives the serving inputs (samples, their order, the arrival
/// schedule, the uploaded weight bundle).
constexpr uint64_t JobInputSeed = 1;

/// Samples the \p Count-configuration subspace for attempt \p Attempt.
std::vector<wootz::PruneConfig> seededSubspace(const wootz::ModelSpec &Spec,
                                               uint64_t Seed, int Count,
                                               int Attempt);

/// Per-position accuracies of \p Inputs' job as the daemon would compute
/// them (Overlap schedule, no cancellation), using the teacher cached
/// under \p TeacherCacheDir.
wootz::Result<wootz::PipelineResult>
calibrationRun(const JobInputs &Inputs, const std::string &TeacherCacheDir);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

/// What a finished job reported, plus the client-side timings.
struct JobOutcome {
  std::string Id;
  bool Done = false;
  double SubmitSeconds = 0.0; ///< POST /v1/jobs round trip.
  double JobSeconds = 0.0;    ///< Submit until the status reads done.
  double QueueWaitSeconds = 0.0;
  int WinnerIndex = -1;
  double WinnerAccuracy = 0.0;
  double WinnerSizeFraction = 0.0;
  int ConfigsEvaluated = 0;
  std::map<std::string, double> Counters;
  /// From the job's telemetry: the exploration positions evaluated and
  /// the block groups pre-trained.
  std::vector<int> EvaluatedPositions;
  std::vector<int> PretrainedGroups;
};

/// The predict request body for one [1, C, H, W] sample.
std::string sampleBody(const wootz::Tensor &Sample);

/// Notes every timed job's duration, for the run details.
void noteJobSeconds(const std::vector<double> &Seconds, Report &R);

/// Submits \p Body and polls until the job is terminal.
JobOutcome runJob(const Daemon &D, const std::string &Body, Tracer &T,
                  int Parent, Report &R, const std::string &Phase);

/// The serving phases against model \p ModelId.
struct ServeSetup {
  std::string ModelId;
  std::vector<wootz::Tensor> Samples;        ///< [1, C, H, W] each.
  std::vector<std::vector<float>> Reference; ///< Logits per sample.
  std::vector<int> Order;        ///< Sample index per request.
  std::vector<double> DueOffsets; ///< Open-loop schedule, seconds.
  double ClosedSeconds = 2.0; ///< Summed over the windows.
  /// The open and closed loops alternate in this many windows; the
  /// reported figures are medians over windows.
  int Windows = 1;
};

struct ServeResult {
  std::vector<double> OpenLatency; ///< From due time, seconds; failed = inf.
  std::vector<double> Lateness;    ///< Generator lateness, seconds.
  int64_t OpenFailed = 0;
  int64_t ClosedOk = 0;      ///< Within the latency limit.
  int64_t ClosedAttempted = 0;
  int64_t ClosedFailed = 0;
  double ClosedSeconds = 0.0;
  std::vector<double> WindowP50, WindowP90, WindowRps;
  bool GeneratorBehind = false;
};

/// Open-loop rate (requests/s), the closed-loop latency limit and the
/// open-loop lateness that flags a run.
constexpr double OpenRate = 150.0;
constexpr double LatencyLimitSeconds = 0.025;
constexpr double BehindLimitSeconds = 0.005;
constexpr int LoadThreads = 4;

/// Builds the samples, their order and the Poisson schedule from the
/// run seed; \p Reference forwards each sample in-process.
ServeSetup makeServeSetup(const std::string &ModelId, const wootz::ModelSpec &Spec,
                          wootz::AssembledNetwork &Reference, uint64_t Seed,
                          int Requests);

ServeResult runServe(const Daemon &D, const ServeSetup &S, Tracer &T,
                     int Parent, Report &R);

/// Adds predict_p50_ms and predict_rps.
void reportServe(const ServeResult &S, Report &R);

/// Per-layer replay metrics shared by every workload.
struct ReplayInputs {
  const JobInputs *Job = nullptr;
  const JobOutcome *Outcome = nullptr;       ///< The job replayed.
  const std::vector<JobOutcome> *Timed = nullptr; ///< All timed jobs.
  std::string BlockCacheDir; ///< Cache the replay fetches from/publishes to.
  bool ColdBlockCache = false; ///< Empty it before each replay pass.
  /// The served model and its serve schedule (batcher replay).
  std::shared_ptr<wootz::AssembledNetwork> Served;
  const wootz::ModelSpec *ServedSpec = nullptr;
  const ServeSetup *Serve = nullptr;
  const ServeResult *Http = nullptr;
};

/// Replays the job's layer calls and the serve schedule in-process,
/// adding every per-layer metric to \p R.
wootz::Error replayLayers(const ReplayInputs &In, const RunOptions &Options,
                          Report &R);

wootz::Error runPrune(const RunOptions &Options, bool Warm, Report &R);
wootz::Error runPredict(const RunOptions &Options, Report &R);

} // namespace perfbench

#endif // WOOTZ_PERFBENCH_BENCH_H
