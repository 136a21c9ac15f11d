//===- perfbench/driver/Support.cpp - Shared driver pieces -----------------===//
//
// Part of the Wootz reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace wootz;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Clock and statistics
//===----------------------------------------------------------------------===//

double now() {
  static const auto Origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

double quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  const double Frac = Pos - static_cast<double>(Lo);
  if (std::isinf(Values[Hi]) || Frac == 0.0)
    return Frac == 0.0 ? Values[Lo] : Values[Hi];
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

double sum(const std::vector<double> &Values) {
  double Total = 0.0;
  for (double V : Values)
    Total += V;
  return Total;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

const Json &Json::operator[](const std::string &Key) const {
  static const Json Null;
  for (const auto &[Name, Value] : Fields)
    if (Name == Key)
      return Value;
  return Null;
}

namespace {
class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  Result<Json> document() {
    Json Out;
    if (!value(Out, 0))
      return Error::failure("json: " + Problem + " at offset " +
                            std::to_string(Pos));
    skipSpace();
    if (Pos != Text.size())
      return Error::failure("json: trailing text at offset " +
                            std::to_string(Pos));
    return Out;
  }

private:
  bool fail(const std::string &Why) {
    Problem = Why;
    return false;
  }
  void skipSpace() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }
  bool literal(const char *Word) {
    const size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return fail("bad literal");
    Pos += Len;
    return true;
  }
  bool string(std::string &Out) {
    ++Pos; // opening quote
    while (Pos < Text.size()) {
      const char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        break;
      const char E = Text[Pos++];
      switch (E) {
      case 'n': Out += '\n'; break;
      case 't': Out += '\t'; break;
      case 'r': Out += '\r'; break;
      case 'b': Out += '\b'; break;
      case 'f': Out += '\f'; break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("bad escape");
        const unsigned Code =
            static_cast<unsigned>(std::stoul(Text.substr(Pos, 4), nullptr,
                                             16));
        Pos += 4;
        Out += Code < 0x80 ? static_cast<char>(Code) : '?';
        break;
      }
      default: Out += E; break;
      }
    }
    return fail("unterminated string");
  }
  bool value(Json &Out, int Depth) {
    if (Depth > 32)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end");
    const char C = Text[Pos];
    if (C == '{') {
      Out.Type = Json::Kind::Object;
      ++Pos;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      for (;;) {
        skipSpace();
        if (Pos >= Text.size() || Text[Pos] != '"')
          return fail("expected a key");
        std::string Key;
        if (!string(Key))
          return false;
        skipSpace();
        if (Pos >= Text.size() || Text[Pos] != ':')
          return fail("expected ':'");
        ++Pos;
        Json Member;
        if (!value(Member, Depth + 1))
          return false;
        Out.Fields.emplace_back(std::move(Key), std::move(Member));
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == '}') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      Out.Type = Json::Kind::Array;
      ++Pos;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      for (;;) {
        Json Item;
        if (!value(Item, Depth + 1))
          return false;
        Out.Items.push_back(std::move(Item));
        skipSpace();
        if (Pos < Text.size() && Text[Pos] == ',') {
          ++Pos;
          continue;
        }
        if (Pos < Text.size() && Text[Pos] == ']') {
          ++Pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      Out.Type = Json::Kind::String;
      return string(Out.Text);
    }
    if (C == 't') {
      Out.Type = Json::Kind::Bool;
      Out.Flag = true;
      return literal("true");
    }
    if (C == 'f') {
      Out.Type = Json::Kind::Bool;
      return literal("false");
    }
    if (C == 'n')
      return literal("null");
    const char *Begin = Text.c_str() + Pos;
    char *End = nullptr;
    Out.Number = std::strtod(Begin, &End);
    if (End == Begin)
      return fail("bad value");
    Out.Type = Json::Kind::Number;
    Pos += static_cast<size_t>(End - Begin);
    return true;
  }

  const std::string &Text;
  size_t Pos = 0;
  std::string Problem;
};
} // namespace

Result<Json> parseJson(const std::string &Text) {
  return JsonParser(Text).document();
}

std::string jsonString(const std::string &Text) {
  return "\"" + jsonEscape(Text) + "\"";
}

std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", Value);
  return Buffer;
}

//===----------------------------------------------------------------------===//
// Loopback HTTP
//===----------------------------------------------------------------------===//

namespace {
/// Closes a client socket with an immediate reset. Every request uses a
/// fresh loopback connection that the daemon closes first; a normal close
/// would leave one TIME_WAIT entry per request, and tens of thousands of
/// them crowd the shared ephemeral port range and slow every later
/// connect() — on this run and on the next ones. The response has been
/// read in full (up to the daemon's FIN) when this runs.
void closeWithReset(int Fd) {
  linger Abort{};
  Abort.l_onoff = 1;
  Abort.l_linger = 0;
  ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &Abort, sizeof(Abort));
  ::close(Fd);
}
} // namespace

HttpReply httpCall(int Port, const std::string &Method,
                   const std::string &Path, const std::string &Body,
                   int TimeoutMillis) {
  HttpReply Reply;
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    Reply.Error = std::string("socket: ") + std::strerror(errno);
    return Reply;
  }
  timeval Timeout{};
  Timeout.tv_sec = TimeoutMillis / 1000;
  Timeout.tv_usec = (TimeoutMillis % 1000) * 1000;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  sockaddr_in Address{};
  Address.sin_family = AF_INET;
  Address.sin_port = htons(static_cast<uint16_t>(Port));
  Address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Address),
                sizeof(Address)) != 0) {
    Reply.Error = std::string("connect: ") + std::strerror(errno);
    closeWithReset(Fd);
    return Reply;
  }
  const std::string Request = Method + " " + Path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Type: application/json\r\n"
                              "Content-Length: " +
                              std::to_string(Body.size()) +
                              "\r\nConnection: close\r\n\r\n" + Body;
  size_t Sent = 0;
  while (Sent < Request.size()) {
    const ssize_t N = ::send(Fd, Request.data() + Sent,
                             Request.size() - Sent, MSG_NOSIGNAL);
    if (N <= 0) {
      Reply.Error = std::string("send: ") + std::strerror(errno);
      closeWithReset(Fd);
      return Reply;
    }
    Sent += static_cast<size_t>(N);
  }
  std::string Raw;
  char Buffer[16384];
  for (;;) {
    const ssize_t N = ::recv(Fd, Buffer, sizeof(Buffer), 0);
    if (N == 0)
      break;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Reply.Error = std::string("recv: ") + std::strerror(errno);
      closeWithReset(Fd);
      return Reply;
    }
    Raw.append(Buffer, static_cast<size_t>(N));
  }
  closeWithReset(Fd);
  const size_t HeadEnd = Raw.find("\r\n\r\n");
  if (Raw.compare(0, 9, "HTTP/1.1 ") != 0 || HeadEnd == std::string::npos) {
    Reply.Error = "malformed response";
    return Reply;
  }
  Reply.Status = std::atoi(Raw.c_str() + 9);
  Reply.Body = Raw.substr(HeadEnd + 4);
  return Reply;
}

std::string
jsonBody(const std::vector<std::pair<std::string, std::string>> &Fields) {
  JsonObject Out;
  for (const auto &[Key, Value] : Fields)
    Out.field(Key, Value);
  return Out.str();
}

//===----------------------------------------------------------------------===//
// The daemon under test
//===----------------------------------------------------------------------===//

namespace {
/// A loopback port nothing listens on right now.
Result<int> freePort() {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Error::failure("socket: " + std::string(std::strerror(errno)));
  sockaddr_in Address{};
  Address.sin_family = AF_INET;
  Address.sin_port = 0;
  Address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Length = sizeof(Address);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Address), sizeof(Address)) !=
          0 ||
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Address), &Length) !=
          0) {
    ::close(Fd);
    return Error::failure("bind: " + std::string(std::strerror(errno)));
  }
  const int Port = ntohs(Address.sin_port);
  ::close(Fd);
  return Port;
}
} // namespace

Result<std::unique_ptr<Daemon>> Daemon::start(const std::string &Cli,
                                              const std::string &StateDir) {
  std::error_code Ignored;
  std::filesystem::create_directories(StateDir, Ignored);
  Result<int> Port = freePort();
  if (!Port)
    return Port.takeError();
  const std::string PortText = std::to_string(*Port);
  const std::string LogPath = StateDir + "/daemon.log";
  const pid_t Pid = ::fork();
  if (Pid < 0)
    return Error::failure("fork: " + std::string(std::strerror(errno)));
  if (Pid == 0) {
    const int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                           0644);
    if (Log >= 0) {
      ::dup2(Log, 1);
      ::dup2(Log, 2);
      ::close(Log);
    }
    ::execl(Cli.c_str(), "wootz_cli", "serve", PortText.c_str(),
            StateDir.c_str(), static_cast<char *>(nullptr));
    ::_exit(127);
  }
  std::unique_ptr<Daemon> Out(new Daemon(Pid, *Port, StateDir));
  const double Deadline = now() + 20.0;
  while (now() < Deadline) {
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Out->Pid = -1;
      return Error::failure("wootz_cli serve exited during start-up (see " +
                            LogPath + ")");
    }
    if (httpCall(*Port, "GET", "/healthz", "", 1000).Status == 200)
      return Out;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Error::failure("wootz_cli serve did not answer /healthz");
}

Daemon::~Daemon() { stop(); }

double Daemon::peakRssMb() const {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0.0;
}

void Daemon::stop() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGTERM);
  // The daemon drains on SIGTERM; every job the benchmark submitted has
  // already finished, so this takes at most one poll period.
  const double Deadline = now() + 15.0;
  int Status = 0;
  while (::waitpid(Pid, &Status, WNOHANG) == 0) {
    if (now() > Deadline) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Pid = -1;
}

void settleDisk() { ::sync(); }

void removeTree(const std::string &Path) {
  std::error_code Ignored;
  std::filesystem::remove_all(Path, Ignored);
}

double metricsCounter(const std::string &Text, const std::string &Scope,
                      const std::string &Name) {
  const std::string Key = "wootz_counter{scope=\"" + Scope + "\",name=\"" +
                          Name + "\"} ";
  const size_t At = Text.find(Key);
  if (At == std::string::npos)
    return 0.0;
  return std::atof(Text.c_str() + At + Key.size());
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int Tracer::begin(const std::string &Name, int Parent, int Thread) {
  if (!Enabled)
    return -1;
  const double At = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Recorded.push_back({Name, At, At, Parent, Thread});
  return static_cast<int>(Recorded.size() - 1);
}

void Tracer::end(int Id) {
  if (Id < 0)
    return;
  const double At = now();
  std::lock_guard<std::mutex> Lock(Mutex);
  Recorded[static_cast<size_t>(Id)].End = At;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Recorded;
}

std::vector<double> Tracer::selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].emplace_back(S.Start, S.End);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    double Covered = 0.0, CurStart = 0.0, CurEnd = -1.0;
    for (const auto &[Start, End] : Kids) {
      const double S = std::max(Start, Spans[I].Start);
      const double E = std::min(End, Spans[I].End);
      if (E <= S)
        continue;
      if (S > CurEnd) {
        if (CurEnd > CurStart)
          Covered += CurEnd - CurStart;
        CurStart = S;
        CurEnd = E;
      } else {
        CurEnd = std::max(CurEnd, E);
      }
    }
    if (CurEnd > CurStart)
      Covered += CurEnd - CurStart;
    Self[I] = (Spans[I].End - Spans[I].Start) - Covered;
  }
  return Self;
}

double Tracer::total(const std::string &Name) const {
  return sum(durations(Name));
}

std::vector<double> Tracer::durations(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<double> Out;
  for (const Span &S : Recorded)
    if (S.Name == Name)
      Out.push_back(S.End - S.Start);
  return Out;
}

Error Tracer::writeChromeTrace(const std::string &Path) const {
  const std::vector<Span> All = spans();
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    char Head[160];
    std::snprintf(Head, sizeof(Head),
                  "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":",
                  S.Thread, S.Start * 1e6, (S.End - S.Start) * 1e6);
    if (I)
      Out += ",\n";
    Out += Head + jsonString(S.Name) + ",\"args\":{\"span\":" +
           std::to_string(I) + ",\"parent\":" + std::to_string(S.Parent) +
           ",\"trace_id\":" + jsonString(TraceId) + "}}";
  }
  Out += "]}\n";
  return writeFileAtomic(Path, Out);
}

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

void Report::check(bool Passed, const std::string &What) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ++Checks;
  if (!Passed) {
    ++FailedChecks;
    std::fprintf(stderr, "perfbench: check failed: %s\n", What.c_str());
  }
}

int64_t Report::attempted() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  int64_t Total = 0;
  for (const auto &[Name, C] : Phases)
    Total += C.Attempted;
  return Total;
}

int64_t Report::failed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  int64_t Total = 0;
  for (const auto &[Name, C] : Phases)
    Total += C.Failed;
  return Total;
}

std::string Report::resultLine() const {
  std::string Metrics;
  for (const auto &[Name, Value] : Traced ? Layers : EndToEnd) {
    if (!Metrics.empty())
      Metrics += ",";
    Metrics += jsonString(Name) + ":{\"value\":" + jsonNumber(Value.first) +
               ",\"unit\":" + jsonString(Value.second) + "}";
  }
  return std::string("{\"correct\":") + (correct() ? "true" : "false") +
         ",\"attempted\":" + std::to_string(std::max<int64_t>(1, attempted())) +
         ",\"failed\":" + std::to_string(failed()) + ",\"metrics\":{" +
         Metrics + "}}";
}

void Report::printSummary() const {
  for (const MetricList *List : {&EndToEnd, &Layers})
    for (const auto &[Name, Value] : *List)
      std::printf("  %-32s %14.6f %s\n", Name.c_str(), Value.first,
                  Value.second.c_str());
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &[Name, C] : Phases)
    std::printf("  phase %-14s attempted %lld succeeded %lld failed %lld\n",
                Name.c_str(), static_cast<long long>(C.Attempted),
                static_cast<long long>(C.Attempted - C.Failed),
                static_cast<long long>(C.Failed));
  for (const auto &[Key, Value] : Notes)
    std::printf("  %s: %s\n", Key.c_str(), Value.c_str());
  std::printf("  checks: %d run, %d failed\n", Checks, FailedChecks);
}

std::string Report::detailsJson(const RunOptions &Options) const {
  std::string Out = "{\"workload\":" + jsonString(Options.Workload) +
                    ",\"seed\":" + std::to_string(Options.Seed) +
                    ",\"trace\":" + (Options.Trace ? "true" : "false") +
                    ",\"result\":" + resultLine() + ",\"phases\":{";
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    bool First = true;
    for (const auto &[Name, C] : Phases) {
      Out += std::string(First ? "" : ",") + jsonString(Name) +
             ":{\"attempted\":" + std::to_string(C.Attempted) +
             ",\"succeeded\":" + std::to_string(C.Attempted - C.Failed) +
             ",\"failed\":" + std::to_string(C.Failed) + "}";
      First = false;
    }
  }
  Out += "},\"notes\":{";
  for (size_t I = 0; I < Notes.size(); ++I)
    Out += std::string(I ? "," : "") + jsonString(Notes[I].first) + ":" +
           jsonString(Notes[I].second);
  return Out + "}}\n";
}

//===----------------------------------------------------------------------===//
// Seeded inputs
//===----------------------------------------------------------------------===//

uint64_t streamSeed(uint64_t Seed, uint64_t Stream) {
  uint64_t X = Seed * 0x9e3779b97f4a7c15ull + Stream * 0xbf58476d1ce4e5b9ull;
  X ^= X >> 31;
  X *= 0x94d049bb133111ebull;
  return X ^ (X >> 29);
}

Dataset jobDataset(const ModelSpec &Spec, double Scale, uint64_t JobSeed) {
  // Mirrors the job executor: the CUB200 analogue sized to the model.
  SyntheticSpec DataSpec = standardDatasetSpecs(Scale)[1];
  DataSpec.Classes = Spec.Layers.back().NumOutput;
  DataSpec.Height = Spec.InputHeight;
  DataSpec.Width = Spec.InputWidth;
  DataSpec.Seed = JobSeed * 2654435761u + 1;
  return generateSynthetic(DataSpec);
}

std::string JobInputs::body(bool Composability) const {
  return jsonBody({{"model", ModelField},
                   {"subspace", printSubspaceSpec(Subspace)},
                   {"meta", printTrainMeta(Meta)},
                   {"objective", ObjectiveText},
                   {"composability", Composability ? "true" : "false"},
                   {"identifier", Composability ? "true" : "false"},
                   {"workers", std::to_string(Workers)}});
}

std::vector<PruneConfig> seededSubspace(const ModelSpec &Spec, uint64_t Seed,
                                        int Count, int Attempt) {
  Rng Generator(streamSeed(Seed, 100 + static_cast<uint64_t>(Attempt)));
  return sampleSubspace(Spec.moduleCount(), Count, standardRates(),
                        Generator);
}

Result<PipelineResult> calibrationRun(const JobInputs &Inputs,
                                      const std::string &TeacherCacheDir) {
  Result<ModelSpec> Spec = parseModelSpec(Inputs.Prototxt);
  if (!Spec)
    return Spec.takeError();
  const Dataset Data =
      jobDataset(*Spec, Inputs.DatasetScale, Inputs.JobSeed);
  PipelineOptions Options;
  Options.UseComposability = true;
  Options.UseIdentifier = true;
  Options.Schedule = PipelineSchedule::Overlap;
  Options.Workers = Inputs.Workers;
  Options.CacheDir = TeacherCacheDir;
  Options.KeepNetworks = true;
  Rng Generator(Inputs.JobSeed);
  return runPruningPipeline(*Spec, Data, Inputs.Subspace, Inputs.Meta,
                            Options, Generator);
}

//===----------------------------------------------------------------------===//
// Jobs
//===----------------------------------------------------------------------===//

void noteJobSeconds(const std::vector<double> &Seconds, Report &R) {
  std::string Text;
  for (double S : Seconds) {
    if (!Text.empty())
      Text += ' ';
    Text += formatDouble(S, 3);
  }
  R.note("job_seconds", Text);
}

JobOutcome runJob(const Daemon &D, const std::string &Body, Tracer &T,
                  int Parent, Report &R, const std::string &Phase) {
  JobOutcome Out;
  Scope Whole(T, "jobs.job", Parent);
  const double Start = now();
  HttpReply Submitted;
  {
    Scope Submit(T, "jobs.submit", Whole.id());
    Submitted = httpCall(D.port(), "POST", "/v1/jobs", Body);
  }
  Out.SubmitSeconds = now() - Start;
  Result<Json> Accepted = Submitted.Status == 202
                              ? parseJson(Submitted.Body)
                              : Result<Json>(Error::failure(
                                    "submit answered " +
                                    std::to_string(Submitted.Status) + " " +
                                    Submitted.Error + Submitted.Body));
  if (!Accepted) {
    R.count(Phase, /*Failed=*/true);
    R.check(false, "job submission: " + Accepted.message());
    return Out;
  }
  Out.Id = (*Accepted)["id"].str();
  Json Status;
  for (;;) {
    HttpReply Polled = httpCall(D.port(), "GET", "/v1/jobs/" + Out.Id);
    Result<Json> Parsed = Polled.Status == 200
                              ? parseJson(Polled.Body)
                              : Result<Json>(Error::failure(
                                    "status answered " +
                                    std::to_string(Polled.Status)));
    if (!Parsed) {
      R.count(Phase, true);
      R.check(false, "job status: " + Parsed.message());
      return Out;
    }
    const std::string &State = (*Parsed)["state"].str();
    if (State == "done" || State == "failed" || State == "cancelled") {
      Out.JobSeconds = now() - Start;
      Status = Parsed.take();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Out.Done = Status["state"].str() == "done";
  R.count(Phase, !Out.Done);
  R.check(Out.Done, "job " + Out.Id + " ended '" + Status["state"].str() +
                        "': " + Status["message"].str());
  Out.QueueWaitSeconds =
      Status["started_at"].num() - Status["submitted_at"].num();
  Out.WinnerIndex = static_cast<int>(Status["winner_index"].num(-1));
  Out.WinnerAccuracy = Status["winner_accuracy"].num();
  Out.WinnerSizeFraction = Status["winner_size_fraction"].num();
  Out.ConfigsEvaluated = static_cast<int>(Status["configs_evaluated"].num());
  for (const auto &[Name, Value] : Status["counters"].Fields)
    Out.Counters[Name] = Value.num();

  // Which exploration positions ran: the job's persisted telemetry.
  std::ifstream Telemetry(D.stateDir() + "/artifacts/" + Out.Id +
                          "/telemetry.jsonl");
  std::string Line;
  while (std::getline(Telemetry, Line)) {
    Result<Json> SpanLine = parseJson(Line);
    if (!SpanLine || (*SpanLine)["type"].str() != "span")
      continue;
    const std::string &Name = (*SpanLine)["name"].str();
    if ((*SpanLine)["status"].str() != "done")
      continue;
    if (Name.rfind("eval:", 0) == 0)
      Out.EvaluatedPositions.push_back(std::atoi(Name.c_str() + 5));
    if (Name.rfind("pretrain:g", 0) == 0)
      Out.PretrainedGroups.push_back(std::atoi(Name.c_str() + 10));
  }
  std::sort(Out.EvaluatedPositions.begin(), Out.EvaluatedPositions.end());
  std::sort(Out.PretrainedGroups.begin(), Out.PretrainedGroups.end());
  return Out;
}

} // namespace perfbench
