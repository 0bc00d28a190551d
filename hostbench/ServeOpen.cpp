//===- hostbench/ServeOpen.cpp - Open-loop traffic against evm-served -----===//
//
// Open loop from this one client process, with at most nproc connections,
// against an evm-served subprocess over its Unix socket.  Set-up pre-seeds
// the daemon's store directory from a fleet run, so lanes warm-start and
// predict from the first request.  Requests go to the short analogues
// (Fop, Search, Bloat, Antlr) with seeded Poisson arrivals at three fixed
// rates; a fixed share opens a fresh connection per request (connect,
// request, close, as one `evm_cli --connect` launch does) and a few are
// `stats` ops.  Each request is timed from its due send time.  A closed-
// loop phase at the end saturates one lane at a time.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "harness/Fleet.h"
#include "server/Protocol.h"
#include "store/Json.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <tuple>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace evm;

namespace hb {

namespace {

/// The fixed open-loop rates (requests per second): about 20%, 35% and 50%
/// of what a fresh daemon served with all four lanes saturated at once
/// (230-250 req/s on a 4-core host at the commit that introduced the
/// benchmark).  Higher rates put the busiest lane so near saturation that
/// host noise alone swings the tails by several times.
constexpr double Rates[3] = {45, 80, 120};
/// Latency limit on the tail percentile for max_rps_slo.
constexpr double SloTailMs = 100;
/// One request in FreshEvery opens a fresh connection; one in StatsEvery
/// is a `stats` op.
constexpr size_t FreshEvery = 10;
constexpr size_t StatsEvery = 50;
/// Outstanding requests on the saturated lane.
constexpr size_t SatWindow = 4;
/// Share of the measured time spent in the saturation phase.
constexpr double SatShare = 0.5;

const std::vector<std::string> &appNames() {
  static const std::vector<std::string> N = {"Fop", "Search", "Bloat",
                                             "Antlr"};
  return N;
}

int connectTo(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::snprintf(Addr.sun_path, sizeof(Addr.sun_path), "%s", Path.c_str());
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// The evm-served subprocess: started by start(), always stopped (SIGTERM,
/// then waited for) by stop() or the destructor.
class Daemon {
public:
  Daemon(std::string Binary, std::string Socket, std::string StoreDir,
         std::string LogPath, std::string MetricsPath)
      : Binary(std::move(Binary)), Socket(std::move(Socket)),
        StoreDir(std::move(StoreDir)), LogPath(std::move(LogPath)),
        MetricsPath(std::move(MetricsPath)) {}
  ~Daemon() { stop(); }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns the daemon and waits until it answers a ping.
  bool start(std::string &Error) {
    std::error_code EC;
    std::filesystem::remove(Socket, EC);
    std::string SocketArg = "--socket=" + Socket;
    std::string StoreArg = "--store-dir=" + StoreDir;
    std::string MetricsArg = "--metrics-out=" + MetricsPath;
    Pid = ::fork();
    if (Pid < 0) {
      Error = "fork failed";
      return false;
    }
    if (Pid == 0) {
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0)
        ::dup2(Log, 2);
      const char *Argv[] = {Binary.c_str(),     SocketArg.c_str(),
                            StoreArg.c_str(),   MetricsArg.c_str(),
                            "--seed=1",         nullptr};
      ::execv(Binary.c_str(), const_cast<char **>(Argv));
      ::_exit(127);
    }
    Clock::time_point T0 = Clock::now();
    while (msSince(T0) < 60e3) {
      int Status;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Error = "evm-served exited during start-up (see " + LogPath + ")";
        return false;
      }
      int Fd = std::filesystem::exists(Socket, EC) ? connectTo(Socket) : -1;
      if (Fd >= 0) {
        std::string Payload, Err;
        bool Ok = server::writeFrame(Fd, server::renderPingRequest(0)) &&
                  server::readFrame(Fd, Payload, Err) ==
                      server::FrameStatus::Ok;
        ::close(Fd);
        if (Ok)
          return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Error = "evm-served did not become ready";
    return false;
  }

  /// SIGTERM and wait for the drain; true when it exited 0.
  bool stop() {
    if (Pid <= 0)
      return true;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
    return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

  int pid() const { return Pid; }

private:
  std::string Binary, Socket, StoreDir, LogPath, MetricsPath;
  int Pid = -1;
};

/// The request mix: apps in seeded blocks (each app once per block), each
/// app walking its fixed input mix in recorded orders picked by the seed.
/// Every run thus sends the same work in a seed-dependent sequence.
class RequestMix {
public:
  RequestMix(const std::vector<std::unique_ptr<App>> &Apps, uint64_t Seed)
      : Apps(Apps), Seed(Seed), R(Seed), Cursors(Apps.size()) {}

  /// The next (app, input) pair.
  std::pair<size_t, size_t> next() {
    if (Pos == Block.size()) {
      Block.resize(Apps.size());
      for (size_t I = 0; I != Block.size(); ++I)
        Block[I] = I;
      for (size_t I = Block.size(); I > 1; --I)
        std::swap(Block[I - 1], Block[R.below(I)]);
      Pos = 0;
    }
    size_t A = Block[Pos++];
    return {A, inputFor(A)};
  }

  /// The next input of app \p A.
  size_t inputFor(size_t A) {
    Cursor &C = Cursors[A];
    if (C.Pos == C.Order.size()) {
      C.Order = Apps[A]->order(pickPerm(Seed, C.Rounds++, A));
      C.Pos = 0;
    }
    return C.Order[C.Pos++];
  }

private:
  struct Cursor {
    std::vector<size_t> Order;
    size_t Pos = 0, Rounds = 0;
  };
  const std::vector<std::unique_ptr<App>> &Apps;
  uint64_t Seed;
  SplitMix R;
  std::vector<size_t> Block;
  size_t Pos = 0;
  std::vector<Cursor> Cursors;
};

enum class Outcome : uint8_t { Pending, Ok, Rejected, Failed };

struct Request {
  Clock::time_point Due;
  double LatMs = 0;
  size_t App = 0;
  size_t Input = 0;
  size_t Conn = 0; ///< persistent connection it goes out on (unless Fresh)
  int Phase = 0;   ///< 0..2 open-loop rates, 3 saturation, -1 set-up
  bool Stats = false;
  bool Fresh = false;
  bool Traced = false;
  Outcome Result = Outcome::Pending;
  size_t Bytes = 0;
  std::string Payload; ///< the request frame
};

/// Client side of the load generator: the request table, the persistent
/// connections with their reader threads, and the fresh-connection worker.
class Client {
public:
  Client(const std::vector<std::unique_ptr<App>> &Apps, Checker &Check,
         std::string Socket, uint64_t Seed, Clock::time_point Epoch)
      : Apps(Apps), Check(Check), Socket(std::move(Socket)),
        Sat(Apps, Seed ^ 0x5a7ULL), Spans(Epoch) {}
  ~Client() { close(); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  bool open(size_t NumConns) {
    for (size_t I = 0; I != NumConns; ++I) {
      int Fd = connectTo(Socket);
      if (Fd < 0)
        return false;
      Conns.push_back(std::make_unique<Conn>(Fd));
    }
    for (auto &C : Conns)
      C->Reader = std::thread([this, Ptr = C.get()] { readLoop(*Ptr); });
    FreshThread = std::thread([this] { freshLoop(); });
    return true;
  }

  void close() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Closing = true;
    }
    CV.notify_all();
    for (auto &C : Conns)
      ::shutdown(C->Fd, SHUT_RDWR);
    for (auto &C : Conns)
      if (C->Reader.joinable())
        C->Reader.join();
    if (FreshThread.joinable())
      FreshThread.join();
    for (auto &C : Conns)
      ::close(C->Fd);
    Conns.clear();
  }

  /// Adds a request to the table, on the connections in turn; returns its
  /// id.
  size_t add(Request Q) {
    std::lock_guard<std::mutex> Lock(M);
    size_t Id = Reqs.size();
    Q.Conn = Id % Conns.size();
    Q.Payload = Q.Stats ? server::renderStatsRequest(Id)
                        : server::renderRunInputRequest(
                              Id, Apps[Q.App]->Name, Q.Input);
    Reqs.push_back(std::move(Q));
    return Id;
  }

  /// Sends request \p Id now (fresh connection or persistent one).
  void send(size_t Id) {
    std::string Payload;
    size_t ConnIndex;
    {
      std::lock_guard<std::mutex> Lock(M);
      Payload = Reqs[Id].Payload;
      ConnIndex = Reqs[Id].Conn;
      ++Dispatched;
      if (Reqs[Id].Fresh) {
        FreshQueue.push_back(Id);
        CV.notify_all();
        return;
      }
    }
    Conn &C = *Conns[ConnIndex];
    Clock::time_point T0 = Clock::now();
    bool Ok;
    {
      std::lock_guard<std::mutex> Lock(C.WriteMutex);
      Ok = server::writeFrame(C.Fd, Payload);
    }
    if (Traced(Id))
      record("gen.send", T0, Clock::now(), Id);
    if (!Ok)
      complete(Id, nullptr, 0);
  }

  /// The client-side spans of traced requests (kept in memory).
  SpanLog spans() {
    std::lock_guard<std::mutex> Lock(SpanMutex);
    return Spans;
  }

  /// Waits until every dispatched request has an outcome (or the timeout).
  void drain(double TimeoutMs) {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait_for(Lock, std::chrono::duration<double, std::milli>(TimeoutMs),
                [&] { return Completed == Dispatched; });
  }

  /// Closed loop on one lane: app \p A keeps SatWindow requests
  /// outstanding until \p End; returns requests completed before \p End.
  size_t saturate(size_t A, Clock::time_point End) {
    {
      std::lock_guard<std::mutex> Lock(M);
      SatEnd = End;
      SatActive = true;
      SatDone = 0;
    }
    for (size_t W = 0; W != SatWindow; ++W)
      send(addSat(A));
    std::this_thread::sleep_until(End);
    std::lock_guard<std::mutex> Lock(M);
    SatActive = false;
    return SatDone;
  }

  std::vector<Request> requests() {
    std::lock_guard<std::mutex> Lock(M);
    return Reqs;
  }

  /// One closed request: sends \p Id and waits for its response payload
  /// (lane warm-up and the per-phase stats query).
  bool roundTrip(size_t Id, std::string &Response) {
    std::unique_lock<std::mutex> Lock(M);
    Keep.insert(Id);
    Lock.unlock();
    send(Id);
    Lock.lock();
    CV.wait_for(Lock, std::chrono::seconds(60),
                [&] { return Reqs[Id].Result != Outcome::Pending; });
    Response = Kept[Id];
    return Reqs[Id].Result == Outcome::Ok;
  }

private:
  struct Conn {
    explicit Conn(int Fd) : Fd(Fd) {}
    int Fd;
    std::mutex WriteMutex;
    std::thread Reader;
  };

  /// A saturation request for app \p A, on connection A % Conns.
  size_t addSat(size_t A) {
    std::lock_guard<std::mutex> Lock(M);
    Request Q;
    Q.Phase = 3;
    Q.App = A;
    Q.Conn = A % Conns.size();
    Q.Input = Sat.inputFor(A);
    Q.Due = Clock::now();
    size_t Id = Reqs.size();
    Q.Payload =
        server::renderRunInputRequest(Id, Apps[Q.App]->Name, Q.Input);
    Reqs.push_back(std::move(Q));
    return Id;
  }

  void readLoop(Conn &C) {
    std::string Payload, Err;
    while (server::readFrame(C.Fd, Payload, Err) == server::FrameStatus::Ok) {
      auto J = store::JsonValue::parse(Payload);
      const store::JsonValue *Id = J ? J->field("id") : nullptr;
      if (!Id) {
        Check.fail("serve-open: unparsable response frame");
        continue;
      }
      size_t Next = complete(Id->asU64(), &*J, Payload.size(), &Payload);
      if (Next != SIZE_MAX)
        send(Next);
    }
  }

  void freshLoop() {
    for (;;) {
      size_t Id;
      std::string Payload;
      {
        std::unique_lock<std::mutex> Lock(M);
        CV.wait(Lock, [&] { return Closing || !FreshQueue.empty(); });
        if (FreshQueue.empty())
          return;
        Id = FreshQueue.front();
        FreshQueue.pop_front();
        Payload = Reqs[Id].Payload;
      }
      int Fd = connectTo(Socket);
      std::string Response, Err;
      bool Ok = Fd >= 0 && server::writeFrame(Fd, Payload) &&
                server::readFrame(Fd, Response, Err) ==
                    server::FrameStatus::Ok;
      if (Fd >= 0)
        ::close(Fd);
      auto J = Ok ? store::JsonValue::parse(Response) : std::nullopt;
      complete(Id, J ? &*J : nullptr, Response.size(), &Response);
    }
  }

  /// Records the outcome of \p Id; returns the next saturation request to
  /// send on the same connection, or SIZE_MAX.
  size_t complete(size_t Id, const store::JsonValue *J, size_t Bytes,
                  const std::string *Raw = nullptr) {
    Clock::time_point Now = Clock::now();
    std::unique_lock<std::mutex> Lock(M);
    if (Id >= Reqs.size() || Reqs[Id].Result != Outcome::Pending) {
      Lock.unlock();
      Check.fail("serve-open: response to an unknown request id");
      return SIZE_MAX;
    }
    Request &Q = Reqs[Id];
    Q.LatMs = msBetween(Q.Due, Now);
    Q.Bytes = Bytes;
    const store::JsonValue *Status = J ? J->field("status") : nullptr;
    std::string St = Status ? Status->str() : "";
    if (St == "rejected") {
      Q.Result = Outcome::Rejected;
    } else if (St != "ok") {
      Q.Result = Outcome::Failed;
    } else if (Q.Stats) {
      Q.Result = J->field("stats") ? Outcome::Ok : Outcome::Failed;
    } else {
      const store::JsonValue *Ret = J->field("ret");
      Q.Result = Ret && Check.checkReturn(Apps[Q.App]->Name, Q.Input,
                                          Ret->str())
                     ? Outcome::Ok
                     : Outcome::Failed;
    }
    if (Q.Result != Outcome::Ok && Q.Result != Outcome::Failed)
      Check.fail("serve-open: request " + std::to_string(Id) + " " + St);
    else if (Q.Result == Outcome::Failed && St != "ok")
      Check.fail("serve-open: request " + std::to_string(Id) +
                 " failed: " + (Raw ? Raw->substr(0, 200) : "no response"));
    if (Keep.count(Id) && Raw)
      Kept[Id] = *Raw;
    if (Q.Traced)
      record("client.request", Q.Due, Now, Id);
    ++Completed;
    size_t Next = SIZE_MAX;
    if (Q.Phase == 3 && SatActive && Now < SatEnd) {
      ++SatDone;
      size_t A = Q.App;
      Lock.unlock();
      Next = addSat(A);
      Lock.lock();
    }
    CV.notify_all();
    return Next;
  }

  bool Traced(size_t Id) {
    std::lock_guard<std::mutex> Lock(M);
    return Reqs[Id].Traced;
  }
  void record(const char *Name, Clock::time_point A, Clock::time_point B,
              size_t Id) {
    std::lock_guard<std::mutex> Lock(SpanMutex);
    Spans.add(Name, A, B, Id);
  }

  const std::vector<std::unique_ptr<App>> &Apps;
  Checker &Check;
  std::string Socket;

  std::mutex M; ///< guards everything below except Conns' write paths
  std::condition_variable CV;
  std::vector<Request> Reqs;
  std::deque<size_t> FreshQueue;
  std::set<size_t> Keep; ///< ids whose response payload roundTrip returns
  std::map<size_t, std::string> Kept;
  size_t Dispatched = 0, Completed = 0, SatDone = 0;
  bool Closing = false, SatActive = false;
  Clock::time_point SatEnd;
  RequestMix Sat;

  std::mutex SpanMutex;
  SpanLog Spans;

  std::vector<std::unique_ptr<Conn>> Conns;
  std::thread FreshThread;
};

/// Server-side figures from the daemon's stats op.
struct ServerStats {
  double LatP50Us = 0, LatP99Us = 0;
  double BatchSum = 0, BatchCount = 0, FlushDeadline = 0, Flushes = 0;
  double InflightPeak = 0, Rejected = 0;
};

/// Reads a server.* metrics snapshot: a `stats` response, or the bare
/// snapshot evm-served --metrics-out writes at drain.
ServerStats parseStats(const std::string &Payload) {
  ServerStats S;
  auto J = store::JsonValue::parse(Payload);
  const store::JsonValue *Stats = J ? J->field("stats") : nullptr;
  if (!Stats && J)
    Stats = &*J;
  const store::JsonValue *List = Stats ? Stats->field("metrics") : nullptr;
  if (!List)
    return S;
  double FlushSize = 0, FlushDeadline = 0, FlushDrain = 0;
  for (const store::JsonValue &M : List->array()) {
    const store::JsonValue *N = M.field("name");
    if (!N)
      continue;
    std::string Name = N->str();
    auto Num = [&](const char *F) {
      const store::JsonValue *V = M.field(F);
      return V ? V->asDouble() : 0.0;
    };
    if (Name == "server.latency.us") {
      S.LatP50Us = Num("p50");
      S.LatP99Us = Num("p99");
    } else if (Name == "server.batch.size") {
      S.BatchSum = Num("sum");
      S.BatchCount = Num("count");
    } else if (Name == "server.flush.size") {
      FlushSize = Num("value");
    } else if (Name == "server.flush.deadline") {
      FlushDeadline = Num("value");
    } else if (Name == "server.flush.drain") {
      FlushDrain = Num("value");
    } else if (Name == "server.inflight.peak") {
      S.InflightPeak = Num("value");
    } else if (Name.rfind("server.rejected.", 0) == 0) {
      S.Rejected += Num("value");
    }
  }
  S.FlushDeadline = FlushDeadline;
  S.Flushes = FlushSize + FlushDeadline + FlushDrain;
  return S;
}

double procCount(int Pid, const char *What) {
  std::string Base = "/proc/" + std::to_string(Pid);
  if (std::string(What) == "fds") {
    std::error_code EC;
    double N = 0;
    for (auto It = std::filesystem::directory_iterator(Base + "/fd", EC);
         !EC && It != std::filesystem::directory_iterator(); It.increment(EC))
      ++N;
    return N;
  }
  std::ifstream In(Base + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return std::atof(Line.c_str() + 8);
  return 0;
}

} // namespace

Result runServeOpen(const Options &O, Golden &G) {
  Result R;
  std::signal(SIGPIPE, SIG_IGN);
  const std::string Dir = O.WorkDir + "/serve";
  const std::string StoreDir = Dir + "/store";
  const std::string Socket = Dir + "/d.sock";
  // Persistent connections plus the fresh-connection worker: at most nproc.
  const size_t NumConns = std::max<size_t>(
      1, std::min<size_t>(4, std::thread::hardware_concurrency()) - 1);

  std::vector<std::unique_ptr<App>> Apps;
  for (const std::string &Name : appNames())
    Apps.push_back(std::make_unique<App>(Name));
  Checker Check(G);

  // Every phase gets a fresh daemon that warm-starts from the same
  // pre-seeded stores, so a phase's figures do not depend on how much the
  // lanes learned in the phases before it.
  const std::string SeedDir = Dir + "/seeded";
  const Clock::time_point Epoch = Clock::now();
  std::unique_ptr<Daemon> D;
  std::unique_ptr<Client> C;
  auto StartDaemon = [&](std::string &Error) {
    C.reset();
    D.reset();
    std::error_code EC;
    std::filesystem::remove_all(StoreDir, EC);
    std::filesystem::copy(SeedDir, StoreDir,
                          std::filesystem::copy_options::recursive, EC);
    std::filesystem::remove(Dir + "/metrics.json", EC);
    D = std::make_unique<Daemon>(O.ServedPath, Socket, StoreDir,
                                 Dir + "/daemon.log", Dir + "/metrics.json");
    if (!D->start(Error))
      return false;
    C = std::make_unique<Client>(Apps, Check, Socket, O.Seed, Epoch);
    if (!C->open(NumConns)) {
      Error = "cannot connect to evm-served";
      return false;
    }
    for (size_t A = 0; A != Apps.size(); ++A) {
      Request Q;
      Q.Phase = -1;
      Q.App = A;
      Q.Due = Clock::now();
      std::string Response;
      if (!C->roundTrip(C->add(Q), Response))
        Check.fail("serve-open: lane warm-up request failed");
    }
    return true;
  };

  // Set-up: pre-seed the store directory from a fleet run, start the
  // daemon, and warm one lane per app.  Repeated; the median is reported.
  std::vector<double> SetupS;
  std::string Error;
  for (int Rep = 0; Rep != 5 && Error.empty(); ++Rep) {
    C.reset();
    D.reset(); // the previous set-up's daemon drains outside the timing
    Clock::time_point T0 = Clock::now();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
    std::filesystem::create_directories(SeedDir);
    harness::FleetConfig FC;
    FC.NumTenants = appNames().size();
    FC.NumThreads = 1; // any value gives the same stores; one core
    FC.RunsPerTenant = StreamLength;
    FC.Workloads = appNames();
    FC.ShardDir = SeedDir;
    FC.CapturePhases = false;
    harness::FleetRunner(FC).run();
    if (StartDaemon(Error))
      SetupS.push_back(msSince(T0) / 1e3);
  }

  // Per phase: the daemon's own view and resources, then its drain.
  std::vector<Request> Reqs;
  SpanLog ClientSpans(Epoch);
  std::vector<double> ServerP50Us, ServerP99Us, TransportMs;
  double Fds = 0, Threads = 0, DaemonRssMb = 0;
  ServerStats SS;
  auto FinishPhase = [&](int P) {
    std::vector<double> Ok;
    if (P < 3) {
      for (const Request &Q : C->requests())
        if (Q.Phase == P && !Q.Stats && Q.Result == Outcome::Ok)
          Ok.push_back(Q.LatMs);
      Request StatsQ;
      StatsQ.Phase = -1;
      StatsQ.Stats = true;
      StatsQ.Due = Clock::now();
      std::string Payload;
      if (!C->roundTrip(C->add(StatsQ), Payload))
        Check.fail("serve-open: stats op failed");
      ServerStats Open = parseStats(Payload);
      ServerP50Us.push_back(Open.LatP50Us);
      ServerP99Us.push_back(Open.LatP99Us);
      TransportMs.push_back(median(Ok) - Open.LatP50Us / 1e3);
    }
    Fds = std::max(Fds, procCount(D->pid(), "fds"));
    Threads = std::max(Threads, procCount(D->pid(), "threads"));
    DaemonRssMb = std::max(DaemonRssMb, peakRssMb(std::to_string(D->pid())));
    for (const Request &Q : C->requests())
      Reqs.push_back(Q);
    ClientSpans.append(C->spans());
    C.reset();
    if (!D->stop())
      Check.fail("serve-open: evm-served did not drain cleanly");
    std::ifstream In(Dir + "/metrics.json");
    std::string Snapshot((std::istreambuf_iterator<char>(In)),
                         std::istreambuf_iterator<char>());
    ServerStats F = parseStats(Snapshot);
    SS.BatchSum += F.BatchSum;
    SS.BatchCount += F.BatchCount;
    SS.FlushDeadline += F.FlushDeadline;
    SS.Flushes += F.Flushes;
    SS.InflightPeak = std::max(SS.InflightPeak, F.InflightPeak);
    SS.Rejected += F.Rejected;
  };

  // The open-loop phases: seeded Poisson arrivals at each fixed rate.
  SplitMix Gen(O.Seed);
  RequestMix Mix(Apps, O.Seed);
  size_t Planned = 0;
  double PhaseS = O.Seconds * (1 - SatShare) / 3;
  std::vector<double> Lags;
  bool Perturbed = false;
  double MeasuredS = 0;
  for (int P = 0; P != 3 && Error.empty(); ++P) {
    if (P > 0 && !StartDaemon(Error))
      break;
    std::vector<std::pair<double, Request>> Plan;
    for (double T = 0;;) {
      T += -std::log(1 - Gen.unit()) / Rates[P];
      if (T >= PhaseS)
        break;
      Request Q;
      Q.Phase = P;
      // Exact shares: every FreshEvery-th request opens a fresh
      // connection, every StatsEvery-th is a stats op.
      ++Planned;
      Q.Stats = Planned % StatsEvery == 0;
      Q.Fresh = Planned % FreshEvery == FreshEvery / 2;
      std::tie(Q.App, Q.Input) = Mix.next();
      Q.Traced = O.Trace && (Plan.size() % 2 == 1);
      if (O.PerturbGolden && !Perturbed && !Q.Stats) {
        G.perturbReturn(Apps[Q.App]->Name, Q.Input);
        Perturbed = true;
      }
      Plan.emplace_back(T, std::move(Q));
    }
    Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
    for (auto &[T, Q] : Plan) {
      Q.Due = Start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(T));
      size_t Id = C->add(Q);
      std::this_thread::sleep_until(Q.Due);
      Lags.push_back(msSince(Q.Due));
      C->send(Id);
    }
    C->drain(60e3);
    MeasuredS += msSince(Start) / 1e3;
    FinishPhase(P);
  }

  // The saturation phase: a closed loop on one lane at a time, SatWindow
  // requests outstanding, for an equal share of the phase each.  One busy
  // lane needs about one core: on a shared virtual machine whose CPU quota
  // varies, saturating all lanes at once measured the quota, not the
  // daemon.
  double SatS = O.Seconds * SatShare;
  size_t SatDone = 0;
  if (Error.empty() && StartDaemon(Error)) {
    for (size_t A = 0; A != Apps.size(); ++A) {
      Clock::time_point SatStart = Clock::now();
      SatDone += C->saturate(
          A, SatStart + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                SatS / static_cast<double>(Apps.size()))));
      C->drain(60e3);
      MeasuredS += msSince(SatStart) / 1e3;
    }
    FinishPhase(3);
  }
  C.reset();
  D.reset();
  if (!Error.empty()) {
    R.Errors.push_back(Error);
    R.Failed = R.Attempted = 1;
    return R;
  }

  // Account every request the generator sent.
  std::vector<double> ByRate[3], SatLat, TracedLat, PlainLat;
  double Sent = 0, Ok = 0, Rejected = 0, FailedN = 0, Bytes = 0, Frames = 0;
  for (const Request &Q : Reqs) {
    if (Q.Phase < 0) // lane warm-up and per-phase stats queries
      continue;
    Sent += 1;
    if (Q.Result == Outcome::Ok)
      Ok += 1;
    else if (Q.Result == Outcome::Rejected)
      Rejected += 1;
    else
      FailedN += 1;
    if (Q.Phase == 3 && Q.Result == Outcome::Ok)
      SatLat.push_back(Q.LatMs);
    if (Q.Phase == 3 || Q.Stats)
      continue;
    if (Q.Result == Outcome::Ok) {
      Bytes += static_cast<double>(Q.Bytes);
      Frames += 1;
    }
    // A failed or refused request misses every latency limit.
    double L = Q.Result == Outcome::Ok ? Q.LatMs : 1e9;
    ByRate[Q.Phase].push_back(L);
    (Q.Traced ? TracedLat : PlainLat).push_back(L);
  }
  R.Attempted = static_cast<uint64_t>(Sent);
  R.Failed = static_cast<uint64_t>(Rejected + FailedN);
  R.Errors = Check.errors();

  // The open-loop rates: each rate's median and tail, and the highest rate
  // whose tail meets the limit.  Host wake-up latency of idle cores
  // dominates these on a shared virtual machine, so they are per-layer
  // figures; the end-to-end latencies come from the saturation phase, where
  // the cores stay busy.
  double MaxRps = 0;
  std::map<std::string, double> OpenLoop;
  for (int P = 0; P != 3; ++P) {
    std::string Suffix = ".r" + std::to_string(P + 1);
    Tail T = tailOf(ByRate[P]);
    R.Report["rate" + Suffix] = Rates[P];
    R.Report["lat_ms_tail" + Suffix + ".pct"] = T.Pct;
    R.Report["lat_ms_tail" + Suffix + ".n"] = static_cast<double>(T.N);
    OpenLoop["serve.lat_ms_p50" + Suffix] = median(ByRate[P]);
    OpenLoop["serve.lat_ms_tail" + Suffix] = T.Value;
    if (T.Value <= SloTailMs)
      MaxRps = Rates[P];
  }
  OpenLoop["serve.max_rps_slo"] = MaxRps;
  Tail SatTail = tailOf(SatLat);
  R.Report["slo_tail_ms"] = SloTailMs;
  R.Report["gen.rejected"] = Rejected;
  R.Report["op_ms_tail.pct"] = SatTail.Pct;
  R.Report["op_ms_tail.n"] = static_cast<double>(SatTail.N);
  R.Report["measured_s"] = MeasuredS;

  if (!O.Trace) {
    R.set("setup_s", median(SetupS));
    R.set("ops_per_s", static_cast<double>(SatDone) / SatS);
    R.set("op_ms_p50", median(SatLat));
    R.set("op_ms_tail", SatTail.Value);
    R.set("peak_rss_mb", DaemonRssMb);
    return R;
  }

  // Protocol layer, replayed client-side on this run's frames: the daemon's
  // request parser on every request sent, and the response renderer on
  // records of the same apps.
  double ParseUs = 0, Parses = 0;
  for (const Request &Q : Reqs) {
    if (Q.Phase < 0) // lane warm-up and per-phase stats queries
      continue;
    std::string Err;
    Clock::time_point T0 = Clock::now();
    auto Parsed = server::parseRequest(Q.Payload, Err);
    ParseUs += msSince(T0) * 1e3;
    Parses += 1;
    if (!Parsed)
      Check.fail("serve-open: parseRequest rejected a generated frame");
  }
  double RenderUs = 0, Renders = 0;
  for (size_t A = 0; A != Apps.size(); ++A) {
    std::unique_ptr<evolve::EvolvableVM> VM = Apps[A]->makeVM();
    std::vector<size_t> Order = Apps[A]->order(0);
    for (size_t I = 0; I != Order.size(); ++I) {
      const wl::InputCase &In = Apps[A]->W.Inputs[Order[I]];
      auto Rec = VM->runOnce(In.CommandLine, In.VmArgs);
      if (!Rec)
        continue;
      Clock::time_point T0 = Clock::now();
      std::string Out =
          server::renderRunResponse(I, Apps[A]->Name, I + 1, *Rec);
      RenderUs += msSince(T0) * 1e3;
      Renders += 1;
    }
  }
  R.Errors = Check.errors();

  for (const auto &[Name, Value] : OpenLoop)
    R.set(Name, Value);
  R.set("server.latency_us_p50", median(ServerP50Us));
  R.set("server.latency_us_tail", median(ServerP99Us));
  R.set("server.transport_ms_p50", median(TransportMs));
  R.set("server.batch_size_mean",
        SS.BatchCount > 0 ? SS.BatchSum / SS.BatchCount : 0);
  R.set("server.deadline_flush_frac",
        SS.Flushes > 0 ? SS.FlushDeadline / SS.Flushes : 0);
  R.set("server.inflight_peak", SS.InflightPeak);
  R.set("server.rejected", SS.Rejected);
  R.set("server.fds_end", Fds);
  R.set("server.threads_end", Threads);
  R.set("protocol.parse_us", Parses ? ParseUs / Parses : 0);
  R.set("protocol.render_us", Renders ? RenderUs / Renders : 0);
  R.set("protocol.frame_bytes", Frames ? Bytes / Frames : 0);
  writeSpans(R, O, ClientSpans);
  R.set("gen.lag_ms_tail", tailOf(Lags).Value);
  R.set("gen.sent", Sent);
  R.set("gen.succeeded", Ok);
  R.set("gen.failed", Rejected + FailedN);
  R.set("trace.overhead_frac", median(TracedLat) / median(PlainLat) - 1.0);
  return R;
}

} // namespace hb
