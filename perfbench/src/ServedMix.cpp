//===- perfbench/src/ServedMix.cpp - Loopback serving workload ------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// `served_mix`: an in-process net::Server on loopback, driven as an open
/// loop at one fixed offered rate from at most four client connections,
/// one thread each. Arrivals are evenly spaced and round-robin over the
/// connections; each request is timed from its due time, not from when
/// the generator got round to sending it, and the generator's lateness is
/// reported. At set-up the benchmark compiles a warm template set, saves
/// it as a PassCache snapshot, and the server's cache loads that snapshot,
/// as a --cache-file restart does. The seeded mix (see blockSlots):
///   60%  uf20/uf50/uf75 template hits (12 formulas x 2 layer counts x a
///        2x2 gamma/beta grid)
///   10%  uf250 template hits (2 formulas x 2 grid points), 4 MB responses
///   20%  DIMACS-sourced fresh 20/50-variable formulas (cold misses)
///   10%  a fresh formula sent twice back to back (coalescing)
/// The client threads keep only a digest (length and hash) of the first
/// response of every distinct request, so the process's peak RSS is the
/// server's, not a copy of its answers. Every OK response must match that
/// digest as it arrives; after the window each distinct request is
/// compiled directly in-process, its printed program must match the
/// digest, and it must pass the structural wChecker gate. The schedule is a
/// pure function of the seed and the run length, so the quality metrics
/// cover every request.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "fpqa/Analysis.h"
#include "net/Client.h"
#include "net/Server.h"
#include "qasm/Printer.h"
#include "sat/Dimacs.h"
#include "sat/Generator.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <poll.h>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <unordered_map>

using namespace weaver;

namespace perfbench {

namespace {

constexpr int SmallVars[] = {20, 50, 75};
constexpr int FreshVars[] = {20, 50};
constexpr int SmallIndices = 4;
constexpr int BigVars = 250;
constexpr int BigIndices = 2;
/// Offered load in arrivals per second (each duplicate arrival carries
/// two requests, so requests/s is 1.1x this): about a third of what the
/// server sustains on a busy 4-core host. Nearer that capacity the queue
/// amplifies the host's own speed swings past the benchmark's bounds; see
/// perfbench/README.md.
constexpr double ArrivalsPerSecond = 40;
/// One arrival slot of the mix: what kind of request, at what size.
enum class Kind { SmallHit, BigHit, Fresh, Duplicate };
struct Slot {
  Kind K;
  int Vars;
  int Layers;
};

/// The arrival mix, drawn in shuffled blocks of 40 so every window of a
/// run and every seed carries the same proportions and sizes: 24 template
/// hits (each uf20/uf50/uf75 x 1/2 layers four times), 4 uf250 hits, 8
/// fresh formulas and 4 duplicated fresh formulas (half at 20 variables,
/// half at 50).
std::vector<Slot> blockSlots() {
  std::vector<Slot> B;
  for (int Vars : SmallVars)
    for (int Layers = 1; Layers <= 2; ++Layers)
      B.insert(B.end(), 4, Slot{Kind::SmallHit, Vars, Layers});
  B.insert(B.end(), 4, Slot{Kind::BigHit, BigVars, 1});
  for (int Vars : FreshVars) {
    B.insert(B.end(), 4, Slot{Kind::Fresh, Vars, 1});
    B.insert(B.end(), 2, Slot{Kind::Duplicate, Vars, 1});
  }
  return B;
}

/// Responses still missing this long after the last due time fail.
constexpr double DrainSeconds = 60;

/// Runs \p Fn(I) for every I in [0, \p N) on up to three threads: the
/// post-window gate checks are independent per distinct request.
void parallelFor(size_t N, const std::function<void(size_t)> &Fn) {
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next++) < N;)
      Fn(I);
  };
  unsigned Threads = std::clamp(std::thread::hardware_concurrency(), 1u, 3u);
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
}

struct Request {
  net::CompileFrame Frame;
  uint32_t KeyId = 0;
  double Due = 0; ///< seconds after the phase start
};

/// What the owning client thread records for one request.
struct Outcome {
  bool Done = false;
  bool Ok = false;
  double LatencyMs = 0, LateMs = 0, EncodeMs = 0, DecodeMs = 0;
  double QueueMs = 0, ServeMs = 0, TransportMs = 0;
  uint64_t Bytes = 0, Pulses = 0;
};

class ServedMix : public Workload {
public:
  ServedMix(uint64_t Seed, std::string Dir)
      : Seed(Seed), Dir(std::move(Dir)) {}
  ~ServedMix() override { stopServer(); }

  WorkloadShape shape() const override {
    WorkloadShape S;
    S.QualityWindow = 0; // every request; see the file comment
    S.RssMark = 300;
    S.TailPercentile = 99;
    return S;
  }

  void setup(double Seconds, Tracer &T) override;
  Phase run(double Seconds, Tracer &T, GateLog &Gate) override;
  Quality replayQuality() override;
  void setupLayers(Report &R) const override {
    R.add("persist.save_ms", SaveMs, "ms");
    R.add("persist.load_ms", LoadMs, "ms");
    R.add("persist.snapshot_bytes", SnapshotBytes, "B");
  }

private:
  uint32_t keyFor(const net::CompileFrame &F);
  net::CompileFrame hitFrame(const Slot &S, Xoshiro256 &Rng) const;
  net::CompileFrame freshFrame(const Slot &S, uint64_t Arrival,
                               Xoshiro256 &Rng) const;
  void schedule(double Seconds);
  /// Compiles the warm template set and saves it to \p Path.
  void buildSnapshot(const std::string &Path, Tracer &T, Tracer::Buffer *B);
  void stopServer();
  void clientLoop(size_t Conn, Clock::time_point T0, Tracer &T,
                  std::atomic<uint64_t> &Completed, double &RssAtMark,
                  GateLog &Gate);
  /// The direct in-process compile of \p F, through cache \p C.
  static Expected<core::WeaverResult> directCompile(const net::CompileFrame &F,
                                                    core::pipeline::PassCache *C);

  uint64_t Seed;
  std::string Dir; ///< where set-up writes the snapshot
  size_t NumConns = 1;
  std::vector<double> Gammas, Betas;
  /// Distinct request identities (RequestId unused): the responses of all
  /// requests sharing one must be byte-identical.
  std::vector<net::CompileFrame> Keys;
  std::map<std::tuple<int, int, int, int, int>, uint32_t> HitKeys;
  std::vector<Request> Requests;
  std::vector<std::vector<uint32_t>> ByConn;
  std::vector<Outcome> Outcomes;
  /// Quality of the direct compiles the gate made for the last phase.
  Quality Replay;

  /// Digest of the first OK response per key, filled by the client
  /// threads.
  std::mutex RefMutex;
  std::vector<std::optional<Digest>> Refs;

  double SaveMs = 0, LoadMs = 0, SnapshotBytes = 0;
  std::string SnapshotPath;
  std::unique_ptr<core::pipeline::PassCache> ServeCache;
  std::unique_ptr<net::Server> Server;
  std::thread ServerThread;
  std::vector<std::unique_ptr<net::Client>> Clients;
};

uint32_t ServedMix::keyFor(const net::CompileFrame &F) {
  if (F.Source == net::FormulaSource::Satlib) {
    int G = static_cast<int>(std::find(Gammas.begin(), Gammas.end(), F.Gamma) -
                             Gammas.begin());
    int B = static_cast<int>(std::find(Betas.begin(), Betas.end(), F.Beta) -
                             Betas.begin());
    auto [It, New] = HitKeys.emplace(
        std::make_tuple(F.NumVars, F.Index, F.Layers, G, B), Keys.size());
    if (!New)
      return It->second;
  }
  Keys.push_back(F);
  return static_cast<uint32_t>(Keys.size() - 1);
}

net::CompileFrame ServedMix::hitFrame(const Slot &S, Xoshiro256 &Rng) const {
  net::CompileFrame F;
  F.Source = net::FormulaSource::Satlib;
  F.NumVars = S.Vars;
  F.Index = 1 + static_cast<int32_t>(
                    Rng.nextBelow(S.K == Kind::BigHit ? BigIndices : SmallIndices));
  F.Layers = S.Layers;
  F.Gamma = Gammas[Rng.nextBelow(Gammas.size())];
  F.Beta = Betas[Rng.nextBelow(Betas.size())];
  return F;
}

net::CompileFrame ServedMix::freshFrame(const Slot &S, uint64_t Arrival,
                                        Xoshiro256 &Rng) const {
  net::CompileFrame F;
  F.Source = net::FormulaSource::Dimacs;
  F.Dimacs =
      sat::printDimacs(randomFormula(mixSeed(Seed, 7, Arrival), S.Vars));
  F.Layers = S.Layers;
  F.Gamma = Gammas[Rng.nextBelow(Gammas.size())];
  F.Beta = Betas[Rng.nextBelow(Betas.size())];
  return F;
}

void ServedMix::schedule(double Seconds) {
  Xoshiro256 Grid(mixSeed(Seed, 6));
  Gammas.clear();
  Betas.clear();
  for (int K = 0; K < 2; ++K) {
    Gammas.push_back(0.1 + 2.9 * Grid.nextDouble());
    Betas.push_back(0.1 + 1.4 * Grid.nextDouble());
  }
  Keys.clear();
  HitKeys.clear();
  Requests.clear();
  ByConn.assign(NumConns, {});

  const uint64_t MinRequests = shape().minRequests();
  Xoshiro256 Rng(mixSeed(Seed, 8));
  const std::vector<Slot> Slots = blockSlots();
  std::vector<Slot> Block;
  for (uint64_t A = 0;
       A < Seconds * ArrivalsPerSecond || Requests.size() < MinRequests;
       ++A) {
    if (A % Slots.size() == 0) {
      Block = Slots;
      for (size_t I = Block.size(); I > 1; --I)
        std::swap(Block[I - 1], Block[Rng.nextBelow(I)]);
    }
    const Slot &S = Block[A % Slots.size()];
    net::CompileFrame F = S.K == Kind::SmallHit || S.K == Kind::BigHit
                              ? hitFrame(S, Rng)
                              : freshFrame(S, A, Rng);
    uint32_t KeyId = keyFor(F);
    for (int C = 0; C < (S.K == Kind::Duplicate ? 2 : 1); ++C) {
      F.RequestId = Requests.size();
      ByConn[A % NumConns].push_back(static_cast<uint32_t>(Requests.size()));
      Requests.push_back({F, KeyId, A / ArrivalsPerSecond});
    }
  }
}

Expected<core::WeaverResult>
ServedMix::directCompile(const net::CompileFrame &F,
                         core::pipeline::PassCache *C) {
  sat::CnfFormula Formula;
  if (F.Source == net::FormulaSource::Satlib) {
    Formula = sat::satlibInstance(F.NumVars, F.Index);
  } else {
    auto Parsed = sat::parseDimacs(F.Dimacs);
    if (!Parsed)
      return Expected<core::WeaverResult>::error(Parsed.message());
    Formula = std::move(*Parsed);
  }
  qaoa::QaoaParams Q;
  Q.Gamma = F.Gamma;
  Q.Beta = F.Beta;
  Q.Layers = F.Layers;
  return core::compileWeaver(Formula, directOptions(Q, C));
}

void ServedMix::buildSnapshot(const std::string &Path, Tracer &T,
                              Tracer::Buffer *B) {
  core::pipeline::PassCache Warm;
  {
    ScopedSpan Span(T, B, "setup.warm_compiles", 0);
    auto compileWarm = [&](int Vars, int Index, int Layers) {
      net::CompileFrame F;
      F.NumVars = Vars;
      F.Index = Index;
      F.Layers = Layers;
      F.Gamma = Gammas[0];
      F.Beta = Betas[0];
      (void)directCompile(F, &Warm);
    };
    for (int Vars : SmallVars)
      for (int Index = 1; Index <= SmallIndices; ++Index)
        for (int Layers = 1; Layers <= 2; ++Layers)
          compileWarm(Vars, Index, Layers);
    for (int Index = 1; Index <= BigIndices; ++Index)
      compileWarm(BigVars, Index, 1);
  }
  ScopedSpan Span(T, B, "persist.save", 0);
  Clock::time_point Start = Clock::now();
  if (Status S = Warm.saveSnapshot(Path)) {
    std::fprintf(stderr, "served_mix: snapshot save failed: %s\n",
                 S.message().c_str());
    std::exit(2);
  }
  SaveMs = msBetween(Start, Clock::now());
}

void ServedMix::setup(double Seconds, Tracer &T) {
  stopServer();
  Tracer::Buffer *B = T.buffer();
  ScopedSpan Setup(T, B, "setup", 0);
  unsigned Cpus = std::max(1u, std::thread::hardware_concurrency());
  NumConns = std::min<size_t>(4, Cpus);
  schedule(Seconds);
  Outcomes.assign(Requests.size(), Outcome());
  Refs.clear();
  Refs.resize(Keys.size());

  SnapshotPath = Dir + "/served_mix." +
                 std::to_string(::getpid()) + ".snapshot";
  buildSnapshot(SnapshotPath, T, B);
  ServeCache = std::make_unique<core::pipeline::PassCache>();
  {
    ScopedSpan Load(T, B, "persist.load", 0);
    Clock::time_point Start = Clock::now();
    if (Status S = ServeCache->loadSnapshot(SnapshotPath)) {
      std::fprintf(stderr, "served_mix: snapshot load failed: %s\n",
                   S.message().c_str());
      std::exit(2);
    }
    LoadMs = msBetween(Start, Clock::now());
  }
  std::error_code Ec;
  SnapshotBytes = static_cast<double>(
      std::filesystem::file_size(SnapshotPath, Ec));

  net::ServerOptions SO;
  SO.Service.NumThreads = static_cast<int>(std::max(1u, Cpus - 1));
  SO.Service.Cache = ServeCache.get();
  Server = std::make_unique<net::Server>(SO);
  if (Status S = Server->start()) {
    std::fprintf(stderr, "served_mix: server start failed: %s\n",
                 S.message().c_str());
    std::exit(2);
  }
  ServerThread = std::thread([this] { (void)Server->run(); });
  for (size_t C = 0; C < NumConns; ++C) {
    net::ClientOptions CO;
    CO.Port = Server->port();
    CO.Seed = C + 1;
    Clients.push_back(std::make_unique<net::Client>(CO));
    if (Status S = Clients.back()->connect()) {
      std::fprintf(stderr, "served_mix: connect failed: %s\n",
                   S.message().c_str());
      std::exit(2);
    }
  }
}

void ServedMix::stopServer() {
  Clients.clear();
  if (Server) {
    Server->requestStop();
    if (ServerThread.joinable())
      ServerThread.join();
    Server.reset();
  }
  ServeCache.reset();
  if (!SnapshotPath.empty())
    std::remove(SnapshotPath.c_str());
  SnapshotPath.clear();
}

void ServedMix::clientLoop(size_t Conn, Clock::time_point T0, Tracer &T,
                           std::atomic<uint64_t> &Completed,
                           double &RssAtMark, GateLog &Gate) {
  net::Client &Cl = *Clients[Conn];
  Tracer::Buffer *B = T.buffer();
  const std::vector<uint32_t> &Mine = ByConn[Conn];
  struct InFlight {
    Clock::time_point Due, SendStart, EncodeEnd, SendEnd;
  };
  std::unordered_map<uint64_t, InFlight> Pending;
  const uint64_t RssMark = shape().RssMark;
  auto handle = [&](const net::Frame &Fr, Clock::time_point Received) {
    if (Fr.Type != net::FrameType::Result) {
      Gate.fail("served_mix transport",
               std::string("unexpected frame ") + net::frameTypeName(Fr.Type));
      return;
    }
    Clock::time_point DecodeStart = Clock::now();
    auto R = net::decodeResult(Fr.Payload);
    Clock::time_point DecodeEnd = Clock::now();
    if (!R) {
      Gate.fail("served_mix decode", R.message());
      return;
    }
    auto It = Pending.find(R->RequestId);
    if (It == Pending.end()) {
      Gate.fail("served_mix transport", "response for unknown request");
      return;
    }
    InFlight F = It->second;
    Pending.erase(It);
    const Request &Rq = Requests[R->RequestId];
    Outcome &O = Outcomes[R->RequestId];
    O.Done = true;
    O.LatencyMs = msBetween(F.Due, DecodeEnd);
    O.LateMs = msBetween(F.Due, F.SendStart);
    O.EncodeMs = msBetween(F.SendStart, F.EncodeEnd);
    O.DecodeMs = msBetween(DecodeStart, DecodeEnd);
    O.QueueMs = R->QueueSeconds * 1e3;
    O.ServeMs = R->CompileSeconds * 1e3;
    O.TransportMs = msBetween(F.EncodeEnd, Received) - O.QueueMs - O.ServeMs;
    O.Bytes = R->Wqasm.size();
    O.Pulses = R->Pulses;
    O.Ok = R->Code == net::ResponseCode::Ok;
    if (B) {
      int32_t Root = Tracer::add(B, "request", R->RequestId, -1,
                                 T.ns(F.Due), T.ns(DecodeEnd));
      Tracer::add(B, "loadgen.late", R->RequestId, Root, T.ns(F.Due),
                  T.ns(F.SendStart));
      Tracer::add(B, "net.encode", R->RequestId, Root, T.ns(F.SendStart),
                  T.ns(F.EncodeEnd));
      Tracer::add(B, "net.send", R->RequestId, Root, T.ns(F.EncodeEnd),
                  T.ns(F.SendEnd));
      // Server-side spans are placed from the durations the response
      // reports, right after the send.
      int64_t At = T.ns(F.SendEnd);
      int64_t QueueEnd = At + static_cast<int64_t>(O.QueueMs * 1e6);
      int64_t ServeEnd = QueueEnd + static_cast<int64_t>(O.ServeMs * 1e6);
      Tracer::add(B, "service.queue", R->RequestId, Root, At, QueueEnd);
      Tracer::add(B, "service.serve", R->RequestId, Root, QueueEnd, ServeEnd);
      Tracer::add(B, "net.decode", R->RequestId, Root, T.ns(DecodeStart),
                  T.ns(DecodeEnd));
    }
    if (!O.Ok) {
      // Shedding is a failed request, not a wrong answer.
      if (R->Code != net::ResponseCode::RetryLater)
        Gate.fail("served_mix response",
                 std::string(net::responseCodeName(R->Code)) + " " +
                     R->Diagnostic);
    } else {
      Digest D = Digest::of(R->Wqasm);
      bool Same;
      {
        std::lock_guard<std::mutex> Lock(RefMutex);
        std::optional<Digest> &Ref = Refs[Rq.KeyId];
        if (!Ref)
          Ref = D;
        Same = *Ref == D;
      }
      if (!Same) {
        O.Ok = false;
        Gate.fail("served_mix response " + std::to_string(R->RequestId),
                  "differs from an earlier identical one");
      }
    }
    if (++Completed == RssMark)
      RssAtMark = peakRssMb();
  };

  size_t Next = 0;
  Clock::time_point SendsDone = T0;
  bool SendFailed = false;
  while (!SendFailed && (Next < Mine.size() || !Pending.empty())) {
    Clock::time_point Now = Clock::now();
    while (Next < Mine.size() && Cl.connected()) {
      const Request &Rq = Requests[Mine[Next]];
      Clock::time_point Due =
          T0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(Rq.Due));
      if (Due > Now)
        break;
      InFlight F;
      F.Due = Due;
      F.SendStart = Clock::now();
      std::string Bytes = net::encodeCompile(Rq.Frame);
      F.EncodeEnd = Clock::now();
      Status S = Cl.sendBytes(Bytes);
      F.SendEnd = Clock::now();
      if (S) {
        Gate.fail("served_mix send", S.message());
        SendFailed = true;
        break;
      }
      Pending.emplace(Rq.Frame.RequestId, F);
      ++Next;
      Now = Clock::now();
      if (Next == Mine.size())
        SendsDone = Now;
    }
    net::Frame Fr;
    while (Cl.tryReadFrame(Fr))
      handle(Fr, Clock::now());
    if (!Cl.connected()) {
      Gate.fail("served_mix transport", "connection lost");
      break;
    }
    if (Next == Mine.size() && !Pending.empty() &&
        secondsSince(SendsDone) > DrainSeconds) {
      Gate.fail("served_mix drain", std::to_string(Pending.size()) +
                                       " responses missing after the window");
      break;
    }
    // Sleep until the next due time or incoming bytes.
    double WaitS = 0.05;
    if (Next < Mine.size())
      WaitS = Requests[Mine[Next]].Due -
              std::chrono::duration<double>(Clock::now() - T0).count();
    if (WaitS > 0) {
      timespec Ts{static_cast<time_t>(WaitS),
                  static_cast<long>((WaitS - static_cast<time_t>(WaitS)) * 1e9)};
      pollfd P{Cl.fd(), POLLIN, 0};
      ::ppoll(&P, 1, &Ts, nullptr);
    }
  }
}

Phase ServedMix::run(double Seconds, Tracer &T, GateLog &Gate) {
  (void)Seconds; // the schedule was sized at set-up
  Phase P;
  core::CompileService::ServiceStats S0 = Server->service().stats();
  net::TransportStats N0 = Server->transportStats();
  core::pipeline::PassCache::CacheStats C0 = ServeCache->stats();
  std::atomic<uint64_t> Completed{0};
  double RssAtMark = 0;
  // Give every client thread time to start before the first due time.
  const Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(20);
  const double Cpu0 = processCpuSeconds();
  {
    std::vector<std::thread> Threads;
    for (size_t C = 0; C < NumConns; ++C)
      Threads.emplace_back([&, C] {
        clientLoop(C, T0, T, Completed, RssAtMark, Gate);
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  // From the first due time to the last response.
  P.WindowSeconds = secondsSince(T0);
  P.CpuSeconds = processCpuSeconds() - Cpu0;
  P.RssMb = RssAtMark;

  std::vector<double> Late;
  double Sum[6] = {};
  uint64_t Ok = 0;
  for (size_t I = 0; I < Requests.size(); ++I) {
    const Outcome &O = Outcomes[I];
    ++P.Attempted;
    if (!O.Done || !O.Ok) {
      ++P.Failed;
      continue;
    }
    ++Ok;
    P.LatencyMs.push_back(O.LatencyMs);
    Late.push_back(O.LateMs);
    double Parts[6] = {O.QueueMs, O.ServeMs,  O.TransportMs,
                       O.EncodeMs, O.DecodeMs, double(O.Bytes)};
    for (int K = 0; K < 6; ++K)
      Sum[K] += Parts[K];
  }
  std::sort(Late.begin(), Late.end());

  // Gate: every distinct request, compiled directly in-process, must match
  // the served digest, and the program it printed (the served bytes, by
  // that match) must pass the wChecker.
  core::pipeline::PassCache GateCache;
  std::vector<fpqa::PulseStats> ServedStats(Keys.size()), DirectStats(Keys.size());
  std::vector<uint64_t> DirectBytes(Keys.size());
  parallelFor(Keys.size(), [&](size_t K) {
    if (!Refs[K])
      return;
    auto R = directCompile(Keys[K], &GateCache);
    if (!R) {
      Gate.fail("served_mix direct compile", R.message());
      return;
    }
    std::string Direct = qasm::printWqasm(R->Program);
    DirectStats[K] = R->Stats;
    DirectBytes[K] = Direct.size();
    if (std::string Why = checkServed(*Refs[K], Direct); Why.empty()) {
      Gate.pass("served_mix response == direct compile (length + hash)");
    } else {
      Gate.fail("served_mix key " + std::to_string(K), Why);
      return;
    }
    qasm::WqasmProgram Parsed;
    if (std::string Why = checkPrinted(Direct, &Parsed); !Why.empty()) {
      Gate.fail("served_mix key " + std::to_string(K), Why);
      return;
    }
    Gate.pass("served_mix output passes wChecker (structural)");
    auto Stats = fpqa::analyzePulseProgram(Parsed, fpqa::HardwareParams());
    if (Stats)
      ServedStats[K] = *Stats;
    else
      Gate.fail("served_mix replay of served pulses", Stats.message());
  });
  // Quality of the served outputs: size and pulse count off the wire,
  // duration and EPS from replaying the pulse stream of the served bytes.
  // The replay quality comes from the direct compiles' own statistics.
  for (size_t I = 0; I < Requests.size(); ++I) {
    const Outcome &O = Outcomes[I];
    uint32_t K = Requests[I].KeyId;
    if (!O.Done || !O.Ok)
      continue;
    if (O.Pulses != ServedStats[K].totalPulses())
      Gate.fail("served_mix pulses", "wire pulse count != served program");
    P.Q.add(O.Bytes, ServedStats[K]);
    Replay.add(DirectBytes[K], DirectStats[K]);
  }

  core::CompileService::ServiceStats S1 = Server->service().stats();
  net::TransportStats N1 = Server->transportStats();
  double Den = Ok ? double(Ok) : 1.0;
  addCacheLayers(P.Layers, *ServeCache, C0);
  P.Layers.add("service.queue_ms", Sum[0] / Den, "ms");
  P.Layers.add("service.serve_ms", Sum[1] / Den, "ms", "wire CompileSeconds");
  P.Layers.add("service.completed", S1.Completed - S0.Completed, "count");
  P.Layers.add("service.failed", S1.Failed - S0.Failed, "count");
  P.Layers.add("service.coalesced", S1.Coalesced - S0.Coalesced, "count");
  P.Layers.add("service.program_tier_hits",
               S1.ProgramTierHits - S0.ProgramTierHits, "count");
  P.Layers.add("net.encode_ms", Sum[3] / Den, "ms");
  P.Layers.add("net.decode_ms", Sum[4] / Den, "ms");
  P.Layers.add("net.transport_ms", Sum[2] / Den, "ms",
               "round trip - queue - serve");
  P.Layers.add("net.response_bytes", Sum[5] / Den, "B");
  P.Layers.add("net.shed", N1.Shed - N0.Shed, "count");
  P.Layers.add("net.malformed", N1.MalformedFrames - N0.MalformedFrames,
               "count");
  P.Layers.add("loadgen.late_p99_ms", Late.empty() ? 0 : percentile(Late, 99),
               "ms", "generator health");
  P.Layers.add("qasm.bytes", Sum[5] / Den, "B");
  return P;
}

Quality ServedMix::replayQuality() { return Replay; }

} // namespace

std::unique_ptr<Workload> makeServedMix(uint64_t Seed, const std::string &Dir) {
  return std::make_unique<ServedMix>(Seed, Dir);
}

} // namespace perfbench
