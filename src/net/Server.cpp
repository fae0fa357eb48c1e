//===- net/Server.cpp - Socket transport for CompileService --------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"

#include "sat/Dimacs.h"
#include "sat/Generator.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <poll.h>

using namespace weaver;
using namespace weaver::net;

Server::Server(ServerOptions Options)
    : Options(Options), Service(Options.Service) {}

Server::~Server() = default;

Status Server::start() {
  auto Listen = tcpListen(Options.BindAddress, Options.Port, Options.Backlog,
                          BoundPort);
  if (!Listen)
    return Listen.status();
  ListenFd = Listen.take();
  auto W = WakePipe::create();
  if (!W)
    return W.status();
  Wake = std::make_unique<WakePipe>(W.take());
  return Status::success();
}

void Server::requestStop() {
  StopRequested.store(true, std::memory_order_relaxed);
  if (Wake)
    Wake->notify();
}

TransportStats Server::transportStats() const {
  std::lock_guard<std::mutex> Lock(StatsMutex);
  return Stats;
}

uint32_t Server::suggestedBackoffMs() const {
  // Deeper queue, longer suggested wait; bounded so a draining server
  // never tells clients to disappear for minutes.
  size_t Depth = Service.queueDepth();
  uint64_t Ms = 25 * (1 + std::min<size_t>(Depth, 200));
  return static_cast<uint32_t>(std::min<uint64_t>(Ms, 5000));
}

ResultFrame Server::resultFromOutcome(uint64_t RequestId,
                                      const core::JobOutcome &Outcome) {
  ResultFrame R;
  R.RequestId = RequestId;
  R.QueueSeconds = Outcome.QueueSeconds;
  R.CompileSeconds = Outcome.CompileSeconds;
  R.CacheTier = static_cast<uint8_t>(Outcome.Tier);
  switch (Outcome.State) {
  case core::JobState::Completed:
    R.Code = ResponseCode::Ok;
    R.Pulses = Outcome.Metrics.Pulses;
    break;
  case core::JobState::Cancelled:
    R.Code = Outcome.DeadlineExceeded ? ResponseCode::DeadlineExceeded
                                      : ResponseCode::Cancelled;
    R.Diagnostic = Outcome.Diagnostic;
    break;
  default:
    R.Code = ResponseCode::Failed;
    R.Diagnostic = Outcome.Diagnostic;
    break;
  }
  return R;
}

void Server::queueOrDrop(Client &C, std::string Bytes) {
  if (C.Conn.queueWrite(std::move(Bytes))) {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.FramesOut;
    return;
  }
  // The write queue is full: the client reads too slowly to be worth
  // buffering for. Dropping a frame silently would break exactly-once
  // delivery, so the connection goes instead.
  C.Dead = true;
  std::lock_guard<std::mutex> Lock(StatsMutex);
  ++Stats.SlowClientDrops;
}

void Server::sendResult(Client &C, const ResultFrame &R,
                        std::string_view Wqasm) {
  queueOrDrop(C, encodeResult(R, Wqasm));
  std::lock_guard<std::mutex> Lock(StatsMutex);
  ++Stats.ResultsSent;
}

StatsFrame Server::buildStats() {
  StatsFrame F;
  core::CompileService::ServiceStats S = Service.stats();
  TransportStats T = transportStats();
  F.Counters = {
      {"submitted", S.Submitted},
      {"coalesced", S.Coalesced},
      {"completed", S.Completed},
      {"cancelled", S.Cancelled},
      {"deadline_exceeded", S.DeadlineExceeded},
      {"failed", S.Failed},
      {"compiles_started", S.CompilesStarted},
      {"front_tier_hits", S.FrontTierHits},
      {"program_tier_hits", S.ProgramTierHits},
      {"queue_depth", Service.queueDepth()},
      {"connections", Clients.size()},
      {"accepted", T.Accepted},
      {"disconnected", T.Disconnected},
      {"frames_in", T.FramesIn},
      {"frames_out", T.FramesOut},
      {"requests_admitted", T.RequestsAdmitted},
      {"results_sent", T.ResultsSent},
      {"shed", T.Shed},
      {"malformed_frames", T.MalformedFrames},
      {"poisoned_streams", T.PoisonedStreams},
      {"slow_client_drops", T.SlowClientDrops},
      {"idle_drops", T.IdleDrops},
      {"injected_kills", T.InjectedKills},
      {"orphaned_results", T.OrphanedResults},
      {"going_away_sent", T.GoingAwaySent},
  };
  F.Text = Service.statsTable().render();
  return F;
}

void Server::handleCompile(Client &C, const Frame &F) {
  auto Decoded = decodeCompile(F.Payload);
  if (!Decoded) {
    {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.MalformedFrames;
    }
    ErrorFrame E;
    E.Code = ResponseCode::Malformed;
    E.Message = Decoded.message();
    queueOrDrop(C, encodeError(E));
    C.Conn.CloseAfterFlush = true;
    return;
  }
  const CompileFrame &Req = *Decoded;

  if (Draining || C.Conn.SentGoingAway) {
    ResultFrame R;
    R.RequestId = Req.RequestId;
    R.Code = ResponseCode::GoingAway;
    R.Diagnostic = "server is draining";
    sendResult(C, R);
    return;
  }
  if (C.InFlight.count(Req.RequestId)) {
    // A reused id makes result correlation ambiguous; that's a client
    // bug, not load, so it gets an error rather than a retry hint.
    ErrorFrame E;
    E.Code = ResponseCode::Malformed;
    E.Message = "request id already in flight on this connection";
    queueOrDrop(C, encodeError(E));
    C.Conn.CloseAfterFlush = true;
    return;
  }
  if (C.InFlight.size() >= Options.MaxInFlightPerConnection) {
    ResultFrame R;
    R.RequestId = Req.RequestId;
    R.Code = ResponseCode::RetryLater;
    R.BackoffMs = suggestedBackoffMs();
    R.Diagnostic = "per-connection in-flight limit reached";
    sendResult(C, R);
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Shed;
    return;
  }

  core::CompileRequest Job;
  if (Req.Source == FormulaSource::Satlib) {
    Job.Formula = sat::satlibInstance(Req.NumVars, Req.Index);
  } else {
    auto Parsed = sat::parseDimacs(Req.Dimacs);
    if (!Parsed) {
      // The frame was well-formed; the formula inside it was not. A
      // request-level failure, not a connection-level one.
      ResultFrame R;
      R.RequestId = Req.RequestId;
      R.Code = ResponseCode::Failed;
      R.Diagnostic = Parsed.message();
      sendResult(C, R);
      return;
    }
    Job.Formula = Parsed.take();
  }
  Job.Kind = Req.Kind;
  Job.Qaoa.Gamma = Req.Gamma;
  Job.Qaoa.Beta = Req.Beta;
  Job.Qaoa.Layers = Req.Layers;
  Job.Qaoa.Measure = Req.Measure;
  Job.Qaoa.UseCompressedClauses = Req.Compressed;
  Job.Priority = Req.Priority;
  Job.DeadlineSeconds = Req.DeadlineMs / 1000.0;

  uint64_t ConnId = C.Conn.id();
  uint64_t RequestId = Req.RequestId;
  auto Cb = [this, ConnId, RequestId](const core::JobOutcome &) {
    {
      std::lock_guard<std::mutex> Lock(CompletionMutex);
      Completions.push_back({ConnId, RequestId});
    }
    if (Wake)
      Wake->notify();
  };

  core::CompileService::JobHandle Handle;
  switch (Service.trySubmit(std::move(Job), Handle, std::move(Cb))) {
  case core::CompileService::SubmitStatus::Accepted:
  case core::CompileService::SubmitStatus::Coalesced: {
    C.InFlight.emplace(RequestId, std::move(Handle));
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.RequestsAdmitted;
    return;
  }
  case core::CompileService::SubmitStatus::QueueFull: {
    ResultFrame R;
    R.RequestId = RequestId;
    R.Code = ResponseCode::RetryLater;
    R.BackoffMs = suggestedBackoffMs();
    R.Diagnostic = "job queue full";
    sendResult(C, R);
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Shed;
    return;
  }
  case core::CompileService::SubmitStatus::ShutDown: {
    ResultFrame R;
    R.RequestId = RequestId;
    R.Code = ResponseCode::GoingAway;
    R.Diagnostic = "service shut down";
    sendResult(C, R);
    return;
  }
  }
}

bool Server::handleFrame(Client &C, const Frame &F) {
  switch (F.Type) {
  case FrameType::CompileRequest:
    handleCompile(C, F);
    return true;
  case FrameType::CancelRequest: {
    auto Decoded = decodeCancel(F.Payload);
    if (!Decoded)
      break;
    auto It = C.InFlight.find(Decoded->RequestId);
    // Unknown ids are not an error: the result may have just been sent.
    if (It != C.InFlight.end())
      It->second.cancel();
    return true;
  }
  case FrameType::StatsRequest:
    queueOrDrop(C, encodeStats(buildStats()));
    return true;
  case FrameType::Ping:
    queueOrDrop(C, encodePong());
    return true;
  default:
    break; // server->client frame types are malformed as requests
  }
  {
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.MalformedFrames;
  }
  ErrorFrame E;
  E.Code = ResponseCode::Malformed;
  E.Message = std::string("unexpected frame type: ") + frameTypeName(F.Type);
  queueOrDrop(C, encodeError(E));
  return false;
}

void Server::acceptPending() {
  // Accept in bounded batches so a connection storm cannot starve the
  // clients already being served.
  for (int Burst = 0; Burst < 32; ++Burst) {
    if (Clients.size() >= Options.MaxConnections)
      return;
    auto Accepted = tcpAccept(ListenFd.get());
    if (!Accepted || !Accepted->valid())
      return;
    if (fault::fire("net.kill")) {
      // Injected accept-time kill: the client sees an immediate close.
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.InjectedKills;
      continue;
    }
    setNoDelay(Accepted->get());
    Clients.push_back(std::make_unique<Client>(
        Connection(Accepted.take(), NextConnId++, MaxRequestFrameBytes,
                   Options.MaxWriteQueueBytes)));
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.Accepted;
  }
}

void Server::drainCompletions() {
  std::vector<Completion> Batch;
  {
    std::lock_guard<std::mutex> Lock(CompletionMutex);
    Batch.swap(Completions);
  }
  for (Completion &Done : Batch) {
    Client *C = nullptr;
    for (auto &Candidate : Clients)
      if (Candidate->Conn.id() == Done.ConnId) {
        C = Candidate.get();
        break;
      }
    // The poll thread registers the handle before it can drain the job's
    // completion and removes it only here, so a live client has it. The
    // handle keeps the job, and so the outcome text, alive until the
    // frame is encoded.
    core::CompileService::JobHandle Handle;
    if (C) {
      auto It = C->InFlight.find(Done.RequestId);
      if (It != C->InFlight.end()) {
        Handle = std::move(It->second);
        C->InFlight.erase(It);
      }
    }
    if (!Handle.valid()) {
      std::lock_guard<std::mutex> Lock(StatsMutex);
      ++Stats.OrphanedResults;
      continue;
    }
    std::shared_ptr<const core::JobOutcome> Outcome = Handle.wait();
    sendResult(*C, resultFromOutcome(Done.RequestId, *Outcome),
               Outcome->State == core::JobState::Completed
                   ? std::string_view(Outcome->Wqasm)
                   : std::string_view());
  }
}

void Server::beginDrain() {
  Draining = true;
  DrainStartedAt = Connection::Clock::now();
  ListenFd.reset(); // stop accepting; pending SYNs get RST once closed
  Service.armDrainDeadline(Options.DrainBudgetSeconds);
  for (auto &C : Clients) {
    if (C->Conn.SentGoingAway)
      continue;
    C->Conn.SentGoingAway = true;
    queueOrDrop(*C, encodeGoingAway("server is draining"));
    std::lock_guard<std::mutex> Lock(StatsMutex);
    ++Stats.GoingAwaySent;
  }
}

Status Server::run() {
  if (!ListenFd.valid() || !Wake)
    return Status::error("server not started: call start() first");

  // True when the previous cycle hit a connection's fairness quantum
  // with complete frames still buffered in its parser.
  bool BufferedBacklog = false;
  while (true) {
    if (!Draining && (StopRequested.load(std::memory_order_relaxed) ||
                      (Options.StopFlag && *Options.StopFlag)))
      beginDrain();

    // -- Build the poll set ------------------------------------------------
    std::vector<pollfd> Fds;
    Fds.push_back({Wake->fd(), POLLIN, 0});
    size_t ListenIdx = SIZE_MAX;
    if (!Draining && ListenFd.valid() &&
        Clients.size() < Options.MaxConnections) {
      ListenIdx = Fds.size();
      Fds.push_back({ListenFd.get(), POLLIN, 0});
    }
    size_t ClientBase = Fds.size();
    // Only these clients have a pollfd this cycle; acceptPending() below
    // may append more, and indexing Fds for those would run past its end.
    size_t NumPolled = Clients.size();
    for (auto &C : Clients) {
      short Events = POLLIN;
      if (C->Conn.writePending())
        Events |= POLLOUT;
      Fds.push_back({C->Conn.fd(), Events, 0});
    }

    // Short timeout: the idle/stall/drain timers need periodic service
    // even with no socket activity. A cycle that hit a connection's
    // fairness quantum leaves complete frames buffered, so the next
    // cycle must not sleep on them.
    int Ready = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()),
                       BufferedBacklog ? 0 : 100);
    BufferedBacklog = false;
    if (Ready < 0 && errno != EINTR)
      return Status::error("poll failed on the server loop");

    if (Fds[0].revents & POLLIN)
      Wake->drain();
    drainCompletions();

    if (ListenIdx != SIZE_MAX && (Fds[ListenIdx].revents & POLLIN))
      acceptPending();

    // -- Service connections in rotating order -----------------------------
    // Clients accepted this cycle (index >= NumPolled) have no pollfd
    // entry yet; they are serviced from the next cycle on.
    Connection::Clock::time_point Now = Connection::Clock::now();
    for (size_t K = 0; K < NumPolled; ++K) {
      size_t Idx = (RotateStart + K) % NumPolled;
      Client &C = *Clients[Idx];
      short Revents = Fds[ClientBase + Idx].revents;
      if (C.Dead)
        continue;
      if ((Revents & (POLLERR | POLLNVAL)) ||
          ((Revents & POLLHUP) && !(Revents & POLLIN))) {
        C.Dead = true;
        continue;
      }
      if (Revents & POLLIN) {
        if (fault::fire("net.kill")) {
          C.Dead = true;
          std::lock_guard<std::mutex> Lock(StatsMutex);
          ++Stats.InjectedKills;
          continue;
        }
        Connection::ReadOutcome RO = C.Conn.readAndParse();
        if (RO == Connection::ReadOutcome::Closed) {
          C.Dead = true;
          continue;
        }
        if (RO == Connection::ReadOutcome::Poisoned) {
          // Framing is lost; nothing further on this stream can be
          // trusted, including a goodbye frame.
          C.Dead = true;
          std::lock_guard<std::mutex> Lock(StatsMutex);
          ++Stats.PoisonedStreams;
          continue;
        }
      }
      // Process buffered frames whether or not new bytes arrived: a
      // pipelined burst can out-run the fairness quantum, and the
      // leftover complete frames must not wait for the client to send
      // more before they are served.
      Frame F;
      size_t Processed = 0;
      while (!C.Conn.CloseAfterFlush && Processed < Options.MaxFramesPerPoll &&
             C.Conn.nextFrame(F)) {
        ++Processed;
        {
          std::lock_guard<std::mutex> Lock(StatsMutex);
          ++Stats.FramesIn;
        }
        if (!handleFrame(C, F)) {
          C.Conn.CloseAfterFlush = true;
          break;
        }
      }
      // Quantum exhausted: more complete frames may remain buffered, so
      // the next poll must not sleep on them.
      if (Processed == Options.MaxFramesPerPoll)
        BufferedBacklog = true;
      // A valid frame can precede a hostile length prefix in the same
      // read; next() surfaces that poison only after consuming the
      // valid ones, so re-check before waiting on more bytes.
      if (C.Conn.poisoned()) {
        C.Dead = true;
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Stats.PoisonedStreams;
        continue;
      }
      if (!C.Dead && C.Conn.writePending()) {
        if (C.Conn.flushWrites() == IoResult::Error) {
          C.Dead = true;
          continue;
        }
      }
      // -- Robustness timers ----------------------------------------------
      if (C.Conn.writePending() &&
          C.Conn.secondsSinceWriteProgress(Now) > Options.WriteStallSeconds) {
        C.Dead = true;
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Stats.SlowClientDrops;
        continue;
      }
      if (C.Conn.hasPartialFrame() &&
          C.Conn.secondsSinceRead(Now) > Options.PartialFrameSeconds) {
        C.Dead = true;
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Stats.IdleDrops;
        continue;
      }
      if (C.InFlight.empty() && !C.Conn.writePending() &&
          C.Conn.secondsSinceRead(Now) > Options.ReadIdleSeconds) {
        C.Dead = true;
        std::lock_guard<std::mutex> Lock(StatsMutex);
        ++Stats.IdleDrops;
        continue;
      }
      if (C.Conn.CloseAfterFlush && !C.Conn.writePending())
        C.Dead = true;
      // Draining: once a connection has nothing left in flight and its
      // responses are flushed, it is done.
      if (Draining && C.InFlight.empty() && !C.Conn.writePending())
        C.Dead = true;
    }
    if (NumPolled > 0)
      RotateStart = (RotateStart + 1) % NumPolled;

    // -- Drain budget failsafe ---------------------------------------------
    if (Draining) {
      double Elapsed =
          std::chrono::duration<double>(Now - DrainStartedAt).count();
      if (Elapsed > Options.DrainBudgetSeconds +
                        Options.DrainFlushSlackSeconds) {
        // Budget and slack exhausted: force-close whatever is left. The
        // jobs themselves were already deadline-armed and resolve inside
        // the service; their results are simply undeliverable.
        for (auto &C : Clients)
          C->Dead = true;
      }
    }

    // -- Remove dead connections ------------------------------------------
    size_t Removed = 0;
    for (auto It = Clients.begin(); It != Clients.end();) {
      if (!(*It)->Dead) {
        ++It;
        continue;
      }
      // Votes from a departed client free its queue slots early; jobs
      // shared with other clients keep running (votes are per handle).
      for (auto &Entry : (*It)->InFlight)
        Entry.second.cancel();
      It = Clients.erase(It);
      ++Removed;
    }
    if (Removed > 0) {
      RotateStart = 0;
      std::lock_guard<std::mutex> Lock(StatsMutex);
      Stats.Disconnected += Removed;
    }

    if (Draining && Clients.empty())
      break;
  }

  // Everything transport-side is torn down; drain the service itself.
  // With a cache file configured this is what persists the snapshot.
  Service.shutdown(/*Drain=*/true);
  drainCompletions(); // late resolutions are orphans, but must not leak
  return Status::success();
}
