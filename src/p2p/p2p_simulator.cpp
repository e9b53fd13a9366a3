#include "p2p/p2p_simulator.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

namespace sesp {

namespace {

// In-flight / delivered-but-unreceived gossip payloads, as a MsgId-indexed
// slot arena (docs/performance.md "Data layout"). Payload slots are
// released when a message is received and reassigned to later sends;
// because reassignment copy-assigns into the retired Knowledge, its entry
// buffer's capacity is reused — the steady state allocates nothing, where
// the old std::map<MsgId, Knowledge> paid a node allocation plus a fresh
// Knowledge copy per message sent.
class PayloadArena {
 public:
  enum : std::uint8_t { kNone = 0, kInFlight = 1, kBuffered = 2 };

  std::uint8_t state(MsgId id) const noexcept {
    return id >= 0 && static_cast<std::size_t>(id) < state_.size()
               ? state_[static_cast<std::size_t>(id)]
               : static_cast<std::uint8_t>(kNone);
  }

  void send(MsgId id, const Knowledge& payload) {
    const auto i = static_cast<std::size_t>(id);
    if (i >= state_.size()) {
      state_.resize(i + 1, kNone);
      slot_of_.resize(i + 1, -1);
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = payload;  // reuses the retired Knowledge's capacity
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(payload);
    }
    slot_of_[i] = static_cast<std::int32_t>(slot);
    state_[i] = kInFlight;
  }

  void mark_delivered(MsgId id) noexcept {
    state_[static_cast<std::size_t>(id)] = kBuffered;
  }

  const Knowledge& payload(MsgId id) const noexcept {
    return slots_[static_cast<std::size_t>(
        slot_of_[static_cast<std::size_t>(id)])];
  }

  void release(MsgId id) noexcept {
    const auto i = static_cast<std::size_t>(id);
    free_.push_back(static_cast<std::uint32_t>(slot_of_[i]));
    slot_of_[i] = -1;
    state_[i] = kNone;
  }

 private:
  std::vector<std::uint8_t> state_;    // MsgId -> lifecycle state
  std::vector<std::int32_t> slot_of_;  // MsgId -> slot (-1 when kNone)
  std::vector<Knowledge> slots_;
  std::vector<std::uint32_t> free_;
};

}  // namespace

P2pSimulator::P2pSimulator(const ProblemSpec& spec,
                           const TimingConstraints& constraints,
                           const Topology& topology,
                           const P2pAlgorithmFactory& factory,
                           StepScheduler& scheduler, DelayStrategy& delays,
                           FaultInjector* faults, obs::Observer* observer)
    : spec_(spec),
      constraints_(constraints),
      topology_(topology),
      factory_(factory),
      scheduler_(scheduler),
      delays_(delays),
      faults_(faults),
      observer_(observer) {}


P2pRunResult P2pSimulator::run(const RunLimits& limits) {
  const std::int32_t n = spec_.n;
  sim::EventKernel<P2pRunResult> k(
      "p2p.run",
      [&] {
        return obs::args_object(
            {obs::arg_int("n", n), obs::arg_int("s", spec_.s)});
      },
      observer_, limits, scheduler_, faults_, &delays_);
  P2pRunResult result{TimedComputation(Substrate::kMessagePassing,
                                       std::max(n, 0), std::max(n, 0)),
                      false,
                      false,
                      0,
                      0,
                      topology_.num_nodes() == n ? topology_.diameter() : 0,
                      std::nullopt,
                      {}};
  if (n <= 0 || topology_.num_nodes() != n || !topology_.connected())
    return k.reject(std::move(result),
                    "topology must have n=" + std::to_string(n) +
                        " connected nodes (has " +
                        std::to_string(topology_.num_nodes()) + ")");
  TimedComputation& trace = result.trace;

  std::vector<std::unique_ptr<P2pAlgorithm>> algs;
  algs.reserve(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p)
    algs.push_back(factory_.create(p, spec_, constraints_));

  // Accumulated gossip view per process, and in-flight message payloads.
  std::vector<Knowledge> view(static_cast<std::size_t>(n));
  PayloadArena payloads;

  // A step merges the payloads delivered to p into its view, runs the
  // algorithm, and gossips the full view to every neighbour.
  const auto step = [&](ProcessId p, const Time& t) {
    const auto pi = static_cast<std::size_t>(p);
    // The step is appended after the algorithm runs (its idle flag is part
    // of the record), so its index is the prospective one.
    const std::size_t step_index = trace.steps().size();
    std::vector<MsgId>& buf = k.pending(p);
    for (const MsgId id : buf) {
      view[pi].merge(payloads.payload(id));
      payloads.release(id);
      trace.mutable_messages()[static_cast<std::size_t>(id)].receive_step =
          step_index;
    }
    buf.clear();

    P2pAlgorithm& alg = *algs[pi];
    alg.on_step(view[pi]);
    const PortInfo own = alg.advertised();
    view[pi].record(p, own);
    const bool idle = alg.is_idle();

    StepRecord& st = trace.append_slot();
    st.kind = StepKind::kCompute;
    st.process = p;
    st.time = t;
    st.port = p;  // every step of a port process involves its buf
    st.idle_after = idle;

    for (const ProcessId q : topology_.neighbors(p))
      k.send(p, q, own, t, [&](MsgId id) { payloads.send(id, view[pi]); });
    return idle;
  };
  // A delivery must carry a payload that is still in flight.
  const auto accept = [&](MsgId id, const Time& t) {
    if (payloads.state(id) == PayloadArena::kInFlight) {
      payloads.mark_delivered(id);
      return true;
    }
    k.fail(SimErrorCode::kUnknownMessage, "deliver of message not in transit",
           t)
        .message = id;
    return false;
  };
  k.run(result, step, accept, [&] {
    return obs::args_object(
        {obs::arg_int("n", n), obs::arg_int("s", spec_.s),
         obs::arg_int("steps", result.compute_steps),
         obs::arg_int("messages", result.messages_sent),
         obs::arg_int("diameter", result.diameter),
         obs::arg_int("completed", result.completed ? 1 : 0)});
  });
  return result;
}

}  // namespace sesp
