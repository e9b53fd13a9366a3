#include "smm/smm_simulator.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace sesp {

std::int32_t smm_total_processes(std::int32_t n, std::int32_t b) {
  return n + TreeNetwork::shape(n, std::max(b, 2)).num_relays;
}

SmmSimulator::SmmSimulator(const ProblemSpec& spec,
                           const TimingConstraints& constraints,
                           const SmmAlgorithmFactory& factory,
                           StepScheduler& scheduler, FaultInjector* faults,
                           obs::Observer* observer)
    : spec_(spec),
      constraints_(constraints),
      factory_(factory),
      scheduler_(scheduler),
      faults_(faults),
      observer_(observer) {}

SmmRunResult SmmSimulator::run(const RunLimits& limits) {
  const std::int32_t n = spec_.n;
  sim::EventKernel<SmmRunResult> k(
      "smm.run",
      [&] {
        return obs::args_object({obs::arg_int("n", n),
                                 obs::arg_int("s", spec_.s),
                                 obs::arg_int("b", spec_.b)});
      },
      observer_, limits, scheduler_, faults_);
  if (n <= 0 || (n > 1 && spec_.b < 2))
    return k.reject(
        SmmRunResult{TimedComputation(Substrate::kSharedMemory,
                                      std::max(n, 0), std::max(n, 0)),
                     false, false, 0, 0, 0, 0, std::nullopt, {}},
        "SMM needs n >= 1 and b >= 2, got n=" + std::to_string(n) +
            " b=" + std::to_string(spec_.b));
  SharedMemory mem(std::max(spec_.b, 1));

  // Port variables: accessed only by their port process, so any b works.
  std::vector<VarId> port_var(static_cast<std::size_t>(n));
  // Scratch variables stand in when an algorithm asks for a tree access but
  // no tree exists (n == 1): the step still accesses exactly one variable
  // without becoming a port step.
  std::vector<VarId> scratch_var(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) {
    port_var[static_cast<std::size_t>(p)] =
        mem.create_var({p}, "port" + std::to_string(p));
    scratch_var[static_cast<std::size_t>(p)] =
        mem.create_var({p}, "scratch" + std::to_string(p));
  }

  TreeNetwork tree(n, std::max(spec_.b, 2), mem, n);
  const std::int32_t total = n + tree.num_relays();

  SmmRunResult result{TimedComputation(Substrate::kSharedMemory, total, n),
                      false,
                      false,
                      0,
                      tree.num_relays(),
                      tree.depth(),
                      tree.latency_steps_bound(),
                      std::nullopt,
                      {}};
  TimedComputation& trace = result.trace;
  // Pre-size the step log to the budget (SMM traces carry no messages), so
  // budget-bounded runs never pay the log's geometric reallocations; capped
  // so unbounded budgets stay lazy (docs/performance.md "Data layout").
  if (limits.max_steps > 0)
    trace.reserve(static_cast<std::size_t>(std::min<std::int64_t>(
                      limits.max_steps + total, std::int64_t{1} << 18)),
                  0);

  std::vector<std::unique_ptr<SmmPortAlgorithm>> algs;
  algs.reserve(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p)
    algs.push_back(factory_.create(p, spec_, constraints_));

  // Relay gossip state: accumulated knowledge and rotation position.
  std::vector<Knowledge> relay_knowledge(
      static_cast<std::size_t>(tree.num_relays()));
  std::vector<std::size_t> relay_pos(
      static_cast<std::size_t>(tree.num_relays()), 0);
  // Per (relay, rotation slot): the (variable, relay) content stamps after
  // the last gossip exchange there. Matching stamps prove the exchange
  // would join two unchanged values again — a no-op — and skip it; once a
  // livelocked run saturates its subtree's knowledge, every relay visit
  // takes this skip (Knowledge::stamp()).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      relay_memo(static_cast<std::size_t>(tree.num_relays()));
  for (std::size_t r = 0; r < relay_memo.size(); ++r)
    relay_memo[r].assign(tree.relays()[r].rotation.size(),
                         {Knowledge::kNoStamp, Knowledge::kNoStamp});

  obs::Observer* const o = k.observer();
  obs::Counter* const c_shared_reads = o ? o->shared_reads : nullptr;
  obs::Counter* const c_shared_writes = o ? o->shared_writes : nullptr;
  // Write corruption: the read-modify-write loses the variable's previous
  // contents (lost update) before the step's own write.
  const auto corrupt = [&](VarId v, ProcessId p, const Time& t,
                           Knowledge& value) {
    if (faults_ && faults_->corrupt_write(v, p, t)) {
      obs::observe_fault(o, "corrupt", p, t);
      value = Knowledge{};
    }
  };

  // A step is one atomic read-modify-write of one shared variable: a port
  // process accesses its port variable or its tree uplink, a relay gossips
  // with the next variable of its rotation. Relays never idle.
  const auto step = [&](ProcessId p, const Time& t) {
    const auto pi = static_cast<std::size_t>(p);
    StepRecord& st = trace.append_slot();
    st.kind = StepKind::kCompute;
    st.process = p;
    st.time = t;

    bool idle = false;
    if (p < n) {
      SmmPortAlgorithm& alg = *algs[pi];
      const SmmChoice choice = alg.choose();
      if (choice == SmmChoice::kPort) {
        const VarId v = port_var[pi];
        Knowledge& value = mem.access(v, p);
        st.var = v;
        st.port = p;
        st.value_before_digest = value.digest();
        alg.on_port_access();
        // The port variable's content is immaterial to the algorithms, but
        // a write is recorded so reorderings see a real mutation point.
        value.record(p, alg.advertised());
        st.value_after_digest = value.digest();
      } else {
        VarId v = tree.uplink(p);
        if (v == kNoVar) v = scratch_var[pi];
        Knowledge& value = mem.access(v, p);
        st.var = v;
        st.value_before_digest = value.digest();
        corrupt(v, p, t, value);
        value.record(p, alg.advertised());
        alg.on_tree_snapshot(value);
        st.value_after_digest = value.digest();
      }
      idle = alg.is_idle();
      st.idle_after = idle;
    } else {
      const auto r = static_cast<std::size_t>(p - n);
      const RelaySpec& spec = tree.relays()[r];
      const std::size_t slot = relay_pos[r] % spec.rotation.size();
      const VarId v = spec.rotation[slot];
      ++relay_pos[r];
      Knowledge& value = mem.access(v, p);
      st.var = v;
      st.value_before_digest = value.digest();
      corrupt(v, p, t, value);
      auto& memo = relay_memo[r][slot];
      if (memo.first != value.stamp() ||
          memo.second != relay_knowledge[r].stamp()) {
        Knowledge::exchange(value, relay_knowledge[r]);
        memo = {value.stamp(), relay_knowledge[r].stamp()};
      }
      st.value_after_digest = value.digest();
    }
    if (c_shared_reads) {
      c_shared_reads->inc();
      c_shared_writes->inc();
    }
    return idle;
  };
  k.run(result, step, sim::NoDeliveries{}, [&] {
    return obs::args_object(
        {obs::arg_int("n", n), obs::arg_int("s", spec_.s),
         obs::arg_int("b", spec_.b),
         obs::arg_int("steps", result.compute_steps),
         obs::arg_int("relays", result.num_relays),
         obs::arg_int("completed", result.completed ? 1 : 0)});
  });
  return result;
}

}  // namespace sesp
