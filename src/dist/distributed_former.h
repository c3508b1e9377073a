// Sharded greedy team formation: the coordinator side.
//
// DistributedFormer partitions the holder universe across S shard workers
// (ShardPlan + ShardWorker, threads-as-shards over InProcessTransport) and
// runs Algorithm 2's seed loop as broadcast/gather rounds. Seeds are
// independent until the final argmin, so the coordinator cuts them, in
// seed order, into waves of up to kWaveSeeds and runs each wave through
// the shared completion loop (CompleteSeeds, src/team/greedy_step.h).
// Its user selection for a round is one message round: the coordinator
// broadcasts one kEvalStep carrying every live seed's team delta and skill
// to fill, each worker evaluates its local candidates for all of them and
// answers once, and each seed's per-shard bests are merged with the global
// order-fixed tie-break — minimum score then minimum id for kMinDistance,
// maximum score then minimum id for kMostCompatible — which reproduces the
// single-node path's first-strict-improvement scan over the ascending
// global candidate list. The RANDOM policy gathers local candidate counts,
// draws each seed's rank from the same per-seed forked rng stream the
// single-node path consumes, and resolves every seed's k-th smallest
// candidate id by bisections in lockstep, one kCountLe round per level.
// After the last wave one kCostEval round scores every completed team.
//
// The contract: Form() is *bit-identical* to GreedyTeamFormer::Form for
// every SkillPolicy x UserPolicy x CompatKind and every shard count,
// including rng stream consumption, or it returns a typed error — never a
// different team. Coordinator traffic per seed-step is O(S * team_size);
// the row data plane (worker-to-worker slices) scales with the universe
// but never touches the coordinator.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "src/compat/compatibility.h"
#include "src/compat/skill_index.h"
#include "src/dist/shard_plan.h"
#include "src/dist/shard_worker.h"
#include "src/dist/transport.h"
#include "src/skills/skills.h"
#include "src/team/greedy.h"
#include "src/team/greedy_step.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace tfsn {

/// Configuration of the sharded engine (on top of GreedyParams).
struct DistOptions {
  /// Number of shard workers (>= 1).
  uint32_t num_shards = 2;
  /// Read by nothing: the hash plan is the only plan.
  ShardStrategy strategy = ShardStrategy::kHash;
  /// Per-worker oracle factory; every worker must get an equivalently
  /// configured oracle (see OracleFactoryFor for the common case).
  OracleFactory oracle_factory;
  /// Bound on every coordinator gather and worker slice wait (ms). Under
  /// fault injection this is how long a lost message takes to surface as
  /// a typed DeadlineExceeded.
  int64_t recv_timeout_ms = 10'000;
};

/// The standard per-worker oracle factory: MakeOracle(graph, kind, params).
inline OracleFactory OracleFactoryFor(CompatKind kind,
                                      OracleParams params = {}) {
  return [kind, params](const SignedGraph& g) {
    return MakeOracle(g, kind, params);
  };
}

/// Communication accounting for one Form() call.
struct FormCommStats {
  /// Seed-steps coordinated: one per live seed per wave round — the
  /// number of user selections the single-node path makes.
  uint64_t steps = 0;
  /// Broadcast + gather cycles: wave rounds, RANDOM bisection rounds, and
  /// the final cost gather.
  uint64_t rounds = 0;
  /// Transport traffic attributable to this call (ledger delta).
  CommStats comm;
};

/// Coordinator + worker fleet bound to one (graph, skills, relation,
/// params) configuration. Construction spawns one thread per shard;
/// destruction closes the transport and joins them. Form() is serial —
/// one formation at a time, called from one thread.
class DistributedFormer {
 public:
  /// `index` is required when skill_policy == kLeastCompatible (it is
  /// consulted only by the coordinator). All referees must outlive the
  /// former.
  DistributedFormer(const SignedGraph& graph, const SkillAssignment& skills,
                    const SkillCompatibilityIndex* index, GreedyParams params,
                    DistOptions options);
  ~DistributedFormer();

  DistributedFormer(const DistributedFormer&) = delete;
  DistributedFormer& operator=(const DistributedFormer&) = delete;

  /// Runs Algorithm 2 across the shards. Bit-identical to
  /// GreedyTeamFormer::Form(task, rng) on success; a typed error (the
  /// failing shard's Status, or DeadlineExceeded/Unavailable from the
  /// transport) when any shard fails — never a wrong team. `comm`, when
  /// non-null, receives this call's message accounting.
  Result<TeamResult> Form(const Task& task, Rng* rng,
                          FormCommStats* comm = nullptr);

  const ShardPlan& plan() const { return plan_; }
  const GreedyParams& params() const { return params_; }

  /// Cumulative transport ledger (all Form calls so far).
  CommStats comm_stats() const { return transport_->stats(); }

  /// Messages still queued in the transport (0 at quiescence; the
  /// accounting-identity check `sent == delivered + pending` uses this).
  uint64_t pending_messages() const { return transport_->PendingMessages(); }

 private:
  Status Broadcast(Message msg);
  void AbortRun(uint32_t run);

  /// Collects one reply of type `want` from every shard for epoch (run,
  /// wave, round); stale or unexpected messages are dropped. A reply
  /// carrying a non-OK status, or a bounded-wait expiry, fails the gather.
  Result<std::vector<Message>> Gather(uint32_t run, uint32_t wave,
                                      uint32_t round, MsgType want);

  /// CompleteSeeds' user selection for round `round` of wave `wave`: one
  /// kEvalStep broadcast, gather and merge (plus the RANDOM bisection
  /// rounds) picks a user for every live seed. `rngs` are the wave's
  /// per-seed streams (RANDOM only, else empty). A Status only on
  /// shard/transport failure.
  Status SelectUsers(uint32_t run, uint32_t wave, uint32_t round,
                     std::span<const SeedStep> live, std::span<Rng> rngs,
                     std::span<NodeId> picks, FormCommStats* acc);

  /// RANDOM policy: draws each live seed's rank from its stream and
  /// resolves it to the global candidate id (left kInvalidNode for a seed
  /// without candidates) in *picks.
  Status PickRandom(uint32_t run, uint32_t wave, uint32_t round,
                    std::span<const SeedStep> live, std::span<Rng> rngs,
                    const std::vector<Message>& replies,
                    std::span<NodeId> picks, FormCommStats* acc);

  /// Final cost gather: assembles each team's directed distance matrix
  /// from the owners' rows and evaluates (cost, objective) with the exact
  /// single-node loops (SBPH min-closure included).
  Status EvalCosts(uint32_t run, uint32_t wave,
                   std::vector<TeamResult>* teams, FormCommStats* acc);

  const SignedGraph& graph_;
  const SkillAssignment& skills_;
  const SkillCompatibilityIndex* index_;
  const GreedyParams params_;
  const DistOptions options_;
  ShardPlan plan_;
  /// Relation kind of the workers' oracles (probed from the factory at
  /// construction); drives the SBPH min-closure in EvalCosts.
  bool sbph_ = false;
  std::unique_ptr<InProcessTransport> transport_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;
  std::vector<std::thread> threads_;
  uint32_t run_counter_ = 0;
};

}  // namespace tfsn
