// Tests for the sharded formation engine (src/dist/): the partition plan,
// the wire codec, the transport ledger, and the engine's core contract —
// DistributedFormer::Form is bit-identical to GreedyTeamFormer::Form for
// every SkillPolicy x UserPolicy x CompatKind at every shard count, with
// identical rng stream consumption, or it fails with a typed Status (never
// a different team). Fault-matrix rows for the three dist.* injection
// points compile only in -DTFSN_FAULTS=ON builds (ctest label "faults" via
// the dist_fault_matrix registration); the transport hammer is the suite's
// TSan target.

#include "src/dist/distributed_former.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/compat/skill_index.h"
#include "src/compat/threshold.h"
#include "src/gen/generators.h"
#include "src/skills/skill_generator.h"
#include "src/team/greedy_step.h"
#include "src/util/fault_injection.h"
#include "src/util/fnv1a.h"
#include "src/util/rng.h"

namespace tfsn {
namespace {

struct Instance {
  SignedGraph graph;
  SkillAssignment skills;
};

Instance MakeInstance(uint32_t n, uint64_t edges, double neg_fraction,
                      uint32_t num_skills, uint64_t seed) {
  Rng rng(seed);
  Instance inst{RandomConnectedGnm(n, edges, neg_fraction, &rng), {}};
  ZipfSkillParams sp;
  sp.num_skills = num_skills;
  inst.skills = ZipfSkills(n, sp, &rng);
  return inst;
}

void ExpectSameResult(const TeamResult& a, const TeamResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.found, b.found) << what;
  EXPECT_EQ(a.members, b.members) << what;
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.seeds_tried, b.seeds_tried) << what;
  EXPECT_EQ(a.seeds_succeeded, b.seeds_succeeded) << what;
}

/// One FNV-1a digest over everything observable in a result.
uint64_t ResultDigest(const TeamResult& r) {
  Fnv1a digest;
  digest.Mix(r.found ? 1 : 0);
  digest.Mix(r.cost);
  digest.Mix(r.objective);
  digest.Mix(r.seeds_tried);
  digest.Mix(r.seeds_succeeded);
  for (NodeId m : r.members) digest.Mix(m);
  return digest.digest();
}

// ---------------------------------------------------------------------------
// ShardPlan
// ---------------------------------------------------------------------------

TEST(ShardPlanTest, PartitionsEveryNodeExactlyOnce) {
  for (uint32_t num_shards : {1u, 3u, 8u, 13u}) {
    ShardPlan plan(100, num_shards);
    std::vector<uint32_t> owner_count(100, 0);
    for (uint32_t s = 0; s < num_shards; ++s) {
      std::vector<NodeId> owned = plan.OwnedNodes(s);
      EXPECT_TRUE(std::is_sorted(owned.begin(), owned.end()));
      for (NodeId u : owned) {
        ASSERT_LT(u, 100u);
        EXPECT_EQ(plan.ShardOf(u), s);
        ++owner_count[u];
      }
    }
    for (NodeId u = 0; u < 100; ++u) {
      EXPECT_EQ(owner_count[u], 1u) << "S=" << num_shards << " node " << u;
    }
    // Pure function of the inputs: an independently built plan agrees.
    ShardPlan replica(100, num_shards);
    for (NodeId u = 0; u < 100; ++u) {
      EXPECT_EQ(replica.ShardOf(u), plan.ShardOf(u));
    }
  }
}

TEST(ShardPlanTest, MoreShardsThanNodesLeavesTrailingShardsEmpty) {
  ShardPlan plan(3, 8);
  size_t total = 0;
  for (uint32_t s = 0; s < 8; ++s) total += plan.OwnedNodes(s).size();
  EXPECT_EQ(total, 3u);
}

// ---------------------------------------------------------------------------
// Message codec
// ---------------------------------------------------------------------------

std::vector<Message> SampleMessages() {
  std::vector<Message> msgs;
  {
    Message m;
    m.type = MsgType::kFormBegin;
    m.src = 4;
    m.run = 7;
    m.task_skills = {3, 1, 9};
    m.user_policy = 2;
    m.pool_cap = 256;
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kEvalStep;
    m.src = 4;
    m.run = 7;
    m.wave = 1;
    m.round = 5;
    m.seeds = {64, 66, 127};
    m.new_members = {42, 17, 42};
    m.skills = {3, 9, 1};
    m.rest_counts = {2, 0, 1};
    m.rest = {1, 9, 3};
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kCandidateReply;
    m.src = 1;
    m.run = 7;
    m.wave = 1;
    m.round = 5;
    m.counts = {11, 0, 2};
    m.best_ids = {17, kInvalidNode, 5};
    m.best_scores = {3, 0, 1ULL << 40};
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kRowSlice;
    m.src = 0;
    m.run = 7;
    m.wave = 1;
    m.round = 5;
    m.members = {42, 17};
    m.slice_comp = {0xdeadbeefULL, 0x1ULL};
    m.slice_dist = {1, 2, kUnreachable, 0};
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kCountLe;
    m.src = 4;
    m.run = 7;
    m.seeds = {0, 3};
    m.args = {63, 1999};
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kCountReply;
    m.src = 2;
    m.run = 7;
    m.counts = {4, 0};
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kCostEval;
    m.src = 4;
    m.run = 7;
    m.wave = 3;
    m.team = {5, 9, 2, 8, 11};
    m.team_sizes = {2, 3};
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kCostReply;
    m.src = 2;
    m.run = 7;
    m.wave = 3;
    m.members = {5, 9};
    m.dists = {0, 1, 3, 1, 0, 2};
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kAbort;
    m.src = 4;
    m.run = 7;
    msgs.push_back(m);
  }
  {
    Message m;
    m.type = MsgType::kCandidateReply;
    m.src = 3;
    m.run = 7;
    m.status = StatusCode::kDeadlineExceeded;
    m.error = "row slice from shard 1 never arrived";
    msgs.push_back(m);
  }
  return msgs;
}

TEST(MessageCodecTest, RoundTripsEveryType) {
  for (const Message& m : SampleMessages()) {
    const std::vector<uint8_t> bytes = EncodeMessage(m);
    Message got;
    ASSERT_TRUE(DecodeMessage(bytes, &got)) << MsgTypeName(m.type);
    EXPECT_EQ(got.type, m.type);
    EXPECT_EQ(got.src, m.src);
    EXPECT_EQ(got.run, m.run);
    EXPECT_EQ(got.wave, m.wave);
    EXPECT_EQ(got.round, m.round);
    EXPECT_EQ(got.status, m.status);
    EXPECT_EQ(got.error, m.error);
    EXPECT_EQ(got.task_skills, m.task_skills);
    EXPECT_EQ(got.user_policy, m.user_policy);
    EXPECT_EQ(got.pool_cap, m.pool_cap);
    EXPECT_EQ(got.seeds, m.seeds);
    EXPECT_EQ(got.new_members, m.new_members);
    EXPECT_EQ(got.skills, m.skills);
    EXPECT_EQ(got.rest_counts, m.rest_counts);
    EXPECT_EQ(got.rest, m.rest);
    EXPECT_EQ(got.args, m.args);
    EXPECT_EQ(got.counts, m.counts);
    EXPECT_EQ(got.best_ids, m.best_ids);
    EXPECT_EQ(got.best_scores, m.best_scores);
    EXPECT_EQ(got.members, m.members);
    EXPECT_EQ(got.slice_comp, m.slice_comp);
    EXPECT_EQ(got.slice_dist, m.slice_dist);
    EXPECT_EQ(got.team, m.team);
    EXPECT_EQ(got.team_sizes, m.team_sizes);
    EXPECT_EQ(got.dists, m.dists);
  }
}

TEST(MessageCodecTest, TruncationAndGarbageNeverCrash) {
  for (const Message& m : SampleMessages()) {
    const std::vector<uint8_t> bytes = EncodeMessage(m);
    for (size_t len = 0; len < bytes.size(); ++len) {
      Message got;
      EXPECT_FALSE(DecodeMessage(std::span(bytes.data(), len), &got))
          << MsgTypeName(m.type) << " prefix " << len;
    }
    // Trailing garbage is malformed too: a frame is exactly one message.
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0xff);
    Message got;
    EXPECT_FALSE(DecodeMessage(padded, &got));
  }
  // Fuzz-ish: deterministic garbage of every small length.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> junk(rng.NextBounded(64));
    for (uint8_t& b : junk) b = static_cast<uint8_t>(rng.NextBounded(256));
    Message got;
    DecodeMessage(junk, &got);  // any result is fine; no crash, no UB
  }
}

TEST(MessageCodecTest, RetiredTypeBytesAreMalformed) {
  // The type byte has gaps at 7 and 8 (retired kinds); a frame that
  // carries one is refused, whatever follows the type byte.
  Message m;
  m.type = MsgType::kCountLe;
  m.src = 4;
  m.run = 7;
  m.seeds = {0, 3};
  m.args = {63, 1999};
  std::vector<uint8_t> bytes = EncodeMessage(m);
  Message got;
  ASSERT_TRUE(DecodeMessage(bytes, &got));
  for (const uint8_t retired : {7, 8}) {
    bytes[0] = retired;
    EXPECT_FALSE(DecodeMessage(bytes, &got)) << int{retired};
  }
}

TEST(MessageCodecTest, MutatedEncodingsDecodeInBoundsAndReencodeExactly) {
  // Seeded mutations of a valid encoding of every message type: bit
  // flips, truncations and inserted bytes. The decoder must stay in
  // bounds (the ASan job runs this), and whatever it accepts must be the
  // one encoding of what it decoded.
  Rng rng(2718);
  size_t accepted = 0;
  for (const Message& m : SampleMessages()) {
    const std::vector<uint8_t> valid = EncodeMessage(m);
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<uint8_t> bytes = valid;
      const uint64_t edits = 1 + rng.NextBounded(3);
      for (uint64_t e = 0; e < edits && !bytes.empty(); ++e) {
        switch (rng.NextBounded(3)) {
          case 0:  // flip one bit
            bytes[rng.NextBounded(bytes.size())] ^=
                static_cast<uint8_t>(1u << rng.NextBounded(8));
            break;
          case 1:  // truncate
            bytes.resize(rng.NextBounded(bytes.size()));
            break;
          default:  // insert a byte
            bytes.insert(bytes.begin() + rng.NextBounded(bytes.size() + 1),
                         static_cast<uint8_t>(rng.NextBounded(256)));
            break;
        }
      }
      Message got;
      if (!DecodeMessage(bytes, &got)) continue;
      ++accepted;
      EXPECT_EQ(EncodeMessage(got), bytes)
          << MsgTypeName(m.type) << " trial " << trial;
    }
  }
  // Flips inside array payloads keep the frame valid, so some mutants
  // must decode: the re-encoding check is not vacuous.
  EXPECT_GT(accepted, 0u);
}

// ---------------------------------------------------------------------------
// Bit-identity vs the single-node former
// ---------------------------------------------------------------------------

GreedyParams PolicyParams(SkillPolicy sp, UserPolicy up) {
  GreedyParams p;
  p.skill_policy = sp;
  p.user_policy = up;
  return p;
}

DistOptions Options(uint32_t shards, CompatKind kind,
                    OracleParams oracle_params = {}) {
  DistOptions o;
  o.num_shards = shards;
  o.oracle_factory = OracleFactoryFor(kind, oracle_params);
  return o;
}

TEST(DistIdentityTest, BitIdenticalAcrossShardCountsPoliciesAndStrategies) {
  Instance inst = MakeInstance(60, 170, 0.25, 10, 101);
  for (CompatKind kind :
       {CompatKind::kSPM, CompatKind::kSBPH, CompatKind::kNNE}) {
    auto oracle = MakeOracle(inst.graph, kind);
    Rng index_rng(3);
    SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
    for (SkillPolicy sp :
         {SkillPolicy::kRarest, SkillPolicy::kLeastCompatible}) {
      for (UserPolicy up :
           {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
            UserPolicy::kRandom}) {
        GreedyTeamFormer reference(oracle.get(), inst.skills, &index,
                                   PolicyParams(sp, up));
        for (uint32_t shards : {1u, 2u, 3u, 8u}) {
          DistributedFormer dist(inst.graph, inst.skills, &index,
                                 PolicyParams(sp, up), Options(shards, kind));
          Rng task_rng(17);
          for (int trial = 0; trial < 3; ++trial) {
            Task task = RandomTask(inst.skills, 4, &task_rng);
            Rng rng_a(1000 + trial), rng_b(1000 + trial);
            const TeamResult want = reference.Form(task, &rng_a);
            const Result<TeamResult> got = dist.Form(task, &rng_b);
            ASSERT_TRUE(got.ok()) << got.status().ToString();
            const std::string what =
                std::string(CompatKindName(kind)) + "/" +
                SkillPolicyName(sp) + "/" + UserPolicyName(up) + "/S=" +
                std::to_string(shards);
            ExpectSameResult(*got, want, what);
            EXPECT_EQ(ResultDigest(*got), ResultDigest(want)) << what;
            // Identical rng stream consumption, not just identical teams.
            EXPECT_EQ(rng_a.Next(), rng_b.Next()) << what;
          }
        }
      }
    }
  }
}

TEST(DistIdentityTest, BitIdenticalForEveryCompatKind) {
  // The full relation sweep at one shard configuration (the policy x
  // shard-count sweep above covers the rest). kSBP gets a depth bound and
  // a sampled index to stay affordable, exactly like the view-path tests.
  Instance inst = MakeInstance(42, 116, 0.25, 12, 131);
  for (CompatKind kind : AllCompatKinds()) {
    OracleParams oracle_params;
    oracle_params.sbp.max_depth = 6;
    auto oracle = MakeOracle(inst.graph, kind, oracle_params);
    Rng index_rng(3);
    SkillCompatibilityIndex index(oracle.get(), inst.skills,
                                  kind == CompatKind::kSBP ? 12 : 0,
                                  &index_rng);
    GreedyTeamFormer reference(
        oracle.get(), inst.skills, &index,
        PolicyParams(SkillPolicy::kLeastCompatible, UserPolicy::kMinDistance));
    DistributedFormer dist(
        inst.graph, inst.skills, &index,
        PolicyParams(SkillPolicy::kLeastCompatible, UserPolicy::kMinDistance),
        Options(3, kind, oracle_params));
    Rng task_rng(19);
    for (int trial = 0; trial < 3; ++trial) {
      Task task = RandomTask(inst.skills, 4, &task_rng);
      Rng rng_a(2000 + trial), rng_b(2000 + trial);
      const TeamResult want = reference.Form(task, &rng_a);
      const Result<TeamResult> got = dist.Form(task, &rng_b);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResult(*got, want, CompatKindName(kind));
    }
  }
}

TEST(DistIdentityTest, ThresholdOracleFactorySupported) {
  Instance inst = MakeInstance(36, 90, 0.3, 8, 43);
  auto oracle = MakeThresholdOracle(inst.graph, 0.75);
  Rng index_rng(5);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  GreedyParams params =
      PolicyParams(SkillPolicy::kRarest, UserPolicy::kMinDistance);
  GreedyTeamFormer reference(oracle.get(), inst.skills, &index, params);
  DistOptions options;
  options.num_shards = 3;
  options.oracle_factory = [](const SignedGraph& g) {
    return MakeThresholdOracle(g, 0.75);
  };
  DistributedFormer dist(inst.graph, inst.skills, &index, params, options);
  Rng task_rng(9);
  for (int trial = 0; trial < 4; ++trial) {
    Task task = RandomTask(inst.skills, 4, &task_rng);
    Rng rng_a(3000 + trial), rng_b(3000 + trial);
    const Result<TeamResult> got = dist.Form(task, &rng_b);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResult(*got, reference.Form(task, &rng_a), "threshold");
  }
}

TEST(DistIdentityTest, SeedCapCostKindsAndPoolThinning) {
  Instance inst = MakeInstance(60, 170, 0.2, 8, 111);
  auto oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  Rng index_rng(4);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  for (CostKind cost_kind : {CostKind::kDiameter, CostKind::kSumOfPairs,
                             CostKind::kCenterStar}) {
    GreedyParams params = PolicyParams(SkillPolicy::kLeastCompatible,
                                       UserPolicy::kMostCompatible);
    params.max_seeds = 4;  // exercises coordinator-side seed sampling
    params.cost_kind = cost_kind;
    params.most_compatible_pool_cap = 5;  // forces the thinning branch
    GreedyTeamFormer reference(oracle.get(), inst.skills, &index, params);
    DistributedFormer dist(inst.graph, inst.skills, &index, params,
                           Options(3, CompatKind::kSPM));
    Rng task_rng(23);
    for (int trial = 0; trial < 4; ++trial) {
      Task task = RandomTask(inst.skills, 5, &task_rng);
      Rng rng_a(4000 + trial), rng_b(4000 + trial);
      const Result<TeamResult> got = dist.Form(task, &rng_b);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResult(*got, reference.Form(task, &rng_a),
                       CostKindName(cost_kind));
      EXPECT_EQ(rng_a.Next(), rng_b.Next()) << CostKindName(cost_kind);
    }
  }
}

TEST(DistIdentityTest, BitIdenticalAcrossSeedWaves) {
  // Every other instance here has fewer than kWaveSeeds seeds per task.
  // Here the first skill has more than two waves of holders, and not a
  // whole number of waves, so the last wave is ragged; the cap of 100
  // samples seeds across the first wave boundary. Under SPM every seed
  // completes; under DPE about half dead-end, leaving their waves early.
  constexpr uint32_t kNodes = 420;
  Rng rng(191);
  const SignedGraph graph =
      RandomConnectedGnm(kNodes, uint64_t{kNodes} * 3, 0.2, &rng);
  std::vector<std::vector<SkillId>> held(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) {
    for (SkillId s = 0; s < 4; ++s) {
      if (rng.NextBounded(100) < 36) held[v].push_back(s);
    }
  }
  Result<SkillAssignment> skills = SkillAssignment::Create(held, 4);
  ASSERT_TRUE(skills.ok());
  const Task task(std::vector<SkillId>{0, 1, 2, 3});
  uint32_t rarest = ~0u;
  for (SkillId s = 0; s < 4; ++s) {
    rarest = std::min(rarest, skills->Frequency(s));
  }
  ASSERT_GT(rarest, 2 * kWaveSeeds);
  ASSERT_NE(rarest % kWaveSeeds, 0u);

  for (CompatKind kind : {CompatKind::kSPM, CompatKind::kDPE}) {
    auto oracle = MakeOracle(graph, kind);
    for (UserPolicy up :
         {UserPolicy::kMinDistance, UserPolicy::kMostCompatible,
          UserPolicy::kRandom}) {
      for (uint32_t max_seeds : {0u, 100u}) {
        GreedyParams params = PolicyParams(SkillPolicy::kRarest, up);
        params.max_seeds = max_seeds;
        GreedyTeamFormer reference(oracle.get(), *skills, nullptr, params);
        Rng rng_a(7000 + max_seeds);
        const TeamResult want = reference.Form(task, &rng_a);
        const uint64_t want_next = rng_a.Next();
        ASSERT_EQ(want.seeds_tried, max_seeds == 0 ? rarest : max_seeds);
        for (uint32_t shards : {1u, 3u}) {
          const std::string what =
              std::string(CompatKindName(kind)) + "/" + UserPolicyName(up) +
              "/max_seeds=" + std::to_string(max_seeds) + "/S=" +
              std::to_string(shards);
          DistributedFormer dist(graph, *skills, nullptr, params,
                                 Options(shards, kind));
          Rng rng_b(7000 + max_seeds);
          FormCommStats comm;
          const Result<TeamResult> got = dist.Form(task, &rng_b, &comm);
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          ExpectSameResult(*got, want, what);
          EXPECT_EQ(ResultDigest(*got), ResultDigest(want)) << what;
          EXPECT_EQ(rng_b.Next(), want_next) << what;
          // A round carries the steps of a whole wave's live seeds.
          EXPECT_LT(comm.rounds, comm.steps) << what;
        }
      }
    }
  }
}

TEST(DistIdentityTest, RaggedAndEmptyShardsStayIdentical) {
  // More shards than nodes: most workers own a couple of interleaved ids
  // or nothing at all; the merge must not care.
  Instance inst = MakeInstance(10, 24, 0.2, 4, 77);
  auto oracle = MakeOracle(inst.graph, CompatKind::kNNE);
  Rng index_rng(6);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  GreedyParams params =
      PolicyParams(SkillPolicy::kRarest, UserPolicy::kMinDistance);
  GreedyTeamFormer reference(oracle.get(), inst.skills, &index, params);
  for (uint32_t shards : {8u, 16u}) {
    DistributedFormer dist(inst.graph, inst.skills, &index, params,
                           Options(shards, CompatKind::kNNE));
    Rng task_rng(13);
    for (int trial = 0; trial < 3; ++trial) {
      Task task = RandomTask(inst.skills, 3, &task_rng);
      Rng rng_a(5000 + trial), rng_b(5000 + trial);
      const Result<TeamResult> got = dist.Form(task, &rng_b);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResult(*got, reference.Form(task, &rng_a),
                       "S=" + std::to_string(shards));
    }
  }
}

TEST(DistIdentityTest, EmptyTaskReturnsEmptyFoundTeam) {
  Instance inst = MakeInstance(20, 50, 0.2, 5, 31);
  GreedyParams params =
      PolicyParams(SkillPolicy::kRarest, UserPolicy::kMinDistance);
  DistributedFormer dist(inst.graph, inst.skills, nullptr, params,
                         Options(2, CompatKind::kSPM));
  Rng rng(1);
  FormCommStats comm;
  const Result<TeamResult> got = dist.Form(Task(std::vector<SkillId>{}),
                                           &rng, &comm);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->found);
  EXPECT_TRUE(got->members.empty());
  EXPECT_EQ(comm.steps, 0u);
  EXPECT_EQ(comm.comm.messages_sent, 0u);
}

// ---------------------------------------------------------------------------
// Determinism and communication accounting
// ---------------------------------------------------------------------------

TEST(DistCommTest, RepeatedRunsAreDeterministicIncludingTraffic) {
  Instance inst = MakeInstance(50, 140, 0.25, 8, 121);
  auto oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  Rng index_rng(7);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  GreedyParams params =
      PolicyParams(SkillPolicy::kLeastCompatible, UserPolicy::kRandom);
  DistributedFormer dist(inst.graph, inst.skills, &index, params,
                         Options(3, CompatKind::kSPM));
  Rng task_rng(11);
  Task task = RandomTask(inst.skills, 4, &task_rng);

  TeamResult first;
  FormCommStats first_comm;
  for (int round = 0; round < 3; ++round) {
    Rng rng(42);
    FormCommStats comm;
    const Result<TeamResult> got = dist.Form(task, &rng, &comm);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (round == 0) {
      first = *got;
      first_comm = comm;
      EXPECT_GT(comm.steps, 0u);
      EXPECT_GT(comm.comm.control_bytes, 0u);
    } else {
      ExpectSameResult(*got, first, "round " + std::to_string(round));
      // The whole protocol replays byte-for-byte: same rounds, same
      // control and data traffic.
      EXPECT_EQ(comm.steps, first_comm.steps);
      EXPECT_EQ(comm.rounds, first_comm.rounds);
      EXPECT_EQ(comm.comm.messages_sent, first_comm.comm.messages_sent);
      EXPECT_EQ(comm.comm.control_bytes, first_comm.comm.control_bytes);
      EXPECT_EQ(comm.comm.data_bytes, first_comm.comm.data_bytes);
    }
  }
  // Quiescent accounting identity on the cumulative ledger.
  const CommStats total = dist.comm_stats();
  EXPECT_EQ(total.messages_sent,
            total.messages_delivered + dist.pending_messages());
  EXPECT_EQ(total.messages_dropped, 0u);
  EXPECT_EQ(total.messages_sent, total.control_messages + total.data_messages);
  EXPECT_EQ(total.bytes_sent, total.control_bytes + total.data_bytes);
}

TEST(DistCommTest, PerStepControlTrafficIndependentOfUniverseSize) {
  // Quadrupling the graph must not move per-step control bytes more than
  // noise, at every shard count (the data plane — row slices — is allowed
  // to grow).
  GreedyParams params =
      PolicyParams(SkillPolicy::kRarest, UserPolicy::kMinDistance);
  for (const uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("S=" + std::to_string(shards));
    double per_step_small = 0, per_step_large = 0;
    uint64_t data_small = 0, data_large = 0;
    for (const uint32_t n : {200u, 800u}) {
      Instance inst = MakeInstance(n, n * 3, 0.2, 10, 161);
      DistributedFormer dist(inst.graph, inst.skills, nullptr, params,
                             Options(shards, CompatKind::kSPM));
      Rng task_rng(29);
      uint64_t steps = 0, control = 0, data = 0;
      for (int trial = 0; trial < 4; ++trial) {
        Task task = RandomTask(inst.skills, 4, &task_rng);
        Rng rng(6000 + trial);
        FormCommStats comm;
        const Result<TeamResult> got = dist.Form(task, &rng, &comm);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        steps += comm.steps;
        control += comm.comm.control_bytes;
        data += comm.comm.data_bytes;
      }
      ASSERT_GT(steps, 0u);
      if (n == 200) {
        per_step_small = double(control) / double(steps);
        data_small = data;
      } else {
        per_step_large = double(control) / double(steps);
        data_large = data;
      }
    }
    EXPECT_LT(per_step_large, per_step_small * 1.5)
        << "coordinator traffic grew with n: " << per_step_small << " -> "
        << per_step_large << " bytes/step";
    // Sanity that the measurement isn't vacuous: the data plane does
    // grow. A single shard has no peers, so no data plane at all.
    if (shards > 1) {
      EXPECT_GT(data_large, data_small);
    }
  }
}

// ---------------------------------------------------------------------------
// Transport hammer (the suite's TSan target)
// ---------------------------------------------------------------------------

TEST(TransportHammerTest, ConcurrentSendRecvKeepsLedgerConsistent) {
  constexpr uint32_t kShards = 4;
  constexpr uint32_t kProducers = 6;
  constexpr uint32_t kPerProducer = 400;
  InProcessTransport transport(kShards);

  std::vector<std::atomic<uint64_t>> received(kShards + 1);
  for (auto& r : received) r = 0;
  std::vector<std::thread> consumers;
  for (uint32_t d = 0; d <= kShards; ++d) {
    consumers.emplace_back([&transport, &received, d] {
      Message m;
      while (transport.Recv(d, -1, &m).ok()) {
        received[d].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&transport, p] {
      for (uint32_t i = 0; i < kPerProducer; ++i) {
        Message m;
        m.type = MsgType::kCountLe;
        m.src = p % (kShards + 1);
        m.args = {uint64_t{p} << 32 | i};
        ASSERT_TRUE(transport.Send(m.src, (p + i) % (kShards + 1), m).ok());
      }
    });
  }
  for (std::thread& t : producers) t.join();
  transport.Close();
  for (std::thread& t : consumers) t.join();

  uint64_t total_received = 0;
  for (const auto& r : received) total_received += r.load();
  EXPECT_EQ(total_received, uint64_t{kProducers} * kPerProducer);
  const CommStats stats = transport.stats();
  EXPECT_EQ(stats.messages_sent, uint64_t{kProducers} * kPerProducer);
  EXPECT_EQ(stats.messages_delivered, stats.messages_sent);
  EXPECT_EQ(transport.PendingMessages(), 0u);
  EXPECT_EQ(stats.messages_dropped, 0u);
  EXPECT_EQ(stats.bytes_delivered, stats.bytes_sent);
}

TEST(TransportHammerTest, RecvTimesOutAndCloseDrainsBeforeUnavailable) {
  InProcessTransport transport(2);
  Message m;
  EXPECT_TRUE(transport.Recv(0, 30, &m).IsDeadlineExceeded());
  Message ping;
  ping.type = MsgType::kAbort;
  ping.src = 2;
  ASSERT_TRUE(transport.Send(2, 0, ping).ok());
  transport.Close();
  // The queued message is still delivered after Close; only then does the
  // mailbox report Unavailable. Sends fail once closed.
  EXPECT_TRUE(transport.Recv(0, -1, &m).ok());
  EXPECT_EQ(m.type, MsgType::kAbort);
  EXPECT_TRUE(transport.Recv(0, -1, &m).IsUnavailable());
  EXPECT_TRUE(transport.Send(2, 0, ping).IsUnavailable());
}

// ---------------------------------------------------------------------------
// ShardWorker wire validation
// ---------------------------------------------------------------------------

TEST(ShardWorkerTest, StepSkillOutsideTheTaskGetsTypedErrorReply) {
  Instance inst = MakeInstance(40, 100, 0.2, 8, 181);
  ASSERT_FALSE(inst.skills.Holders(0).empty());
  ShardPlan plan(inst.graph.num_nodes(), 1);
  InProcessTransport transport(1);
  ShardWorker worker(
      0, inst.graph, inst.skills, plan, &transport,
      [](const SignedGraph& g) { return MakeOracle(g, CompatKind::kSPM); },
      ShardWorkerOptions{});
  std::thread thread([&worker] { worker.Run(); });
  const uint32_t coordinator = transport.coordinator();

  Message begin;
  begin.type = MsgType::kFormBegin;
  begin.src = coordinator;
  begin.run = 1;
  begin.task_skills = {0, 1};
  begin.user_policy = static_cast<uint8_t>(UserPolicy::kMinDistance);
  ASSERT_TRUE(transport.Send(coordinator, 0, begin).ok());

  // Sends a step to the worker and waits for its reply.
  std::vector<Status> recv_status;
  std::vector<Message> replies;
  const auto exchange = [&](const Message& step) {
    ASSERT_TRUE(transport.Send(coordinator, 0, step).ok());
    Message reply;
    recv_status.push_back(transport.Recv(coordinator, 10'000, &reply));
    replies.push_back(reply);
  };
  Message step;
  step.type = MsgType::kEvalStep;
  step.src = coordinator;
  step.run = 1;
  step.seeds = {0};
  step.new_members = {inst.skills.Holders(0)[0]};
  step.skills = {5};  // a valid skill id, but not one of the run's task
  step.rest_counts = {0};
  exchange(step);
  // The worker keeps serving the run: the same step with a task skill
  // gets a normal reply.
  step.skills = {1};
  exchange(step);

  // A wave step whose per-seed arrays disagree in length, one naming a
  // seed outside its wave, and one naming a member outside the graph are
  // each refused as a whole...
  Message two = step;
  two.seeds = {0, 1};
  two.skills = {1, 1};
  two.rest_counts = {0, 0};
  exchange(two);  // one new member for two seeds
  Message outside = step;
  outside.seeds = {kWaveSeeds};
  exchange(outside);
  Message stranger = step;
  stranger.new_members = {inst.graph.num_nodes()};
  exchange(stranger);
  // ...and a valid wave step is still served.
  two.new_members = {inst.skills.Holders(0)[0], inst.skills.Holders(1)[0]};
  exchange(two);
  // The round's rank probes are checked the same way.
  Message probe;
  probe.type = MsgType::kCountLe;
  probe.src = coordinator;
  probe.run = 1;
  probe.seeds = {0, 1};
  probe.args = {7};  // one threshold for two seeds
  exchange(probe);
  probe.args = {7, 7};
  exchange(probe);
  transport.Close();
  thread.join();

  struct Want {
    MsgType type;
    size_t seeds;  // 0: refused with InvalidArgument
  };
  const std::vector<Want> wants = {
      {MsgType::kCandidateReply, 0}, {MsgType::kCandidateReply, 1},
      {MsgType::kCandidateReply, 0}, {MsgType::kCandidateReply, 0},
      {MsgType::kCandidateReply, 0}, {MsgType::kCandidateReply, 2},
      {MsgType::kCountReply, 0},     {MsgType::kCountReply, 2},
  };
  ASSERT_EQ(replies.size(), wants.size());
  for (size_t r = 0; r < replies.size(); ++r) {
    SCOPED_TRACE("reply " + std::to_string(r));
    ASSERT_TRUE(recv_status[r].ok()) << recv_status[r].ToString();
    const Message& reply = replies[r];
    EXPECT_EQ(reply.type, wants[r].type);
    if (wants[r].seeds == 0) {
      EXPECT_EQ(reply.status, StatusCode::kInvalidArgument);
      EXPECT_FALSE(reply.error.empty());
      EXPECT_TRUE(reply.counts.empty());
      EXPECT_TRUE(reply.best_ids.empty());
      continue;
    }
    EXPECT_EQ(reply.status, StatusCode::kOk);
    EXPECT_EQ(reply.counts.size(), wants[r].seeds);
    if (reply.type == MsgType::kCandidateReply) {
      EXPECT_EQ(reply.best_ids.size(), wants[r].seeds);
      EXPECT_EQ(reply.best_scores.size(), wants[r].seeds);
    }
  }
}

TEST(ShardWorkerTest, CostReplyNamesEveryOwnedRowInTeamOrder) {
  // The coordinator places each cost row by its own plan and checks the
  // member id sent with it, so the reply must list, team after team, each
  // member the worker owns, in team order, with its distances to the team.
  Instance inst = MakeInstance(40, 100, 0.2, 8, 181);
  ShardPlan plan(inst.graph.num_nodes(), 2);
  InProcessTransport transport(2);
  ShardWorker worker(
      0, inst.graph, inst.skills, plan, &transport,
      [](const SignedGraph& g) { return MakeOracle(g, CompatKind::kSPM); },
      ShardWorkerOptions{});
  std::thread thread([&worker] { worker.Run(); });
  const uint32_t coordinator = transport.coordinator();

  Message begin;
  begin.type = MsgType::kFormBegin;
  begin.src = coordinator;
  begin.run = 1;
  begin.task_skills = {0};
  ASSERT_TRUE(transport.Send(coordinator, 0, begin).ok());
  Message eval;
  eval.type = MsgType::kCostEval;
  eval.src = coordinator;
  eval.run = 1;
  eval.team = {0, 1, 2, 3, 1, 4, 5};  // two teams share member 1
  eval.team_sizes = {4, 3};
  ASSERT_TRUE(transport.Send(coordinator, 0, eval).ok());
  Message reply;
  const Status got = transport.Recv(coordinator, 10'000, &reply);
  transport.Close();
  thread.join();

  const auto oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  std::vector<NodeId> want_members;
  std::vector<uint32_t> want_dists;
  size_t at = 0;
  for (uint32_t size : eval.team_sizes) {
    for (size_t i = at; i < at + size; ++i) {
      const NodeId x = eval.team[i];
      if (plan.ShardOf(x) != 0) continue;
      want_members.push_back(x);
      const auto& row = oracle->GetRow(x);
      for (size_t j = at; j < at + size; ++j) {
        want_dists.push_back(x == eval.team[j] ? 0 : row.dist[eval.team[j]]);
      }
    }
    at += size;
  }
  // Both shards own members, so the reply is a strict part of the teams.
  ASSERT_FALSE(want_members.empty());
  ASSERT_LT(want_members.size(), eval.team.size());

  ASSERT_TRUE(got.ok()) << got.ToString();
  EXPECT_EQ(reply.type, MsgType::kCostReply);
  EXPECT_EQ(reply.status, StatusCode::kOk);
  EXPECT_EQ(reply.members, want_members);
  EXPECT_EQ(reply.dists, want_dists);
}

// ---------------------------------------------------------------------------
// Fault matrix: dist.send_drop / dist.recv_timeout / dist.worker_stall
// (compiled only in -DTFSN_FAULTS=ON builds; ctest label "faults")
// ---------------------------------------------------------------------------

#if defined(TFSN_FAULTS)

class DistFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().Reset(); }
  void TearDown() override { FaultRegistry::Instance().Reset(); }
};

TEST_F(DistFaultTest, EveryFaultDegradesToTypedErrorOrIdenticalTeam) {
  Instance inst = MakeInstance(40, 110, 0.25, 8, 171);
  auto oracle = MakeOracle(inst.graph, CompatKind::kSPM);
  Rng index_rng(3);
  SkillCompatibilityIndex index(oracle.get(), inst.skills, 0, &index_rng);
  GreedyParams params =
      PolicyParams(SkillPolicy::kLeastCompatible, UserPolicy::kMinDistance);
  GreedyTeamFormer reference(oracle.get(), inst.skills, &index, params);
  Rng task_rng(37);
  const Task task = RandomTask(inst.skills, 4, &task_rng);
  Rng ref_rng(7);
  const TeamResult want = reference.Form(task, &ref_rng);

  const std::vector<std::pair<std::string, std::string>> matrix = {
      {"dist.send_drop", "always"},
      {"dist.send_drop", "every:5"},
      {"dist.send_drop", "p:0.3:7"},
      {"dist.recv_timeout", "always"},
      {"dist.recv_timeout", "every:4"},
      {"dist.worker_stall", "always"},
      {"dist.worker_stall", "every:7"},
  };
  for (const auto& [point, schedule_text] : matrix) {
    SCOPED_TRACE(point + ":" + schedule_text);
    auto& reg = FaultRegistry::Instance();
    reg.Reset();
    FaultSchedule schedule;
    ASSERT_TRUE(FaultRegistry::ParseSchedule(schedule_text, &schedule));
    reg.Arm(point, schedule);

    // A fresh engine per row: a faulted run must not poison later runs of
    // the same engine either, which the disarmed re-run below checks.
    DistOptions options = Options(3, CompatKind::kSPM);
    options.recv_timeout_ms = 250;  // keep injected timeouts fast
    DistributedFormer dist(inst.graph, inst.skills, &index, params, options);
    {
      Rng rng(7);
      const Result<TeamResult> got = dist.Form(task, &rng);
      EXPECT_GT(reg.FireCount(point), 0u) << "fault never fired";
      if (got.ok()) {
        // Contract: a fault may cost retries/time, never change the team.
        ExpectSameResult(*got, want, "faulted-but-ok");
      } else {
        EXPECT_TRUE(got.status().IsUnavailable() ||
                    got.status().IsDeadlineExceeded() ||
                    got.status().IsInternal())
            << got.status().ToString();
      }
    }
    // Disarmed, the same engine instance recovers completely and the
    // ledger still balances (dropped counted apart from sent).
    reg.Reset();
    Rng rng(7);
    const Result<TeamResult> got = dist.Form(task, &rng);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResult(*got, want, "recovered");
    const CommStats total = dist.comm_stats();
    EXPECT_EQ(total.messages_sent,
              total.messages_delivered + dist.pending_messages());
  }
}

#endif  // defined(TFSN_FAULTS)

}  // namespace
}  // namespace tfsn
