// Typed wire messages for the sharded formation engine.
//
// Every exchange between the coordinator and the shard workers — and
// between workers (row slices) — is one of these message kinds, encoded to
// a flat little-endian byte vector before it enters the transport. The
// in-process transport could pass structs by move, but encoding every
// message keeps the CommStats byte ledger honest (bytes counted are the
// bytes the protocol puts on the wire) and puts the decoder's checks on
// every message.
//
// Seeds advance in waves (kWaveSeeds, src/team/greedy_step.h): one message
// of a wave round speaks for every live seed of the wave at once, as
// parallel per-seed arrays in seed order. Framing: a fixed header (type,
// source endpoint, run / wave / round epoch, status) followed by
// type-specific fields. The epoch triple lets receivers drop stale traffic
// after an aborted run; the status byte lets a reply carry a typed
// tfsn::Status error instead of a result.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/graph/signed_graph.h"
#include "src/skills/skills.h"
#include "src/util/status.h"

namespace tfsn {

/// Message kinds of the wave formation protocol (see README "Sharded
/// formation" for the protocol diagram). The values are the wire's type
/// byte; 7 and 8 are retired and decode as malformed.
enum class MsgType : uint8_t {
  kFormBegin = 1,       ///< coordinator -> all: task + per-run config
  kEvalStep = 2,        ///< coordinator -> all: every live seed's step
  kCandidateReply = 3,  ///< worker -> coordinator: per-seed count + best
  kRowSlice = 4,        ///< worker -> worker: new members' restricted rows
  kCountLe = 5,         ///< coordinator -> all: RANDOM rank probes (id <= x)
  kCountReply = 6,      ///< worker -> coordinator
  kCostEval = 9,        ///< coordinator -> all: completed teams
  kCostReply = 10,      ///< worker -> coordinator: owned rows of the teams
  kAbort = 11,          ///< coordinator -> all: drop the current run
};

const char* MsgTypeName(MsgType t);

/// One protocol message. A tagged union kept as one struct: only the
/// fields of the active `type` are encoded / decoded, the rest stay at
/// their defaults. "Per seed" arrays are parallel: entry j of each speaks
/// for the same seed, and a reply's entries follow its request's.
struct Message {
  MsgType type = MsgType::kAbort;
  /// Sending endpoint: shard id, or num_shards for the coordinator.
  uint32_t src = 0;
  /// Epoch: formation run id, seed wave within the run, round within the
  /// wave. Receivers ignore messages from other epochs.
  uint32_t run = 0;
  uint32_t wave = 0;
  uint32_t round = 0;
  /// Replies: kOk or the typed failure the worker hit (with `error`).
  StatusCode status = StatusCode::kOk;
  std::string error;

  // kFormBegin
  std::vector<SkillId> task_skills;
  uint8_t user_policy = 0;
  uint32_t pool_cap = 0;

  // kEvalStep / kCountLe: the seeds spoken for, as indexes
  // within the run, strictly ascending and inside the header's wave.
  std::vector<uint32_t> seeds;
  // kEvalStep, per seed: the member its previous step added (the seed user
  // at its first step), the skill to fill now, and how many entries of the
  // concatenated `rest` are its skills still uncovered after that one
  // (kMostCompatible's future-holder pool).
  std::vector<NodeId> new_members;
  std::vector<SkillId> skills;
  std::vector<uint32_t> rest_counts;
  std::vector<SkillId> rest;
  // kCountLe, per seed: the threshold id.
  std::vector<uint64_t> args;

  // kCandidateReply, per seed: local candidate count, local best
  // (kInvalidNode when there is none) and its score. kCountReply uses
  // `counts` (candidates <= the threshold).
  std::vector<uint64_t> counts;
  std::vector<NodeId> best_ids;
  std::vector<uint64_t> best_scores;

  // kRowSlice: the sender's owned members first seen in this wave round,
  // and each one's compatibility row restricted to the destination
  // shard's slice of the holder universe — comp bits packed 64 per word,
  // one uint32 distance per slice node, both in the destination's
  // ascending slice order, member after member.
  std::vector<NodeId> members;
  std::vector<uint64_t> slice_comp;
  std::vector<uint32_t> slice_dist;

  // kCostEval: the completed teams (each ascending), concatenated, with
  // their sizes. kCostReply: for each team in order, for each member the
  // worker owns in team order, the member's id in `members` and its
  // directed distances to the whole team in `dists`.
  std::vector<NodeId> team;
  std::vector<uint32_t> team_sizes;
  std::vector<uint32_t> dists;
};

/// Serializes `msg` (header + the active type's fields).
std::vector<uint8_t> EncodeMessage(const Message& msg);

/// Parses bytes produced by EncodeMessage. Returns false on truncated or
/// malformed input (never reads out of bounds, *out left unspecified).
/// Whatever it accepts re-encodes to exactly `bytes`.
bool DecodeMessage(std::span<const uint8_t> bytes, Message* out);

}  // namespace tfsn
