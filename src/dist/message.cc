#include "src/dist/message.h"

#include <cstring>

namespace tfsn {

namespace {

// Little-endian, bounds-checked primitives. Sizes are u32-prefixed; the
// reader caps every claimed length by the bytes actually remaining, so a
// corrupt prefix fails the decode instead of a giant allocation.

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (i * 8)) & 0xff);
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (i * 8)) & 0xff);
}

template <typename T>
void PutVec(std::vector<uint8_t>* out, const std::vector<T>& v) {
  PutU32(out, static_cast<uint32_t>(v.size()));
  for (const T x : v) {
    if constexpr (sizeof(T) == 8) {
      PutU64(out, static_cast<uint64_t>(x));
    } else {
      PutU32(out, static_cast<uint32_t>(x));
    }
  }
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool U8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = bytes_[pos_++];
    return true;
  }

  bool U32(uint32_t* v) {
    if (pos_ + 4 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(bytes_[pos_++]) << (i * 8);
    }
    return true;
  }

  bool U64(uint64_t* v) {
    if (pos_ + 8 > bytes_.size()) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(bytes_[pos_++]) << (i * 8);
    }
    return true;
  }

  template <typename T>
  bool Vec(std::vector<T>* v) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    constexpr size_t kElem = sizeof(T) == 8 ? 8 : 4;
    if (static_cast<uint64_t>(n) * kElem > bytes_.size() - pos_) return false;
    v->clear();
    v->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if constexpr (sizeof(T) == 8) {
        uint64_t x = 0;
        if (!U64(&x)) return false;
        v->push_back(static_cast<T>(x));
      } else {
        uint32_t x = 0;
        if (!U32(&x)) return false;
        v->push_back(static_cast<T>(x));
      }
    }
    return true;
  }

  bool String(std::string* s) {
    uint32_t n = 0;
    if (!U32(&n)) return false;
    if (n > bytes_.size() - pos_) return false;
    s->assign(reinterpret_cast<const char*>(bytes_.data()) + pos_, n);
    pos_ += n;
    return true;
  }

  bool Done() const { return pos_ == bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

}  // namespace

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kFormBegin:
      return "FormBegin";
    case MsgType::kEvalStep:
      return "EvalStep";
    case MsgType::kCandidateReply:
      return "CandidateReply";
    case MsgType::kRowSlice:
      return "RowSlice";
    case MsgType::kCountLe:
      return "CountLe";
    case MsgType::kCountReply:
      return "CountReply";
    case MsgType::kCostEval:
      return "CostEval";
    case MsgType::kCostReply:
      return "CostReply";
    case MsgType::kAbort:
      return "Abort";
  }
  return "?";
}

std::vector<uint8_t> EncodeMessage(const Message& msg) {
  std::vector<uint8_t> out;
  PutU8(&out, static_cast<uint8_t>(msg.type));
  PutU32(&out, msg.src);
  PutU32(&out, msg.run);
  PutU32(&out, msg.wave);
  PutU32(&out, msg.round);
  PutU8(&out, static_cast<uint8_t>(msg.status));
  if (msg.status != StatusCode::kOk) PutString(&out, msg.error);
  switch (msg.type) {
    case MsgType::kFormBegin:
      PutVec(&out, msg.task_skills);
      PutU8(&out, msg.user_policy);
      PutU32(&out, msg.pool_cap);
      break;
    case MsgType::kEvalStep:
      PutVec(&out, msg.seeds);
      PutVec(&out, msg.new_members);
      PutVec(&out, msg.skills);
      PutVec(&out, msg.rest_counts);
      PutVec(&out, msg.rest);
      break;
    case MsgType::kCandidateReply:
      PutVec(&out, msg.counts);
      PutVec(&out, msg.best_ids);
      PutVec(&out, msg.best_scores);
      break;
    case MsgType::kRowSlice:
      PutVec(&out, msg.members);
      PutVec(&out, msg.slice_comp);
      PutVec(&out, msg.slice_dist);
      break;
    case MsgType::kCountLe:
      PutVec(&out, msg.seeds);
      PutVec(&out, msg.args);
      break;
    case MsgType::kCountReply:
      PutVec(&out, msg.counts);
      break;
    case MsgType::kCostEval:
      PutVec(&out, msg.team);
      PutVec(&out, msg.team_sizes);
      break;
    case MsgType::kCostReply:
      PutVec(&out, msg.members);
      PutVec(&out, msg.dists);
      break;
    case MsgType::kAbort:
      break;
  }
  return out;
}

bool DecodeMessage(std::span<const uint8_t> bytes, Message* out) {
  Reader r(bytes);
  uint8_t type = 0;
  uint8_t status = 0;
  if (!r.U8(&type)) return false;
  if (type < static_cast<uint8_t>(MsgType::kFormBegin) ||
      type > static_cast<uint8_t>(MsgType::kAbort)) {
    return false;
  }
  *out = Message{};
  out->type = static_cast<MsgType>(type);
  if (!r.U32(&out->src) || !r.U32(&out->run) || !r.U32(&out->wave) ||
      !r.U32(&out->round) || !r.U8(&status)) {
    return false;
  }
  if (status > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return false;
  }
  out->status = static_cast<StatusCode>(status);
  if (out->status != StatusCode::kOk && !r.String(&out->error)) return false;
  switch (out->type) {
    case MsgType::kFormBegin:
      if (!r.Vec(&out->task_skills) || !r.U8(&out->user_policy) ||
          !r.U32(&out->pool_cap)) {
        return false;
      }
      break;
    case MsgType::kEvalStep:
      if (!r.Vec(&out->seeds) || !r.Vec(&out->new_members) ||
          !r.Vec(&out->skills) || !r.Vec(&out->rest_counts) ||
          !r.Vec(&out->rest)) {
        return false;
      }
      break;
    case MsgType::kCandidateReply:
      if (!r.Vec(&out->counts) || !r.Vec(&out->best_ids) ||
          !r.Vec(&out->best_scores)) {
        return false;
      }
      break;
    case MsgType::kRowSlice:
      if (!r.Vec(&out->members) || !r.Vec(&out->slice_comp) ||
          !r.Vec(&out->slice_dist)) {
        return false;
      }
      break;
    case MsgType::kCountLe:
      if (!r.Vec(&out->seeds) || !r.Vec(&out->args)) return false;
      break;
    case MsgType::kCountReply:
      if (!r.Vec(&out->counts)) return false;
      break;
    case MsgType::kCostEval:
      if (!r.Vec(&out->team) || !r.Vec(&out->team_sizes)) return false;
      break;
    case MsgType::kCostReply:
      if (!r.Vec(&out->members) || !r.Vec(&out->dists)) return false;
      break;
    case MsgType::kAbort:
      break;
    default:
      return false;  // a retired type byte
  }
  return r.Done();
}

}  // namespace tfsn
