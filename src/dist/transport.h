// The transport of the sharded formation engine: threads as shards.
//
// Endpoints are numbered 0..S: shard workers 0..S-1 plus the coordinator
// at endpoint S. Every message travels as EncodeMessage() bytes, and the
// transport keeps a CommStats ledger of everything it moved — split into
// the *control plane* (any message to or from the coordinator: broadcasts,
// per-shard bests, rank probes — the traffic that must stay
// O(S * team_size) per seed-step) and the *data plane* (worker-to-worker
// row slices, which legitimately scale with the holder universe).
//
// InProcessTransport keeps one mutex + condvar mailbox per endpoint, with
// bounded-timeout receives and the `dist.send_drop` / `dist.recv_timeout`
// fault points, so the tests measure the protocol's traffic and failure
// behavior in one process.

#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/dist/message.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace tfsn {

/// Cumulative transport traffic ledger. Byte counts are encoded wire
/// sizes. The accounting identity `messages_sent == messages_delivered +
/// pending` holds at any quiescent point (dropped messages are counted
/// separately and never enqueued).
struct CommStats {
  uint64_t messages_sent = 0;       ///< successfully enqueued
  uint64_t bytes_sent = 0;
  uint64_t messages_delivered = 0;  ///< returned from Recv
  uint64_t bytes_delivered = 0;
  uint64_t messages_dropped = 0;    ///< injected send faults
  uint64_t bytes_dropped = 0;
  uint64_t control_messages = 0;    ///< sent, coordinator on either end
  uint64_t control_bytes = 0;
  uint64_t data_messages = 0;       ///< sent, worker <-> worker
  uint64_t data_bytes = 0;

  /// Traffic deltas `this - earlier` (every field is monotonic, so the
  /// result is well-defined when `earlier` was taken first).
  CommStats operator-(const CommStats& earlier) const {
    CommStats d;
    d.messages_sent = messages_sent - earlier.messages_sent;
    d.bytes_sent = bytes_sent - earlier.bytes_sent;
    d.messages_delivered = messages_delivered - earlier.messages_delivered;
    d.bytes_delivered = bytes_delivered - earlier.bytes_delivered;
    d.messages_dropped = messages_dropped - earlier.messages_dropped;
    d.bytes_dropped = bytes_dropped - earlier.bytes_dropped;
    d.control_messages = control_messages - earlier.control_messages;
    d.control_bytes = control_bytes - earlier.control_bytes;
    d.data_messages = data_messages - earlier.data_messages;
    d.data_bytes = data_bytes - earlier.data_bytes;
    return d;
  }
};

/// Point-to-point messaging between the S + 1 formation endpoints, through
/// mailboxes in process memory.
class InProcessTransport {
 public:
  explicit InProcessTransport(uint32_t num_shards);
  ~InProcessTransport();

  /// The coordinator's endpoint id: S, after the shard workers 0..S-1.
  uint32_t coordinator() const { return num_shards_; }

  /// Delivers `msg` from endpoint `src` to endpoint `dst`'s mailbox.
  /// Unavailable when the transport is closed or the message was dropped
  /// (injected fault).
  Status Send(uint32_t src, uint32_t dst, const Message& msg);

  /// Next message addressed to endpoint `dst`. Blocks up to `timeout_ms`
  /// milliseconds (DeadlineExceeded on expiry); `timeout_ms < 0` blocks
  /// until a message arrives or the transport closes (Unavailable —
  /// returned only once the mailbox is fully drained).
  Status Recv(uint32_t dst, int64_t timeout_ms, Message* out);

  /// Shuts the transport down: every blocked and future Recv drains its
  /// mailbox and then returns Unavailable; every future Send fails.
  void Close();

  /// Snapshot of the traffic ledger.
  CommStats stats() const;

  /// Messages currently enqueued across all mailboxes.
  uint64_t PendingMessages() const;

 private:
  struct Mailbox {
    Mutex mu;
    CondVar cv;
    std::deque<std::vector<uint8_t>> queue TFSN_GUARDED_BY(mu);
    bool closed TFSN_GUARDED_BY(mu) = false;
  };

  const uint32_t num_shards_;
  /// One mailbox per endpoint (workers 0..S-1, coordinator S). Boxed:
  /// Mutex is neither movable nor copyable.
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;

  mutable Mutex stats_mu_;
  CommStats stats_ TFSN_GUARDED_BY(stats_mu_);
};

}  // namespace tfsn
