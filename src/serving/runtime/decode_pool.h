/**
 * @file decode_pool.h
 * The continuous-batching decode pool shared by the online runtime and
 * the serving DES.
 *
 * Finished prefills wait in FIFO order for one of `capacity` decode
 * slots. Every step emits one token for each active sequence, and a
 * sequence leaves after max(decode_tokens, 1) steps. Since sequences
 * join in order and all need the same number of steps, their finishing
 * steps never decrease along the active FIFO: the sequences that finish
 * on a step are always a prefix of it. So a step pops only those, and
 * costs O(1) plus the number finishing, not O(active).
 */
#ifndef RAGO_SERVING_RUNTIME_DECODE_POOL_H
#define RAGO_SERVING_RUNTIME_DECODE_POOL_H

#include <algorithm>
#include <cstdint>
#include <deque>

namespace rago::runtime {

class DecodePool {
 public:
  DecodePool(int64_t capacity, int decode_tokens)
      : capacity_(capacity),
        steps_per_sequence_(std::max<int64_t>(decode_tokens, 1)) {}

  /// Queues a sequence that finished its prefill.
  void Enqueue(int id) { waiting_.push_back(id); }

  /// Moves waiting sequences into free slots in FIFO order, calling
  /// `on_admit(id)` for each.
  template <typename OnAdmit>
  void Admit(OnAdmit&& on_admit) {
    while (static_cast<int64_t>(active_.size()) < capacity_ &&
           !waiting_.empty()) {
      const int id = waiting_.front();
      waiting_.pop_front();
      active_.push_back(Active{id, steps_ + steps_per_sequence_});
      on_admit(id);
    }
  }

  /// Completes one step, calling `on_finish(id)` for each sequence that
  /// emitted its last token, in admission order.
  template <typename OnFinish>
  void Step(OnFinish&& on_finish) {
    ++steps_;
    while (!active_.empty() && active_.front().finish_step == steps_) {
      const int id = active_.front().id;
      active_.pop_front();
      on_finish(id);
    }
  }

  size_t active() const { return active_.size(); }
  size_t waiting() const { return waiting_.size(); }
  /// Steps completed so far.
  int64_t steps() const { return steps_; }

 private:
  struct Active {
    int id = 0;
    int64_t finish_step = 0;  ///< Value of steps_ after its last token.
  };

  int64_t capacity_;
  int64_t steps_per_sequence_;
  int64_t steps_ = 0;
  std::deque<int> waiting_;
  std::deque<Active> active_;
};

}  // namespace rago::runtime

#endif  // RAGO_SERVING_RUNTIME_DECODE_POOL_H
