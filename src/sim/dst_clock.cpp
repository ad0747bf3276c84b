#include "sim/dst_clock.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

namespace vira::sim {

thread_local VirtualClock::Participant* VirtualClock::tls_self_ = nullptr;

void VirtualClock::grant_locked(Participant* p) {
  token_held_ = true;
  p->granted = true;
  switches_.fetch_add(1, std::memory_order_relaxed);
  p->cv.notify_one();
}

void VirtualClock::release_token_locked() {
  token_held_ = false;
  schedule_next_locked();
}

void VirtualClock::schedule_next_locked() {
  if (token_held_) {
    return;
  }
  while (true) {
    if (!ready_.empty()) {
      Participant* next = ready_.front();
      ready_.pop_front();
      grant_locked(next);
      return;
    }
    // Nothing runnable: advance virtual time to the earliest parked
    // deadline. If there is none the machine idles — the remaining
    // participants are outside (join_thread) or finished.
    bool have_due = false;
    Nanos due = 0;
    for (const Participant* p : waiting_) {
      if (p->deadline == kNever) {
        continue;  // only a wake ends this park
      }
      if (!have_due || p->deadline < due) {
        due = p->deadline;
        have_due = true;
      }
    }
    if (!have_due) {
      return;
    }
    if (due > now_ns_.load(std::memory_order_relaxed)) {
      now_ns_.store(due, std::memory_order_relaxed);
    }
    const Nanos now = now_ns_.load(std::memory_order_relaxed);
    // Release parked participants whose deadlines passed, ordered by
    // (deadline, wait_seq) so equal deadlines resume in park order.
    std::vector<Participant*> due_waiters;
    for (Participant* p : waiting_) {
      if (p->deadline <= now) {
        due_waiters.push_back(p);
      }
    }
    std::sort(due_waiters.begin(), due_waiters.end(), [](const Participant* a,
                                                         const Participant* b) {
      return a->deadline != b->deadline ? a->deadline < b->deadline : a->wait_seq < b->wait_seq;
    });
    for (Participant* p : due_waiters) {
      waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), p), waiting_.end());
      p->waiting = false;
      ready_.push_back(p);
    }
  }
}

void VirtualClock::block_self_locked(std::unique_lock<std::mutex>& lock, Nanos deadline_ns) {
  Participant* self = tls_self_;
  if (self == nullptr) {
    throw std::logic_error("VirtualClock: blocking call from a non-participant thread");
  }
  self->waiting = true;
  self->deadline = deadline_ns;
  self->wait_seq = next_seq_++;
  waiting_.push_back(self);
  release_token_locked();
  self->cv.wait(lock, [self] { return self->granted; });
  self->granted = false;
}

void VirtualClock::sleep_for(std::chrono::nanoseconds duration) {
  auto lock = acquire();
  const Nanos delta = std::max<Nanos>(duration.count(), 0);
  block_self_locked(lock, now_ns_.load(std::memory_order_relaxed) + delta);
}

void VirtualClock::wait_until(std::condition_variable& cv, std::unique_lock<std::mutex>& lock,
                              TimePoint deadline) {
  Participant* self = tls_self_;
  if (self == nullptr) {
    // Outside the machine: really wait, as long as the deadline is away in
    // virtual time (a virtual time point means nothing to the OS).
    Clock::wait_until(cv, lock,
                      deadline == TimePoint::max()
                          ? deadline
                          : std::chrono::steady_clock::now() + (deadline - now()));
    return;
  }
  // Take the machine lock before releasing the caller's: a notifier that
  // changes the predicate after our check needs the machine lock to wake
  // us, so it cannot slip in between the check and the park.
  auto machine = acquire();
  self->parked_on = &cv;
  lock.unlock();
  block_self_locked(machine, deadline == TimePoint::max()
                                 ? kNever
                                 : std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       deadline.time_since_epoch())
                                       .count());
  self->parked_on = nullptr;
  machine.unlock();
  lock.lock();
}

void VirtualClock::notify(std::condition_variable& cv, bool all) {
  {
    auto machine = acquire();
    // waiting_ is in park order; wake_locked() erases, so walk a snapshot.
    const std::vector<Participant*> parked = waiting_;
    for (Participant* p : parked) {
      if (p->parked_on == &cv) {
        wake_locked(p);
        if (!all) {
          break;
        }
      }
    }
    // A notifier outside the machine may find it idle; hand the token on.
    schedule_next_locked();
  }
  Clock::notify(cv, all);
}

void VirtualClock::wake_locked(Participant* p) {
  if (p == nullptr || !p->waiting) {
    return;
  }
  waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), p), waiting_.end());
  p->waiting = false;
  ready_.push_back(p);
}

void VirtualClock::announce_thread(const std::string& name) {
  auto lock = acquire();
  auto [it, inserted] = participants_.emplace(name, std::make_unique<Participant>(name));
  if (!inserted) {
    throw std::logic_error("VirtualClock: duplicate participant name '" + name + "'");
  }
  // The announcing thread holds the token, so the new participant simply
  // queues; it is granted (in announcement order) once the spawner blocks.
  ready_.push_back(it->second.get());
}

void VirtualClock::thread_begin(const std::string& name) {
  auto lock = acquire();
  auto it = participants_.find(name);
  if (it == participants_.end()) {
    throw std::logic_error("VirtualClock: thread_begin without announce ('" + name + "')");
  }
  Participant* self = it->second.get();
  tls_self_ = self;
  // The slot was queued by announce_thread; wait for the machine to grant
  // it. The predicate covers the grant-before-wait race (notify is lost,
  // the flag is not).
  self->cv.wait(lock, [self] { return self->granted; });
  self->granted = false;
}

void VirtualClock::thread_end() {
  auto lock = acquire();
  Participant* self = tls_self_;
  if (self == nullptr) {
    return;
  }
  self->finished = true;
  tls_self_ = nullptr;
  release_token_locked();
}

void VirtualClock::join_thread(std::thread& thread) {
  Participant* self = tls_self_;
  if (self == nullptr) {
    // Not inside the machine (e.g. a real-mode caller holding a pointer to
    // this clock by mistake); behave like the base class.
    if (thread.joinable()) {
      thread.join();
    }
    return;
  }
  {
    auto lock = acquire();
    release_token_locked();
  }
  // Really block: the joined thread needs the machine to schedule it to
  // completion, which it can now do without us.
  if (thread.joinable()) {
    thread.join();
  }
  {
    auto lock = acquire();
    ready_.push_back(self);
    if (!token_held_) {
      schedule_next_locked();
    }
    self->cv.wait(lock, [self] { return self->granted; });
    self->granted = false;
  }
}

void VirtualClock::dump_state(std::ostream& out) {
  auto lock = acquire();
  out << "VirtualClock: now=" << now_ns_.load() / 1000000 << "ms token_held=" << token_held_
      << " switches=" << switches_.load() << "\n";
  for (const auto& [name, p] : participants_) {
    out << "  " << name << ": ";
    if (p->finished) {
      out << "finished";
    } else if (p->waiting && p->deadline == kNever) {
      out << "parked until woken";
    } else if (p->waiting) {
      out << "parked deadline=" << p->deadline / 1000000 << "ms";
    } else if (std::find(ready_.begin(), ready_.end(), p.get()) != ready_.end()) {
      out << "ready";
    } else {
      out << "running-or-outside";  // token holder, or really blocked in join
    }
    out << "\n";
  }
}

void VirtualClock::register_driver(const std::string& name) {
  auto lock = acquire();
  if (token_held_ || !participants_.empty()) {
    throw std::logic_error("VirtualClock: register_driver on a running machine");
  }
  auto [it, inserted] = participants_.emplace(name, std::make_unique<Participant>(name));
  (void)inserted;
  tls_self_ = it->second.get();
  token_held_ = true;  // the driver starts as the running participant
}

void VirtualClock::unregister_driver() { thread_end(); }

}  // namespace vira::sim
