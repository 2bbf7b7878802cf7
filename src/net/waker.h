// Cross-thread wake-up for ppoll-driven event loops.
//
// A Waker owns an eventfd that a loop registers with its Poller like any
// other fd. wake() makes that fd readable, so a loop blocked in
// Poller::wait returns at once instead of sleeping out its timeout slice.
// The nodes use it as a stop signal: stop() clears the running flag, then
// wakes the loop, which sees the flag and exits. The fd stays readable
// once woken (nothing reads the counter back), so every later wait returns
// immediately too — a loop that is between the flag check and ppoll when
// wake() lands cannot miss it.
#pragma once

#include "net/socket.h"

namespace finelb::net {

class Waker {
 public:
  Waker();

  int fd() const { return fd_.get(); }

  /// Makes fd() readable. Safe to call from any thread, any number of times.
  void wake();

 private:
  FdHandle fd_;
};

}  // namespace finelb::net
