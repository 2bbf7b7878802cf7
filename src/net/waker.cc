#include "net/waker.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

#include "common/check.h"

namespace finelb::net {

Waker::Waker() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (!fd_.valid()) FINELB_THROW_ERRNO("eventfd");
}

void Waker::wake() {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is saturated, i.e. already readable.
  if (::write(fd_.get(), &one, sizeof(one)) < 0 && errno != EAGAIN) {
    FINELB_THROW_ERRNO("eventfd write");
  }
}

}  // namespace finelb::net
