#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>
#include <vector>

#include "common/check.h"
#include "net/clock.h"

namespace finelb::net {

/// Delayed datagrams held back by the fault injector. Guarded by a mutex
/// because a socket may be shared between a receive loop and worker
/// threads (Neptune's ServiceNode); the state exists only while an
/// injector is attached.
struct UdpSocket::FaultState {
  struct DelayedEgress {
    std::vector<std::uint8_t> payload;
    Address dest;
    bool connected = false;  // true: send(), false: send_to(dest)
    SimTime due = 0;
  };
  struct DelayedIngress {
    std::vector<std::uint8_t> payload;
    Address from;
    SimTime due = 0;
  };
  std::mutex mutex;
  std::vector<DelayedEgress> egress;
  std::vector<DelayedIngress> ingress;
};

/// Flat storage for a batch: one contiguous payload arena plus parallel
/// mmsghdr/iovec/sockaddr arrays, sized once at construction. recv_batch
/// re-arms the iovecs in place; send_batch copies staged payloads into the
/// same arena, so neither direction allocates after construction.
struct DatagramBatch::Impl {
  std::size_t capacity = 0;
  std::size_t buffer_bytes = 0;
  std::size_t count = 0;
  std::vector<std::uint8_t> arena;        // capacity * buffer_bytes
  std::vector<std::size_t> sizes;         // payload length per slot
  std::vector<Address> addresses;         // sender (recv) or dest (send)
  std::vector<::mmsghdr> headers;
  std::vector<::iovec> iovecs;
  std::vector<sockaddr_in> sockaddrs;

  std::uint8_t* slot(std::size_t i) { return arena.data() + i * buffer_bytes; }

  /// Points every header at its full slot buffer and its sockaddr, ready
  /// for recvmmsg to fill.
  void arm_for_recv() {
    for (std::size_t i = 0; i < capacity; ++i) {
      iovecs[i] = {slot(i), buffer_bytes};
      std::memset(&headers[i], 0, sizeof(headers[i]));
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
      headers[i].msg_hdr.msg_name = &sockaddrs[i];
      headers[i].msg_hdr.msg_namelen = sizeof(sockaddrs[i]);
    }
  }

  /// Points the first `count` headers at the staged payload lengths and
  /// destination sockaddrs, ready for sendmmsg.
  void arm_for_send() {
    for (std::size_t i = 0; i < count; ++i) {
      iovecs[i] = {slot(i), sizes[i]};
      sockaddrs[i] = addresses[i].to_sockaddr();
      std::memset(&headers[i], 0, sizeof(headers[i]));
      headers[i].msg_hdr.msg_iov = &iovecs[i];
      headers[i].msg_hdr.msg_iovlen = 1;
      headers[i].msg_hdr.msg_name = &sockaddrs[i];
      headers[i].msg_hdr.msg_namelen = sizeof(sockaddrs[i]);
    }
  }
};

DatagramBatch::DatagramBatch(std::size_t capacity, std::size_t buffer_bytes)
    : impl_(std::make_unique<Impl>()) {
  FINELB_CHECK(capacity > 0 && buffer_bytes > 0,
               "batch needs capacity and buffer space");
  impl_->capacity = capacity;
  impl_->buffer_bytes = buffer_bytes;
  impl_->arena.resize(capacity * buffer_bytes);
  impl_->sizes.resize(capacity);
  impl_->addresses.resize(capacity);
  impl_->headers.resize(capacity);
  impl_->iovecs.resize(capacity);
  impl_->sockaddrs.resize(capacity);
}

DatagramBatch::~DatagramBatch() = default;
DatagramBatch::DatagramBatch(DatagramBatch&&) noexcept = default;
DatagramBatch& DatagramBatch::operator=(DatagramBatch&&) noexcept = default;

std::size_t DatagramBatch::capacity() const { return impl_->capacity; }
std::size_t DatagramBatch::size() const { return impl_->count; }

std::span<const std::uint8_t> DatagramBatch::payload(std::size_t i) const {
  FINELB_CHECK(i < impl_->count, "batch index out of range");
  return {impl_->slot(i), impl_->sizes[i]};
}

const Address& DatagramBatch::address(std::size_t i) const {
  FINELB_CHECK(i < impl_->count, "batch index out of range");
  return impl_->addresses[i];
}

bool DatagramBatch::append(std::span<const std::uint8_t> payload,
                           const Address& dest) {
  if (impl_->count >= impl_->capacity ||
      payload.size() > impl_->buffer_bytes) {
    return false;
  }
  const std::size_t i = impl_->count++;
  std::memcpy(impl_->slot(i), payload.data(), payload.size());
  impl_->sizes[i] = payload.size();
  impl_->addresses[i] = dest;
  return true;
}

std::span<std::uint8_t> DatagramBatch::stage() {
  if (impl_->count >= impl_->capacity) return {};
  return {impl_->slot(impl_->count), impl_->buffer_bytes};
}

void DatagramBatch::commit(std::size_t payload_bytes, const Address& dest) {
  FINELB_CHECK(impl_->count < impl_->capacity, "commit on a full batch");
  FINELB_CHECK(payload_bytes <= impl_->buffer_bytes,
               "committed payload exceeds slot buffer");
  impl_->sizes[impl_->count] = payload_bytes;
  impl_->addresses[impl_->count] = dest;
  ++impl_->count;
}

void DatagramBatch::clear() { impl_->count = 0; }

std::span<std::uint8_t> thread_scratch(std::size_t bytes) {
  thread_local std::vector<std::uint8_t> scratch;
  if (scratch.size() < bytes) {
    // Geometric growth with a floor keeps the reallocation count O(log n)
    // over a thread's lifetime regardless of request order.
    std::size_t size = std::max<std::size_t>(scratch.capacity() * 2, 4096);
    while (size < bytes) size *= 2;
    scratch.resize(size);
  }
  return {scratch.data(), scratch.size()};
}

FdHandle::~FdHandle() { reset(); }

FdHandle::FdHandle(FdHandle&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)) {}

FdHandle& FdHandle::operator=(FdHandle&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = std::exchange(other.fd_, -1);
  }
  return *this;
}

void FdHandle::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Address Address::loopback(std::uint16_t port) {
  Address a;
  a.host = htonl(INADDR_LOOPBACK);
  a.port = port;
  return a;
}

sockaddr_in Address::to_sockaddr() const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = host;
  sa.sin_port = htons(port);
  return sa;
}

Address Address::from_sockaddr(const sockaddr_in& sa) {
  Address a;
  a.host = sa.sin_addr.s_addr;
  a.port = ntohs(sa.sin_port);
  return a;
}

std::string Address::to_string() const {
  char buf[INET_ADDRSTRLEN] = {};
  in_addr addr{};
  addr.s_addr = host;
  ::inet_ntop(AF_INET, &addr, buf, sizeof(buf));
  return std::string(buf) + ":" + std::to_string(port);
}

UdpSocket::UdpSocket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK, 0);
  if (fd < 0) FINELB_THROW_ERRNO("socket(AF_INET, SOCK_DGRAM)");
  fd_ = FdHandle(fd);

  const sockaddr_in sa = Address::loopback(port).to_sockaddr();
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) != 0) {
    FINELB_THROW_ERRNO("bind(udp, 127.0.0.1:" + std::to_string(port) + ")");
  }
}

UdpSocket::~UdpSocket() = default;
UdpSocket::UdpSocket(UdpSocket&&) noexcept = default;
UdpSocket& UdpSocket::operator=(UdpSocket&&) noexcept = default;

Address UdpSocket::local_address() const {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd(), reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    FINELB_THROW_ERRNO("getsockname");
  }
  return Address::from_sockaddr(sa);
}

void UdpSocket::connect(const Address& peer) {
  const sockaddr_in sa = peer.to_sockaddr();
  if (::connect(fd(), reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) !=
      0) {
    FINELB_THROW_ERRNO("connect(udp, " + peer.to_string() + ")");
  }
}

bool UdpSocket::raw_send(std::span<const std::uint8_t> payload) {
  const ssize_t n = ::send(fd(), payload.data(), payload.size(), 0);
  if (n >= 0) return true;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS ||
      errno == ECONNREFUSED) {
    // ECONNREFUSED surfaces asynchronously on connected UDP sockets when a
    // previous datagram hit a closed port; treat like a drop.
    return false;
  }
  FINELB_THROW_ERRNO("send(udp)");
}

bool UdpSocket::raw_send_to(std::span<const std::uint8_t> payload,
                            const Address& dest) {
  const sockaddr_in sa = dest.to_sockaddr();
  const ssize_t n =
      ::sendto(fd(), payload.data(), payload.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (n >= 0) return true;
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
    return false;
  }
  FINELB_THROW_ERRNO("sendto(udp, " + dest.to_string() + ")");
}

bool UdpSocket::send(std::span<const std::uint8_t> payload) {
  if (injector_) return faulty_send(payload, nullptr);
  return raw_send(payload);
}

bool UdpSocket::send_to(std::span<const std::uint8_t> payload,
                        const Address& dest) {
  if (injector_) return faulty_send(payload, &dest);
  return raw_send_to(payload, dest);
}

std::optional<std::size_t> UdpSocket::recv(std::span<std::uint8_t> buffer) {
  if (injector_) {
    const auto dgram = faulty_recv(buffer, /*want_sender=*/false);
    if (!dgram) return std::nullopt;
    return dgram->size;
  }
  const ssize_t n = ::recv(fd(), buffer.data(), buffer.size(), 0);
  if (n >= 0) return static_cast<std::size_t>(n);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED) {
    return std::nullopt;
  }
  FINELB_THROW_ERRNO("recv(udp)");
}

std::optional<Datagram> UdpSocket::recv_from(std::span<std::uint8_t> buffer) {
  if (injector_) return faulty_recv(buffer, /*want_sender=*/true);
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  const ssize_t n = ::recvfrom(fd(), buffer.data(), buffer.size(), 0,
                               reinterpret_cast<sockaddr*>(&sa), &len);
  if (n >= 0) {
    return Datagram{static_cast<std::size_t>(n), Address::from_sockaddr(sa)};
  }
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED) {
    return std::nullopt;
  }
  FINELB_THROW_ERRNO("recvfrom(udp)");
}

std::size_t UdpSocket::recv_batch(DatagramBatch& batch) {
  DatagramBatch::Impl& b = *batch.impl_;
  b.count = 0;
  if (injector_) {
    // Per-datagram fault path: each datagram must get its own
    // drop/duplicate/delay roll, so the kernel batching is bypassed and
    // the batch is filled through faulty_recv into its own slots.
    while (b.count < b.capacity) {
      const auto dgram = faulty_recv(
          std::span(b.slot(b.count), b.buffer_bytes), /*want_sender=*/true);
      if (!dgram) break;
      b.sizes[b.count] = dgram->size;
      b.addresses[b.count] = dgram->from;
      ++b.count;
    }
    return b.count;
  }
  b.arm_for_recv();
  const int n = ::recvmmsg(fd(), b.headers.data(),
                           static_cast<unsigned>(b.capacity), 0, nullptr);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED) {
      return 0;
    }
    FINELB_THROW_ERRNO("recvmmsg(udp)");
  }
  b.count = static_cast<std::size_t>(n);
  for (std::size_t i = 0; i < b.count; ++i) {
    b.sizes[i] = b.headers[i].msg_len;
    b.addresses[i] = Address::from_sockaddr(b.sockaddrs[i]);
  }
  return b.count;
}

std::size_t UdpSocket::send_batch(DatagramBatch& batch) {
  DatagramBatch::Impl& b = *batch.impl_;
  if (b.count == 0) return 0;
  if (injector_) {
    // Per-datagram fault path, mirroring recv_batch.
    std::size_t sent = 0;
    for (std::size_t i = 0; i < b.count; ++i) {
      if (faulty_send(std::span<const std::uint8_t>(b.slot(i), b.sizes[i]),
                      &b.addresses[i])) {
        ++sent;
      }
    }
    return sent;
  }
  b.arm_for_send();
  const int n = ::sendmmsg(fd(), b.headers.data(),
                           static_cast<unsigned>(b.count), 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
      return 0;  // kernel buffer full: the whole burst counts as dropped
    }
    FINELB_THROW_ERRNO("sendmmsg(udp)");
  }
  return static_cast<std::size_t>(n);
}

void UdpSocket::attach_fault_injector(
    std::shared_ptr<fault::FaultInjector> injector) {
  injector_ = std::move(injector);
  if (injector_ && !fault_state_) {
    fault_state_ = std::make_unique<FaultState>();
  }
}

void UdpSocket::flush_delayed_egress() {
  // Collect due datagrams under the lock, send outside it: raw sends can
  // throw and must not leave the mutex held.
  std::vector<FaultState::DelayedEgress> due;
  {
    std::lock_guard<std::mutex> lock(fault_state_->mutex);
    const SimTime now = monotonic_now();
    auto& pending = fault_state_->egress;
    for (std::size_t i = 0; i < pending.size();) {
      if (pending[i].due <= now) {
        due.push_back(std::move(pending[i]));
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }
  for (const auto& d : due) {
    if (d.connected) {
      raw_send(d.payload);
    } else {
      raw_send_to(d.payload, d.dest);
    }
  }
}

bool UdpSocket::faulty_send(std::span<const std::uint8_t> payload,
                            const Address* dest) {
  flush_delayed_egress();
  const fault::FaultDecision decision =
      injector_->decide(fault::Direction::kEgress);
  switch (decision.action) {
    case fault::FaultAction::kDrop:
      // Report success: from the sender's view the datagram left; the
      // (simulated) network ate it, exactly like a switch drop.
      return true;
    case fault::FaultAction::kDuplicate: {
      const bool first =
          dest ? raw_send_to(payload, *dest) : raw_send(payload);
      if (dest) {
        raw_send_to(payload, *dest);
      } else {
        raw_send(payload);
      }
      return first;
    }
    case fault::FaultAction::kDelay: {
      FaultState::DelayedEgress delayed;
      delayed.payload.assign(payload.begin(), payload.end());
      delayed.connected = dest == nullptr;
      if (dest) delayed.dest = *dest;
      delayed.due = monotonic_now() + decision.delay;
      std::lock_guard<std::mutex> lock(fault_state_->mutex);
      fault_state_->egress.push_back(std::move(delayed));
      return true;
    }
    case fault::FaultAction::kPass:
      break;
  }
  return dest ? raw_send_to(payload, *dest) : raw_send(payload);
}

std::optional<Datagram> UdpSocket::faulty_recv(std::span<std::uint8_t> buffer,
                                               bool want_sender) {
  flush_delayed_egress();
  // Surface a held-back datagram whose delay has elapsed, if any.
  {
    std::lock_guard<std::mutex> lock(fault_state_->mutex);
    const SimTime now = monotonic_now();
    auto& pending = fault_state_->ingress;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].due > now) continue;
      const std::size_t n = std::min(pending[i].payload.size(), buffer.size());
      std::memcpy(buffer.data(), pending[i].payload.data(), n);
      Datagram dgram{n, pending[i].from};
      pending[i] = std::move(pending.back());
      pending.pop_back();
      return dgram;
    }
  }
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  for (;;) {
    ssize_t n;
    if (want_sender) {
      len = sizeof(sa);
      n = ::recvfrom(fd(), buffer.data(), buffer.size(), 0,
                     reinterpret_cast<sockaddr*>(&sa), &len);
    } else {
      n = ::recv(fd(), buffer.data(), buffer.size(), 0);
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED) {
        return std::nullopt;
      }
      FINELB_THROW_ERRNO(want_sender ? "recvfrom(udp)" : "recv(udp)");
    }
    Datagram dgram{static_cast<std::size_t>(n),
                   want_sender ? Address::from_sockaddr(sa) : Address{}};
    const fault::FaultDecision decision =
        injector_->decide(fault::Direction::kIngress);
    switch (decision.action) {
      case fault::FaultAction::kDrop:
        continue;  // swallowed; try the next queued datagram
      case fault::FaultAction::kDelay: {
        FaultState::DelayedIngress delayed;
        delayed.payload.assign(buffer.data(), buffer.data() + dgram.size);
        delayed.from = dgram.from;
        delayed.due = monotonic_now() + decision.delay;
        std::lock_guard<std::mutex> lock(fault_state_->mutex);
        fault_state_->ingress.push_back(std::move(delayed));
        continue;
      }
      case fault::FaultAction::kDuplicate: {
        // Deliver now and queue an immediately-due copy for the next call.
        FaultState::DelayedIngress copy;
        copy.payload.assign(buffer.data(), buffer.data() + dgram.size);
        copy.from = dgram.from;
        copy.due = 0;
        std::lock_guard<std::mutex> lock(fault_state_->mutex);
        fault_state_->ingress.push_back(std::move(copy));
        return dgram;
      }
      case fault::FaultAction::kPass:
        return dgram;
    }
  }
}

void UdpSocket::set_buffer_sizes(int bytes) {
  if (::setsockopt(fd(), SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)) != 0) {
    FINELB_THROW_ERRNO("setsockopt(SO_RCVBUF)");
  }
  if (::setsockopt(fd(), SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0) {
    FINELB_THROW_ERRNO("setsockopt(SO_SNDBUF)");
  }
}

}  // namespace finelb::net
