/**
 * @file
 * Implementation of the epoll poller.
 */

#include "net/poller.h"

#include <cerrno>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include "base/logging.h"
#include "ostrace/syscalls.h"

namespace musuite {

Poller::Poller()
{
    epollFd = epoll_create1(0);
    MUSUITE_CHECK(epollFd >= 0) << "epoll_create1: "
                                << std::strerror(errno);
    wakeFd = eventfd(0, EFD_NONBLOCK);
    MUSUITE_CHECK(wakeFd >= 0) << "eventfd: " << std::strerror(errno);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr; // nullptr cookie marks the wakeup fd.
    MUSUITE_CHECK(epoll_ctl(epollFd, EPOLL_CTL_ADD, wakeFd, &ev) == 0)
        << "epoll_ctl(wakeFd): " << std::strerror(errno);
}

Poller::~Poller()
{
    if (wakeFd >= 0)
        ::close(wakeFd);
    if (epollFd >= 0)
        ::close(epollFd);
}

void
Poller::add(int fd, void *cookie, bool want_write)
{
    MUSUITE_CHECK(cookie != nullptr) << "null poller cookie is reserved";
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? uint32_t(EPOLLOUT) : 0u);
    ev.data.ptr = cookie;
    MUSUITE_CHECK(epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) == 0)
        << "epoll_ctl(ADD): " << std::strerror(errno);
}

void
Poller::modify(int fd, void *cookie, bool want_write)
{
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? uint32_t(EPOLLOUT) : 0u);
    ev.data.ptr = cookie;
    MUSUITE_CHECK(epoll_ctl(epollFd, EPOLL_CTL_MOD, fd, &ev) == 0)
        << "epoll_ctl(MOD): " << std::strerror(errno);
}

void
Poller::remove(int fd)
{
    epoll_ctl(epollFd, EPOLL_CTL_DEL, fd, nullptr);
}

void
Poller::wait(int timeout_ms, std::vector<PollEvent> &events)
{
    epoll_event raw[64];
    countSyscall(Sys::EpollPwait);
    const int n = epoll_pwait(epollFd, raw, 64, timeout_ms, nullptr);

    events.clear();
    for (int i = 0; i < n; ++i) {
        PollEvent event;
        if (raw[i].data.ptr == nullptr) {
            // Drain the wakeup eventfd.
            uint64_t value;
            countSyscall(Sys::Read);
            while (::read(wakeFd, &value, sizeof(value)) > 0) {
            }
            event.isWakeup = true;
        } else {
            event.data = raw[i].data.ptr;
            event.readable = raw[i].events & EPOLLIN;
            event.writable = raw[i].events & EPOLLOUT;
            event.error = raw[i].events & (EPOLLERR | EPOLLHUP);
        }
        events.push_back(event);
    }
}

void
Poller::wake()
{
    const uint64_t one = 1;
    countSyscall(Sys::Write);
    [[maybe_unused]] ssize_t n = ::write(wakeFd, &one, sizeof(one));
}

} // namespace musuite
