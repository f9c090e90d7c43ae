/**
 * @file
 * Epoll-based readiness poller.
 *
 * Each network thread in the µSuite server/client owns one Poller and
 * parks in epoll_pwait (the paper's blocking design; a zero-timeout
 * mode implements the §VII polling alternative). A wakeup eventfd lets
 * other threads (workers completing responses) kick the poller to
 * flush pending writes.
 */

#ifndef MUSUITE_NET_POLLER_H
#define MUSUITE_NET_POLLER_H

#include <cstdint>
#include <vector>

#include "net/socket.h"

namespace musuite {

/** One readiness event delivered by Poller::wait. */
struct PollEvent
{
    void *data = nullptr;  //!< Cookie registered with add().
    bool readable = false;
    bool writable = false;
    bool error = false;
    bool isWakeup = false; //!< The wakeup eventfd fired.
};

class Poller
{
  public:
    Poller();
    ~Poller();

    Poller(const Poller &) = delete;
    Poller &operator=(const Poller &) = delete;

    /**
     * Register a descriptor.
     * @param cookie Returned in PollEvent::data; must stay valid until
     *        remove().
     * @param want_write Also watch for write-readiness.
     */
    void add(int fd, void *cookie, bool want_write = false);

    /** Change write-readiness interest for a registered descriptor. */
    void modify(int fd, void *cookie, bool want_write);

    void remove(int fd);

    /**
     * Wait for events and put them in `events`, replacing what it
     * held. The caller keeps the vector across waits, so a wake
     * allocates nothing once its capacity has grown.
     * @param timeout_ms -1 blocks indefinitely (blocking design), 0
     *        returns immediately (polling design).
     */
    void wait(int timeout_ms, std::vector<PollEvent> &events);

    /** Wake a blocked wait() from another thread. */
    void wake();

  private:
    int epollFd = -1;
    int wakeFd = -1;
};

} // namespace musuite

#endif // MUSUITE_NET_POLLER_H
