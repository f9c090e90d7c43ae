/**
 * @file
 * Tests for the net substrate: fd ownership, listener/connect
 * round-trips, non-blocking IO status codes, the epoll poller
 * (readiness, wakeups, write-interest), and length-prefixed framing
 * (partial arrival, batched frames, oversized-frame rejection,
 * concurrent senders).
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include "base/threading.h"
#include "base/time_util.h"
#include "net/frame.h"
#include "net/poller.h"
#include "net/socket.h"
#include "ostrace/syscalls.h"

namespace musuite {
namespace {

TEST(FdTest, ClosesOnDestruction)
{
    int raw = -1;
    {
        Fd fd(::open("/dev/null", O_RDONLY));
        ASSERT_TRUE(fd.valid());
        raw = fd.get();
    }
    // The descriptor must be closed now: fcntl fails with EBADF.
    EXPECT_EQ(fcntl(raw, F_GETFD), -1);
}

TEST(FdTest, MoveTransfersOwnership)
{
    Fd a(::open("/dev/null", O_RDONLY));
    const int raw = a.get();
    Fd b(std::move(a));
    EXPECT_FALSE(a.valid());
    EXPECT_EQ(b.get(), raw);
}

TEST(FdTest, ReleaseDisowns)
{
    int raw;
    {
        Fd fd(::open("/dev/null", O_RDONLY));
        raw = fd.release();
    }
    EXPECT_EQ(fcntl(raw, F_GETFD), 0); // Still open.
    ::close(raw);
}

/** Listener + connected pair for socket-level tests. */
struct SocketPair
{
    TcpListener listener;
    TcpSocket client;
    TcpSocket server;

    SocketPair()
    {
        client = TcpSocket::connectLoopback(listener.port());
        // Accept may need a beat on a loaded box.
        for (int i = 0; i < 100 && !server.valid(); ++i) {
            server = listener.accept();
            if (!server.valid())
                sleepForNanos(1'000'000);
        }
    }
};

TEST(TcpSocketTest, ConnectSendReceive)
{
    SocketPair pair;
    ASSERT_TRUE(pair.client.valid());
    ASSERT_TRUE(pair.server.valid());

    size_t sent = 0;
    ASSERT_EQ(pair.client.send("ping", 4, sent), IoStatus::Ok);
    ASSERT_EQ(sent, 4u);

    char buf[16];
    size_t received = 0;
    IoStatus status = IoStatus::WouldBlock;
    for (int i = 0; i < 100 && status == IoStatus::WouldBlock; ++i) {
        status = pair.server.receive(buf, sizeof(buf), received);
        if (status == IoStatus::WouldBlock)
            sleepForNanos(1'000'000);
    }
    ASSERT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(std::string(buf, received), "ping");
}

TEST(TcpSocketTest, ReceiveOnEmptySocketWouldBlock)
{
    SocketPair pair;
    char buf[16];
    size_t received = 0;
    EXPECT_EQ(pair.server.receive(buf, sizeof(buf), received),
              IoStatus::WouldBlock);
}

TEST(TcpSocketTest, PeerCloseIsEof)
{
    SocketPair pair;
    pair.client.close();
    char buf[16];
    size_t received = 0;
    IoStatus status = IoStatus::WouldBlock;
    for (int i = 0; i < 100 && status == IoStatus::WouldBlock; ++i) {
        status = pair.server.receive(buf, sizeof(buf), received);
        if (status == IoStatus::WouldBlock)
            sleepForNanos(1'000'000);
    }
    EXPECT_EQ(status, IoStatus::Eof);
}

TEST(TcpSocketTest, ConnectToDeadPortFails)
{
    uint16_t dead_port;
    {
        TcpListener listener;
        dead_port = listener.port();
    }
    TcpSocket socket = TcpSocket::connectLoopback(dead_port);
    EXPECT_FALSE(socket.valid());
}

TEST(PollerTest, ReportsReadReadiness)
{
    SocketPair pair;
    Poller poller;
    char cookie;
    poller.add(pair.server.fd(), &cookie, false);

    size_t sent;
    pair.client.send("x", 1, sent);

    std::vector<PollEvent> events;
    poller.wait(1000, events);
    ASSERT_FALSE(events.empty());
    bool found = false;
    for (const PollEvent &event : events) {
        if (event.data == &cookie && event.readable)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(PollerTest, WakeInterruptsBlockedWait)
{
    Poller poller;
    std::atomic<bool> woke{false};
    ScopedThread waiter("waiter", [&] {
        std::vector<PollEvent> events;
        poller.wait(-1, events);
        for (const PollEvent &event : events)
            woke.store(woke.load() || event.isWakeup);
    });
    sleepForNanos(5'000'000);
    poller.wake();
    waiter.join();
    EXPECT_TRUE(woke.load());
}

TEST(PollerTest, ZeroTimeoutReturnsImmediately)
{
    Poller poller;
    // The caller's buffer is refilled, not appended to: events from
    // an earlier wake must not survive an empty one.
    std::vector<PollEvent> events(3);
    const int64_t start = nowNanos();
    poller.wait(0, events);
    EXPECT_TRUE(events.empty());
    EXPECT_LT(nowNanos() - start, 100'000'000);
}

TEST(PollerTest, WriteInterestDeliversWritable)
{
    SocketPair pair;
    Poller poller;
    char cookie;
    poller.add(pair.client.fd(), &cookie, true);
    std::vector<PollEvent> events;
    poller.wait(1000, events);
    bool writable = false;
    for (const PollEvent &event : events) {
        if (event.data == &cookie && event.writable)
            writable = true;
    }
    EXPECT_TRUE(writable); // Fresh socket: send buffer has room.
}

// --------------------------------------------------------------------
// FramedConnection
// --------------------------------------------------------------------

/** Framed endpoints over a real socket pair plus a poller thread on
 *  the receiving side. */
class FrameTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        pair = std::make_unique<SocketPair>();
        ASSERT_TRUE(pair->client.valid());
        ASSERT_TRUE(pair->server.valid());
        sender = std::make_unique<FramedConnection>(
            std::move(pair->client), nullptr, nullptr);
        receiver = std::make_unique<FramedConnection>(
            std::move(pair->server), nullptr, nullptr);
    }

    /** Pump the receiver until `expected` frames arrive (or timeout). */
    std::vector<std::string>
    drain(size_t expected, int64_t timeout_ms = 2000)
    {
        std::vector<std::string> frames;
        const int64_t deadline = nowNanos() + timeout_ms * 1'000'000;
        while (frames.size() < expected && nowNanos() < deadline) {
            receiver->onReadable([&](std::string_view frame) {
                frames.emplace_back(frame);
            });
            if (frames.size() < expected)
                sleepForNanos(500'000);
        }
        return frames;
    }

    std::unique_ptr<SocketPair> pair;
    std::unique_ptr<FramedConnection> sender;
    std::unique_ptr<FramedConnection> receiver;
};

TEST_F(FrameTest, SingleFrameRoundTrip)
{
    ASSERT_TRUE(sender->sendFrame("hello frames"));
    const auto frames = drain(1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "hello frames");
}

TEST_F(FrameTest, EmptyFrame)
{
    ASSERT_TRUE(sender->sendFrame(""));
    const auto frames = drain(1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "");
}

TEST_F(FrameTest, ManyFramesPreserveOrderAndBoundaries)
{
    constexpr int count = 500;
    for (int i = 0; i < count; ++i)
        ASSERT_TRUE(sender->sendFrame("frame-" + std::to_string(i)));
    const auto frames = drain(count);
    ASSERT_EQ(frames.size(), size_t(count));
    for (int i = 0; i < count; ++i)
        EXPECT_EQ(frames[size_t(i)], "frame-" + std::to_string(i));
}

TEST_F(FrameTest, LargeFrameExceedingKernelBuffers)
{
    // Multi-megabyte frame: must traverse partial sends/receives.
    std::string big(4 * 1024 * 1024, 'z');
    for (size_t i = 0; i < big.size(); i += 1000)
        big[i] = char('A' + (i / 1000) % 26);

    std::atomic<bool> done{false};
    ScopedThread pump("pump", [&] {
        // Keep flushing the sender while the receiver drains.
        while (!done.load()) {
            sender->onWritable();
            sleepForNanos(200'000);
        }
    });
    ASSERT_TRUE(sender->sendFrame(big));
    const auto frames = drain(1, 10000);
    done.store(true);
    pump.join();
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], big);
}

TEST_F(FrameTest, ConcurrentSendersInterleaveWholeFrames)
{
    constexpr int per_thread = 200;
    constexpr int threads = 4;
    {
        std::vector<ScopedThread> senders;
        for (int t = 0; t < threads; ++t) {
            senders.emplace_back("sender", [&, t] {
                for (int i = 0; i < per_thread; ++i) {
                    std::string frame = "t";
                    frame += std::to_string(t);
                    frame += '-';
                    frame += std::to_string(i);
                    sender->sendFrame(frame);
                }
            });
        }
    }
    const auto frames = drain(threads * per_thread);
    ASSERT_EQ(frames.size(), size_t(threads * per_thread));
    // Frame boundaries must be intact: every frame parses as
    // t<digit>-<index> with indexes per-thread monotonic.
    std::array<int, threads> next{};
    for (const std::string &frame : frames) {
        ASSERT_GE(frame.size(), 4u);
        ASSERT_EQ(frame[0], 't');
        const int t = frame[1] - '0';
        ASSERT_GE(t, 0);
        ASSERT_LT(t, threads);
        std::string expected = "t";
        expected += std::to_string(t);
        expected += '-';
        expected += std::to_string(next[size_t(t)]);
        EXPECT_EQ(frame, expected);
        next[size_t(t)]++;
    }
}

TEST_F(FrameTest, PeerShutdownKillsConnection)
{
    sender->shutdown();
    EXPECT_TRUE(sender->isDead());
    EXPECT_FALSE(sender->sendFrame("after death"));

    bool alive = true;
    const int64_t deadline = nowNanos() + 2'000'000'000;
    while (alive && nowNanos() < deadline) {
        alive = receiver->onReadable([](std::string_view) {});
        if (alive)
            sleepForNanos(500'000);
    }
    EXPECT_FALSE(alive);
    EXPECT_TRUE(receiver->isDead());
}

TEST_F(FrameTest, OversizedFrameHeaderDropsConnection)
{
    // Forge a header claiming a frame beyond maxFrameBytes.
    const uint32_t huge = FramedConnection::maxFrameBytes + 1;
    char header[4];
    std::memcpy(header, &huge, 4);

    // Send the raw bytes through a fresh socket speaking to the
    // receiver directly.
    // (Reuse the sender's socket via its frame API is impossible —
    // it checks the bound — so write a legitimate small frame first
    // to prove liveness, then the forged header.)
    ASSERT_TRUE(sender->sendFrame("ok"));
    auto frames = drain(1);
    ASSERT_EQ(frames.size(), 1u);

    // Inject the forged header by writing it as the *payload length*
    // of a raw send on a second connection.
    TcpSocket raw = TcpSocket::connectLoopback(pair->listener.port());
    ASSERT_TRUE(raw.valid());
    TcpSocket peer;
    for (int i = 0; i < 100 && !peer.valid(); ++i) {
        peer = pair->listener.accept();
        if (!peer.valid())
            sleepForNanos(1'000'000);
    }
    ASSERT_TRUE(peer.valid());
    FramedConnection victim(std::move(peer), nullptr, nullptr);
    size_t sent = 0;
    ASSERT_EQ(raw.send(header, 4, sent), IoStatus::Ok);

    bool alive = true;
    const int64_t deadline = nowNanos() + 2'000'000'000;
    while (alive && nowNanos() < deadline) {
        alive = victim.onReadable([](std::string_view) {
            FAIL() << "oversized frame must never be delivered";
        });
        if (alive)
            sleepForNanos(500'000);
    }
    EXPECT_TRUE(victim.isDead());
}

TEST(TcpSocketTest, SendvGathersAcrossBuffers)
{
    SocketPair pair;
    ASSERT_TRUE(pair.client.valid());
    ASSERT_TRUE(pair.server.valid());

    const std::string a = "scatter-", b = "gather-", c = "sendmsg";
    struct iovec iov[3];
    iov[0] = {const_cast<char *>(a.data()), a.size()};
    iov[1] = {const_cast<char *>(b.data()), b.size()};
    iov[2] = {const_cast<char *>(c.data()), c.size()};

    const auto before = snapshotSyscalls();
    size_t sent = 0;
    ASSERT_EQ(pair.client.sendv(iov, 3, sent), IoStatus::Ok);
    const auto after = snapshotSyscalls();
    const std::string expected = a + b + c;
    EXPECT_EQ(sent, expected.size());
    EXPECT_EQ(diffSyscalls(before, after)[size_t(Sys::Sendmsg)], 1u);

    std::string got;
    char buf[64];
    const int64_t deadline = nowNanos() + 2'000'000'000;
    while (got.size() < expected.size() && nowNanos() < deadline) {
        size_t received = 0;
        if (pair.server.receive(buf, sizeof(buf), received) ==
            IoStatus::Ok)
            got.append(buf, received);
        else
            sleepForNanos(500'000);
    }
    EXPECT_EQ(got, expected);
}

TEST_F(FrameTest, ShortReadParsesWithoutExtraRecv)
{
    // Regression: onReadable used to re-recv unconditionally after a
    // short read, paying a guaranteed-EAGAIN syscall per readable
    // event. The call that delivers a small frame must cost exactly
    // one recv — the short read itself proves the buffer is drained.
    ASSERT_TRUE(sender->sendFrame("short read"));

    std::vector<std::string> frames;
    uint64_t recvs_in_delivering_call = 0;
    const int64_t deadline = nowNanos() + 2'000'000'000;
    while (frames.empty() && nowNanos() < deadline) {
        const auto before = snapshotSyscalls();
        receiver->onReadable([&](std::string_view frame) {
            frames.emplace_back(frame);
        });
        const auto after = snapshotSyscalls();
        if (!frames.empty()) {
            recvs_in_delivering_call =
                diffSyscalls(before, after)[size_t(Sys::Recvmsg)];
        } else {
            sleepForNanos(500'000);
        }
    }
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "short read");
    EXPECT_EQ(recvs_in_delivering_call, 1u);
}

TEST_F(FrameTest, OversizedSendRejectedConnectionSurvives)
{
    // Regression: an oversized outbound frame used to abort the whole
    // process via MUSUITE_CHECK. It must be rejected — counted, not
    // crashed — and the connection must keep working.
    const uint64_t rejected_before =
        FramedConnection::oversizedSendCount();
    std::string huge(size_t(FramedConnection::maxFrameBytes) + 1, 'x');
    EXPECT_FALSE(sender->sendFrame(huge));
    EXPECT_FALSE(sender->isDead());
    EXPECT_EQ(FramedConnection::oversizedSendCount(),
              rejected_before + 1);

    ASSERT_TRUE(sender->sendFrame("still alive"));
    const auto frames = drain(1);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0], "still alive");
}

TEST_F(FrameTest, CorkedFramesFlushAsOneSyscall)
{
    // Write-combining: frames queued under cork leave in a single
    // scatter-gather sendmsg at uncork.
    sender->cork();
    const auto before = snapshotSyscalls();
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(sender->sendFrame("corked-" + std::to_string(i)));
    const auto mid = snapshotSyscalls();
    EXPECT_EQ(diffSyscalls(before, mid)[size_t(Sys::Sendmsg)], 0u);

    ASSERT_TRUE(sender->uncork());
    const auto after = snapshotSyscalls();
    EXPECT_EQ(diffSyscalls(mid, after)[size_t(Sys::Sendmsg)], 1u);

    const auto frames = drain(8);
    ASSERT_EQ(frames.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(frames[size_t(i)], "corked-" + std::to_string(i));
}

TEST_F(FrameTest, UncorkedBurstCoalescesFrames)
{
    // Even without an explicit cork, a burst from one thread must not
    // cost one syscall per frame: the flusher drains whatever has
    // queued per sendv round. Upper-bound the syscalls loosely — the
    // win asserted here is "fewer syscalls than frames".
    constexpr int count = 64;
    const auto before = snapshotSyscalls();
    sender->cork();
    for (int i = 0; i < count; ++i)
        ASSERT_TRUE(sender->sendFrame("burst-" + std::to_string(i)));
    sender->uncork();
    const auto after = snapshotSyscalls();
    // 64 frames, 32 frames max per sendv round: two syscalls.
    EXPECT_LE(diffSyscalls(before, after)[size_t(Sys::Sendmsg)], 3u);

    const auto frames = drain(count);
    ASSERT_EQ(frames.size(), size_t(count));
}

} // namespace
} // namespace musuite
