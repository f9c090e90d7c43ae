// Clean cases: a MutexUnlock window covers the blocking call, the
// unlock-then-notify shape of src/base/queue.h, and a conditional
// nested acquisition that respects the rank order.

#include <condition_variable>
#include <mutex>

Mutex stateMutex{LockRank::state, "state"};
Mutex outerMutex{LockRank::outer, "outer"};
Mutex innerMutex{LockRank::inner, "inner"};
BlockingQueue<int> jobs;

void
popInWindow()
{
    MutexLock guard(stateMutex);
    {
        MutexUnlock window(guard);
        jobs.pop(); // Lock suspended for the window: ok.
    }
}

template <typename T,
          // mulint: allow(raw-sync): default only; traced builds pass TracedMutex
          typename Mutex = std::mutex,
          // mulint: allow(raw-sync): default only; traced builds pass TracedCondVar
          typename CondVar = std::condition_variable>
class Queue
{
  public:
    bool
    push(T item)
    {
        std::unique_lock<Mutex> lock(mutex);
        notFull.wait(lock, [&] { return items.size() < capacity; });
        items.push_back(std::move(item));
        // mulint: allow(raw-sync): unlock-before-notify keeps the waiter off a held mutex
        lock.unlock();
        notEmpty.notify_one();
        return true;
    }

  private:
    size_t capacity = 8;
    std::deque<T> items;
    mutable Mutex mutex;
    CondVar notEmpty;
    CondVar notFull;
};

void
orderedConditionalNesting(bool fast)
{
    MutexLock first(innerMutex); // rank 10
    if (fast) {
        MutexLock second(outerMutex); // rank 20 over 10: ok.
    }
}
