/**
 * @file
 * Minimal lazy coroutine task type, Co<T>, used to express simulated
 * workload threads in direct style.
 *
 * A workload thread is a Co<void> coroutine. Every simulated memory
 * operation is an awaitable that suspends back to the cpu::Scheduler,
 * which resumes the globally-earliest thread next. An op that reads
 * and writes only its own thread's state (a compute, or the CC probe
 * of a line the transaction already locks) is an awaitable too, but
 * below the scheduler's stop tick it runs in place and does not
 * suspend (cpu/scheduler.hh). Nested Co<T> calls chain via symmetric
 * transfer, so only memory-op awaiters escape to the scheduler.
 *
 * Every memory operation creates and destroys a few short-lived
 * frames, so frames come from detail::FramePool, a per-host-thread
 * free list, instead of the general-purpose heap.
 */

#ifndef SNF_SIM_CORO_HH
#define SNF_SIM_CORO_HH

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <utility>

namespace snf::sim
{

template <typename T>
class Co;

namespace detail
{

/**
 * Coroutine frame allocator: one LIFO free list per 64-byte size class
 * and host thread, so a frame freed by a completed Co<T> is the next
 * frame of its class handed out on that thread. Frames above the
 * largest class go straight to ::operator new / ::operator delete.
 *
 * Frame lifetime: a frame is returned to the free list of the thread
 * that destroys it, whichever thread allocated it. A thread's lists
 * are released (every cached frame back to ::operator delete) when the
 * thread exits, because sweep and differential workers run whole
 * simulations on their own threads. A frame destroyed on a thread
 * whose lists are already released goes straight to ::operator delete.
 */
class FramePool
{
  public:
    static constexpr std::size_t kClassBytes = 64;
    static constexpr std::size_t kClasses = 32;
    static constexpr std::size_t kMaxPooledBytes = kClassBytes * kClasses;

    static void *
    allocate(std::size_t n)
    {
        if (n > kMaxPooledBytes)
            return ::operator new(n);
        const std::size_t cls = classOf(n);
        if (FreeFrame *f = lists.head[cls]) {
            lists.head[cls] = f->next;
            return f;
        }
        return allocateUpstream(cls);
    }

    static void
    deallocate(void *p, std::size_t n) noexcept
    {
        if (n > kMaxPooledBytes) {
            ::operator delete(p);
            return;
        }
        if (lists.state != State::Caching) [[unlikely]] {
            if (lists.state == State::Released) {
                freeUpstream(p);
                return;
            }
            startCaching();
        }
        const std::size_t cls = classOf(n);
        lists.head[cls] = ::new (p) FreeFrame{lists.head[cls]};
    }

    /** Frames cached on the calling thread's free lists. */
    static std::size_t
    cachedFrames()
    {
        std::size_t n = 0;
        for (const FreeFrame *head : lists.head)
            for (const FreeFrame *f = head; f; f = f->next)
                ++n;
        return n;
    }

    /** Size-class frames currently held from ::operator new by every
     *  thread, in use or cached. */
    static std::int64_t
    upstreamFrames()
    {
        return upstream.load(std::memory_order_relaxed);
    }

  private:
    struct FreeFrame
    {
        FreeFrame *next;
    };

    /** Empty until the thread first caches a frame, which registers
     *  the release at thread exit; released after that. */
    enum class State : std::uint8_t
    {
        Empty,
        Caching,
        Released,
    };

    /** Trivially destructible and constant-initialized, so the hot
     *  paths reach it without a thread-local init guard. */
    struct Lists
    {
        FreeFrame *head[kClasses];
        State state;
    };

    /** Its destructor runs at thread exit and releases the lists. */
    struct Releaser
    {
        ~Releaser()
        {
            lists.state = State::Released;
            for (FreeFrame *&head : lists.head) {
                while (FreeFrame *f = head) {
                    head = f->next;
                    freeUpstream(f);
                }
            }
        }
    };

    static std::size_t
    classOf(std::size_t n)
    {
        return (n - 1) / kClassBytes;
    }

    [[gnu::noinline]] static void *
    allocateUpstream(std::size_t cls)
    {
        void *p = ::operator new((cls + 1) * kClassBytes);
        upstream.fetch_add(1, std::memory_order_relaxed);
        return p;
    }

    /** Register the lists' release at thread exit. Any thread that
     *  caches a frame gets here first, including one that only ever
     *  destroys frames other threads allocated. */
    [[gnu::noinline]] static void
    startCaching() noexcept
    {
        [[maybe_unused]] static thread_local Releaser releaser;
        lists.state = State::Caching;
    }

    static void
    freeUpstream(void *p) noexcept
    {
        upstream.fetch_sub(1, std::memory_order_relaxed);
        ::operator delete(p);
    }

    static constinit inline thread_local Lists lists{};
    static constinit inline std::atomic<std::int64_t> upstream{0};
};

struct PromiseBase
{
    static void *
    operator new(std::size_t n)
    {
        return FramePool::allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n) noexcept
    {
        FramePool::deallocate(p, n);
    }

    std::coroutine_handle<> continuation;
    std::exception_ptr error;

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        template <typename P>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<P> h) noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    std::suspend_always initial_suspend() noexcept { return {}; }

    FinalAwaiter final_suspend() noexcept { return {}; }

    void unhandled_exception() { error = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase
{
    // Workload values are scalar-ish; default-construct + assign keeps
    // the promise simple and avoids manual lifetime management.
    T result{};

    Co<T> get_return_object();

    void return_value(T v) { result = std::move(v); }
};

template <>
struct Promise<void> : PromiseBase
{
    Co<void> get_return_object();

    void return_void() {}
};

} // namespace detail

/**
 * A lazily-started coroutine producing a T. Awaiting a Co<T> starts it;
 * when it completes, control transfers back to the awaiter.
 */
template <typename T>
class [[nodiscard]] Co
{
  public:
    using promise_type = detail::Promise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Co() = default;

    explicit Co(Handle h) : handle(h) {}

    Co(Co &&o) noexcept : handle(std::exchange(o.handle, {})) {}

    Co &
    operator=(Co &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle = std::exchange(o.handle, {});
        }
        return *this;
    }

    Co(const Co &) = delete;
    Co &operator=(const Co &) = delete;

    ~Co() { destroy(); }

    bool valid() const { return static_cast<bool>(handle); }

    bool done() const { return !handle || handle.done(); }

    /** Raw handle (for the scheduler's root-resume path). */
    Handle raw() const { return handle; }

    /** Release ownership of the frame to the caller. */
    Handle release() { return std::exchange(handle, {}); }

    struct Awaiter
    {
        Handle handle;

        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) noexcept
        {
            handle.promise().continuation = parent;
            return handle; // symmetric transfer: start the child
        }

        T
        await_resume()
        {
            auto &p = handle.promise();
            if (p.error)
                std::rethrow_exception(p.error);
            if constexpr (!std::is_void_v<T>)
                return std::move(p.result);
        }
    };

    Awaiter operator co_await() && noexcept { return Awaiter{handle}; }

  private:
    void
    destroy()
    {
        if (handle) {
            handle.destroy();
            handle = {};
        }
    }

    Handle handle;
};

namespace detail
{

template <typename T>
Co<T>
Promise<T>::get_return_object()
{
    return Co<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Co<void>
Promise<void>::get_return_object()
{
    return Co<void>(
        std::coroutine_handle<Promise<void>>::from_promise(*this));
}

} // namespace detail

} // namespace snf::sim

#endif // SNF_SIM_CORO_HH
