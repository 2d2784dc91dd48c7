#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace rc::sim {

namespace detail {

/// Size-classed free lists for InlineFunction overflow allocations.
///
/// The event loop is single-threaded per simulation, but tests may run
/// several simulations; thread_local keeps the lists race-free without
/// atomics. Blocks are recycled forever (they stay reachable through the
/// list heads, so leak checkers are happy) — after warm-up the overflow
/// path performs no malloc/free at all.
struct OverflowPool {
  static constexpr std::size_t kClassStep = 64;
  static constexpr std::size_t kNumClasses = 8;  // pooled up to 512 bytes

  static constexpr std::size_t classOf(std::size_t bytes) {
    return (bytes + kClassStep - 1) / kClassStep - 1;
  }

  static void* allocate(std::size_t bytes) {
    const std::size_t cls = classOf(bytes);
    if (cls >= kNumClasses) return ::operator new(bytes);
    void*& head = freeHead(cls);
    if (head != nullptr) {
      void* block = head;
      head = *static_cast<void**>(block);
      return block;
    }
    return ::operator new((cls + 1) * kClassStep);
  }

  static void release(void* block, std::size_t bytes) {
    const std::size_t cls = classOf(bytes);
    if (cls >= kNumClasses) {
      ::operator delete(block);
      return;
    }
    void*& head = freeHead(cls);
    *static_cast<void**>(block) = head;
    head = block;
  }

 private:
  static void*& freeHead(std::size_t cls) {
    thread_local void* heads[kNumClasses] = {};
    return heads[cls];
  }
};

}  // namespace detail

/// Small-buffer-optimised move-only callable: the simulator's replacement
/// for std::function on every hot path (sim events, dispatch hand-offs,
/// worker grants, RPC continuations).
///
///  - Callables up to kInlineBytes live in the object itself: scheduling an
///    event performs no heap allocation.
///  - Larger captures overflow into a size-classed free-list pool
///    (detail::OverflowPool), so steady-state overflow costs a pointer swap
///    rather than malloc/free.
///  - Move-only: continuations may own move-only state (other
///    InlineFunctions, pool handles) that std::function could never hold.
template <typename Sig>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(runtime/explicit)
    construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { moveFrom(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  /// Const like std::function's: the target is logically owned state, and
  /// continuation lambdas holding one by value are rarely `mutable`.
  R operator()(Args... args) const {
    return invoke_(const_cast<unsigned char*>(buf_),
                   std::forward<Args>(args)...);
  }

  /// Replace the target with `f`, constructed directly in this object's
  /// storage: no temporary InlineFunction, no relocating move.
  template <typename F>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
      *this = std::forward<F>(f);  // rvalues only: copying is deleted
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  void reset() noexcept {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  /// True when the callable lives in the inline buffer (test hook).
  bool isInline() const noexcept {
    return invoke_ != nullptr && inlineStored_;
  }

 private:
  enum class Op { kMoveTo, kDestroy };
  using Invoke = R (*)(void*, Args...);
  using Manage = void (*)(Op, void* self, void* dest);

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = &inlineInvoke<Fn>;
      manage_ = &inlineManage<Fn>;
      inlineStored_ = true;
    } else {
      void* block = detail::OverflowPool::allocate(sizeof(Fn));
      ::new (block) Fn(std::forward<F>(f));
      *reinterpret_cast<void**>(buf_) = block;
      invoke_ = &heapInvoke<Fn>;
      manage_ = &heapManage<Fn>;
      inlineStored_ = false;
    }
  }

  template <typename Fn>
  static R inlineInvoke(void* buf, Args... args) {
    return (*std::launder(reinterpret_cast<Fn*>(buf)))(
        std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void inlineManage(Op op, void* self, void* dest) {
    Fn* f = std::launder(reinterpret_cast<Fn*>(self));
    if (op == Op::kMoveTo) ::new (dest) Fn(std::move(*f));
    f->~Fn();
  }
  template <typename Fn>
  static R heapInvoke(void* buf, Args... args) {
    void* block = *reinterpret_cast<void**>(buf);
    return (*static_cast<Fn*>(block))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void heapManage(Op op, void* self, void* dest) {
    void* block = *reinterpret_cast<void**>(self);
    if (op == Op::kMoveTo) {
      // Overflow moves are pointer swaps; the callable never relocates.
      *reinterpret_cast<void**>(dest) = block;
      return;
    }
    static_cast<Fn*>(block)->~Fn();
    detail::OverflowPool::release(block, sizeof(Fn));
  }

  void moveFrom(InlineFunction& other) noexcept {
    if (other.manage_ != nullptr) {
      other.manage_(Op::kMoveTo, other.buf_, buf_);
    }
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    inlineStored_ = other.inlineStored_;
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
  bool inlineStored_ = false;

  static_assert(sizeof(void*) <= kInlineBytes);
};

/// The simulator's event callback type.
using InlineTask = InlineFunction<void()>;

}  // namespace rc::sim
