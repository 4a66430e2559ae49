// Move-only callable with small-buffer-optimized storage, declared by its
// call signature like std::function: InlineFunction<void()>,
// InlineFunction<void(const TaskMetrics&)>.
//
// The event queue stores one callback per scheduled event, a resource
// stores one per claim and a task attempt two; with std::function each of
// those heap-allocates its capture. Almost all of them capture a `this`
// pointer plus a few scalars or a shared_ptr, so a 48-byte inline buffer
// keeps the common case off the allocator entirely. Oversized captures
// still work — they fall back to a single heap allocation, visible via
// heap_allocated() so the Simulator can count them
// (KernelStats::callback_heap_allocs) and benches can assert the hot path
// stays allocation-free.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rupam {

template <typename Signature>
class InlineFunction;

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineFunction() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): an empty callback, as with std::function
  InlineFunction(std::nullptr_t) noexcept {}

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFunction> &&
                                        !std::is_same_v<D, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, D&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    construct<D>(std::forward<F>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  R operator()(Args... args) { return invoke_(buf_, std::forward<Args>(args)...); }
  explicit operator bool() const { return invoke_ != nullptr; }

  /// True when the capture exceeded kInlineBytes and lives on the heap
  /// (moves transfer ownership of the same allocation, so this is stable
  /// across moves).
  bool heap_allocated() const { return heap_; }

  void reset() {
    if (manage_) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
    heap_ = false;
  }

 private:
  enum class Op { kDestroy, kMove };
  using Invoker = R (*)(void*, Args&&...);
  using Manager = void (*)(Op, void* self, void* dest);

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D, typename F>
  void construct(F&& fn) {
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      invoke_ = [](void* p, Args&&... args) -> R {
        return (*std::launder(reinterpret_cast<D*>(p)))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* dest) {
        D* s = std::launder(reinterpret_cast<D*>(self));
        if (op == Op::kDestroy) {
          s->~D();
        } else {
          ::new (dest) D(std::move(*s));
          s->~D();
        }
      };
    } else {
      heap_ = true;
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(fn)));
      invoke_ = [](void* p, Args&&... args) -> R {
        return (**std::launder(reinterpret_cast<D**>(p)))(std::forward<Args>(args)...);
      };
      manage_ = [](Op op, void* self, void* dest) {
        D** s = std::launder(reinterpret_cast<D**>(self));
        if (op == Op::kDestroy) {
          delete *s;
        } else {
          ::new (dest) D*(*s);  // steal the pointer; source is abandoned
        }
      };
    }
  }

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    heap_ = other.heap_;
    if (manage_) manage_(Op::kMove, other.buf_, buf_);
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
    other.heap_ = false;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  Invoker invoke_ = nullptr;
  Manager manage_ = nullptr;
  bool heap_ = false;
};

}  // namespace rupam
