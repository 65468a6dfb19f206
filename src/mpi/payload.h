// Move-only type-erased value: what a point-to-point message carries and
// what a rank contributes to a collective.
//
// std::any keeps only pointer-sized values inside itself and boxes the
// rest on the heap, so every piece vector and manifest the collective
// write shuffles cost one allocation per message. A Payload keeps any
// value of up to kInlineBytes that is nothrow move-constructible and at
// most pointer-aligned inside itself (a std::vector is 24 bytes, the
// two-level exchange's (count, pieces) manifest 32), and boxes larger
// values or values whose move may throw. Values are moved in and moved
// out, never copied, so a Payload may hold a move-only type.
#pragma once

#include <cstddef>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace e10::mpi {

class Payload {
 public:
  static constexpr std::size_t kInlineBytes = 32;

  /// Whether a `T` lives inside the Payload rather than in a heap box.
  template <typename T>
  static constexpr bool kStoredInline =
      sizeof(T) <= kInlineBytes && alignof(T) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<T>;

  Payload() noexcept = default;

  /// Holds `value` (decayed), moved in when it is an rvalue.
  template <typename T, typename D = std::decay_t<T>,
            typename = std::enable_if_t<!std::is_same_v<D, Payload>>>
  Payload(T&& value) {  // NOLINT(google-explicit-constructor): like std::any
    emplace<D>(std::forward<T>(value));
  }

  Payload(Payload&& other) noexcept { steal(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      steal(other);
    }
    return *this;
  }
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  ~Payload() { reset(); }

  [[nodiscard]] bool has_value() const noexcept { return ops_ != nullptr; }

  /// Replaces the held value with a `T` built from `args`.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    reset();
    T* value = nullptr;
    if constexpr (kStoredInline<T>) {
      value = ::new (static_cast<void*>(storage_))
          T(std::forward<Args>(args)...);
    } else {
      value = new T(std::forward<Args>(args)...);
      ::new (static_cast<void*>(storage_)) T*(value);
    }
    ops_ = &kOps<T>;
    return *value;
  }

  /// The held value when it is a `T`, else nullptr.
  template <typename T>
  [[nodiscard]] T* get_if() noexcept {
    if (ops_ != &kOps<T>) return nullptr;
    if constexpr (kStoredInline<T>) {
      return std::launder(reinterpret_cast<T*>(storage_));
    } else {
      return *std::launder(reinterpret_cast<T**>(storage_));
    }
  }
  template <typename T>
  [[nodiscard]] const T* get_if() const noexcept {
    return const_cast<Payload*>(this)->get_if<T>();
  }

  /// Moves the held `T` out and leaves the Payload empty. Throws
  /// std::logic_error, holding on to its value, when that is not a `T`.
  template <typename T>
  T take() {
    T* value = get_if<T>();
    if (value == nullptr) {
      throw std::logic_error("mpi::Payload::take: not holding that type");
    }
    T out = std::move(*value);
    reset();
    return out;
  }

 private:
  /// Destroys the held value, if any.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Per-type operations; the table's address is the type's identity.
  struct Ops {
    /// Moves the value stored at `from` into the empty storage at `to` and
    /// destroys what is left at `from`.
    void (*relocate)(std::byte* from, std::byte* to) noexcept;
    void (*destroy)(std::byte* storage) noexcept;
  };

  template <typename T>
  static void relocate(std::byte* from, std::byte* to) noexcept {
    if constexpr (kStoredInline<T>) {
      T* source = std::launder(reinterpret_cast<T*>(from));
      ::new (static_cast<void*>(to)) T(std::move(*source));
      source->~T();
    } else {
      T* boxed = *std::launder(reinterpret_cast<T**>(from));
      ::new (static_cast<void*>(to)) T*(boxed);
    }
  }

  template <typename T>
  static void destroy(std::byte* storage) noexcept {
    if constexpr (kStoredInline<T>) {
      std::launder(reinterpret_cast<T*>(storage))->~T();
    } else {
      delete *std::launder(reinterpret_cast<T**>(storage));
    }
  }

  template <typename T>
  static constexpr Ops kOps{&relocate<T>, &destroy<T>};

  void steal(Payload& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.storage_, storage_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(void*) std::byte storage_[kInlineBytes];
};

}  // namespace e10::mpi
