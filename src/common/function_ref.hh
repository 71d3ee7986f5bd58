/**
 * @file
 * Non-owning reference to a callable, for hot-path callbacks.
 *
 * A FunctionRef is two words: the callable's address and a trampoline
 * that invokes it. Unlike std::function it never copies, allocates or
 * type-erases ownership, so it must not outlive the callable it refers
 * to; pass it down a call chain as a parameter, never store it.
 */

#ifndef BH_COMMON_FUNCTION_REF_HH
#define BH_COMMON_FUNCTION_REF_HH

#include <memory>
#include <type_traits>
#include <utility>

namespace bh
{

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)>
{
  public:
    /** An empty reference; calling it is undefined, test with bool. */
    FunctionRef() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                  std::is_invocable_r_v<R, F &, Args...>>>
    FunctionRef(F &&f)  // NOLINT(google-explicit-constructor)
        : obj(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call([](void *o, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F> *>(o))(
                  std::forward<Args>(args)...);
          })
    {
    }

    R
    operator()(Args... args) const
    {
        return call(obj, std::forward<Args>(args)...);
    }

    explicit operator bool() const { return call != nullptr; }

  private:
    void *obj = nullptr;
    R (*call)(void *, Args...) = nullptr;
};

} // namespace bh

#endif // BH_COMMON_FUNCTION_REF_HH
