/**
 * @file
 * 64-byte-aligned arena (bump) allocator for SoA tensor storage.
 *
 * The CSR/CSC matrices and the census/plan structures keep their
 * values/columns/row-pointer arrays as separate structure-of-arrays
 * buffers carved out of one Arena slab. Every buffer starts on a
 * 64-byte boundary (one cache line), so no two arrays share a line.
 *
 * The arena is sized exactly once, up front, from the known element
 * counts -- construction paths count first and fill second, which is
 * also what removes the push_back reallocation churn the profile used
 * to show. Blocks are never freed individually; the whole slab goes
 * at once. Copying an Arena deep-copies the slab, so objects that
 * store byte offsets (never raw pointers) into their arena can use
 * defaulted copy/move semantics.
 */

#ifndef ANTSIM_UTIL_ARENA_HH
#define ANTSIM_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "util/logging.hh"

namespace antsim {

/** Fixed-capacity bump allocator; every block is 64-byte aligned. */
class Arena
{
  public:
    /** Alignment of the slab and of every block carved from it. */
    static constexpr std::size_t kAlignment = 64;

    /** Round @p bytes up to the block alignment. */
    static constexpr std::size_t
    aligned(std::size_t bytes)
    {
        return (bytes + kAlignment - 1) & ~(kAlignment - 1);
    }

    /** An empty arena; alloc() panics until reset() gives it capacity. */
    Arena() = default;

    /** An arena with room for @p bytes (rounded up to the alignment). */
    explicit Arena(std::size_t bytes) { reset(bytes); }

    Arena(const Arena &o) { copyFrom(o); }

    Arena &
    operator=(const Arena &o)
    {
        if (this != &o) {
            release();
            copyFrom(o);
        }
        return *this;
    }

    Arena(Arena &&o) noexcept
        : slab_(o.slab_), capacity_(o.capacity_), used_(o.used_)
    {
        o.slab_ = nullptr;
        o.capacity_ = 0;
        o.used_ = 0;
    }

    Arena &
    operator=(Arena &&o) noexcept
    {
        if (this != &o) {
            release();
            slab_ = o.slab_;
            capacity_ = o.capacity_;
            used_ = o.used_;
            o.slab_ = nullptr;
            o.capacity_ = 0;
            o.used_ = 0;
        }
        return *this;
    }

    ~Arena() { release(); }

    /** Drop the slab and reallocate with room for @p bytes. */
    void
    reset(std::size_t bytes)
    {
        release();
        capacity_ = aligned(bytes);
        if (capacity_ > 0) {
            slab_ = static_cast<std::byte *>(::operator new(
                capacity_, std::align_val_t{kAlignment}));
        }
    }

    /**
     * Carve a 64-byte-aligned block of @p count objects of type T and
     * return its byte offset into the slab (offsets stay valid across
     * copies and moves; raw pointers do not). The block is
     * zero-initialized: the CSR builders rely on fresh row-pointer
     * arrays starting at zero.
     */
    template <typename T>
    std::size_t
    alloc(std::size_t count)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "arena blocks hold trivially copyable data only");
        static_assert(alignof(T) <= kAlignment);
        const std::size_t offset = used_;
        const std::size_t bytes = aligned(count * sizeof(T));
        ANT_ASSERT(bytes <= capacity_ - used_, "arena overflow: block of ",
                   bytes, " bytes does not fit in ", capacity_ - used_,
                   " remaining of ", capacity_);
        if (count > 0)
            std::memset(slab_ + offset, 0, count * sizeof(T));
        used_ += bytes;
        return offset;
    }

    /** Pointer to the block at byte offset @p offset. */
    template <typename T>
    T *
    ptr(std::size_t offset)
    {
        return reinterpret_cast<T *>(slab_ + offset);
    }

    template <typename T>
    const T *
    ptr(std::size_t offset) const
    {
        return reinterpret_cast<const T *>(slab_ + offset);
    }

    /** Bytes handed out so far (all blocks, with padding). */
    std::size_t used() const { return used_; }

    /** Slab capacity in bytes. */
    std::size_t capacity() const { return capacity_; }

  private:
    void
    release()
    {
        if (slab_ != nullptr) {
            ::operator delete(slab_, std::align_val_t{kAlignment});
            slab_ = nullptr;
        }
        capacity_ = 0;
        used_ = 0;
    }

    void
    copyFrom(const Arena &o)
    {
        capacity_ = o.capacity_;
        used_ = o.used_;
        if (capacity_ > 0) {
            slab_ = static_cast<std::byte *>(::operator new(
                capacity_, std::align_val_t{kAlignment}));
            if (used_ > 0)
                std::memcpy(slab_, o.slab_, used_);
        }
    }

    std::byte *slab_ = nullptr;
    std::size_t capacity_ = 0;
    std::size_t used_ = 0;
};

} // namespace antsim

#endif // ANTSIM_UTIL_ARENA_HH
