/**
 * @file
 * Memory straight from the OS for the BDD's large arrays: an STL
 * allocator for blocks a container allocates and frees, and a buffer
 * that keeps its pages for reuse.
 *
 * The BDD hot paths read multi-megabyte arrays in data-dependent
 * order: the node arena and the computed cache (compile, in a
 * PageBuffer) and the per-eval value buffer (evaluation gathers
 * children's values, in a PageVector). When those arrays come
 * from the general-purpose heap their page placement depends on every
 * allocation and free the process made before them. glibc's mmap
 * threshold *slides up* after large frees, so a model compiled after
 * cache evictions can land in recycled, fragmented heap pages and
 * evaluate ~1.5x slower than the identical model in fresh pages —
 * observed as bimodal BENCH_server cache-hit latency that flipped on
 * unrelated one-line changes. Blocks of kMinMapBytes or more
 * therefore bypass malloc and map fresh anonymous pages (hinted
 * THP-eligible): placement no longer depends on heap history. Small
 * blocks stay on the regular heap, where locality matters more than
 * determinism and page-granular mappings would waste memory.
 */

#ifndef SDNAV_BDD_PAGE_ALLOC_HH
#define SDNAV_BDD_PAGE_ALLOC_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace sdnav::bdd
{

template <class T> class PageAllocator
{
  public:
    using value_type = T;
    using is_always_equal = std::true_type;

    /** Smallest block that goes to the OS instead of the heap. */
    static constexpr std::size_t kMinMapBytes = 256 * 1024;

    PageAllocator() noexcept = default;
    template <class U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }
    template <class U> struct rebind
    {
        using other = PageAllocator<U>;
    };

    T *
    allocate(std::size_t n)
    {
        std::size_t bytes = n * sizeof(T);
#if defined(__linux__)
        if (bytes >= kMinMapBytes) {
            void *p =
                ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc{};
#ifdef MADV_HUGEPAGE
            ::madvise(p, bytes, MADV_HUGEPAGE);
#endif
            return static_cast<T *>(p);
        }
#endif
        return static_cast<T *>(::operator new(bytes));
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        std::size_t bytes = n * sizeof(T);
#if defined(__linux__)
        if (bytes >= kMinMapBytes) {
            ::munmap(p, bytes);
            return;
        }
#endif
        ::operator delete(p);
    }

    friend bool
    operator==(const PageAllocator &, const PageAllocator &) noexcept
    {
        return true;
    }
    friend bool
    operator!=(const PageAllocator &, const PageAllocator &) noexcept
    {
        return false;
    }
};

/** A vector whose large backing blocks come from PageAllocator. */
template <class T> using PageVector = std::vector<T, PageAllocator<T>>;

/**
 * A page-mapped block that only grows and keeps its pages until it is
 * destroyed. Reused across builds, it faults its pages in once: a
 * build that fits in what an earlier one touched takes no page fault.
 * Growing maps a larger block and copies the contents over.
 * The block is untyped; callers view it as an array of trivially
 * copyable elements through as<T>().
 */
class PageBuffer
{
  public:
    PageBuffer() = default;
    PageBuffer(const PageBuffer &) = delete;
    PageBuffer &operator=(const PageBuffer &) = delete;

    ~PageBuffer()
    {
        if (data_ == nullptr)
            return;
#if defined(__linux__)
        ::munmap(data_, bytes_);
#else
        ::operator delete(data_);
#endif
    }

    /** Grow to at least `bytes`, keeping the contents. Growth moves
     *  the block, so pointers into it must be taken again. */
    void
    reserve(std::size_t bytes)
    {
        if (bytes <= bytes_)
            return;
        bytes = (bytes + kPage - 1) / kPage * kPage;
#if defined(__linux__)
        // A fresh mapping and a copy, not mremap: ThreadSanitizer
        // does not see mremap, and would take a block moved onto
        // addresses another thread unmapped for a race.
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc{};
#ifdef MADV_HUGEPAGE
        ::madvise(p, bytes, MADV_HUGEPAGE);
#endif
        if (data_ != nullptr) {
            std::memcpy(p, data_, bytes_);
            ::munmap(data_, bytes_);
        }
#else
        void *p = ::operator new(bytes);
        if (data_ != nullptr) {
            std::memcpy(p, data_, bytes_);
            ::operator delete(data_);
        }
#endif
        data_ = p;
        bytes_ = bytes;
    }

    /** The block as an array of T. */
    template <class T>
    T *
    as() const
    {
        return static_cast<T *>(data_);
    }

    /** Bytes mapped: the most any reserve() asked for, page-rounded. */
    std::size_t bytes() const { return bytes_; }

  private:
    static constexpr std::size_t kPage = 4096;

    void *data_ = nullptr;
    std::size_t bytes_ = 0;
};

} // namespace sdnav::bdd

#endif // SDNAV_BDD_PAGE_ALLOC_HH
