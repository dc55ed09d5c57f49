/**
 * @file
 * Runtime switch selecting the legacy (reference) tag-store model.
 *
 * The SoA tag store is the production engine; the original
 * array-of-structures implementation is retained, behind the
 * VRC_REFERENCE_MODEL build option, purely as a differential-testing
 * oracle. Tests flip the process-wide flag below, construct a
 * simulator (each TagStore samples the flag once, at construction),
 * replay the same trace through both models and assert bit-identical
 * counters and event streams.
 *
 * The flag is deliberately coarse: it is not thread-safe against
 * concurrent simulator construction, and the differential test is the
 * only intended user.
 */

#ifndef VRC_CACHE_REFERENCE_MODE_HH
#define VRC_CACHE_REFERENCE_MODE_HH

namespace vrc
{

namespace detail
{
inline bool &
referenceModeFlag()
{
    static bool flag = false;
    return flag;
}
} // namespace detail

/** True when this build retains the legacy reference tag store. */
constexpr bool
referenceModelBuilt()
{
#ifdef VRC_REFERENCE_MODEL_ENABLED
    return true;
#else
    return false;
#endif
}

/** Whether tag stores constructed *from now on* use the legacy model. */
inline bool
referenceModeEnabled()
{
    return referenceModelBuilt() && detail::referenceModeFlag();
}

/**
 * Select the model for subsequently constructed tag stores. Without
 * the legacy model built in, stores stay on the SoA engine regardless
 * (referenceModeEnabled() stays false).
 */
inline void
setReferenceMode(bool on)
{
    detail::referenceModeFlag() = on;
}

/** RAII scope guard for the differential tests. */
class ReferenceModeScope
{
  public:
    explicit ReferenceModeScope(bool on) : _prev(referenceModeEnabled())
    {
        setReferenceMode(on);
    }

    ~ReferenceModeScope() { setReferenceMode(_prev); }

    ReferenceModeScope(const ReferenceModeScope &) = delete;
    ReferenceModeScope &operator=(const ReferenceModeScope &) = delete;

  private:
    bool _prev;
};

} // namespace vrc

#endif // VRC_CACHE_REFERENCE_MODE_HH
