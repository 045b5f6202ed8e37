// A long-lived cache class whose head carries a thread-safety capability
// annotation.  The annotation group sits between `class` and the name, so
// the class scope (and every inline member) must still be recognized.
// BOUNDS-EXPECT: flag kind=growth detail=FrameCache.frames_
#include "_prelude.h"

#if defined(__clang__)
#define GLOBE_CAPABILITY(x) __attribute__((capability(x)))
#else
#define GLOBE_CAPABILITY(x)
#endif

class GLOBE_CAPABILITY("cache") FrameCache {
 public:
  void add(const Bytes& frame) { frames_.push_back(frame); }

 private:
  std::vector<Bytes> frames_;
};
