// Compilable stand-ins for the util threading vocabulary, so the clang
// frontend of tools/conc_check.py can parse each fixture as a standalone TU
// without dragging in the real tree.  The lite frontend never reads this
// file — it analyzes the fixture text alone — so anything the analysis must
// see (mutex members, GLOBE_BLOCKING on fixture functions, lock sites) lives
// in the fixture itself; this header only makes those tokens parse.
#pragma once

#if defined(__clang__)
#define GLOBE_BLOCKING [[clang::annotate("globe::blocking")]]
#else
#define GLOBE_BLOCKING
#endif
#define GLOBE_REQUIRES(...)
#define GLOBE_EXCLUDES(...)
#define GLOBE_GUARDED_BY(...)
#define GLOBE_PT_GUARDED_BY(...)

namespace util {

class Mutex {
 public:
  void lock();
  void unlock();
  bool try_lock();
};

class RecursiveMutex {
 public:
  void lock();
  void unlock();
};

class LockGuard {
 public:
  explicit LockGuard(Mutex& m);
  ~LockGuard();
};

class RecursiveLockGuard {
 public:
  explicit RecursiveLockGuard(RecursiveMutex& m);
  ~RecursiveLockGuard();
};

class UniqueLock {
 public:
  explicit UniqueLock(Mutex& m);
  ~UniqueLock();
};

class CondVar {
 public:
  GLOBE_BLOCKING void wait(UniqueLock& lock);
  void notify_one();
  void notify_all();
};

void sleep_for(int ms);

}  // namespace util

namespace std {
template <class It, class T>
void fill(It first, It last, const T& value);

template <class T>
class function;
template <class R, class... A>
class function<R(A...)> {
 public:
  function() = default;
  template <class F>
  function(F) {}  // NOLINT(google-explicit-constructor)
  R operator()(A... a) const;
  explicit operator bool() const;
};
}  // namespace std
