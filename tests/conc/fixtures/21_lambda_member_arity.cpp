// A lambda run under a lock calls its own class's blocking `fill`.  Another
// class has a `fill` with fewer parameters; the call still resolves to the
// blocking one, so the hold is a hazard.
// CONC-EXPECT: flag kind=block detail=test.Tier21.mu_
#include "_prelude.h"

class Rng21 {
 public:
  void fill(int n);
};

class Tier21 {
 public:
  GLOBE_BLOCKING int fill(int oid, int element);

  int fetch(int oid) {
    util::LockGuard g(mu_);
    return [&]() { return fill(oid, 1); }();
  }

 private:
  util::Mutex mu_;
};
